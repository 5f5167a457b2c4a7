//! The benchmark's build settings and `BENCHMARK.json` agree with the
//! code: the release profile matches the workspace root's, and every
//! metric, unit, direction and workload listed in `BENCHMARK.json` is the
//! one the code reports.

use std::collections::BTreeMap;
use std::path::PathBuf;

use act_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use act_benchmark::{repo_root, Workload};
use act_json::JsonValue;

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()))
}

/// `key = value` lines of one `[table]` of a Cargo manifest, comments
/// dropped.
fn table(manifest: &str, name: &str) -> BTreeMap<String, String> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .skip_while(|line| line.trim() != header)
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .filter_map(|line| {
            let line = line.split('#').next().unwrap_or_default();
            let (key, value) = line.split_once('=')?;
            Some((key.trim().to_owned(), value.trim().to_owned()))
        })
        .collect()
}

#[test]
fn release_profile_matches_the_workspace_root() {
    let root = table(&read(repo_root().join("Cargo.toml")), "profile.release");
    let ours = table(&read(repo_root().join("benchmark/Cargo.toml")), "profile.release");
    assert!(!root.is_empty(), "the root manifest has no [profile.release]");
    assert_eq!(ours, root);
}

fn bench_json() -> JsonValue {
    JsonValue::parse(&read(repo_root().join("BENCHMARK.json"))).expect("BENCHMARK.json parses")
}

fn assert_metrics(doc: &JsonValue, key: &str, defs: &[MetricDef], with_bound: bool) {
    let listed = doc.get(key).and_then(JsonValue::as_array).expect(key);
    assert_eq!(listed.len(), defs.len(), "{key}: count");
    for (entry, def) in listed.iter().zip(defs) {
        let text = |field: &str| entry.get(field).and_then(JsonValue::as_str);
        assert_eq!(text("name"), Some(def.name), "{key}: order or name");
        assert_eq!(text("unit"), Some(def.unit), "{}: unit", def.name);
        assert_eq!(text("better"), Some(def.better.as_str()), "{}: better", def.name);
        let keys: Vec<&str> = entry.as_object().expect("metric object").keys().collect();
        let want: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys, want, "{}: keys", def.name);
    }
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let doc = bench_json();
    let keys: Vec<&str> = doc.as_object().expect("top-level object").keys().collect();
    assert_eq!(
        keys,
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    assert_metrics(&doc, "end_to_end", &END_TO_END, true);
    assert_metrics(&doc, "per_layer", &PER_LAYER, false);
    let bounds: Vec<(&str, f64)> = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(JsonValue::as_str).expect("name"),
                m.get("bound").and_then(JsonValue::as_f64).expect("bound"),
            )
        })
        .collect();
    let largest = bounds.iter().map(|(_, b)| *b).fold(0.0, f64::max);
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
    }
    assert_eq!(bounds.iter().find(|(n, _)| *n == "setup_s").map(|(_, b)| *b), Some(largest));

    let paths = doc.get("paths").and_then(JsonValue::as_array).expect("paths");
    assert_eq!(paths.iter().map(|p| p.as_str()).collect::<Vec<_>>(), [Some("benchmark")]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(JsonValue::as_array)
        .expect("command")
        .iter()
        .map(|p| p.as_str().expect("command word"))
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"), "{command:?}");
}
