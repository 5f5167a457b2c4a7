//! The analyzer's verdict on the real tree, as a test: the workspace with
//! `xtask/lint.allow` applied has no findings and no stale allowlist
//! entries — the same contract `cargo xtask analyze` enforces, checked by
//! every `cargo test`. And the converse: a violation planted in a real
//! workspace file is caught, so no rule can go on passing while guarding
//! nothing.

use std::path::{Path, PathBuf};

use act_analyze::analyze_source;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_clean_under_the_allowlist() {
    let report = match act_analyze::analyze_workspace(&root()) {
        Ok(report) => report,
        Err(err) => panic!("analyzer failed to run: {err}"),
    };
    assert!(report.files_scanned > 50, "only {} files scanned", report.files_scanned);
    let findings: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "{} finding(s):\n{}", findings.len(), findings.join("\n"));
    let stale: Vec<String> = report
        .stale
        .iter()
        .map(|entry| format!("{}|{}|{}", entry.rule, entry.path_suffix, entry.line_substring))
        .collect();
    assert!(stale.is_empty(), "stale xtask/lint.allow entries:\n{}", stale.join("\n"));
    assert!(
        report.suppressed.iter().any(|f| f.path.ends_with("ssd/src/ftl.rs")),
        "the vetted ftl.rs invariants should be suppressed: {:#?}",
        report.suppressed
    );
}

/// `(rule, file, anchor, replacement)`: the anchor is an exact excerpt of
/// the real file, and swapping in the replacement plants one violation.
const PLANTS: &[(&str, &str, &str, &str)] = &[
    (
        "ACT006",
        "crates/cli/src/main.rs",
        "act_json::obj! { \"kind\": kind, \"id\": id, \"message\": message }",
        "act_json::obj! { \"kind\": kind, \"id\": id, \"kind\": message }",
    ),
    (
        "ACT007",
        "crates/server/src/routes.rs",
        "    let result = parse_body(request).and_then(|doc| {",
        "    for _ in 0..4 {\n        let _ = COMPILED.try_eval(&[]);\n    }\n\
         \x20   let result = parse_body(request).and_then(|doc| {",
    ),
    (
        "ACT007",
        "crates/dse/src/batch.rs",
        "if budget.deadline.is_some() && budget.is_exhausted() {",
        "if false {",
    ),
    (
        "ACT008",
        "crates/core/src/embodied.rs",
        "pub fn packaged_ic_count(&self) -> u32 {\n        self.packaged_ic_count",
        "pub fn packaged_ic_count(&self) -> u32 {\n        \
         let _ = std::time::Instant::now();\n        self.packaged_ic_count",
    ),
    (
        "ACT009",
        "crates/server/src/lib.rs",
        "        let mut state = lock_queue(&self.state);\n        \
         if state.closed || state.jobs.len() >= self.capacity {",
        "        let mut state = lock_queue(&self.state);\n        \
         let _ = stream.set_read_timeout(None);\n        \
         if state.closed || state.jobs.len() >= self.capacity {",
    ),
    (
        "ACT009",
        "crates/server/src/lib.rs",
        "        drop(state);\n        self.ready.notify_one();\n        \
         if let Some((_, idle)) = evicted {\n            \
         let _ = idle.shutdown(Shutdown::Both);\n        }\n",
        "        if let Some((_, idle)) = evicted {\n            \
         let _ = idle.shutdown(Shutdown::Both);\n        }\n        \
         drop(state);\n        self.ready.notify_one();\n",
    ),
    (
        "ACT010",
        "crates/dse/src/optimize.rs",
        ".min_by(|(_, a), (_, b)| a.total_cmp(b))",
        ".min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))",
    ),
    (
        "ACT010",
        "crates/dse/src/montecarlo.rs",
        "keys.select_nth_unstable(i50);",
        "keys.select_nth_unstable_by(i50, |a, b| {\n        \
         if a < b { std::cmp::Ordering::Less } else { std::cmp::Ordering::Greater }\n    });",
    ),
    (
        "ACT014",
        "crates/scenario/src/fleet.rs",
        "impl Body for FleetBlock<'_> {",
        "#[target_feature(enable = \"avx2\")]\nfn planted() {}\n\nimpl Body for FleetBlock<'_> {",
    ),
    (
        "ACT016",
        "crates/dse/src/montecarlo.rs",
        "gather(keys, &bounds, |body: GatherBrackets| body.run::<V4>());",
        "gather(keys, &bounds, |body| body.run::<V4>());",
    ),
    (
        "ACT011",
        "crates/server/src/routes.rs",
        "    let result = parse_body(request).and_then(|doc| {",
        "    let _tail = &request.body[1..];\n    let result = parse_body(request).and_then(|doc| {",
    ),
];

#[test]
fn every_rule_catches_a_violation_planted_in_real_code() {
    let mut missed = Vec::new();
    for &(rule, rel, anchor, replacement) in PLANTS {
        let src = std::fs::read_to_string(root().join(rel))
            .unwrap_or_else(|err| panic!("{rel} unreadable: {err}"));
        assert!(src.contains(anchor), "anchor missing from {rel}: {anchor:?}");
        let planted = src.replacen(anchor, replacement, 1);
        let count =
            |text: &str| analyze_source(rel, text).iter().filter(|f| f.rule == rule).count();
        if count(&planted) <= count(&src) {
            missed.push(format!("{rule} in {rel}: {replacement:?}"));
        }
    }
    assert!(missed.is_empty(), "planted violations not caught:\n{}", missed.join("\n"));
}

/// ACT015 follows calls across files, so its plant is checked on the
/// whole tree: `uniform_columns` lives in act-rng and is reached from
/// act-scenario's `FleetBlock::run`, and demoting it to `#[inline]` (the
/// form the fleet's pass 1 once shipped in) must be reported there.
#[test]
fn act015_catches_an_outlined_helper_in_another_crate() {
    let files = match act_analyze::collect_workspace_files(&root()) {
        Ok(files) => files,
        Err(err) => panic!("workspace walk failed: {err}"),
    };
    let (rel, anchor, replacement) = (
        "crates/rng/src/lib.rs",
        "#[inline(always)]\npub fn uniform_columns<",
        "#[inline]\npub fn uniform_columns<",
    );
    let mut sources: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(root().join(path))
                .unwrap_or_else(|err| panic!("{} unreadable: {err}", path.display()));
            (path.to_string_lossy().replace('\\', "/"), src)
        })
        .collect();
    let count = |sources: &[(String, String)]| {
        let views: Vec<(&str, &str)> =
            sources.iter().map(|(path, src)| (path.as_str(), src.as_str())).collect();
        act_analyze::analyze_sources(&views)
            .into_iter()
            .filter(|f| f.rule == "ACT015" && f.path == rel)
            .count()
    };
    assert_eq!(count(&sources), 0);
    let Some((_, src)) = sources.iter_mut().find(|(path, _)| path == rel) else {
        panic!("{rel} is not among the workspace files")
    };
    assert!(src.contains(anchor), "anchor missing from {rel}: {anchor:?}");
    *src = src.replacen(anchor, replacement, 1);
    assert_eq!(count(&sources), 1, "`#[inline]` on `uniform_columns` not reported");
}
