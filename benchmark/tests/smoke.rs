//! Every workload, traced, for about a second (through `RunConfig`, not
//! the command line): every metric present, no failed operation, a span
//! file written.

use std::path::PathBuf;
use std::sync::OnceLock;

use act_benchmark::metrics::{END_TO_END, PER_LAYER};
use act_benchmark::{build_act, repo_root, run_workload, Outcome, RunConfig, Workload};

fn tmp() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
}

/// A debug `act`, built once for every test in this file.
fn act() -> PathBuf {
    static ACT: OnceLock<PathBuf> = OnceLock::new();
    ACT.get_or_init(|| {
        build_act(&repo_root(), &tmp().join("act-target"), false).expect("building act")
    })
    .clone()
}

fn smoke(workload: Workload) {
    let config = RunConfig {
        seed: 1,
        seconds: 1.0,
        trace: true,
        trace_dir: tmp().join(format!("smoke-{}", workload.name())),
        self_exe: PathBuf::from(env!("CARGO_BIN_EXE_act-benchmark")),
        act_exe: act(),
    };
    let outcome: Outcome = run_workload(workload, &config);
    let report = outcome.lines.join("\n");
    assert_eq!(outcome.failed, 0, "{report}");
    assert!(outcome.attempted > 0, "{report}");
    for metric in END_TO_END {
        let value = outcome.end_to_end.get(metric.name);
        assert!(
            value.is_some_and(|v| v.is_finite() && v > 0.0),
            "{}: {value:?}\n{report}",
            metric.name
        );
    }
    for metric in PER_LAYER {
        let value = outcome.layers.get(metric.name);
        assert!(value.is_some_and(f64::is_finite), "{}: {value:?}\n{report}", metric.name);
    }
    for name in outcome.layers.names() {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "unlisted per-layer metric {name}");
    }
    assert!(config.trace_path(workload).is_file(), "no span file\n{report}");
}

#[test]
fn sweep_runs_clean() {
    smoke(Workload::Sweep);
}

#[test]
fn fleet_runs_clean() {
    smoke(Workload::Fleet);
}

#[test]
fn serve_runs_clean() {
    smoke(Workload::Serve);
}

#[test]
fn paper_runs_clean() {
    smoke(Workload::Paper);
}
