//! End-to-end tests of the `act` binary: the parallel engine must be
//! output-identical to `--serial` and honour `ACT_THREADS`, and `act fleet`
//! must give the same summary on any thread count.

use std::process::{Command, Output};

fn act(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_act")).args(args).output().expect("spawn act")
}

fn act_with_env(args: &[&str], key: &str, value: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_act"))
        .args(args)
        .env(key, value)
        .output()
        .expect("spawn act")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

#[test]
fn parallel_and_serial_runs_are_byte_identical() {
    // A multi-id request renders as one job list; fig12/fig13 are cheap
    // enough to keep the test fast.
    let parallel = act(&["fig12", "fig13", "table4"]);
    let serial = act(&["--serial", "fig12", "fig13", "table4"]);
    assert!(parallel.status.success());
    assert!(serial.status.success());
    assert_eq!(parallel.stdout, serial.stdout);
}

#[test]
fn parallel_and_serial_json_runs_are_byte_identical() {
    // Alone or among several requested experiments, `fig15`'s FTL rows
    // are jobs of the one job list, spread over the pool beside the
    // other experiments' jobs.
    for ids in [&["fig12", "table4", "fig15"][..], &["fig15"], &["fig15", "all", "fig15"]] {
        let parallel = act(&[&["--json"][..], ids].concat());
        let serial = act(&[&["--json", "--serial"][..], ids].concat());
        assert!(parallel.status.success());
        assert!(serial.status.success());
        assert_eq!(parallel.stdout, serial.stdout, "{ids:?}");
        // And the payload is still valid JSON per line.
        for line in stdout(&parallel).lines() {
            let _ = act_json::JsonValue::parse(line).expect("json line");
        }
    }
}

#[test]
fn act_threads_env_override_is_honoured() {
    let one = act_with_env(&["fig12", "fig13"], "ACT_THREADS", "1");
    let two = act_with_env(&["fig12", "fig13"], "ACT_THREADS", "2");
    assert!(one.status.success());
    assert!(two.status.success());
    assert_eq!(one.stdout, two.stdout);
}

#[test]
fn help_documents_the_parallel_controls() {
    let out = act(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("--serial"), "help must document --serial:\n{text}");
    assert!(text.contains("ACT_THREADS"), "help must document ACT_THREADS:\n{text}");
    assert!(text.contains("act fleet"), "help must document fleet:\n{text}");
}

#[test]
fn list_keeps_stdout_bare_and_notes_parallelism_on_stderr() {
    let out = act(&["list"]);
    assert!(out.status.success());
    let ids = stdout(&out);
    assert!(ids.lines().any(|l| l == "fig12"));
    assert!(ids.lines().all(|l| !l.contains(' ')), "stdout must stay machine-readable:\n{ids}");
    assert!(stderr(&out).contains("parallel"), "list should mention the parallel engine");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = act(&["--frobnicate", "fig12"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"));
}

#[test]
fn failures_are_isolated_and_exit_nonzero() {
    let out = act(&["fig12", "no-such-figure", "table4"]);
    assert_eq!(out.status.code(), Some(1));
    // Both healthy experiments still rendered, in request order.
    let text = stdout(&out);
    let fig12_at = text.find("Figure 12").expect("fig12 rendered");
    let table4_at = text.find("Table 4").expect("table4 rendered");
    assert!(fig12_at < table4_at);
    assert!(stderr(&out).contains("no-such-figure"));
}

/// A server-class scenario with a 20k-sample fleet block.
const FLEET_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/fleet_server.json");

#[test]
fn fleet_summary_is_identical_on_any_thread_count() {
    let runs = [
        ("1 worker", act_with_env(&["fleet", FLEET_FIXTURE], "ACT_THREADS", "1"), 1),
        ("2 workers", act_with_env(&["fleet", FLEET_FIXTURE], "ACT_THREADS", "2"), 2),
        ("--serial", act(&["fleet", "--serial", FLEET_FIXTURE]), 1),
    ];
    let mut records = Vec::new();
    for (label, out, threads) in runs {
        assert!(out.status.success(), "{label}: stderr: {}", stderr(&out));
        let record = act_json::JsonValue::parse(stdout(&out).trim()).expect("json");
        assert_eq!(record["threads"], threads, "{label}: {record}");
        assert!(record["stats"]["mean"].as_f64().is_some(), "{label}: {record}");
        records.push(record);
    }
    for record in &records[1..] {
        for key in ["stats", "rejected", "fleet_total_g"] {
            // Rendered text compares floats by their shortest round-trip
            // digits, so this is a bitwise check.
            assert_eq!(
                record[key].to_string(),
                records[0][key].to_string(),
                "{key} differs across thread counts"
            );
        }
    }
}

#[test]
fn fleet_exit_codes_separate_usage_from_bad_input() {
    assert_eq!(act(&["fleet"]).status.code(), Some(2), "no path is a usage error");
    let missing = act(&["fleet", "no/such/scenario.json"]);
    assert_eq!(missing.status.code(), Some(1), "a missing file fails the run");
    let no_fleet = concat!(env!("CARGO_MANIFEST_DIR"), "/../data/scenarios/iphone_11.json");
    let out = act(&["fleet", no_fleet]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("no `fleet` block"), "stderr: {}", stderr(&out));
}
