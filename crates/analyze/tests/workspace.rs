//! The analyzer's verdict on the real tree, as a test: the workspace with
//! `xtask/lint.allow` applied has no findings, no stale allowlist entries
//! and no parser recoveries — the same contract `cargo xtask analyze`
//! enforces, checked by every `cargo test`.

use std::path::Path;

#[test]
fn workspace_is_clean_under_the_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = match act_analyze::analyze_workspace(&root) {
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
    assert_eq!(report.parse_recoveries, 0, "the parser skipped code it could not structure");
    assert!(
        report.suppressed.iter().any(|f| f.path.ends_with("ssd/src/ftl.rs")),
        "the vetted ftl.rs invariants should be suppressed: {:#?}",
        report.suppressed
    );
}
