//! Project-specific static analysis and service harnesses for the ACT
//! workspace.
//!
//! The analysis engine lives in the std-only, dependency-free
//! [`act_analyze`] crate: a Rust-subset recursive-descent parser plus the
//! rule catalogue ACT001–ACT012 (textual token rules and AST/dataflow
//! rules — see `crates/analyze/src/lib.rs` for the table). This crate
//! re-exports the engine under the names the original `cargo xtask lint`
//! harness established, and adds the `soak` chaos harness that drives the
//! built `act serve` binary.
//!
//! Vetted exceptions go in `xtask/lint.allow`, one per line:
//! `RULE|path-suffix|line-substring|justification` — the justification is
//! mandatory, and every entry that no longer matches anything is reported
//! in a single run so the allowlist cannot rot.

pub use act_analyze::{
    analyze_source, analyze_workspace, apply_allowlist, collect_workspace_files,
    parse_allowlist, render_json_report, AllowEntry, AnalyzeReport, Finding, LintError,
};

// The PR 2 names, kept so existing tooling and tests keep working: `lint_*`
// now runs the full ACT001–ACT012 catalogue, not just the textual tier.
pub use act_analyze::analyze_source as lint_source;
pub use act_analyze::analyze_workspace as lint_workspace;
pub use act_analyze::lexer::scrub;
pub use act_analyze::test_regions;
pub use act_analyze::AnalyzeReport as LintReport;

pub mod service;
