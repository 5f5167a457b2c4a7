//! Project-specific static analysis and service harnesses for the ACT
//! workspace.
//!
//! The analysis engine lives in the std-only, dependency-free
//! [`act_analyze`] crate: one lexer whose token stream every rule reads —
//! the token rules ACT001–ACT005, ACT008, ACT012 and ACT014 directly, the
//! structural rules ACT006, ACT007 and ACT009–ACT011 through a bracket
//! partner table, and the cross-file rules ACT015 and ACT016 over every
//! file at once (see `crates/analyze/src/lib.rs` for the table). This crate
//! re-exports the engine for `cargo xtask analyze` and adds the `soak`
//! chaos harness that drives the built `act serve` binary.
//!
//! Vetted exceptions go in `xtask/lint.allow`, one per line:
//! `RULE|path-suffix|line-substring|justification` — the justification is
//! mandatory, and every entry that no longer matches anything is reported
//! in a single run so the allowlist cannot rot.

pub use act_analyze::{
    analyze_source, analyze_workspace, apply_allowlist, collect_workspace_files,
    parse_allowlist, render_json_report, AllowEntry, AnalyzeReport, Finding, LintError,
};

pub mod service;
