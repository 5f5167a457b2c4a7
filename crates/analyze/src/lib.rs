//! Token-level static analysis for the ACT workspace.
//!
//! `act-analyze` is a std-only, dependency-free analyzer: one lexer
//! produces a positioned token stream per file, one bracket partner table
//! over it gives every `(`, `[` and `{` its closing partner, and every
//! rule reads those two:
//!
//! * **Token rules** ACT001–ACT005, ACT008, ACT012 and ACT014 match
//!   token sequences directly: contracts like "no `.unwrap()` in library
//!   code", "no `Instant::now` in model code", "no raw `thread::spawn`
//!   outside the worker pool" or "no `unsafe` outside the pool and the
//!   vector dispatch".
//! * **Structural rules** ACT006, ACT007 and ACT009–ACT011 find macro
//!   calls, fns, loops, closures, `let`s and struct bodies through the
//!   partner table: repeated `obj!` keys, kernel loops that never check
//!   an `EvalBudget`, lock guards held across I/O, non-total float
//!   comparators, and panic surface in the server request path.
//! * **The cross-file rules** ACT015 and ACT016 read every file at once.
//!   From each `wide::Body::run`, ACT015 follows calls by name into the
//!   workspace's fns, across crates, and requires each one reached to be
//!   `#[inline(always)]`. ACT016 requires each library body type to be
//!   named in a `#[test]` fn that runs a body with the `Baseline` and
//!   `V4` markers and through `run_wide`, in any analyzed file.
//!
//! # Rule catalogue
//!
//! | ID | Rule | Scope |
//! |----|------|-------|
//! | ACT001 | no `.base()` raw-`f64` escape | all but `act-units`/`act-data`, tests |
//! | ACT002 | no `unwrap()`/`expect()` in library code | all but CLI binary, tests |
//! | ACT003 | no paper/unit-conversion `f64` literals | all but `act-units`/`act-data`, tests |
//! | ACT004 | no infallible `from_base` | all but `act-units`/`act-data`, tests |
//! | ACT005 | no `dbg!`/`todo!`/`unimplemented!` | everywhere, tests included |
//! | ACT006 | `obj!` keys must be unique | everywhere |
//! | ACT007 | kernel loops (`eval`/`try_eval`/`eval_block`/block-kernel parameter) without an `EvalBudget` check | `act-dse`, `act-server` |
//! | ACT008 | `Instant::now`/`SystemTime::now`/`thread::sleep`/`env::var` | library crates |
//! | ACT009 | lock guard live across I/O or a callback | `act-server` |
//! | ACT010 | raw f64 comparison without `total_cmp` | `dse` `montecarlo.rs`, `optimize.rs` |
//! | ACT011 | indexing/slicing/unwrap in route handlers | `crates/server/src/routes.rs` |
//! | ACT012 | raw `thread::spawn`/`thread::scope` pool bypass | library crates; pool, server, CLI, bench exempt |
//! | ACT014 | `unsafe`, `#[target_feature]`, `is_x86_feature_detected!` | library crates; `dse` `pool.rs`, `core` `wide.rs`, CLI, bench exempt |
//! | ACT015 | a fn reached from a `wide::Body::run` body without `#[inline(always)]` | library crates; CLI, bench, tests exempt |
//! | ACT016 | an `impl … Body for T` whose `T` no cross-instance `#[test]` fn names | library crates; CLI, bench, tests exempt |
//!
//! ACT013 is reserved for the libm-call rule that lands with the portable
//! `exp`/`pow`/`sin`.
//!
//! Vetted exceptions go in `xtask/lint.allow`, one per line:
//! `RULE|path-suffix|line-substring|justification` — the justification is
//! mandatory, and entries that no longer match anything are themselves
//! reported (all of them in one run) so the allowlist cannot rot.

use std::fmt;
use std::path::{Path, PathBuf};

mod inlining;
mod lexer;
mod rules;
mod textual;

/// One rule violation at a source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-indexed line of the match.
    pub line: usize,
    /// 1-indexed byte column of the match.
    pub col: usize,
    /// Rule ID, e.g. `"ACT002"`.
    pub rule: &'static str,
    /// Human-readable explanation of the rule.
    pub message: &'static str,
    /// The full source line the match sits on (for allowlist matching).
    pub line_text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}: {}", self.path, self.line, self.col, self.rule, self.message)
    }
}

/// A parsed `RULE|path-suffix|line-substring|justification` allowlist entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule ID this entry suppresses.
    pub rule: String,
    /// Suffix the finding's path must end with.
    pub path_suffix: String,
    /// Substring the finding's source line must contain.
    pub line_substring: String,
    /// Why the exception is acceptable (mandatory).
    pub justification: String,
}

/// Errors from loading or using the harness (exit code 2 territory).
#[derive(Debug)]
pub enum LintError {
    /// An allowlist line did not have four non-empty `|`-separated fields.
    MalformedAllowEntry {
        /// 1-indexed line in the allowlist file.
        line: usize,
        /// The offending raw line.
        text: String,
    },
    /// Filesystem error while walking or reading sources.
    Io(std::io::Error),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MalformedAllowEntry { line, text } => write!(
                f,
                "lint.allow:{line}: malformed entry `{text}` \
                 (expected RULE|path-suffix|line-substring|justification)"
            ),
            Self::Io(err) => write!(f, "I/O error: {err}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<std::io::Error> for LintError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

// ---------------------------------------------------------------------------
// Analysis entry points.
// ---------------------------------------------------------------------------

/// Analyzes one file with every applicable rule. `path` is the
/// repo-relative path used for both scoping and reporting; `src` is the
/// file contents. Tokenizes once, builds the bracket partner table once,
/// and runs both tiers over them. Findings come back in
/// `(line, col, rule)` order.
#[must_use]
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    analyze_sources(&[(path, src)])
}

/// Analyzes a set of files as one workspace: every per-file rule on each
/// `(path, src)`, plus the cross-file ACT015, which follows calls from
/// one file into the others, and ACT016, which finds a body's test case
/// in any of them. Findings come back in
/// `(path, line, col, rule)` order.
#[must_use]
pub fn analyze_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    let toks: Vec<Vec<lexer::Tok>> =
        files.iter().map(|(_, src)| lexer::tokenize(src)).collect();
    let scans: Vec<textual::Scan<'_>> = files
        .iter()
        .zip(&toks)
        .map(|((path, src), toks)| textual::Scan::new(path, src, toks))
        .collect();
    let mut findings = Vec::new();
    for scan in &scans {
        findings.extend(textual::check(scan));
        findings.extend(rules::check(scan));
    }
    findings.extend(inlining::check(&scans));
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    findings
}

// ---------------------------------------------------------------------------
// Allowlist.
// ---------------------------------------------------------------------------

/// Parses allowlist text (`#` comments and blank lines skipped).
///
/// # Errors
///
/// Returns [`LintError::MalformedAllowEntry`] for a line without four
/// non-empty `|`-separated fields — the justification is not optional.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, LintError> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.splitn(4, '|').map(str::trim).collect();
        if fields.len() != 4 || fields.iter().any(|f| f.is_empty()) {
            return Err(LintError::MalformedAllowEntry { line: idx + 1, text: raw.to_owned() });
        }
        entries.push(AllowEntry {
            rule: fields[0].to_owned(),
            path_suffix: fields[1].to_owned(),
            line_substring: fields[2].to_owned(),
            justification: fields[3].to_owned(),
        });
    }
    Ok(entries)
}

/// Splits findings into (kept, suppressed) and reports stale entries that
/// matched nothing — a stale allowlist is itself a lint failure.
///
/// Every entry matching a finding is credited, not just the first, so a
/// run reports *all* stale entries at once: two entries that happen to
/// match the same finding no longer shadow each other, and an allowlist
/// with several dead entries is fixed in one pass instead of one per run.
#[must_use]
pub fn apply_allowlist(
    findings: Vec<Finding>,
    entries: &[AllowEntry],
) -> (Vec<Finding>, Vec<Finding>, Vec<AllowEntry>) {
    let mut used = vec![false; entries.len()];
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for finding in findings {
        let mut matched = false;
        for (idx, entry) in entries.iter().enumerate() {
            if entry.rule == finding.rule
                && finding.path.ends_with(&entry.path_suffix)
                && finding.line_text.contains(&entry.line_substring)
            {
                used[idx] = true;
                matched = true;
            }
        }
        if matched {
            suppressed.push(finding);
        } else {
            kept.push(finding);
        }
    }
    let stale =
        entries.iter().zip(&used).filter(|(_, u)| !**u).map(|(e, _)| e.clone()).collect();
    (kept, suppressed, stale)
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

/// Collects every workspace source file to analyze, repo-relative and
/// sorted: `crates/*/src/**/*.rs` plus `crates/*/benches/**/*.rs`.
///
/// # Errors
///
/// Returns [`LintError::Io`] on filesystem errors.
pub fn collect_workspace_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let krate = entry?.path();
        for sub in ["src", "benches"] {
            let dir = krate.join(sub);
            if dir.is_dir() {
                walk_rs(&dir, &mut files)?;
            }
        }
    }
    for file in &mut files {
        if let Ok(rel) = file.strip_prefix(root) {
            *file = rel.to_path_buf();
        }
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Outcome of a full workspace analysis run.
pub struct AnalyzeReport {
    /// Violations after allowlisting, in path/line order.
    pub findings: Vec<Finding>,
    /// Findings suppressed by the allowlist.
    pub suppressed: Vec<Finding>,
    /// Allowlist entries that matched nothing.
    pub stale: Vec<AllowEntry>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Analyzes the whole workspace under `root`, applying
/// `root/xtask/lint.allow` if present.
///
/// # Errors
///
/// Returns [`LintError`] on I/O failures or a malformed allowlist.
pub fn analyze_workspace(root: &Path) -> Result<AnalyzeReport, LintError> {
    let allow_path = root.join("xtask").join("lint.allow");
    let entries = if allow_path.is_file() {
        parse_allowlist(&std::fs::read_to_string(&allow_path)?)?
    } else {
        Vec::new()
    };
    let files = collect_workspace_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        sources.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    let views: Vec<(&str, &str)> =
        sources.iter().map(|(path, src)| (path.as_str(), src.as_str())).collect();
    let findings = analyze_sources(&views);
    let files_scanned = files.len();
    let (kept, suppressed, stale) = apply_allowlist(findings, &entries);
    Ok(AnalyzeReport { findings: kept, suppressed, stale, files_scanned })
}

// ---------------------------------------------------------------------------
// Machine-readable report.
// ---------------------------------------------------------------------------

/// Renders an [`AnalyzeReport`] as a JSON document (schema
/// `act-analyze-findings/2`). Hand-rolled: `act-analyze` is consumed by
/// the dependency-free `xtask` workspace and cannot pull in `act-json`.
#[must_use]
pub fn render_json_report(report: &AnalyzeReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"schema\": \"act-analyze-findings/2\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"suppressed\": {},\n", report.suppressed.len()));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"path\": {}, ", json_string(&f.path)));
        out.push_str(&format!("\"line\": {}, \"col\": {}, ", f.line, f.col));
        out.push_str(&format!("\"rule\": {}, ", json_string(f.rule)));
        out.push_str(&format!("\"message\": {}", json_string(f.message)));
        out.push('}');
    }
    if report.findings.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"stale_allow_entries\": [");
    for (i, e) in report.stale.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", json_string(&e.rule)));
        out.push_str(&format!("\"path_suffix\": {}, ", json_string(&e.path_suffix)));
        out.push_str(&format!("\"line_substring\": {}", json_string(&e.line_substring)));
        out.push('}');
    }
    if report.stale.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Minimal JSON string escaping (quote, backslash, control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_source_merges_textual_and_ast_tiers() {
        let src = "pub fn e() -> JsonValue { act_json::obj! { \"a\": 1, \"a\": 2 } }\n\
                   pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let findings = analyze_source("crates/x/src/lib.rs", src);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["ACT006", "ACT002"], "{findings:#?}");
    }

    #[test]
    fn json_report_is_well_formed_and_escaped() {
        let report = AnalyzeReport {
            findings: vec![Finding {
                path: "crates/x/src/a\"b.rs".to_owned(),
                line: 3,
                col: 7,
                rule: "ACT002",
                message: "msg",
                line_text: String::new(),
            }],
            suppressed: Vec::new(),
            stale: Vec::new(),
            files_scanned: 1,
        };
        let json = render_json_report(&report);
        assert!(json.contains("\"schema\": \"act-analyze-findings/2\""), "{json}");
        assert!(json.contains("a\\\"b.rs"), "{json}");
        assert!(json.contains("\"line\": 3, \"col\": 7"), "{json}");
    }

    #[test]
    fn every_rule_is_total_on_hostile_input() {
        // Unbalanced, truncated and garbage inputs must never panic or
        // loop: the analyzer runs before the tree compiles.
        let paths = [
            "crates/server/src/routes.rs",
            "crates/dse/src/montecarlo.rs",
            "crates/core/src/x.rs",
        ];
        for src in [
            "",
            "fn",
            "fn f(",
            "fn f<T",
            "fn f() { let x = ",
            "fn f() { let x = |",
            "fn f() { for x in",
            "fn f(m: Mutex<u8>) { let g = m.lock(); drop(",
            "struct S { a: ",
            "enum E {",
            "impl X for",
            "match x {",
            "obj! {",
            "act_json::obj! { \"a\": 1, \"a\"",
            "act_json::json_struct! { [ToJson] struct S {",
            "v.sort_by(|a",
            "x[",
            ")))(((",
            "}}]] let [ | || move |",
            "#[cfg(test)]",
            "#[cfg(test)] mod t {",
        ] {
            for path in paths {
                let _ = analyze_source(path, src);
            }
        }
    }

    #[test]
    fn all_matching_allow_entries_are_credited() {
        let finding = Finding {
            path: "crates/x/src/a.rs".to_owned(),
            line: 1,
            col: 1,
            rule: "ACT002",
            message: "m",
            line_text: "let v = x.unwrap();".to_owned(),
        };
        let entries = parse_allowlist(
            "ACT002|src/a.rs|unwrap|first\n\
             ACT002|a.rs|x.unwrap|second entry matching the same finding\n",
        )
        .unwrap();
        let (kept, suppressed, stale) = apply_allowlist(vec![finding], &entries);
        assert!(kept.is_empty());
        assert_eq!(suppressed.len(), 1);
        assert!(stale.is_empty(), "both entries matched; neither is stale: {stale:#?}");
    }
}
