//! The token-level rules ACT001–ACT005 and ACT012.
//!
//! These rules need no structure — a banned literal, a `.unwrap()` call
//! or a `thread::spawn(` path is a short run of tokens — so they match
//! token sequences from [`crate::lexer::tokenize`] directly. Comments
//! never become tokens and string/char literals are single tokens, so
//! neither can fire a rule. `#[cfg(test)]` items are found by matching
//! braces over the same tokens.

use std::ops::Range;

use crate::lexer::{Tok, TokKind};
use crate::Finding;

/// Crates that own the raw-`f64` boundary and the paper constants.
fn is_unit_home(path: &str) -> bool {
    path.starts_with("crates/units/") || path.starts_with("crates/data/")
}

/// The CLI binary is allowed to panic at top level (ACT002 exemption).
fn is_cli_binary(path: &str) -> bool {
    path.starts_with("crates/cli/src/")
}

/// ACT012 targets library crates: raw `thread::spawn`/`thread::scope`
/// there bypasses the calibrated `act_dse::parallel` worker pool, so the
/// spawn cost, `ACT_THREADS` cap and break-even fallback stop applying.
/// Exempt: the pool engine itself (`crates/dse/src/pool.rs`,
/// `crates/dse/src/parallel.rs`), the server shell (its accept loop and
/// I/O workers are connection plumbing, not sweep compute), the CLI
/// binary, and bench harnesses.
fn act012_exempt(path: &str) -> bool {
    !path.starts_with("crates/")
        || !path.contains("/src/")
        || path == "crates/dse/src/pool.rs"
        || path == "crates/dse/src/parallel.rs"
        || path.starts_with("crates/server/")
        || path.starts_with("crates/cli/")
        || path.starts_with("crates/bench/")
}

/// Unit-conversion / paper constants that must come from the named
/// constants in `act-units` / `act-data` instead of being retyped.
const BANNED_LITERALS: [&str; 7] =
    ["3600.0", "86400.0", "31536000.0", "3.6e6", "3.6e+6", "8760.0", "1024.0"];

const MSG_ACT001: &str = "`.base()` escapes the typed-unit layer; \
     use a named `as_*` accessor or keep the arithmetic in `Quantity` space";
const MSG_ACT002: &str = "`unwrap()`/`expect()` in library code; \
     return an error (`UnitError` taxonomy) or use a checked fallback";
const MSG_ACT003: &str = "unit-conversion constant retyped as a literal; \
     use the named constant from `act-units`/`act-data`";
const MSG_ACT004: &str = "infallible `from_base` outside the unit-definition crates; \
     use `try_from_base` at model boundaries";
const MSG_ACT005: &str = "debug/stub macro left in source";
const MSG_ACT012: &str = "direct `thread::spawn`/`thread::scope` in a library crate \
     bypasses the calibrated worker pool; route parallel work through \
     `act_dse::parallel` so break-even calibration and `ACT_THREADS` apply";

/// `true` if the tokens from `at` on spell out `seq`. Comparing text is
/// enough: literal and lifetime tokens carry their quotes or digits, so
/// they never spell a keyword, an identifier or a punctuation mark.
fn seq_at(toks: &[Tok], at: usize, seq: &[&str]) -> bool {
    toks.get(at..at + seq.len())
        .is_some_and(|run| run.iter().zip(seq).all(|(t, s)| t.text == *s))
}

/// Token-index ranges of `#[cfg(test)]` items: from the attribute's `#`
/// to the brace closing the gated item (or to the `;` ending a
/// brace-less item like `use`).
fn test_regions(toks: &[Tok]) -> Vec<Range<usize>> {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !seq_at(toks, i, &CFG_TEST) {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut end = toks.len();
        for (j, t) in toks.iter().enumerate().skip(i + CFG_TEST.len()) {
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end = j + 1;
                    break;
                }
            } else if t.is_punct(";") && depth == 0 {
                end = j + 1;
                break;
            }
        }
        regions.push(i..end);
        i = end;
    }
    regions
}

/// The rule whose token sequence starts at `toks[i]`: the index of the
/// token the finding points at, the rule ID and its message. Free
/// function, macro and path calls must not follow a `.`, so a method of
/// the same name never matches.
fn rule_at(toks: &[Tok], i: usize) -> Option<(usize, &'static str, &'static str)> {
    let tok = &toks[i];
    let next = |seq: &[&str]| seq_at(toks, i + 1, seq);
    match tok.kind {
        TokKind::Punct if tok.text == "." => {
            if next(&["base", "(", ")"]) {
                Some((i + 1, "ACT001", MSG_ACT001))
            } else if next(&["unwrap", "(", ")"]) || next(&["expect", "("]) {
                Some((i + 1, "ACT002", MSG_ACT002))
            } else {
                None
            }
        }
        TokKind::Float if BANNED_LITERALS.contains(&tok.text.as_str()) => {
            Some((i, "ACT003", MSG_ACT003))
        }
        TokKind::Ident if i == 0 || !toks[i - 1].is_punct(".") => match tok.text.as_str() {
            "from_base" if next(&["("]) => Some((i, "ACT004", MSG_ACT004)),
            "dbg" | "todo" | "unimplemented" if next(&["!", "("]) => {
                Some((i, "ACT005", MSG_ACT005))
            }
            "thread" if next(&["::", "spawn", "("]) || next(&["::", "scope", "("]) => {
                Some((i, "ACT012", MSG_ACT012))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Runs ACT001–ACT005 and ACT012 over one file's tokens. `path` is the
/// repo-relative path used for both crate classification and reporting;
/// `src` is the file contents the tokens came from.
#[must_use]
pub fn check(path: &str, src: &str, toks: &[Tok]) -> Vec<Finding> {
    let regions = test_regions(toks);
    let lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        let Some((at, rule, message)) = rule_at(toks, i) else { continue };
        let in_test = regions.iter().any(|r| r.contains(&i));
        let applies = match rule {
            "ACT001" | "ACT003" | "ACT004" => !is_unit_home(path) && !in_test,
            "ACT002" => !is_cli_binary(path) && !in_test,
            "ACT005" => true,
            _ => !act012_exempt(path) && !in_test,
        };
        if applies {
            let (line, col) = (toks[at].line as usize, toks[at].col as usize);
            findings.push(Finding {
                path: path.to_owned(),
                line,
                col,
                rule,
                message,
                line_text: lines.get(line - 1).copied().unwrap_or_default().to_owned(),
            });
        }
    }
    findings
}
