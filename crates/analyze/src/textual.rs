//! The token-level rules ACT001–ACT005, ACT008, ACT012 and ACT014, and
//! the [`Scan`] every rule reads.
//!
//! These rules need no structure — a banned literal, a `.unwrap()` call
//! or a `thread::spawn(` path is a short run of tokens — so they match
//! token sequences from [`crate::lexer::tokenize`] directly. Comments
//! never become tokens and string/char literals are single tokens, so
//! neither can fire a rule. `#[cfg(test)]` items are found with the
//! bracket partner table that the structural rules share.

use std::ops::Range;

use crate::lexer::{Tok, TokKind};
use crate::Finding;

/// One file as the rules see it: its tokens, the bracket partner table
/// and the `#[cfg(test)]` regions, each built once.
pub(crate) struct Scan<'a> {
    /// Repo-relative path, for rule scoping and reporting.
    pub path: &'a str,
    pub toks: &'a [Tok],
    /// For every `(`/`[`/`{` the index of its closing partner (the last
    /// token when it has none), for a matched closer its opener; every
    /// other token maps to itself.
    pub partner: Vec<usize>,
    /// Token-index ranges of `#[cfg(test)]` items.
    tests: Vec<Range<usize>>,
    lines: Vec<&'a str>,
}

impl<'a> Scan<'a> {
    pub fn new(path: &'a str, src: &'a str, toks: &'a [Tok]) -> Self {
        let mut partner: Vec<usize> = (0..toks.len()).collect();
        let mut open: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            let opener = match t.text.as_str() {
                _ if t.kind != TokKind::Punct => continue,
                "(" | "[" | "{" => {
                    open.push(i);
                    partner[i] = toks.len() - 1;
                    continue;
                }
                ")" => "(",
                "]" => "[",
                "}" => "{",
                _ => continue,
            };
            if let Some(o) = open.pop_if(|o| toks[*o].text == opener) {
                partner[o] = i;
                partner[i] = o;
            }
        }
        let mut scan =
            Scan { path, toks, partner, tests: Vec::new(), lines: src.lines().collect() };
        scan.tests = test_regions(&scan);
        scan
    }

    /// `true` if token `i` exists and spells `text` (see [`seq_at`]).
    pub fn is(&self, i: usize, text: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.text == text)
    }

    /// The index after token `i` on `i`'s bracket level: past the whole
    /// group when `i` opens one.
    pub fn skip(&self, i: usize) -> usize {
        let t = &self.toks[i];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), "(" | "[" | "{") {
            self.partner[i] + 1
        } else {
            i + 1
        }
    }

    /// The first index from `i` on `i`'s bracket level that spells one of
    /// `stops`, or `toks.len()`.
    pub fn find(&self, mut i: usize, stops: &[&str]) -> usize {
        while i < self.toks.len() && !stops.contains(&self.toks[i].text.as_str()) {
            i = self.skip(i);
        }
        i
    }

    pub fn in_test(&self, i: usize) -> bool {
        self.tests.iter().any(|r| r.contains(&i))
    }

    /// A finding pointing at token `i`.
    pub fn finding(&self, i: usize, rule: &'static str, message: &'static str) -> Finding {
        let (line, col) = (self.toks[i].line as usize, self.toks[i].col as usize);
        Finding {
            path: self.path.to_owned(),
            line,
            col,
            rule,
            message,
            line_text: self.lines.get(line - 1).copied().unwrap_or_default().to_owned(),
        }
    }
}

/// Crates that own the raw-`f64` boundary and the paper constants.
fn is_unit_home(path: &str) -> bool {
    path.starts_with("crates/units/") || path.starts_with("crates/data/")
}

/// The CLI binary is allowed to panic at top level (ACT002 exemption).
fn is_cli_binary(path: &str) -> bool {
    path.starts_with("crates/cli/src/")
}

/// Modules allowed to touch wall-clock, sleeps and the environment
/// (ACT008): the service shell, the CLI binary, benchmarking code, and
/// the `act-dse` modules whose deadline/thread-count/break-even behavior
/// is the documented contract (the pool times its own dispatch overhead
/// for the one-shot calibration).
fn act008_allowed(path: &str) -> bool {
    path.starts_with("crates/server/")
        || path.starts_with("crates/cli/")
        || path.starts_with("crates/bench/")
        || path.contains("/benches/")
        || path == "crates/dse/src/batch.rs"
        || path == "crates/dse/src/parallel.rs"
        || path == "crates/dse/src/pool.rs"
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

/// ACT014 keeps `unsafe` and CPU-feature dispatch in the two library
/// modules that own them: the worker pool's lifetime-erased task pointer
/// (`crates/dse/src/pool.rs`) and act-core's runtime vector dispatch
/// (`crates/core/src/wide.rs`), which holds the workspace's one
/// `#[target_feature]` instance. Exempt beyond those: the CLI binary (its
/// signal handlers) and bench harnesses.
fn act014_exempt(path: &str) -> bool {
    !path.starts_with("crates/")
        || !path.contains("/src/")
        || path == "crates/dse/src/pool.rs"
        || path == "crates/core/src/wide.rs"
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
const MSG_ACT008: &str = "nondeterministic API in a library crate; \
     wall-clock, sleeps and env reads belong in the server/CLI/bench shells";
const MSG_ACT014: &str = "`unsafe`, `#[target_feature]` or `is_x86_feature_detected!` \
     in a library crate; `unsafe` belongs in `act_dse::pool` and vector-width \
     dispatch in `act_core::wide` (implement `wide::Body` and call `run_wide`)";
const MSG_ACT012: &str = "direct `thread::spawn`/`thread::scope` in a library crate \
     bypasses the calibrated worker pool; route parallel work through \
     `act_dse::parallel` so break-even calibration and `ACT_THREADS` apply";

/// `true` if the tokens from `at` on spell out `seq`. Comparing text is
/// enough: literal and lifetime tokens carry their quotes or digits, so
/// they never spell a keyword, an identifier or a punctuation mark.
pub(crate) fn seq_at(toks: &[Tok], at: usize, seq: &[&str]) -> bool {
    toks.get(at..at + seq.len())
        .is_some_and(|run| run.iter().zip(seq).all(|(t, s)| t.text == *s))
}

/// Token-index ranges of `#[cfg(test)]` items: from the attribute's `#`
/// to the brace closing the gated item (or to the `;` ending a
/// brace-less item like `use`).
fn test_regions(scan: &Scan<'_>) -> Vec<Range<usize>> {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut regions = Vec::new();
    let mut i = 0;
    while i < scan.toks.len() {
        if !seq_at(scan.toks, i, &CFG_TEST) {
            i += 1;
            continue;
        }
        let end = scan.find(i + CFG_TEST.len(), &["{", ";"]);
        let end = if scan.is(end, "{") { scan.partner[end] + 1 } else { end + 1 };
        regions.push(i..end);
        i = end;
    }
    regions
}

/// Index of the first segment of the path ending at `toks[i]`: `std` for
/// the `Instant` of `std::time::Instant`.
fn path_start(toks: &[Tok], mut i: usize) -> usize {
    while i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].kind == TokKind::Ident {
        i -= 2;
    }
    i
}

/// The rule whose token sequence starts at `toks[i]`: the index of the
/// token the finding points at, the rule ID and its message. Free
/// function, macro and path calls must not follow a `.`, so a method of
/// the same name never matches. ACT008 needs no call: the path alone
/// counts, as in `unwrap_or_else(Instant::now)`.
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
        TokKind::Punct if tok.text == "#" && next(&["[", "target_feature", "("]) => {
            Some((i + 2, "ACT014", MSG_ACT014))
        }
        TokKind::Float if BANNED_LITERALS.contains(&tok.text.as_str()) => {
            Some((i, "ACT003", MSG_ACT003))
        }
        TokKind::Ident if i == 0 || !toks[i - 1].is_punct(".") => match tok.text.as_str() {
            "from_base" if next(&["("]) => Some((i, "ACT004", MSG_ACT004)),
            "dbg" | "todo" | "unimplemented" if next(&["!", "("]) => {
                Some((i, "ACT005", MSG_ACT005))
            }
            "Instant" | "SystemTime" if next(&["::", "now"]) => {
                Some((path_start(toks, i), "ACT008", MSG_ACT008))
            }
            "thread" if next(&["::", "sleep"]) => {
                Some((path_start(toks, i), "ACT008", MSG_ACT008))
            }
            "env" if next(&["::", "var"]) || next(&["::", "var_os"]) => {
                Some((path_start(toks, i), "ACT008", MSG_ACT008))
            }
            "thread" if next(&["::", "spawn", "("]) || next(&["::", "scope", "("]) => {
                Some((i, "ACT012", MSG_ACT012))
            }
            "unsafe" => Some((i, "ACT014", MSG_ACT014)),
            "is_x86_feature_detected" if next(&["!"]) => Some((i, "ACT014", MSG_ACT014)),
            _ => None,
        },
        _ => None,
    }
}

/// Runs ACT001–ACT005, ACT008, ACT012 and ACT014 over one file's tokens.
pub(crate) fn check(scan: &Scan<'_>) -> Vec<Finding> {
    let path = scan.path;
    let mut findings = Vec::new();
    for i in 0..scan.toks.len() {
        let Some((at, rule, message)) = rule_at(scan.toks, i) else { continue };
        let in_test = scan.in_test(i);
        let applies = match rule {
            "ACT001" | "ACT003" | "ACT004" => !is_unit_home(path) && !in_test,
            "ACT002" => !is_cli_binary(path) && !in_test,
            "ACT005" => true,
            "ACT008" => !act008_allowed(path) && !in_test,
            "ACT014" => !act014_exempt(path) && !in_test,
            _ => !act012_exempt(path) && !in_test,
        };
        if applies {
            findings.push(scan.finding(at, rule, message));
        }
    }
    findings
}
