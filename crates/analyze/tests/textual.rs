//! The token rules ACT001–ACT005 and ACT012 pinned to exact positions:
//! a fixture with one violation per rule (rule, line and column
//! asserted), a decoy fixture that must stay clean, the path exemptions,
//! and the `#[cfg(test)]` region boundaries.

use std::path::Path;

use act_analyze::{analyze_source, Finding};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn ids(findings: &[Finding]) -> Vec<(&'static str, usize)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn violations_fixture_flags_every_rule_with_position() {
    let findings =
        analyze_source("crates/fixture/src/violations.rs", &fixture("violations.rs"));
    let positions: Vec<(&str, usize, usize)> =
        findings.iter().map(|f| (f.rule, f.line, f.col)).collect();
    assert_eq!(
        positions,
        vec![
            ("ACT001", 5, 7),
            ("ACT002", 9, 7),
            ("ACT002", 13, 7),
            ("ACT003", 17, 13),
            ("ACT004", 21, 24),
            ("ACT005", 25, 5),
            ("ACT012", 29, 10),
        ],
        "got: {findings:#?}"
    );
    // file:line:col rendering, pointing at the offending token.
    let first = findings[0].to_string();
    assert!(first.starts_with("crates/fixture/src/violations.rs:5:7: ACT001"), "{first}");
}

#[test]
fn clean_fixture_has_no_findings() {
    let findings = analyze_source("crates/fixture/src/clean.rs", &fixture("clean.rs"));
    assert!(findings.is_empty(), "decoys should not trigger rules: {findings:#?}");
}

#[test]
fn unit_home_crates_may_touch_the_raw_boundary() {
    let src = "pub fn f(q: Energy) -> f64 { q.base() + Energy::from_base(3600.0).base() }\n";
    assert!(analyze_source("crates/units/src/x.rs", src).is_empty());
    assert!(analyze_source("crates/data/src/x.rs", src).is_empty());
    let outside = analyze_source("crates/core/src/x.rs", src);
    // Sorted by column: q.base(), from_base(, 3600.0, .base() again.
    let rules: Vec<&str> = outside.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["ACT001", "ACT004", "ACT003", "ACT001"], "{outside:#?}");
}

#[test]
fn cli_binary_is_exempt_from_act002_only() {
    let src = "fn main() { run().unwrap(); dbg!(1); }\n";
    let findings = analyze_source("crates/cli/src/main.rs", src);
    assert_eq!(ids(&findings), vec![("ACT005", 1)], "{findings:#?}");
}

#[test]
fn act005_applies_even_inside_tests() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f() { todo!() }\n}\n";
    let findings = analyze_source("crates/core/src/x.rs", src);
    assert_eq!(ids(&findings), vec![("ACT005", 3)]);
}

#[test]
fn cfg_test_region_covers_only_the_gated_item() {
    // The region runs to the brace that closes `mod tests`, past the
    // braces of the items nested in it, and stops there.
    let src = "#[cfg(test)]\nmod tests {\n    fn f(v: Option<u32>) -> u32 { v.unwrap() }\n\
               fn h(v: Option<u32>) -> u32 { v.unwrap() }\n}\n\
               pub fn g(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
    let findings = analyze_source("crates/core/src/x.rs", src);
    assert_eq!(ids(&findings), vec![("ACT002", 7)], "{findings:#?}");
}
