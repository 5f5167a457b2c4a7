//! Per-rule fixture pairs: for every rule ACT001–ACT012 and ACT014–ACT016 a positive
//! fixture that must fire (the analyzer would exit 1 on it) and a
//! negative fixture that must be completely clean (exit 0). The fixture
//! is analyzed under a fake repo-relative path so the path-scoped rules
//! (ACT007–ACT016) see it in their jurisdiction.

use std::path::Path;

use act_analyze::{analyze_source, apply_allowlist, parse_allowlist, LintError};

/// `(rule, fake-path, fixture-stem)` — `<stem>_bad.rs` must produce only
/// `rule` findings (at least one); `<stem>_ok.rs` must produce none at all.
const CASES: &[(&str, &str, &str)] = &[
    ("ACT001", "crates/model/src/energy.rs", "act001"),
    ("ACT002", "crates/model/src/energy.rs", "act002"),
    ("ACT003", "crates/model/src/energy.rs", "act003"),
    ("ACT004", "crates/model/src/energy.rs", "act004"),
    ("ACT005", "crates/model/src/energy.rs", "act005"),
    ("ACT006", "crates/model/src/params.rs", "act006"),
    ("ACT007", "crates/dse/src/sweep.rs", "act007"),
    ("ACT007", "crates/dse/src/batch.rs", "act007_block"),
    ("ACT008", "crates/model/src/energy.rs", "act008"),
    ("ACT009", "crates/server/src/hub.rs", "act009"),
    ("ACT010", "crates/dse/src/montecarlo.rs", "act010"),
    ("ACT011", "crates/server/src/routes.rs", "act011"),
    ("ACT012", "crates/lca/src/batch.rs", "act012"),
    ("ACT014", "crates/lca/src/simd.rs", "act014"),
    ("ACT015", "crates/lca/src/kernel.rs", "act015"),
    ("ACT016", "crates/lca/src/kernel.rs", "act016"),
];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("fixture {} unreadable: {err}", path.display()))
}

#[test]
fn every_rule_fires_on_its_bad_fixture() {
    for (rule, fake_path, stem) in CASES {
        let src = fixture(&format!("{stem}_bad.rs"));
        let findings = analyze_source(fake_path, &src);
        assert!(
            findings.iter().any(|f| f.rule == *rule),
            "{stem}_bad.rs produced no {rule} finding; got: {findings:?}"
        );
        for f in &findings {
            assert_eq!(
                f.rule, *rule,
                "{stem}_bad.rs leaked a stray {} finding at {}:{}: {}",
                f.rule, f.line, f.col, f.message
            );
        }
    }
}

#[test]
fn every_rule_stays_silent_on_its_ok_fixture() {
    for (_, fake_path, stem) in CASES {
        let src = fixture(&format!("{stem}_ok.rs"));
        let findings = analyze_source(fake_path, &src);
        assert!(findings.is_empty(), "{stem}_ok.rs is not clean: {findings:?}");
    }
}

#[test]
fn bad_fixtures_fire_at_exact_positions() {
    // `(stem, line, col)` of every finding on the structural rules' bad
    // fixtures, so a change of engine cannot move a finding unnoticed.
    let pins: &[(&str, usize, usize)] = &[
        ("act006", 10, 9),
        ("act007", 7, 25),
        ("act008", 5, 5),
        ("act008", 9, 5),
        ("act008", 13, 5),
        ("act009", 15, 24),
        ("act010", 7, 12),
        ("act010", 11, 7),
        ("act011", 6, 21),
        ("act011", 7, 20),
        ("act014", 6, 5),
        ("act014", 10, 3),
        ("act014", 17, 13),
        ("act015", 12, 8),
        ("act015", 18, 14),
        ("act015", 25, 4),
        ("act015", 33, 8),
        ("act016", 10, 15),
        ("act016", 22, 35),
    ];
    for (rule, fake_path, stem) in CASES.iter().filter(|c| pins.iter().any(|p| p.0 == c.2)) {
        let findings = analyze_source(fake_path, &fixture(&format!("{stem}_bad.rs")));
        let got: Vec<(&str, usize, usize)> =
            findings.iter().map(|f| (f.rule, f.line, f.col)).collect();
        let want: Vec<(&str, usize, usize)> =
            pins.iter().filter(|p| p.0 == *stem).map(|p| (*rule, p.1, p.2)).collect();
        assert_eq!(got, want, "{stem}_bad.rs");
    }
}

#[test]
fn act007_block_bad_points_at_the_block_kernel_call() {
    // `fill` is a `Range<usize>` block-kernel parameter; the budget check
    // before the loop does not cover the loop.
    let findings = analyze_source("crates/dse/src/batch.rs", &fixture("act007_block_bad.rs"));
    let got: Vec<(&str, usize, usize)> =
        findings.iter().map(|f| (f.rule, f.line, f.col)).collect();
    assert_eq!(got, [("ACT007", 19, 9)]);
}

#[test]
fn act006_bad_flags_only_the_repeated_obj_key() {
    // The struct and enum in the fixture declare their JSON impls with
    // `json_struct!`/`json_enum!`, which read the one field list there is:
    // nothing to drift. The repeated `obj!` key is the one finding.
    let findings = analyze_source("crates/model/src/params.rs", &fixture("act006_bad.rs"));
    assert_eq!(findings.len(), 1, "expected the obj! duplicate alone: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "ACT006"));
}

#[test]
fn every_stale_allow_entry_is_reported_in_one_run() {
    // Regression: stale detection must name ALL dead entries in a single
    // run, across different files, not just the first one it encounters.
    let allow = "\
ACT002|a/real.rs|.unwrap()|vetted\n\
ACT002|gone/one.rs|no such line|stale one\n\
ACT001|gone/two.rs|no such line either|stale two\n";
    let entries = parse_allowlist(allow).expect("well-formed allowlist");
    let findings = analyze_source(
        "crates/model/a/real.rs",
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );
    let (kept, suppressed, stale) = apply_allowlist(findings, &entries);
    assert!(kept.is_empty(), "the vetted finding leaked: {kept:?}");
    assert_eq!(suppressed.len(), 1);
    let stale_paths: Vec<&str> = stale.iter().map(|e| e.path_suffix.as_str()).collect();
    assert_eq!(stale_paths, ["gone/one.rs", "gone/two.rs"], "all stale entries, in order");
}

#[test]
fn allowlist_suppresses_matching_findings_and_reports_stale_entries() {
    let findings =
        analyze_source("crates/fixture/src/violations.rs", &fixture("violations.rs"));
    let entries = parse_allowlist(
        "# comment\n\
         ACT001|src/violations.rs|q.base()|fixture demonstrates the raw escape\n\
         ACT002|src/other.rs|nothing here|stale entry that matches no finding\n",
    )
    .expect("well-formed allowlist");
    let (kept, suppressed, stale) = apply_allowlist(findings, &entries);
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].rule, "ACT001");
    assert!(kept.iter().all(|f| f.rule != "ACT001"));
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].path_suffix, "src/other.rs");
}

#[test]
fn allowlist_justification_is_mandatory() {
    let err = parse_allowlist("ACT002|a.rs|line|\n").expect_err("empty justification");
    assert!(matches!(err, LintError::MalformedAllowEntry { line: 1, .. }), "{err}");
    let err = parse_allowlist("ACT002|a.rs|line\n").expect_err("three fields only");
    assert!(err.to_string().contains("RULE|path-suffix|line-substring|justification"));
}
