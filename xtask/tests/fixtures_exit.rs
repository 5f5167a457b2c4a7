//! Exit-code contract over the per-rule fixtures: `cargo xtask analyze
//! --file` must exit 1 on every `_bad` fixture and 0 on every `_ok`
//! fixture, for every rule. This is the user-visible behavior the
//! in-crate fixture tests model with `analyze_source`.

use std::path::Path;
use std::process::Command;

const CASES: &[(&str, &str)] = &[
    ("crates/model/src/energy.rs", "act001"),
    ("crates/model/src/energy.rs", "act002"),
    ("crates/model/src/energy.rs", "act003"),
    ("crates/model/src/energy.rs", "act004"),
    ("crates/model/src/energy.rs", "act005"),
    ("crates/model/src/params.rs", "act006"),
    ("crates/dse/src/sweep.rs", "act007"),
    ("crates/dse/src/batch.rs", "act007_block"),
    ("crates/model/src/energy.rs", "act008"),
    ("crates/server/src/hub.rs", "act009"),
    ("crates/dse/src/montecarlo.rs", "act010"),
    ("crates/server/src/routes.rs", "act011"),
    ("crates/lca/src/batch.rs", "act012"),
    ("crates/lca/src/simd.rs", "act014"),
    ("crates/lca/src/kernel.rs", "act015"),
];

fn analyze_file(fixture: &Path, fake_path: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--file"])
        .arg(fixture)
        .args(["--as", fake_path])
        .output()
        .expect("xtask binary runs");
    let code = out.status.code().unwrap_or(-1);
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn bad_fixtures_exit_1_and_ok_fixtures_exit_0() {
    let fixtures =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/analyze/tests/fixtures");
    for (fake_path, stem) in CASES {
        let rule = format!("ACT{}", &stem[3..6]);
        let (code, stdout) = analyze_file(&fixtures.join(format!("{stem}_bad.rs")), fake_path);
        assert_eq!(code, 1, "{stem}_bad.rs should fail analysis; stdout:\n{stdout}");
        assert!(
            stdout.contains(&rule),
            "{stem}_bad.rs findings should name {rule}; stdout:\n{stdout}"
        );
        let (code, stdout) = analyze_file(&fixtures.join(format!("{stem}_ok.rs")), fake_path);
        assert_eq!(code, 0, "{stem}_ok.rs should pass analysis; stdout:\n{stdout}");
    }
}

#[test]
fn lint_is_an_unknown_command() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask")).arg("lint").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command `lint`"));
}
