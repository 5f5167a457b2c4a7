//! Hermeticity as a test: the workspace builds from in-tree crates only.
//! `Cargo.lock` has no `source =` line (every package in it is a path
//! package), and every dependency the root and `crates/*` manifests
//! declare is a `path` dependency, or a `.workspace = true` one whose
//! `[workspace.dependencies]` entry is a path.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root manifest plus every `crates/*/Cargo.toml`, sorted.
fn manifests() -> Vec<PathBuf> {
    let mut out = vec![root().join("Cargo.toml")];
    let mut members: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .collect();
    members.sort();
    out.extend(members);
    out
}

/// `dependencies`, `dev-dependencies`, `build-dependencies`,
/// `workspace.dependencies` and `target.<cfg>.dependencies`.
fn is_dependency_table(header: &str) -> bool {
    header.ends_with("dependencies")
}

/// Every dependency a manifest declares, as `(table, name) -> spec`: the
/// right-hand side of `name = spec`, `true` for `name.workspace = true`
/// (recorded as `workspace = true`), or the joined keys of a
/// `[dependencies.name]` table.
fn dependencies(manifest: &Path) -> BTreeMap<(String, String), String> {
    let text = fs::read_to_string(manifest).expect("manifest is readable");
    let mut deps: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut table = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            table = header.trim().to_owned();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let (key, value) = (key.trim(), value.trim());
        if is_dependency_table(&table) {
            let (name, spec) = match key.strip_suffix(".workspace") {
                Some(name) => (name, format!("workspace = {value}")),
                None => (key, value.to_owned()),
            };
            deps.insert((table.clone(), name.to_owned()), spec);
        } else if let Some((parent, name)) = table.rsplit_once('.') {
            if is_dependency_table(parent) {
                let spec = deps.entry((parent.to_owned(), name.to_owned())).or_default();
                spec.push_str(&format!("{key} = {value}, "));
            }
        }
    }
    deps
}

fn is_path(spec: &str) -> bool {
    spec.contains("path =") && !spec.contains("git =") && !spec.contains("registry =")
}

fn inherits(spec: &str) -> bool {
    spec.replace(' ', "").contains("workspace=true")
}

#[test]
fn cargo_lock_has_only_path_packages() {
    let lock = fs::read_to_string(root().join("Cargo.lock")).expect("Cargo.lock is readable");
    let sourced: Vec<&str> =
        lock.lines().filter(|line| line.trim_start().starts_with("source =")).collect();
    assert!(sourced.is_empty(), "Cargo.lock pulls non-path packages: {sourced:?}");
    assert!(lock.contains("name = \"act-core\""), "Cargo.lock lists the workspace crates");
}

#[test]
fn every_manifest_dependency_resolves_to_a_path() {
    let mut workspace_paths = BTreeMap::new();
    for ((table, name), spec) in dependencies(&root().join("Cargo.toml")) {
        if table == "workspace.dependencies" {
            workspace_paths.insert(name, is_path(&spec));
        }
    }
    assert!(!workspace_paths.is_empty(), "the root manifest has [workspace.dependencies]");

    let mut offenders = Vec::new();
    let mut checked = 0;
    for manifest in manifests() {
        for ((table, name), spec) in dependencies(&manifest) {
            checked += 1;
            let ok = if inherits(&spec) {
                workspace_paths.get(&name).copied().unwrap_or(false)
            } else {
                is_path(&spec)
            };
            if !ok {
                offenders.push(format!("{}: [{table}] {name} = {spec}", manifest.display()));
            }
        }
    }
    assert!(checked > 20, "parsed only {checked} dependency declarations");
    assert!(offenders.is_empty(), "non-path dependencies:\n{}", offenders.join("\n"));
}
