//! Keeps the dependency diet: every declared dependency edge is used, and
//! every crate under `shims/` earns its place.
//!
//! A plain text scan of the manifests (no TOML crate): a dependency is a
//! `name = ..` / `name.workspace = true` line under `[dependencies]` or
//! `[dev-dependencies]`, and it counts as used when `name` (with `-` as
//! `_`) appears as an identifier on a non-comment line of some `.rs` file
//! under the member's `src/`, `tests/`, `benches/` or `examples/`.
//!
//! That rule cannot tell a real use from a `use` that only feeds
//! `#[derive(..)]`s expanding to nothing — how a no-op derive stand-in
//! lived here for 22 PRs. A derive needs a proc-macro crate to expand it,
//! so the derive-only case is told apart at the source: no workspace
//! member may be one.

use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The quoted entries of `[workspace] members = [ .. ]` in the root manifest.
fn workspace_members() -> Vec<String> {
    let manifest = read(&Path::new(ROOT).join("Cargo.toml"));
    let list = manifest
        .split_once("\nmembers = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("root manifest has a members list")
        .0;
    list.split('"')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

/// `[package] name` of the manifest in `dir`.
fn package_name(dir: &Path) -> String {
    let manifest = read(&dir.join("Cargo.toml"));
    let package = manifest
        .split_once("[package]")
        .expect("a [package] table")
        .1;
    let line = package
        .lines()
        .find_map(|l| l.trim().strip_prefix("name = "))
        .expect("a package name");
    line.trim_matches('"').to_string()
}

/// Names declared under `[dependencies]` and `[dev-dependencies]` in `dir`.
fn declared_dependencies(dir: &Path) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in read(&dir.join("Cargo.toml")).lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let name = line.split(['.', ' ', '=']).next().expect("split yields");
            deps.push(name.to_string());
        }
    }
    deps
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.expect("dir entry").path()) {
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Does `ident` occur as a whole identifier on a non-comment line?
fn mentions(source: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    source
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .any(|line| {
            line.match_indices(ident).any(|(at, _)| {
                !line[..at].ends_with(is_ident) && !line[at + ident.len()..].starts_with(is_ident)
            })
        })
}

fn uses(dir: &Path, dep: &str) -> bool {
    let mut sources = Vec::new();
    for sub in ["src", "tests", "benches", "examples"] {
        rust_sources(&dir.join(sub), &mut sources);
    }
    let ident = dep.replace('-', "_");
    sources.iter().any(|p| mentions(&read(p), &ident))
}

/// The root package and every listed member, as directories.
fn packages() -> Vec<PathBuf> {
    let root = PathBuf::from(ROOT);
    let members = workspace_members();
    std::iter::once(root.clone())
        .chain(members.iter().map(|m| root.join(m)))
        .collect()
}

#[test]
fn workspace_has_thirteen_members_and_no_proc_macro_crate() {
    assert_eq!(workspace_members().len(), 13, "{:?}", workspace_members());
    for dir in packages() {
        let manifest = read(&dir.join("Cargo.toml"));
        assert!(
            !manifest.lines().any(|l| l.trim() == "proc-macro = true"),
            "{} is a proc-macro crate",
            dir.display()
        );
    }
}

#[test]
fn every_declared_dependency_is_used() {
    let unused: Vec<String> = packages()
        .iter()
        .flat_map(|dir| {
            declared_dependencies(dir)
                .into_iter()
                .filter(|dep| !uses(dir, dep))
                .map(|dep| format!("{} -> {dep}", package_name(dir)))
        })
        .collect();
    assert!(
        unused.is_empty(),
        "declared but never referenced: {unused:?}"
    );
}

#[test]
fn every_shim_is_a_member_with_a_dependent() {
    let members = workspace_members();
    let declared: Vec<String> = packages()
        .iter()
        .flat_map(|d| declared_dependencies(d))
        .collect();
    let mut shims: Vec<PathBuf> = fs::read_dir(Path::new(ROOT).join("shims"))
        .expect("shims/")
        .map(|e| e.expect("dir entry").path())
        .collect();
    shims.sort();
    assert!(!shims.is_empty());
    for shim in shims {
        let rel = format!(
            "shims/{}",
            shim.file_name().expect("name").to_string_lossy()
        );
        assert!(members.contains(&rel), "{rel} is not a workspace member");
        let name = package_name(&shim);
        assert!(declared.contains(&name), "nothing depends on {rel}");
    }
}

#[test]
fn the_scan_tells_identifiers_from_substrings_and_comments() {
    assert!(mentions("use blazes_core::graph;", "blazes_core"));
    assert!(mentions("    rand::rng()", "rand"));
    assert!(!mentions("// see blazes_core", "blazes_core"));
    assert!(!mentions("let operand = 1;", "rand"));
    assert!(!mentions("use blazes_core_ext::x;", "blazes_core"));
}
