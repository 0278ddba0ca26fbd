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
//!
//! The same scan also keeps public surface earned: every `pub fn` (free or
//! method) and `pub const`/`pub static` declared in `crates/*/src` or
//! `shims/*/src` must be named as an identifier on a non-comment line of
//! the *non-test* code of some other file under `crates/*/src`,
//! `shims/*/src`, `src/`, `examples/` or `benchmark/src` — each file cut at
//! its first `#[cfg(test)]`. Benchmark pins thus count as callers. An
//! item only tests use stays public only with an [`ALLOWED`] entry giving
//! the reason, and an entry whose item is gone or has a caller fails too.
//!
//! Last, it guards the dist backend's IO seam: the coordinator core
//! (`dist/coord.rs`) is a pure state machine the socket shell and the
//! in-memory crash sweep both drive, so its non-test code may name no
//! socket, process, thread, channel or clock.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Public items with no caller outside their own file and its tests, each
/// with the reason it stays public: (file, name, reason).
const ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/blazes-apps/src/autocoord.rs",
        "run_wordcount_auto",
        "analysis-driven wordcount runner the autocoord, dist and speculation differentials prove",
    ),
    (
        "crates/blazes-bench/src/lib.rs",
        "adreport_scenario",
        "Figures 12-14 fixture; case_study_adreport pins the calibrated completions on it",
    ),
    (
        "crates/blazes-core/src/fd.rs",
        "declare",
        "paper V-A1 injective FDs; the inference and reconcile tests declare them",
    ),
    (
        "crates/blazes-core/src/graph.rs",
        "fd_store_mut",
        "the one way to hand a graph injective FDs (paper V-A1); no bundled spec has one",
    ),
    (
        "crates/blazes-core/src/strategy.rs",
        "needs_ordering",
        "plan predicate the case-study and property tests assert",
    ),
    (
        "crates/blazes-core/src/strategy.rs",
        "needs_sealing",
        "plan predicate the case-study tests assert",
    ),
    (
        "crates/blazes-dataflow/src/channel.rs",
        "with_loss",
        "fault-injection test knob: lossy wires in fault_injection and par_stress",
    ),
    (
        "crates/blazes-dataflow/src/component.rs",
        "emission_epoch",
        "speculation test hook: SpeculativeSealGate's unit tests read epoch tags",
    ),
    (
        "crates/blazes-dataflow/src/component.rs",
        "resolutions",
        "speculation test hook: SpeculativeSealGate's unit tests read epoch verdicts",
    ),
    (
        "crates/blazes-dataflow/src/dist/recover.rs",
        "with_transport",
        "selects loopback TCP for dist_differential's TCP leg; Unix sockets are the default",
    ),
    (
        "crates/blazes-dataflow/src/dist/recover.rs",
        "with_heartbeat_every",
        "fault-injection test knob: the crash matrix needs heartbeat-triggered kills early",
    ),
    (
        "crates/blazes-dataflow/src/dist/recover.rs",
        "with_respawn_budget",
        "fault-injection test knob: dist_differential's budget-exhaustion verdict",
    ),
    (
        "crates/blazes-dataflow/src/dist/recover.rs",
        "pending_bytes",
        "outbox probe: prop_recovery asserts a flush leaves nothing pending",
    ),
    (
        "crates/blazes-dataflow/src/dist/wire.rs",
        "MAGIC",
        "frame magic of the wire format; prop_wire builds garbage prefixes around it",
    ),
    (
        "crates/blazes-dataflow/src/dist/shell.rs",
        "libtest_worker_command",
        "re-execs a test binary as a dist worker for the dist and trace differentials",
    ),
    (
        "crates/blazes-obs/src/lib.rs",
        "events_recorded",
        "tracing-off-is-free proof: trace_differential asserts it stays 0",
    ),
    (
        "crates/blazes-obs/src/lib.rs",
        "rings_allocated",
        "tracing-off-is-free proof: trace_differential asserts it stays 0",
    ),
    (
        "crates/blazes-obs/src/lib.rs",
        "chrome_json",
        "trace_differential inspects the rendered trace in memory",
    ),
    (
        "crates/blazes-obs/src/ring.rs",
        "pushed",
        "ring write count prop_trace_ring checks the loss accounting against",
    ),
    (
        "crates/blazes-storm/src/topology.rs",
        "build_on",
        "uncoordinated entry point; the module doctest and fault_injection build through it",
    ),
    (
        "shims/proptest/src/lib.rs",
        "subsequence",
        "proptest API the property suites call",
    ),
    (
        "shims/proptest/src/test_runner.rs",
        "with_cases",
        "proptest API the property suites call",
    ),
];

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

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The whole identifiers on the non-comment lines of `source`.
fn identifiers(source: &str) -> HashSet<&str> {
    source
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(|l| l.split(|c| !is_ident(c)))
        .filter(|w| !w.is_empty())
        .collect()
}

/// Does `ident` occur as a whole identifier on a non-comment line?
fn mentions(source: &str, ident: &str) -> bool {
    identifiers(source).contains(ident)
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

/// `source` up to its first `#[cfg(test)]`: the code a build ships.
/// Nothing, for a file that is `#![cfg(test)]` as a whole.
fn non_test(source: &str) -> &str {
    if source.lines().any(|l| l.trim() == "#![cfg(test)]") {
        return "";
    }
    source.split("#[cfg(test)]").next().expect("split yields")
}

/// What the dist coordinator core may not name: sockets, processes,
/// threads, channels and the clock.
const IO_NAMES: &[&str] = &[
    "std::net",
    "std::os::unix",
    "std::process",
    "std::thread",
    "mpsc",
    "Instant::now",
    "SystemTime",
];

/// The [`IO_NAMES`] that occur on non-comment lines of `source`'s non-test
/// code.
fn io_names(source: &str) -> Vec<&'static str> {
    let code: Vec<&str> = non_test(source)
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect();
    IO_NAMES
        .iter()
        .copied()
        .filter(|name| code.iter().any(|line| line.contains(name)))
        .collect()
}

/// Names of the `pub fn`s (free or method) and `pub const`/`pub static`
/// items declared on the non-test lines of `source`. Only a bare `pub`
/// counts: `pub(crate)` items and trait-impl `fn`s cannot leak.
fn public_items(source: &str) -> Vec<&str> {
    non_test(source)
        .lines()
        .filter_map(|line| {
            let rest = line.trim_start().strip_prefix("pub ")?;
            let mut value_item = false;
            let mut words = rest.split(|c| !is_ident(c)).filter(|w| !w.is_empty());
            while let Some(word) = words.next() {
                match word {
                    "fn" => return words.next(),
                    "const" | "static" => value_item = true,
                    "unsafe" | "async" | "mut" => {}
                    _ => return value_item.then_some(word),
                }
            }
            None
        })
        .collect()
}

/// Files whose non-test code may call a public item, as
/// (repo-relative path, source).
fn caller_files() -> Vec<(String, String)> {
    let root = Path::new(ROOT);
    let mut dirs = vec![
        root.join("src"),
        root.join("examples"),
        root.join("benchmark/src"),
    ];
    for parent in ["crates", "shims"] {
        for entry in fs::read_dir(root.join(parent)).expect("crate directory") {
            dirs.push(entry.expect("dir entry").path().join("src"));
        }
    }
    let mut sources = Vec::new();
    for dir in &dirs {
        rust_sources(dir, &mut sources);
    }
    sources.sort();
    sources
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root).expect("under the root");
            (rel.to_string_lossy().replace('\\', "/"), read(p))
        })
        .collect()
}

/// Every public item declared under `crates/` or `shims/` that no *other*
/// file of `files` names in its non-test code and `allowed` does not
/// excuse, then every `allowed` entry that excuses nothing: its item is
/// gone, or it has a caller after all.
fn unreached(files: &[(String, String)], allowed: &[(&str, &str, &str)]) -> Vec<String> {
    let names: Vec<HashSet<&str>> = files
        .iter()
        .map(|(_, src)| identifiers(non_test(src)))
        .collect();
    let called = |at: usize, item: &str| {
        names
            .iter()
            .enumerate()
            .any(|(i, ids)| i != at && ids.contains(item))
    };
    let mut findings = Vec::new();
    let mut live = HashSet::new();
    for (at, (path, src)) in files.iter().enumerate() {
        if !(path.starts_with("crates/") || path.starts_with("shims/")) {
            continue;
        }
        for item in public_items(src) {
            let excused = allowed
                .iter()
                .any(|&(f, n, _)| (f, n) == (path.as_str(), item));
            if called(at, item) {
                continue;
            } else if excused {
                live.insert((path.as_str(), item));
            } else {
                findings.push(format!("{path}: {item}"));
            }
        }
    }
    for &(file, name, _) in allowed {
        if !live.contains(&(file, name)) {
            findings.push(format!("stale allowlist entry {file}: {name}"));
        }
    }
    findings
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

#[test]
fn the_item_scan_finds_uncalled_public_items_and_stale_allowlist_entries() {
    let lib = "\
pub fn called() {}
pub fn uncalled() {}
    pub const fn uncalled_const_fn() -> u8 { 0 }
pub const LIMIT: usize = 1;
pub static mut COUNTER: u64 = 0;
pub(crate) fn internal() {}
pub struct Shape;
fn own_use() { uncalled(); }
// pub fn commented_out() {}
/// pub fn in_a_doc_comment() {}
impl Component for Shape {
    fn on_message(&mut self) {}
}
#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
";
    assert_eq!(
        public_items(lib),
        [
            "called",
            "uncalled",
            "uncalled_const_fn",
            "LIMIT",
            "COUNTER"
        ]
    );
    let caller = "\
fn main() { called(); }
// LIMIT is named only in a comment
#[cfg(test)]
mod tests { fn t() { uncalled_const_fn(); } }
";
    let files = [
        ("crates/a/src/lib.rs".to_string(), lib.to_string()),
        ("src/main.rs".to_string(), caller.to_string()),
    ];
    let at = |item: &str| format!("crates/a/src/lib.rs: {item}");
    assert_eq!(
        unreached(&files, &[]),
        [
            at("uncalled"),
            at("uncalled_const_fn"),
            at("LIMIT"),
            at("COUNTER")
        ]
    );
    let allowed = [
        ("crates/a/src/lib.rs", "uncalled", "reason"),
        ("crates/a/src/lib.rs", "uncalled_const_fn", "reason"),
        ("crates/a/src/lib.rs", "LIMIT", "reason"),
        ("crates/a/src/lib.rs", "COUNTER", "reason"),
        ("crates/a/src/lib.rs", "deleted", "an item that is gone"),
        ("crates/a/src/lib.rs", "called", "an item with a caller"),
    ];
    assert_eq!(
        unreached(&files, &allowed),
        [
            "stale allowlist entry crates/a/src/lib.rs: deleted",
            "stale allowlist entry crates/a/src/lib.rs: called"
        ]
    );
}

#[test]
fn every_public_item_has_a_caller_or_an_allowlist_reason() {
    let findings = unreached(&caller_files(), ALLOWED);
    assert!(
        findings.is_empty(),
        "{} public items nothing else names (delete them, make them \
         private, or add an ALLOWED entry with a reason):\n{}",
        findings.len(),
        findings.join("\n")
    );
}

#[test]
fn the_io_scan_finds_io_in_code_but_not_in_comments_or_tests() {
    let source = "\
//! Never calls std::thread::spawn.
use std::sync::mpsc;
fn now() -> std::time::Instant { std::time::Instant::now() }
#[cfg(test)]
mod tests { use std::net::TcpStream; }
";
    assert_eq!(io_names(source), ["mpsc", "Instant::now"]);
    assert!(io_names(&format!("#![cfg(test)]\n{source}")).is_empty());
}

#[test]
fn the_dist_coordinator_core_names_no_io() {
    let path = "crates/blazes-dataflow/src/dist/coord.rs";
    let found = io_names(&read(&Path::new(ROOT).join(path)));
    assert!(
        found.is_empty(),
        "{path} must stay a pure state machine; its non-test code names {found:?}"
    );
}
