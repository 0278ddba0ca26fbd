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
//! `shims/*/src` must be used on a non-comment line of the *non-test* code
//! of some other file under `crates/*/src`, `shims/*/src`, `src/`,
//! `examples/` or `benchmark/src` — each file cut at its first
//! `#[cfg(test)]`. A `fn` is used only where its name is call-shaped
//! (after `::`, or before `(` or `::<`; after `.` only as a method call),
//! so a local variable, a field read or a word in a string that shares its
//! name is no caller; a constant is read, not called, so any
//! whole-identifier mention counts for it. Benchmark
//! pins thus count as callers. An item only tests use stays public only
//! with an [`ALLOWED`] entry giving the reason, and an entry whose item is
//! gone or has a caller fails too.
//!
//! It keeps public *fields* earned too: every `pub` field of a struct
//! declared in `crates/*/src` or `shims/*/src` must be read somewhere —
//! in non-test code, tests or `benchmark/src` alike. A read is a
//! `.field` occurrence on a non-comment line that is neither the left
//! side of an assignment or compound assignment nor a method call, so a
//! counter only ever bumped, or a field only ever set, is unread. A
//! field only a deferred decision keeps has an [`ALLOWED`] row named
//! `Type::field`, under the same stale-row rule.
//!
//! It guards the dist backend's IO seam: the coordinator core
//! (`dist/coord.rs`) is a pure state machine the socket shell and the
//! in-memory crash sweep both drive, so its non-test code may name no
//! socket, process, thread, channel or clock.
//!
//! Last, it guards the assembly seam: a topology is recorded by one type,
//! `backend::Topology`, which every backend is built from. The only other
//! `ExecutorBuilder` implementors under `crates/` are the par builder that
//! forwards to its `Topology`, the rewrite decorator and the `&mut B`
//! forwarding impl — so no fifth recorder can come back.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Public items with no caller outside their own file and its tests, and
/// public fields nothing reads (named `Type::field`), each with the reason
/// it stays: (file, name, reason).
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
        "crates/blazes-bloom/src/interp.rs",
        "table",
        "reads a table's rows; the Bloom differential and property suites compare them",
    ),
    (
        "crates/blazes-core/src/label.rs",
        "nd_read",
        "label constructor prop_analysis's lattice-law test builds NDRead with",
    ),
    (
        "crates/blazes-dataflow/src/backend.rs",
        "messages_delivered",
        "backend-agnostic delivery count the heavy, storm and backend unit tests compare",
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
        "crates/blazes-dataflow/src/metrics.rs",
        "WorkerStats::discarded_deliveries",
        "speculation stat; speculation's fields stay until its trial decides whether it goes",
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
        "seeded",
        "fault-injection test knob: dist_differential's seeded crash matrix draws its kills",
    ),
    (
        "crates/blazes-dataflow/src/dist/recover.rs",
        "pending_bytes",
        "outbox probe: prop_recovery asserts a flush leaves nothing pending",
    ),
    (
        "crates/blazes-dataflow/src/dist/recover.rs",
        "pending",
        "dedup probe: prop_recovery asserts an armed filter is fully consumed",
    ),
    (
        "crates/blazes-dataflow/src/dist/recover.rs",
        "tail",
        "replay-log probe: prop_recovery reads the frames a replay from a position ships",
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
        "vec",
        "proptest API the property suites call",
    ),
    (
        "shims/proptest/src/lib.rs",
        "of",
        "proptest API the property suites call",
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

/// The identifiers on the non-comment lines of `source` that are used the
/// way an item is: right after `::`, or right before `(` or `::<`. After
/// `.` a name is a method call only when one of those follows it; a field
/// read (`self.tail`), a local binding or a word in a string that shares
/// an item's name is not a use of it.
fn call_shaped(source: &str) -> HashSet<&str> {
    let mut found = HashSet::new();
    for line in source.lines().filter(|l| !l.trim_start().starts_with("//")) {
        for word in line.split(|c| !is_ident(c)).filter(|w| !w.is_empty()) {
            // `word` is a subslice of `line`: its offset is the pointer gap.
            let from = word.as_ptr() as usize - line.as_ptr() as usize;
            let (before, after) = (&line[..from], &line[from + word.len()..]);
            if before.ends_with("::") || after.starts_with('(') || after.starts_with("::<") {
                found.insert(word);
            }
        }
    }
    found
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
/// items declared on the non-test lines of `source`, each with whether it
/// is a `fn`. Only a bare `pub` counts: `pub(crate)` items and trait-impl
/// `fn`s cannot leak.
fn public_items(source: &str) -> Vec<(&str, bool)> {
    non_test(source)
        .lines()
        .filter_map(|line| {
            let rest = line.trim_start().strip_prefix("pub ")?;
            let mut value_item = false;
            let mut words = rest.split(|c| !is_ident(c)).filter(|w| !w.is_empty());
            while let Some(word) = words.next() {
                match word {
                    "fn" => return words.next().map(|name| (name, true)),
                    "const" | "static" => value_item = true,
                    "unsafe" | "async" | "mut" => {}
                    _ => return value_item.then_some((word, false)),
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
/// file of `files` uses in its non-test code and `allowed` does not
/// excuse, then every `allowed` entry that excuses nothing: its item is
/// gone, or it has a caller after all.
fn unreached(files: &[(String, String)], allowed: &[(&str, &str, &str)]) -> Vec<String> {
    let allowed: Vec<_> = allowed
        .iter()
        .filter(|(_, n, _)| !n.contains("::"))
        .collect();
    let uses: Vec<(HashSet<&str>, HashSet<&str>)> = files
        .iter()
        .map(|(_, src)| (call_shaped(non_test(src)), identifiers(non_test(src))))
        .collect();
    let called = |at: usize, item: &str, is_fn: bool| {
        uses.iter().enumerate().any(|(i, (calls, idents))| {
            i != at && if is_fn { calls } else { idents }.contains(item)
        })
    };
    let mut findings = Vec::new();
    let mut live = HashSet::new();
    for (at, (path, src)) in files.iter().enumerate() {
        if !(path.starts_with("crates/") || path.starts_with("shims/")) {
            continue;
        }
        for (item, is_fn) in public_items(src) {
            let excused = allowed
                .iter()
                .any(|&&(f, n, _)| (f, n) == (path.as_str(), item));
            if called(at, item, is_fn) {
                continue;
            } else if excused {
                live.insert((path.as_str(), item));
            } else {
                findings.push(format!("{path}: {item}"));
            }
        }
    }
    for &&(file, name, _) in &allowed {
        if !live.contains(&(file, name)) {
            findings.push(format!("stale allowlist entry {file}: {name}"));
        }
    }
    findings
}

/// `(struct, field)` for every `pub` field on the non-test, non-comment
/// lines of `source`: a `pub name: Type` line, owned by the last
/// `struct` named above it. Only a bare `pub` counts, as for items.
fn public_fields(source: &str) -> Vec<(&str, &str)> {
    let mut owner = None;
    let mut fields = Vec::new();
    for line in non_test(source).lines().map(str::trim_start) {
        if line.starts_with("//") {
            continue;
        }
        let mut words = line.split(|c| !is_ident(c)).filter(|w| !w.is_empty());
        if words.by_ref().take(3).any(|w| w == "struct") {
            owner = words.next();
        }
        let Some(rest) = line.strip_prefix("pub ") else {
            continue;
        };
        let (name, after) = rest.split_at(rest.find(|c| !is_ident(c)).unwrap_or(rest.len()));
        if let (Some(owner), false) = (owner, name.is_empty()) {
            if after.starts_with(':') && !after.starts_with("::") {
                fields.push((owner, name));
            }
        }
    }
    fields
}

/// The names read as fields on the non-comment lines of `source`: `.name`
/// that is not the tail of a range (`..name`), not a method call (`(` or
/// `::<` follows) and not the left side of `=` or a compound assignment.
fn field_reads(source: &str) -> HashSet<&str> {
    const ASSIGN: &[&str] = &[
        "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=",
    ];
    let mut found = HashSet::new();
    for line in source.lines().filter(|l| !l.trim_start().starts_with("//")) {
        for word in line.split(|c| !is_ident(c)).filter(|w| !w.is_empty()) {
            // `word` is a subslice of `line`: its offset is the pointer gap.
            let from = word.as_ptr() as usize - line.as_ptr() as usize;
            let (before, after) = (&line[..from], &line[from + word.len()..]);
            let rhs = after.trim_start();
            let assigned = ASSIGN.iter().any(|op| rhs.starts_with(op))
                && !rhs.starts_with("==")
                && !rhs.starts_with("=>");
            if before.ends_with('.')
                && !before.ends_with("..")
                && !after.starts_with('(')
                && !after.starts_with("::<")
                && !assigned
            {
                found.insert(word);
            }
        }
    }
    found
}

/// Every public field declared in a `crates/*/src` or `shims/*/src` file
/// of `files` that no file of `files` reads and `allowed` does not excuse,
/// then every `Type::field` row of `allowed` that excuses nothing: its
/// field is gone, or it is read after all.
fn unread_fields(files: &[(String, String)], allowed: &[(&str, &str, &str)]) -> Vec<String> {
    let reads: HashSet<&str> = files.iter().flat_map(|(_, src)| field_reads(src)).collect();
    let rows: Vec<_> = allowed
        .iter()
        .filter(|(_, n, _)| n.contains("::"))
        .collect();
    let mut findings = Vec::new();
    let mut live = HashSet::new();
    for (path, src) in files {
        let parts: Vec<&str> = path.split('/').collect();
        if !(matches!(parts[0], "crates" | "shims") && parts.get(2) == Some(&"src")) {
            continue;
        }
        for (owner, field) in public_fields(src) {
            let name = format!("{owner}::{field}");
            if reads.contains(field) {
                continue;
            } else if rows
                .iter()
                .any(|&&(f, n, _)| (f, n) == (path.as_str(), &name))
            {
                live.insert((path.as_str(), name));
            } else {
                findings.push(format!("{path}: {name}"));
            }
        }
    }
    for &&(file, name, _) in &rows {
        if !live.contains(&(file, name.to_string())) {
            findings.push(format!("stale allowlist entry {file}: {name}"));
        }
    }
    findings
}

/// Every `.rs` file that may read a field, as (repo-relative path,
/// source): all code and tests of the workspace plus `benchmark/src`, but
/// not this file, whose fixtures would read as uses.
fn reader_files() -> Vec<(String, String)> {
    let root = Path::new(ROOT);
    let mut sources = Vec::new();
    for dir in [
        "crates",
        "shims",
        "src",
        "tests",
        "examples",
        "benchmark/src",
    ] {
        rust_sources(&root.join(dir), &mut sources);
    }
    sources.sort();
    sources
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root).expect("under the root");
            (rel.to_string_lossy().replace('\\', "/"), read(p))
        })
        .filter(|(rel, _)| rel != "tests/workspace_hygiene.rs")
        .collect()
}

#[test]
fn workspace_has_eleven_members_and_no_proc_macro_crate() {
    assert_eq!(workspace_members().len(), 11, "{:?}", workspace_members());
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
pub fn secs() -> f64 { 0.0 }
pub fn names() {}
pub fn method(&self) {}
pub fn by_path() {}
pub fn generic<T>() {}
pub fn tail() {}
pub const CAP: usize = 2;
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
            ("called", true),
            ("uncalled", true),
            ("uncalled_const_fn", true),
            ("LIMIT", false),
            ("COUNTER", false),
            ("secs", true),
            ("names", true),
            ("method", true),
            ("by_path", true),
            ("generic", true),
            ("tail", true),
            ("CAP", false)
        ]
    );
    // `secs` and `names` are only locals and words in a string here, and
    // `tail` only a field read: name collisions, not calls. A constant is
    // used by being read.
    let caller = "\
fn main() { called(); }
fn collide(x: Shape) {
    let secs = 1.0;
    let mut names = vec![secs];
    names.sort_by(|a, b| a.total_cmp(b));
    println!(\"{secs} names\");
    x.method();
    let f = a::by_path;
    generic::<u8>();
    let cap = CAP;
    let end = self.tail;
}
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
            at("COUNTER"),
            at("secs"),
            at("names"),
            at("tail")
        ]
    );
    let allowed = [
        ("crates/a/src/lib.rs", "uncalled", "reason"),
        ("crates/a/src/lib.rs", "uncalled_const_fn", "reason"),
        ("crates/a/src/lib.rs", "LIMIT", "reason"),
        ("crates/a/src/lib.rs", "COUNTER", "reason"),
        ("crates/a/src/lib.rs", "secs", "reason"),
        ("crates/a/src/lib.rs", "names", "reason"),
        ("crates/a/src/lib.rs", "tail", "reason"),
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
fn the_field_scan_finds_fields_nothing_reads_and_stale_allowlist_entries() {
    let lib = "\
/// pub doc: u8,
pub struct Stats {
    pub compared: u64,
    pub matched: u64,
    pub bumped: u64,
    pub set_only: u64,
    pub ranged: usize,
    pub called: u64,
    pub destination: u64,
    crate_only: u64,
    pub(crate) narrow: u64,
}
pub struct Pair(pub u64);
pub const LIMIT: usize = 1;
#[cfg(test)]
mod tests {
    pub struct Fixture { pub in_tests: u8 }
}
";
    assert_eq!(
        public_fields(lib),
        [
            ("Stats", "compared"),
            ("Stats", "matched"),
            ("Stats", "bumped"),
            ("Stats", "set_only"),
            ("Stats", "ranged"),
            ("Stats", "called"),
            ("Stats", "destination")
        ]
    );
    let user = "\
fn use_them(s: &mut Stats, t: &Stats) {
    if s.compared == t.compared {}
    let m = match s.matched { _ => 0 };
    s.bumped += 1;
    s.set_only = 2;
    let r = 0..ranged;
    s.called();
    let d = &mut s.destination;
}
// t.bumped in a comment
";
    let files = [
        ("crates/a/src/lib.rs".to_string(), lib.to_string()),
        ("tests/t.rs".to_string(), user.to_string()),
    ];
    let at = |field: &str| format!("crates/a/src/lib.rs: Stats::{field}");
    assert_eq!(
        unread_fields(&files, &[]),
        [at("bumped"), at("set_only"), at("ranged"), at("called")]
    );
    let allowed = [
        ("crates/a/src/lib.rs", "Stats::bumped", "reason"),
        ("crates/a/src/lib.rs", "Stats::set_only", "reason"),
        ("crates/a/src/lib.rs", "Stats::ranged", "reason"),
        ("crates/a/src/lib.rs", "Stats::called", "reason"),
        ("crates/a/src/lib.rs", "Stats::gone", "a field that is gone"),
        (
            "crates/a/src/lib.rs",
            "Stats::compared",
            "a field that is read",
        ),
        (
            "crates/a/src/lib.rs",
            "LIMIT",
            "an item row, not a field row",
        ),
    ];
    assert_eq!(
        unread_fields(&files, &allowed),
        [
            "stale allowlist entry crates/a/src/lib.rs: Stats::gone",
            "stale allowlist entry crates/a/src/lib.rs: Stats::compared"
        ]
    );
}

#[test]
fn every_public_field_is_read_or_has_an_allowlist_reason() {
    let findings = unread_fields(&reader_files(), ALLOWED);
    assert!(
        findings.is_empty(),
        "{} public fields nothing reads (delete them, make them private, \
         or add an ALLOWED `Type::field` entry with a reason):\n{}",
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

/// The types the non-comment lines of `source` implement `ExecutorBuilder`
/// for, generics dropped: `Topology`, `RewritingBuilder`, `&mut B`.
fn executor_builders(source: &str) -> Vec<String> {
    let code = source
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(str::split_whitespace)
        .collect::<Vec<_>>()
        .join(" ");
    code.match_indices("ExecutorBuilder for ")
        .filter(|&(at, _)| {
            let head = &code[..at];
            let item = &head[head.rfind(['{', '}', ';']).map_or(0, |i| i + 1)..];
            item.trim_start().starts_with("impl")
        })
        .map(|(at, m)| {
            let ty = &code[at + m.len()..];
            let ty = &ty[..ty.find(['<', '{']).unwrap_or(ty.len())];
            ty.split(" where ").next().unwrap_or(ty).trim().to_string()
        })
        .collect()
}

#[test]
fn the_builder_scan_finds_impls_but_not_comments_or_bounds() {
    let source = "\
// impl ExecutorBuilder for Commented {}
/// An [`ExecutorBuilder`] for tests.
impl ExecutorBuilder for Plain {
}
impl<B: ExecutorBuilder + ?Sized> ExecutorBuilder for &mut B {}
impl<B: ExecutorBuilder, P> ExecutorBuilder
    for Wrapping<'_, B, P>
where
    P: Pass,
{}
";
    assert_eq!(executor_builders(source), ["Plain", "&mut B", "Wrapping"]);
}

/// Every `impl … ExecutorBuilder for` under `crates/`, tests included.
#[test]
fn a_topology_is_recorded_by_one_type() {
    let mut sources = Vec::new();
    rust_sources(&Path::new(ROOT).join("crates"), &mut sources);
    let mut found: Vec<String> = sources
        .iter()
        .flat_map(|p| executor_builders(&read(p)))
        .collect();
    found.sort();
    assert_eq!(
        found,
        ["&mut B", "ParBuilder", "RewritingBuilder", "Topology"],
        "record assembly into backend::Topology and build the backend from it"
    );
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
