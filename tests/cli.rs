//! The `blazes` binary's command line: a malformed flag value, an unknown
//! flag or a second path is a usage error (`error: ..`, the usage line,
//! exit 2), never a panic, and the documented forms still run.

use std::process::{Command, Output};

const MODULE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/examples/blz/transitive_closure.blz"
);

fn blazes(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_blazes"))
        .args(args)
        .output()
        .expect("spawn blazes")
}

#[test]
fn malformed_flag_values_are_usage_errors_not_panics() {
    for bad in [
        &["--tick-stats", "--ticks", "abc"][..],
        &["--tick-stats", "--rows", "-1"],
        &["--tick-stats", "--mode"],
        &["--static_order"],
        &["--tick-stat"],
        &["--tick-stats", MODULE],
    ] {
        let out = blazes(&[&[MODULE], bad].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bad:?}: {stderr}");
        assert!(stderr.contains("\nusage: blazes "), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} ran before failing");
    }
}

#[test]
fn documented_forms_still_run() {
    let demo = blazes(&["--demo"]);
    assert!(demo.status.success(), "{demo:?}");
    assert!(String::from_utf8_lossy(&demo.stdout).contains("synthesized coordination"));

    let ticks = blazes(&[
        MODULE,
        "--tick-stats",
        "--mode",
        "naive",
        "--rows",
        "8",
        "--ticks",
        "2",
    ]);
    assert!(ticks.status.success(), "{ticks:?}");
    let stdout = String::from_utf8_lossy(&ticks.stdout);
    assert!(
        stdout.contains("tick stats (Naive, 8 rows/input, 2 tick(s))"),
        "{stdout}"
    );
    assert!(stdout.contains("cumulative over 2 tick(s)"), "{stdout}");
}
