//! The two pieces the hand-rolled `BENCH_*.json` emitters share.

use std::fmt::Write as _;

/// `s` as a JSON string literal (the notes are plain prose: only `\` and
/// `"` need escaping).
pub(crate) fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Append a top-level `"key": [ .. ]` member, one pre-rendered row per
/// line; `last` says whether it closes the document's member list.
pub fn array(out: &mut String, key: &str, rows: impl IntoIterator<Item = String>, last: bool) {
    let _ = writeln!(out, "  \"{key}\": [");
    let mut rows = rows.into_iter().peekable();
    while let Some(row) = rows.next() {
        let comma = if rows.peek().is_some() { "," } else { "" };
        let _ = writeln!(out, "    {row}{comma}");
    }
    let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
}
