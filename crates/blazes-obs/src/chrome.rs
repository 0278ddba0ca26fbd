//! Chrome `chrome://tracing` / Perfetto JSON rendering of recorded
//! events.
//!
//! Output is the JSON-array flavor of the Trace Event Format: spans
//! (`dur_ns > 0`) become complete events (`"ph": "X"`), everything else
//! becomes instant events (`"ph": "i"`). Timestamps are microseconds with
//! nanosecond fractions preserved. Each recording process is a `pid` lane
//! (0 = coordinator / standalone), each thread within it a `tid` lane.

use crate::ring::Event;
use crate::RemoteLane;
use std::fmt::Write as _;

fn push_event(out: &mut String, first: &mut bool, pid: u32, tid: u32, ev: &Event) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let ts_us = ev.ts_ns as f64 / 1e3;
    if ev.dur_ns > 0 {
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"blazes\", \"ph\": \"X\", \"ts\": {ts_us:.3}, \
             \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"a\": {}, \"b\": {}}}}}",
            ev.kind.name(),
            ev.dur_ns as f64 / 1e3,
            ev.a,
            ev.b
        );
    } else {
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"blazes\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {ts_us:.3}, \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"a\": {}, \"b\": {}}}}}",
            ev.kind.name(),
            ev.a,
            ev.b
        );
    }
}

fn push_meta(out: &mut String, first: &mut bool, pid: u32, name: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
         \"args\": {{\"name\": \"{name}\"}}}}"
    );
}

/// Render local lanes (`(tid, events, overwritten)`) plus remote lanes
/// into one Chrome-trace JSON document.
#[must_use]
pub fn render(local_pid: u32, locals: &[(u32, Vec<Event>, u64)], remote: &[RemoteLane]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let local_name = if local_pid == 0 {
        "blazes coordinator".to_string()
    } else {
        format!("blazes process {local_pid}")
    };
    push_meta(&mut out, &mut first, local_pid, &local_name);
    let mut remote_pids: Vec<u32> = remote.iter().map(|l| l.pid).collect();
    remote_pids.sort_unstable();
    remote_pids.dedup();
    for pid in remote_pids {
        if pid != local_pid {
            push_meta(&mut out, &mut first, pid, &format!("blazes process {pid}"));
        }
    }
    for (tid, events, _overwritten) in locals {
        for ev in events {
            push_event(&mut out, &mut first, local_pid, *tid, ev);
        }
    }
    for lane in remote {
        for ev in &lane.events {
            push_event(&mut out, &mut first, lane.pid, lane.tid, ev);
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventKind;

    #[test]
    fn renders_spans_instants_and_process_lanes() {
        let locals = vec![(
            0u32,
            vec![
                Event {
                    ts_ns: 1_500,
                    dur_ns: 2_000,
                    kind: EventKind::Activation,
                    a: 3,
                    b: 4,
                },
                Event {
                    ts_ns: 4_000,
                    dur_ns: 0,
                    kind: EventKind::Wakeup,
                    a: 1,
                    b: 0,
                },
            ],
            0u64,
        )];
        let remote = vec![RemoteLane {
            pid: 2,
            tid: 1,
            events: vec![Event {
                ts_ns: 9_000,
                dur_ns: 0,
                kind: EventKind::FrameRecv,
                a: 3,
                b: 0,
            }],
        }];
        let json = render(0, &locals, &remote);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 2.000"));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"name\": \"wakeup\""));
        assert!(json.contains("\"name\": \"frame_recv\""));
        assert!(json.contains("\"pid\": 2"));
        assert!(json.contains("blazes coordinator"));
        assert!(json.contains("blazes process 2"));
        // Exactly one comma between consecutive objects: a cheap
        // well-formedness smoke (the CI trace job parses it for real).
        assert!(!json.contains(",,"));
    }
}
