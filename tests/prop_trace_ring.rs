//! Property tests for the locked trace ring ([`blazes::obs::TraceRing`]):
//! concurrent-writer wraparound accounting, overflow drop-counting, and
//! tear-free snapshots taken while writers are mid-push.
//!
//! Events carry a checksum over their other words so a torn read — a
//! payload mixing two different writes — is always detectable.

use blazes::obs::{Event, EventKind, TraceRing};
use proptest::prelude::*;

fn checksum(ts: u64, dur: u64, a: u64) -> u64 {
    ts.wrapping_mul(31)
        .wrapping_add(dur.wrapping_mul(17))
        .wrapping_add(a)
        ^ 0x5eed_5eed_5eed_5eed
}

/// A self-checking event: `a` carries the writer id, `b` a checksum over
/// the remaining words.
fn ev(writer: u64, i: u64) -> Event {
    let ts = writer * 1_000_000 + i + 1;
    Event {
        ts_ns: ts,
        dur_ns: i,
        kind: EventKind::Delivery,
        a: writer,
        b: checksum(ts, i, writer),
    }
}

fn is_consistent(e: &Event) -> bool {
    e.b == checksum(e.ts_ns, e.dur_ns, e.a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every concurrent push is accounted for exactly once across
    /// wraparound: it either survives into the quiesced snapshot or was
    /// counted by `overwritten` (lap eviction / stalled-writer drop).
    #[test]
    fn concurrent_wraparound_accounts_for_every_push(
        writers in 2usize..5,
        per_writer in 1u64..400,
        cap_bits in 3u32..8,
    ) {
        let ring = TraceRing::new(1 << cap_bits, 0);
        std::thread::scope(|s| {
            for w in 0..writers {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..per_writer {
                        ring.push(ev(w as u64, i));
                    }
                });
            }
        });
        let total = writers as u64 * per_writer;
        prop_assert_eq!(ring.pushed(), total);
        let snap = ring.snapshot();
        prop_assert!(snap.len() <= 1 << cap_bits);
        prop_assert_eq!(snap.len() as u64 + ring.overwritten(), total);
        prop_assert!(snap.iter().all(is_consistent));
    }

    /// Single-writer overflow drops exactly the lapped events, keeps the
    /// newest `capacity` in order, and counts every drop.
    #[test]
    fn overflow_drops_oldest_and_counts(extra in 0u64..100) {
        let ring = TraceRing::new(8, 0);
        let total = 8 + extra;
        for i in 0..total {
            ring.push(ev(0, i));
        }
        let snap = ring.snapshot();
        prop_assert_eq!(snap.len() as u64, 8);
        prop_assert_eq!(ring.overwritten(), extra);
        prop_assert_eq!(snap.first().map(|e| e.dur_ns), Some(extra));
        prop_assert_eq!(snap.last().map(|e| e.dur_ns), Some(total - 1));
        prop_assert!(snap.iter().all(is_consistent));
    }

    /// Snapshots racing live writers never contain a torn event, and a
    /// concurrent drain never double-reports: post-quiescence, drained
    /// events plus survivors plus overwrites cover every push.
    #[test]
    fn snapshot_never_tears_under_concurrent_writes(
        writers in 1usize..4,
        per_writer in 50u64..300,
    ) {
        let ring = TraceRing::new(64, 0);
        let done = std::sync::atomic::AtomicBool::new(false);
        let snaps = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for w in 0..writers {
                let ring = &ring;
                handles.push(s.spawn(move || {
                    for i in 0..per_writer {
                        ring.push(ev(w as u64 + 1, i));
                    }
                }));
            }
            let reader = s.spawn(|| {
                let mut snaps = 0u64;
                // do-while: always at least one snapshot, plus one final
                // pass after the writers quiesce.
                loop {
                    for e in ring.snapshot() {
                        assert!(is_consistent(&e), "torn event escaped the lane lock");
                    }
                    snaps += 1;
                    if done.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
                snaps
            });
            for h in handles {
                h.join().expect("writer thread");
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            reader.join().expect("reader thread")
        });
        prop_assert!(snaps > 0, "reader never got a snapshot in");
        let total = writers as u64 * per_writer;
        prop_assert_eq!(ring.pushed(), total);
        prop_assert_eq!(ring.snapshot().len() as u64 + ring.overwritten(), total);
    }
}
