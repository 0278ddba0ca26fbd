//! Property-based tests for the dist backend's one recovery path,
//! respawn and replay ([`blazes::dataflow::dist::recover`]): whatever the
//! crash point and however the respawned producer permutes its
//! re-emissions, the ingest filter delivers every tuple exactly once; the
//! sequence ledger flags every repeat and every gap; and the coordinator's
//! coalescing write buffer is only ever a cache of its replay log.

use blazes::dataflow::dist::recover::{fnv1a, Outbox, ReplayDedup, SeqLedger, SeqVerdict};
use blazes::dataflow::dist::wire::{encode, message_bytes, Frame, FrameDecoder};
use blazes::dataflow::message::Message;
use blazes::dataflow::value::{Tuple, Value};
use proptest::collection;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Sorted multiset of content values, for order-insensitive comparison.
fn multiset(items: &[u8]) -> BTreeMap<u8, usize> {
    let mut m = BTreeMap::new();
    for &b in items {
        *m.entry(b).or_insert(0) += 1;
    }
    m
}

/// Run one content value through the coordinator's ingest path: the
/// sequence ledger's gap check first, the content multiset second.
/// Returns whether the frame would be routed onward.
fn ingest(
    seq_ledger: &mut SeqLedger,
    dedup: &mut ReplayDedup,
    delivered_hashes: &mut Vec<u64>,
    wire: u64,
    seq: u64,
    content: u8,
) -> bool {
    let verdict = seq_ledger.accept(wire, seq);
    assert_eq!(verdict, SeqVerdict::Fresh, "seq {seq} on wire {wire}");
    let hash = fnv1a(&[content]);
    if dedup.admit(wire, hash) {
        delivered_hashes.push(hash);
        true
    } else {
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A producer crashes after delivering an arbitrary prefix, respawns,
    /// and re-emits the whole stream in an arbitrary permutation. The
    /// filter delivers exactly the original multiset — nothing lost,
    /// nothing doubled.
    #[test]
    fn replay_after_crash_is_exactly_once(
        stream in collection::vec(0u8..8, 1..24),
        crash_at_seed in any::<u64>(),
        perm_seed in any::<u64>(),
    ) {
        let wire = 7u64;
        let crash_at = (crash_at_seed % (stream.len() as u64 + 1)) as usize;
        let mut seq_ledger = SeqLedger::new();
        let mut dedup = ReplayDedup::new();
        let mut hashes = Vec::new();
        let mut delivered: Vec<u8> = Vec::new();

        // First incarnation: the prefix before the crash.
        for (seq, &content) in stream[..crash_at].iter().enumerate() {
            if ingest(&mut seq_ledger, &mut dedup, &mut hashes, wire, seq as u64, content) {
                delivered.push(content);
            }
        }

        // Crash + respawn: arm the content filter with what the wire
        // already delivered, reset its sequence expectations.
        dedup.arm(wire, &hashes);
        seq_ledger.reset_wires(&[wire]);

        // The fresh incarnation recomputes everything and re-emits the
        // full stream in some permutation (same multiset).
        let mut replay: Vec<u8> = stream.clone();
        let mut rot = perm_seed;
        for i in (1..replay.len()).rev() {
            rot = rot.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            replay.swap(i, (rot % (i as u64 + 1)) as usize);
        }
        for (seq, &content) in replay.iter().enumerate() {
            if ingest(&mut seq_ledger, &mut dedup, &mut hashes, wire, seq as u64, content) {
                delivered.push(content);
            }
        }

        prop_assert_eq!(multiset(&delivered), multiset(&stream));
        prop_assert_eq!(dedup.pending(), 0, "armed filter should be fully consumed");
    }

    /// The sequence ledger yields `Fresh` exactly once per sequence
    /// number however often a frame is resent, and flags any skip.
    #[test]
    fn seq_ledger_is_fresh_exactly_once_and_gap_safe(
        len in 1u64..30,
        resends in collection::vec((any::<u64>(), 1usize..4), 0..8),
    ) {
        let wire = 1u64;
        let mut ledger = SeqLedger::new();
        let mut extra: BTreeMap<u64, usize> = BTreeMap::new();
        for (pos_seed, times) in resends {
            *extra.entry(pos_seed % len).or_insert(0) += times;
        }
        let mut fresh = 0u64;
        for seq in 0..len {
            // Deliver the frame once, plus any scheduled resends (a
            // resend repeats an already-accepted seq → Duplicate).
            let times = 1 + extra.get(&seq).copied().unwrap_or(0);
            for attempt in 0..times {
                match ledger.accept(wire, seq) {
                    SeqVerdict::Fresh => {
                        prop_assert_eq!(attempt, 0);
                        fresh += 1;
                    }
                    SeqVerdict::Duplicate => prop_assert!(attempt > 0),
                    SeqVerdict::Gap { .. } => prop_assert!(false, "contiguous stream flagged a gap"),
                }
            }
        }
        prop_assert_eq!(fresh, len);
        // Skipping ahead is a protocol violation, not a duplicate.
        prop_assert_eq!(
            ledger.accept(wire, len + 1),
            SeqVerdict::Gap { expected: len }
        );
    }

    /// The coordinator's send side toward one worker, under crashes that
    /// land anywhere — in particular between "logged" and "flushed".
    /// Frames are pushed (logged, then buffered), the buffer is flushed
    /// at arbitrary points, and the worker is killed and respawned (every
    /// incarnation is replayed the log from frame 0). Whatever the
    /// interleaving, the live incarnation ends up having received every
    /// pushed frame exactly once, in push order.
    #[test]
    fn a_kill_between_logged_and_flushed_is_exactly_once_after_replay(
        ops in collection::vec(0u8..7, 1..80),
    ) {
        /// Everything a connection's byte stream decodes to.
        fn decode(bytes: &[u8]) -> Vec<Frame> {
            let mut dec = FrameDecoder::new();
            dec.push(bytes);
            let mut frames = Vec::new();
            while let Some(f) = dec.next_frame().expect("whole frames only") {
                frames.push(f);
            }
            assert_eq!(dec.buffered(), 0, "a write tore a frame");
            frames
        }

        let mut out: Outbox<Vec<u8>> = Outbox::new();
        out.connect(Vec::new()).expect("a Vec never fails");
        let mut pushed: Vec<Frame> = Vec::new();

        for op in ops {
            match op {
                0..=4 => {
                    let (wire, seq) = (u64::from(op), pushed.len() as u64);
                    let msg = Message::data([pushed.len() as i64]);
                    out.push(wire, seq, &message_bytes(&msg));
                    pushed.push(Frame::Data { wire, seq, msg });
                }
                5 => out.flush(),
                _ => {
                    // SIGKILL + respawn: the buffer (flushed or not) dies
                    // with the connection; a fresh incarnation replays.
                    let _ = out.disconnect();
                    out.connect(Vec::new()).expect("a Vec never fails");
                }
            }
            prop_assert_eq!(out.log().len(), pushed.len() as u64, "the log lost a frame");
        }
        out.flush();
        prop_assert_eq!(out.pending_bytes(), 0);
        let received = decode(&out.disconnect().expect("connected"));
        prop_assert_eq!(received, pushed);
    }

    /// `ReplayLog::tail(k)` replays exactly the suffix from frame `k`, in
    /// the original order, byte for byte — each frame as [`encode`]
    /// writes the data frame the outbox was handed.
    #[test]
    fn replay_log_tail_replays_the_exact_suffix(
        frames in collection::vec((any::<u64>(), any::<u64>(), collection::vec(any::<i64>(), 0..4)), 0..16),
        from_seed in any::<u64>(),
    ) {
        let mut out: Outbox<Vec<u8>> = Outbox::new();
        let mut encoded = Vec::new();
        for (wire, seq, values) in frames {
            let msg = Message::Data(Tuple(values.into_iter().map(Value::Int).collect()));
            out.push(wire, seq, &message_bytes(&msg));
            encoded.push(encode(&Frame::Data { wire, seq, msg }));
        }
        let log = out.log();
        let from = from_seed % (encoded.len() as u64 + 1);
        let got: Vec<Vec<u8>> = log.tail(from).map(<[u8]>::to_vec).collect();
        prop_assert_eq!(&got[..], &encoded[from as usize..]);
        prop_assert_eq!(log.len(), encoded.len() as u64);
    }
}
