//! The lock-free trace ring: a fixed, power-of-two array of seqlock slots
//! with overwrite-oldest semantics.
//!
//! Writers claim a monotonically increasing slot index with one
//! `fetch_add` and publish through a per-slot sequence word, so pushes are
//! wait-free for the common single-writer-per-thread case and lock-free
//! under concurrent writers. Readers ([`TraceRing::snapshot`]) validate
//! each slot's sequence before and after copying the payload and skip any
//! slot caught mid-write — a snapshot never blocks a writer and never
//! returns a torn event. The payload words are themselves atomics, so the
//! seqlock carries no undefined-behavior caveat.
//!
//! When the ring laps, older events are overwritten and counted
//! ([`TraceRing::overwritten`]); when two writers collide on the same slot
//! (one writer stalled a full lap — vanishingly rare at 2^16 slots), the
//! newcomer drops its event rather than blocking, counted the same way.

use std::sync::atomic::{AtomicU64, Ordering};

/// What happened. The discriminant crosses the wire, so variants are
/// append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum EventKind {
    /// A message batch delivered to an instance mailbox (`a` = instance,
    /// `b` = batch size).
    Delivery = 0,
    /// One instance activation — drain + process of its mailbox batch
    /// (`a` = instance, `b` = events processed). Span.
    Activation = 1,
    /// A task obtained by stealing from a peer deque (`a` = victim worker).
    Steal = 2,
    /// A task popped from the global injector.
    InjectorPop = 3,
    /// A worker parked idle (`a` = worker). Span over the parked period.
    Park = 4,
    /// A parked peer woken by a send (`a` = waker worker).
    Wakeup = 5,
    /// A seal vote arrived at a gate (`a` = partition hash, `b` = votes
    /// so far).
    SealVote = 6,
    /// A sealed partition released downstream (`a` = partition hash,
    /// `b` = tuples released).
    SealRelease = 7,
    /// A speculation epoch opened (`a` = epoch).
    EpochOpen = 8,
    /// A speculation epoch committed (`a` = epoch).
    EpochCommit = 9,
    /// A speculation epoch aborted — rollback (`a` = epoch).
    EpochAbort = 10,
    /// A rescue pass over stuck speculative state (`a` = pass).
    Rescue = 11,
    /// One stratum evaluated to fixpoint (`a` = stratum, `b` =
    /// iterations). Span.
    Stratum = 12,
    /// A wire frame sent (`a` = frame tag, `b` = destination process).
    FrameSend = 13,
    /// A wire frame received (`a` = frame tag, `b` = source process).
    FrameRecv = 14,
    /// The frame decoder lost sync and scanned for the next magic.
    Resync = 15,
    /// A tuple injected at a source (`a` = instance).
    Inject = 16,
    /// A tuple arrived at a sink (`a` = instance, `b` = source-to-sink
    /// latency in ns).
    SinkArrival = 17,
    /// A simulator virtual-time delivery (`a` = instance, `b` = virtual
    /// time).
    SimDelivery = 18,
    /// One instance rolled back to its checkpoint (`a` = epoch, `b` =
    /// instance).
    Rollback = 19,
    /// The dist coordinator respawned a dead worker (`a` = worker index,
    /// `b` = new incarnation epoch).
    Respawn = 20,
    /// The dist coordinator replayed logged frames into a (re)connected
    /// worker (`a` = worker index, `b` = frames replayed).
    Replay = 21,
}

impl EventKind {
    /// Stable lowercase name used in Chrome-trace output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Delivery => "delivery",
            EventKind::Activation => "activation",
            EventKind::Steal => "steal",
            EventKind::InjectorPop => "injector_pop",
            EventKind::Park => "park",
            EventKind::Wakeup => "wakeup",
            EventKind::SealVote => "seal_vote",
            EventKind::SealRelease => "seal_release",
            EventKind::EpochOpen => "epoch_open",
            EventKind::EpochCommit => "epoch_commit",
            EventKind::EpochAbort => "epoch_abort",
            EventKind::Rescue => "rescue",
            EventKind::Stratum => "stratum",
            EventKind::FrameSend => "frame_send",
            EventKind::FrameRecv => "frame_recv",
            EventKind::Resync => "resync",
            EventKind::Inject => "inject",
            EventKind::SinkArrival => "sink_arrival",
            EventKind::SimDelivery => "sim_delivery",
            EventKind::Rollback => "rollback",
            EventKind::Respawn => "respawn",
            EventKind::Replay => "replay",
        }
    }

    /// Decode a wire discriminant.
    #[must_use]
    fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            0 => EventKind::Delivery,
            1 => EventKind::Activation,
            2 => EventKind::Steal,
            3 => EventKind::InjectorPop,
            4 => EventKind::Park,
            5 => EventKind::Wakeup,
            6 => EventKind::SealVote,
            7 => EventKind::SealRelease,
            8 => EventKind::EpochOpen,
            9 => EventKind::EpochCommit,
            10 => EventKind::EpochAbort,
            11 => EventKind::Rescue,
            12 => EventKind::Stratum,
            13 => EventKind::FrameSend,
            14 => EventKind::FrameRecv,
            15 => EventKind::Resync,
            16 => EventKind::Inject,
            17 => EventKind::SinkArrival,
            18 => EventKind::SimDelivery,
            19 => EventKind::Rollback,
            20 => EventKind::Respawn,
            21 => EventKind::Replay,
            _ => return None,
        })
    }
}

/// One trace event. `Copy` and word-packable so slots can hold it as plain
/// atomics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the recording process's tracing epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; 0 for instantaneous events.
    pub dur_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First kind-specific argument.
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

impl Event {
    /// Pack into the five slot words.
    #[must_use]
    pub fn to_words(self) -> [u64; 5] {
        [self.ts_ns, self.dur_ns, self.kind as u64, self.a, self.b]
    }

    /// Unpack from slot words; `None` on an unknown kind discriminant.
    #[must_use]
    pub fn from_words(w: [u64; 5]) -> Option<Self> {
        Some(Event {
            ts_ns: w[0],
            dur_ns: w[1],
            kind: EventKind::from_u16(u16::try_from(w[2]).ok()?)?,
            a: w[3],
            b: w[4],
        })
    }
}

/// Slot sequence protocol: `seq == 0` empty; `seq == 2*claim + 1` write in
/// progress for `claim`; `seq == 2*claim + 2` holds the completed event of
/// `claim`. Claims only grow, so readers order surviving events by `seq`.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 5],
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-capacity, overwrite-oldest, lock-free event ring. See the
/// module docs for the slot protocol.
pub struct TraceRing {
    mask: u64,
    tid: u32,
    head: AtomicU64,
    overwritten: AtomicU64,
    /// Claims at or below this floor are hidden from snapshots — how
    /// [`TraceRing::drain`] empties the ring without touching slots.
    floor: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceRing {
    /// Create a ring with `capacity` slots (rounded up to a power of two,
    /// floored at 8) for thread lane `tid`.
    #[must_use]
    pub fn new(capacity: usize, tid: u32) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        TraceRing {
            mask: (cap - 1) as u64,
            tid,
            head: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    /// The thread lane this ring records for.
    #[must_use]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Total pushes attempted.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to overwrite-on-lap (plus the rare stalled-writer
    /// collision drop).
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }

    /// Push an event. Wait-free for a single writer; lock-free and
    /// drop-on-collision under concurrent writers.
    pub fn push(&self, ev: Event) {
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim & self.mask) as usize];
        let prev = slot.seq.load(Ordering::Acquire);
        // A slot is claimable when it holds a strictly older completed
        // write (or nothing). An in-progress or newer seq means a writer
        // stalled a full lap — drop rather than block.
        if prev % 2 == 1 || prev > 2 * claim {
            self.overwritten.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if slot
            .seq
            .compare_exchange(prev, 2 * claim + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.overwritten.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if prev != 0 {
            // We just evicted a completed older event.
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        let words = ev.to_words();
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * claim + 2, Ordering::Release);
    }

    /// Copy out every completed event, oldest first. Never blocks writers;
    /// slots caught mid-write are skipped, so the result may briefly miss
    /// the very newest events but never contains a torn one.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        let floor = self.floor.load(Ordering::Acquire);
        let mut out: Vec<(u64, Event)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let claim = (s1 - 2) / 2;
            if claim < floor {
                continue;
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            // Acquire reload: if the seq moved, a writer touched the
            // payload while we copied it — discard.
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue;
            }
            if let Some(ev) = Event::from_words(words) {
                out.push((s1, ev));
            }
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, ev)| ev).collect()
    }

    /// Snapshot and logically empty the ring: future snapshots only see
    /// events pushed after this call.
    #[must_use]
    pub fn drain(&self) -> Vec<Event> {
        let events = self.snapshot();
        self.floor
            .store(self.head.load(Ordering::Relaxed), Ordering::Release);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: 0,
            kind: EventKind::Delivery,
            a: ts,
            b: ts.wrapping_mul(3),
        }
    }

    #[test]
    fn push_and_snapshot_in_order() {
        let ring = TraceRing::new(8, 0);
        for i in 1..=5 {
            ring.push(ev(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(
            snap.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(ring.overwritten(), 0);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_overwrites() {
        let ring = TraceRing::new(8, 0);
        for i in 1..=20 {
            ring.push(ev(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        assert_eq!(snap.first().map(|e| e.ts_ns), Some(13));
        assert_eq!(snap.last().map(|e| e.ts_ns), Some(20));
        assert_eq!(ring.overwritten(), 12);
        assert_eq!(ring.pushed(), 20);
    }

    #[test]
    fn drain_empties_logically() {
        let ring = TraceRing::new(8, 3);
        ring.push(ev(1));
        ring.push(ev(2));
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.snapshot().is_empty());
        ring.push(ev(3));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].ts_ns, 3);
        assert_eq!(ring.tid(), 3);
    }

    #[test]
    fn event_word_roundtrip() {
        let e = Event {
            ts_ns: 42,
            dur_ns: 7,
            kind: EventKind::Stratum,
            a: 9,
            b: 11,
        };
        assert_eq!(Event::from_words(e.to_words()), Some(e));
        assert_eq!(Event::from_words([0, 0, 9999, 0, 0]), None);
    }
}
