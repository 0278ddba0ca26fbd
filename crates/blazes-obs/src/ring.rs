//! The trace ring: one thread lane's bounded event queue, behind one
//! lock, with overwrite-oldest semantics.
//!
//! Each recording thread pushes into a lane of its own, so the lock is
//! uncontended while a run records. Readers ([`TraceRing::snapshot`],
//! [`TraceRing::drain`]) — the Chrome export, and a distributed worker
//! draining its lanes while its IO threads may still record — take the
//! same lock, so they never see a half-written event and never block a
//! writer for longer than one copy of the lane.
//!
//! When the lane is full, each push evicts the oldest event and counts it
//! ([`TraceRing::overwritten`]).

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What happened. The discriminant crosses the wire, so variants are
/// append-only, and a deleted variant's number is retired, never reused:
/// 2 and 3 (a work-stealing scheduler's steal and injector pop) decode
/// as unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum EventKind {
    /// A message batch delivered to an instance mailbox (`a` = instance,
    /// `b` = batch size).
    Delivery = 0,
    /// One instance activation — drain + process of its mailbox batch
    /// (`a` = instance, `b` = events processed). Span.
    Activation = 1,
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
    /// The dist coordinator replayed logged frames into a respawned
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

/// One trace event. `Copy`, and word-packable for the wire
/// ([`Event::to_words`], [`Event::from_words`]).
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
    /// Pack into five words.
    #[must_use]
    pub fn to_words(self) -> [u64; 5] {
        [self.ts_ns, self.dur_ns, self.kind as u64, self.a, self.b]
    }

    /// Unpack from five words; `None` on an unknown kind discriminant.
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

/// A lane's events, oldest first, and its counts.
#[derive(Default)]
struct Lane {
    events: VecDeque<Event>,
    pushed: u64,
    overwritten: u64,
}

/// A fixed-capacity, overwrite-oldest event lane behind one lock. See the
/// module docs.
pub struct TraceRing {
    capacity: usize,
    tid: u32,
    lane: Mutex<Lane>,
}

impl TraceRing {
    /// Create a ring holding up to `capacity` events (floored at 8) for
    /// thread lane `tid`. Its memory grows with the events it holds.
    #[must_use]
    pub fn new(capacity: usize, tid: u32) -> Self {
        TraceRing {
            capacity: capacity.max(8),
            tid,
            lane: Mutex::default(),
        }
    }

    /// Every update leaves the lane whole, so a poisoned lock's data is
    /// still valid.
    fn lane(&self) -> MutexGuard<'_, Lane> {
        self.lane.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The thread lane this ring records for.
    #[must_use]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Total pushes.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.lane().pushed
    }

    /// Events evicted to make room for newer ones.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.lane().overwritten
    }

    /// Push an event, evicting the oldest when the ring is full.
    pub fn push(&self, ev: Event) {
        let mut lane = self.lane();
        lane.pushed += 1;
        if lane.events.len() == self.capacity {
            lane.events.pop_front();
            lane.overwritten += 1;
        }
        lane.events.push_back(ev);
    }

    /// Copy out every event held, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.lane().events.iter().copied().collect()
    }

    /// Take every event held, oldest first: future snapshots only see
    /// events pushed after this call.
    #[must_use]
    pub fn drain(&self) -> Vec<Event> {
        self.lane().events.drain(..).collect()
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
        // Retired tags stay unknown.
        assert_eq!(Event::from_words([0, 0, 2, 0, 0]), None);
        assert_eq!(Event::from_words([0, 0, 3, 0, 0]), None);
    }
}
