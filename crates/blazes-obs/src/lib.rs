//! # blazes-obs
//!
//! The observability layer shared by every Blazes runtime: a lock-free,
//! per-thread ring-buffer event tracer exporting to Chrome
//! `chrome://tracing` JSON, plus the HDR-style log-bucketed [`Histogram`]
//! a run keeps its latency distribution in.
//!
//! ## Design
//!
//! * **One process-wide [`Obs`]** ([`global`]) so instrumentation sites in
//!   the schedulers, seal gates, Bloom interpreter and wire codec need no
//!   handle plumbing — the same shape as the `tracing`/`metrics` crates'
//!   global collectors.
//! * **Disabled means free.** Every hot-path probe is gated on one relaxed
//!   atomic load ([`Obs::enabled`]). While disabled, no ring is ever
//!   allocated, no lock is taken and no event is written; the proof
//!   counters [`Obs::events_recorded`] and [`Obs::rings_allocated`] stay
//!   zero and the test suite pins that.
//! * **Per-thread rings, seqlock slots.** Each recording thread lazily
//!   registers one [`ring::TraceRing`]; writers never contend in the
//!   common case, yet the ring itself is safe for concurrent writers and
//!   for snapshots taken mid-write (the slot protocol detects and skips
//!   torn entries — see the property tests in `tests/prop_trace_ring.rs`).
//! * **Multi-process merge.** Distributed workers drain their rings into a
//!   wire frame; the coordinator ingests them via [`Obs::ingest_remote`]
//!   so a single Chrome-trace file shows every process lane. Each process
//!   timestamps against its own start epoch, so lanes are internally
//!   ordered but not cross-process aligned.
//!
//! ## Where the numbers live
//!
//! The tracer records *what happened, when*; it keeps no totals. A run's
//! numbers live in that run's own statistics value (`RunStats`,
//! `ParStats`, `DistStats`, Bloom's `TickStats`), which the runtime
//! returns when the run ends. A process-wide store could not hold them:
//! runs that share a process would sum into, or overwrite, each other.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod metrics;
pub mod ring;

pub use metrics::{Histogram, HistogramSnapshot};
pub use ring::{Event, EventKind, TraceRing};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default capacity (slots, power of two) of each per-thread trace ring.
const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Events recorded by one remote thread, as shipped across the wire.
#[derive(Debug, Clone)]
pub struct RemoteLane {
    /// Originating process index (Chrome `pid` lane).
    pub pid: u32,
    /// Originating thread index within that process (Chrome `tid` lane).
    pub tid: u32,
    /// The drained events, in claim order.
    pub events: Vec<Event>,
}

/// The process-wide observability hub: enablement flag, per-thread trace
/// rings and remote lanes ingested from worker processes.
pub struct Obs {
    enabled: AtomicBool,
    /// Chrome `pid` lane of this process (0 = coordinator / standalone).
    pid: AtomicU64,
    events: AtomicU64,
    rings_allocated: AtomicU64,
    epoch: OnceLock<Instant>,
    rings: Mutex<Vec<Arc<TraceRing>>>,
    remote: Mutex<Vec<RemoteLane>>,
}

impl Obs {
    fn new() -> Self {
        Obs {
            enabled: AtomicBool::new(false),
            pid: AtomicU64::new(0),
            events: AtomicU64::new(0),
            rings_allocated: AtomicU64::new(0),
            epoch: OnceLock::new(),
            rings: Mutex::new(Vec::new()),
            remote: Mutex::new(Vec::new()),
        }
    }

    /// Is tracing on? One relaxed load — the entire disabled-mode cost of
    /// every instrumentation site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn tracing on or off. Enabling pins the timestamp epoch.
    pub fn set_enabled(&self, on: bool) {
        if on {
            let _ = self.epoch.get_or_init(Instant::now);
        }
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// The Chrome `pid` lane this process records under.
    #[must_use]
    fn pid(&self) -> u32 {
        self.pid.load(Ordering::Relaxed) as u32
    }

    /// Set the Chrome `pid` lane (distributed workers use their process
    /// index + 1; the coordinator keeps 0).
    pub fn set_pid(&self, pid: u32) {
        self.pid.store(u64::from(pid), Ordering::Relaxed);
    }

    /// Total events recorded since process start. Stays 0 while tracing
    /// has never been enabled — the "tracing off costs nothing" proof.
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Trace rings allocated since process start. Stays 0 while tracing
    /// has never been enabled — no allocation happens on the disabled
    /// path.
    #[must_use]
    pub fn rings_allocated(&self) -> u64 {
        self.rings_allocated.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracing epoch, floored at 1 so 0 can serve as
    /// the "tracing was off" sentinel for span starts.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        let epoch = self.epoch.get_or_init(Instant::now);
        (epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// Span-start helper: the current timestamp when tracing is enabled,
    /// 0 otherwise. Pair with [`Obs::span`].
    #[inline]
    #[must_use]
    pub fn start(&self) -> u64 {
        if self.enabled() {
            self.now_ns()
        } else {
            0
        }
    }

    /// Record an instantaneous event (no duration).
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        if self.enabled() {
            self.write(Event {
                ts_ns: self.now_ns(),
                dur_ns: 0,
                kind,
                a,
                b,
            });
        }
    }

    /// Close a span opened with [`Obs::start`]. A 0 start (tracing was off
    /// at open) is a no-op even if tracing has been enabled since, so
    /// spans never report garbage durations.
    #[inline]
    pub fn span(&self, started_ns: u64, kind: EventKind, a: u64, b: u64) {
        if started_ns != 0 && self.enabled() {
            let now = self.now_ns();
            self.write(Event {
                ts_ns: started_ns,
                dur_ns: now.saturating_sub(started_ns),
                kind,
                a,
                b,
            });
        }
    }

    /// Slow path of [`Obs::record`]/[`Obs::span`]: find (or lazily
    /// register) the calling thread's ring and push.
    fn write(&self, ev: Event) {
        thread_local! {
            static RING: std::cell::OnceCell<Arc<TraceRing>> =
                const { std::cell::OnceCell::new() };
        }
        RING.with(|cell| {
            let ring = cell.get_or_init(|| {
                let mut rings = self.rings.lock().expect("obs ring registry");
                let ring = Arc::new(TraceRing::new(DEFAULT_RING_CAPACITY, rings.len() as u32));
                rings.push(Arc::clone(&ring));
                self.rings_allocated.fetch_add(1, Ordering::Relaxed);
                ring
            });
            ring.push(ev);
        });
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot every local ring: `(tid, events, overwritten)` per ring.
    #[must_use]
    fn lanes(&self) -> Vec<(u32, Vec<Event>, u64)> {
        let rings = self.rings.lock().expect("obs ring registry");
        rings
            .iter()
            .map(|r| (r.tid(), r.snapshot(), r.overwritten()))
            .collect()
    }

    /// Drain every local ring for shipping to a coordinator process. The
    /// rings stay registered; subsequent events start fresh lanes.
    #[must_use]
    pub fn drain_lanes(&self) -> Vec<RemoteLane> {
        let pid = self.pid();
        let rings = self.rings.lock().expect("obs ring registry");
        rings
            .iter()
            .map(|r| RemoteLane {
                pid,
                tid: r.tid(),
                events: r.drain(),
            })
            .collect()
    }

    /// Ingest lanes shipped from a remote process so the merged export
    /// shows every process.
    pub fn ingest_remote(&self, lanes: Vec<RemoteLane>) {
        self.remote.lock().expect("obs remote lanes").extend(lanes);
    }

    /// Remote lanes ingested so far (coordinator side).
    #[must_use]
    pub fn remote_lane_count(&self) -> usize {
        self.remote.lock().expect("obs remote lanes").len()
    }

    /// Render everything recorded so far — local rings plus ingested
    /// remote lanes — as Chrome `chrome://tracing` JSON.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let locals = self.lanes();
        let remote = self.remote.lock().expect("obs remote lanes").clone();
        chrome::render(self.pid(), &locals, &remote)
    }

    /// Write [`Obs::chrome_json`] to a file.
    ///
    /// # Errors
    /// Propagates the underlying file-write error.
    pub fn export_chrome(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_json())
    }

    /// Discard all recorded events (local and remote). The enablement
    /// flag and proof counters are untouched.
    pub fn clear(&self) {
        for ring in self.rings.lock().expect("obs ring registry").iter() {
            let _ = ring.drain();
        }
        self.remote.lock().expect("obs remote lanes").clear();
    }
}

static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// The process-wide [`Obs`] hub.
#[must_use]
pub fn global() -> &'static Obs {
    GLOBAL.get_or_init(Obs::new)
}

/// Shorthand for `global().enabled()`.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    global().enabled()
}

/// Shorthand for `global().record(kind, a, b)`.
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64) {
    global().record(kind, a, b);
}

/// Shorthand for `global().start()`.
#[inline]
#[must_use]
pub fn start() -> u64 {
    global().start()
}

/// Shorthand for `global().span(started_ns, kind, a, b)`.
#[inline]
pub fn span(started_ns: u64, kind: EventKind, a: u64, b: u64) {
    global().span(started_ns, kind, a, b);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test fn: phases share the process-wide Obs, so they must run
    // sequentially inside a single #[test] to avoid cross-test races.
    #[test]
    fn hub_lifecycle() {
        let obs = global();

        // Disabled: recording is a no-op and allocates nothing.
        obs.record(EventKind::Delivery, 1, 2);
        assert_eq!(obs.start(), 0);
        obs.span(0, EventKind::Activation, 0, 0);
        assert_eq!(obs.events_recorded(), 0);
        assert_eq!(obs.rings_allocated(), 0);

        // Enabled: events land in a lazily allocated ring.
        obs.set_enabled(true);
        obs.record(EventKind::Delivery, 7, 8);
        let t0 = obs.start();
        assert!(t0 > 0);
        obs.span(t0, EventKind::Activation, 3, 0);
        assert_eq!(obs.events_recorded(), 2);
        assert_eq!(obs.rings_allocated(), 1);
        let lanes = obs.lanes();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].1.len(), 2);
        assert_eq!(lanes[0].1[0].kind, EventKind::Delivery);
        assert_eq!(lanes[0].1[0].a, 7);
        assert_eq!(lanes[0].1[1].kind, EventKind::Activation);
        assert_eq!(lanes[0].1[1].a, 3);

        // Remote ingestion shows up in the merged export.
        obs.ingest_remote(vec![RemoteLane {
            pid: 2,
            tid: 0,
            events: vec![Event {
                ts_ns: 5,
                dur_ns: 0,
                kind: EventKind::FrameSend,
                a: 1,
                b: 2,
            }],
        }]);
        let json = obs.chrome_json();
        assert!(json.contains("\"delivery\""));
        assert!(json.contains("\"frame_send\""));
        assert!(json.contains("\"pid\": 2"));

        // A span opened while disabled stays a no-op after enabling.
        let before = obs.events_recorded();
        obs.span(0, EventKind::Activation, 0, 0);
        assert_eq!(obs.events_recorded(), before);

        // Drain hands the lanes over and empties the rings.
        let drained = obs.drain_lanes();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].events.len(), 2);
        assert!(obs.lanes()[0].1.is_empty());

        obs.clear();
        assert_eq!(obs.remote_lane_count(), 0);
        obs.set_enabled(false);
        obs.record(EventKind::Delivery, 0, 0);
        assert_eq!(obs.events_recorded(), before);
    }
}
