//! Run statistics and time-series recording.
//!
//! The paper's Figures 12–14 plot "log records processed over time"; the
//! [`TimeSeries`] recorder captures exactly that shape from inside sink
//! components.

use crate::sim::Time;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Statistics for one instance after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceStats {
    /// Component name.
    pub name: String,
    /// Messages processed.
    pub processed: u64,
}

/// Per-worker scheduling statistics of one parallel run. These expose how
/// the shared run queue spread the load: differential tests can assert
/// not only that backends agree on outputs, but that load actually
/// balanced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Events (deliveries and drain signals) this worker processed.
    pub events: u64,
    /// Times this worker waited idle on the run queue's condvar (both
    /// queues empty and the in-flight scan not settled).
    pub parks: u64,
    /// Times one of this worker's pushes onto the run queue found an
    /// idle worker and notified it.
    pub wakeups: u64,
    /// Mailbox pushes this worker made: one per destination per
    /// activation (each carries that destination's whole run of staged
    /// mail). Pushes per event is a machine-independent measure of how
    /// much cross-thread traffic the activations batched away.
    pub mailbox_pushes: u64,
    /// Time-warp speculation sessions entered by instances this worker
    /// activated (one state snapshot each).
    pub speculations: u64,
    /// Snapshot restores after an aborted speculation epoch.
    pub rollbacks: u64,
    /// Committed events re-processed after a rollback — the deterministic
    /// replay half of time-warp.
    pub replayed_events: u64,
    /// Speculative deliveries dropped because their epoch aborted before
    /// they were processed.
    pub discarded_deliveries: u64,
}

/// Skew summary over per-worker event counts: `max / mean`, where `1.0`
/// means perfectly balanced. Returns `0.0` when no events were processed.
#[must_use]
pub fn event_balance(workers: &[WorkerStats]) -> f64 {
    if workers.is_empty() {
        return 0.0;
    }
    let max = workers.iter().map(|w| w.events).max().unwrap_or(0);
    let total: u64 = workers.iter().map(|w| w.events).sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / workers.len() as f64;
    max as f64 / mean
}

/// Aggregate statistics for a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Virtual time of the last processed event.
    pub end_time: Time,
    /// Total events processed (message deliveries).
    pub events_processed: u64,
    /// Messages delivered to instances.
    pub messages_delivered: u64,
    /// Channel-level duplicate deliveries.
    pub duplicates: u64,
    /// Channel-level retransmissions.
    pub retransmits: u64,
    /// Per-instance breakdown.
    pub per_instance: Vec<InstanceStats>,
}

impl RunStats {
    /// Throughput in messages per virtual second over the whole run.
    #[must_use]
    pub fn throughput_per_sec(&self) -> f64 {
        if self.end_time == 0 {
            return 0.0;
        }
        self.messages_delivered as f64 / (self.end_time as f64 / 1_000_000.0)
    }
}

/// Lock a sink buffer, poisoned or not: a lock is never a `Result`, and a
/// panic on some other thread must not take a sink handle down with it.
/// Every writer here is a single `Vec` call, so the buffer is valid at
/// whatever point a holder unwound.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shared, thread-safe `(time, cumulative count)` recorder.
///
/// Cloning shares the underlying buffer, so a sink component can hold one
/// clone while the test harness holds another.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Arc<Mutex<Vec<(Time, u64)>>>,
}

impl TimeSeries {
    /// An empty series.
    #[must_use]
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Record that the cumulative count reached `count` at time `t`.
    pub fn record(&self, t: Time, count: u64) {
        lock(&self.points).push((t, count));
    }

    /// Record a single increment: count = previous + 1.
    pub fn increment(&self, t: Time) {
        let mut points = lock(&self.points);
        let next = points.last().map_or(1, |&(_, c)| c + 1);
        points.push((t, next));
    }

    /// Number of points recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.points).len()
    }

    /// Is the series empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock(&self.points).is_empty()
    }

    /// The final cumulative count.
    #[must_use]
    pub fn total(&self) -> u64 {
        lock(&self.points).last().map_or(0, |&(_, c)| c)
    }

    /// Drop every point after the first `len` (time-warp rollback: a
    /// speculative consumer truncates back to its checkpoint length).
    pub fn truncate(&self, len: usize) {
        lock(&self.points).truncate(len);
    }

    /// Time at which the cumulative count first reached `target`, if ever.
    #[must_use]
    pub fn time_to_reach(&self, target: u64) -> Option<Time> {
        lock(&self.points)
            .iter()
            .find(|&&(_, c)| c >= target)
            .map(|&(t, _)| t)
    }

    /// Downsample to at most `buckets` evenly spaced (by time) points for
    /// plotting; always keeps the last point.
    #[must_use]
    pub fn downsample(&self, buckets: usize) -> Vec<(Time, u64)> {
        let points = lock(&self.points);
        if points.len() <= buckets || buckets == 0 {
            return points.clone();
        }
        let start = points.first().map_or(0, |&(t, _)| t);
        let end = points.last().map_or(0, |&(t, _)| t);
        let span = (end - start).max(1);
        let mut out = Vec::with_capacity(buckets + 1);
        let mut next_bucket = 0usize;
        for &(t, c) in points.iter() {
            let bucket = ((t - start) as u128 * buckets as u128 / span as u128) as usize;
            if bucket >= next_bucket {
                out.push((t, c));
                next_bucket = bucket + 1;
            }
        }
        if out.last() != points.last() {
            out.push(*points.last().expect("non-empty"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increment_accumulates() {
        let ts = TimeSeries::new();
        ts.increment(10);
        ts.increment(20);
        ts.increment(30);
        assert_eq!(ts.total(), 3);
        assert_eq!(*lock(&ts.points), [(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn time_to_reach() {
        let ts = TimeSeries::new();
        for t in 1..=10u64 {
            ts.increment(t * 100);
        }
        assert_eq!(ts.time_to_reach(5), Some(500));
        assert_eq!(ts.time_to_reach(11), None);
    }

    #[test]
    fn clones_share_storage() {
        let a = TimeSeries::new();
        let b = a.clone();
        a.increment(1);
        b.increment(2);
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn handles_survive_panic_in_critical_section() {
        use crate::sinks::CollectorSink;

        let ts = TimeSeries::new();
        ts.increment(1);
        let held = ts.clone();
        let _ = std::thread::spawn(move || {
            let _guard = lock(&held.points);
            panic!("poison attempt");
        })
        .join();
        assert!(ts.points.is_poisoned());
        assert_eq!(ts.total(), 1, "series readable after a panicking holder");
        ts.increment(2);
        assert_eq!(*lock(&ts.points), [(1, 1), (2, 2)]);

        // `extend` pulls from the caller's iterator under the lock, so an
        // iterator that panics does so inside the critical section.
        let sink = CollectorSink::new();
        let held = sink.clone();
        let _ = std::thread::spawn(move || {
            held.extend((0..2).map(|i| match i {
                0 => (7, crate::message::Message::Eos),
                _ => panic!("poison attempt"),
            }));
        })
        .join();
        assert_eq!(sink.len(), 1, "collector readable after a panicking holder");
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let ts = TimeSeries::new();
        for t in 0..1000u64 {
            ts.increment(t);
        }
        let d = ts.downsample(10);
        assert!(d.len() <= 12, "got {}", d.len());
        assert_eq!(d.last().copied(), Some((999, 1000)));
    }

    #[test]
    fn downsample_small_series_is_identity() {
        let ts = TimeSeries::new();
        ts.increment(5);
        assert_eq!(ts.downsample(10), vec![(5, 1)]);
    }

    #[test]
    fn event_balance_summarizes_skew() {
        let mk = |worker, events| WorkerStats {
            worker,
            events,
            ..WorkerStats::default()
        };
        assert_eq!(event_balance(&[]), 0.0);
        assert_eq!(event_balance(&[mk(0, 0), mk(1, 0)]), 0.0);
        let even = event_balance(&[mk(0, 50), mk(1, 50)]);
        assert!((even - 1.0).abs() < 1e-12);
        let skewed = event_balance(&[mk(0, 90), mk(1, 10)]);
        assert!((skewed - 1.8).abs() < 1e-12);
    }

    #[test]
    fn throughput_computation() {
        let stats = RunStats {
            end_time: 2_000_000,
            events_processed: 10,
            messages_delivered: 100,
            duplicates: 0,
            retransmits: 0,
            per_instance: vec![],
        };
        assert!((stats.throughput_per_sec() - 50.0).abs() < 1e-9);
    }
}
