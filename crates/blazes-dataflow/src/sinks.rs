//! Ready-made sink components for tests and benchmarks.

use crate::component::{Component, Context};
use crate::message::Message;
use crate::metrics::{lock, TimeSeries};
use crate::sim::Time;
use std::sync::{Arc, Mutex};

/// A sink that stores every received message with its arrival time.
/// Cloning shares the buffer.
#[derive(Debug, Clone, Default)]
pub struct CollectorSink {
    entries: Arc<Mutex<Vec<(Time, Message)>>>,
}

impl CollectorSink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        CollectorSink::default()
    }

    /// Number of messages received.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Is the collector empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock(&self.entries).is_empty()
    }

    /// Snapshot of `(time, message)` entries in arrival order.
    #[must_use]
    pub fn entries(&self) -> Vec<(Time, Message)> {
        lock(&self.entries).clone()
    }

    /// Move every entry out, in arrival order, leaving the collector
    /// empty — how a finished dist worker ships its sinks without copying
    /// them.
    #[must_use]
    pub fn take_entries(&self) -> Vec<(Time, Message)> {
        std::mem::take(&mut *lock(&self.entries))
    }

    /// Snapshot of the messages only.
    #[must_use]
    pub fn messages(&self) -> Vec<Message> {
        lock(&self.entries).iter().map(|(_, m)| m.clone()).collect()
    }

    /// Messages as a sorted set (for order-insensitive comparisons, the
    /// confluence criterion of the paper's Section III-B).
    #[must_use]
    pub fn message_set(&self) -> std::collections::BTreeSet<Message> {
        lock(&self.entries).iter().map(|(_, m)| m.clone()).collect()
    }

    /// Drop every entry after the first `len` (time-warp rollback: a
    /// speculative sink truncates back to its checkpoint length).
    pub fn truncate(&self, len: usize) {
        lock(&self.entries).truncate(len);
    }

    /// Append externally collected entries (the distributed backend
    /// streams a remote worker's sink contents back into the parent's
    /// handle this way).
    pub fn extend(&self, entries: impl IntoIterator<Item = (Time, Message)>) {
        lock(&self.entries).extend(entries);
    }

    /// Clear the buffer.
    pub fn clear(&self) {
        lock(&self.entries).clear();
    }
}

impl Component for CollectorSink {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        lock(&self.entries).push((ctx.now, msg));
    }

    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(lock(&self.entries).len()))
    }

    fn restore(&mut self, snapshot: Box<dyn std::any::Any + Send>) {
        let len = *snapshot.downcast::<usize>().expect("collector snapshot");
        self.truncate(len);
    }

    fn name(&self) -> &str {
        "collector-sink"
    }
}

/// A sink that counts data tuples and records a cumulative time series —
/// the "records processed over time" shape of the paper's Figures 12–14.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    series: TimeSeries,
}

impl CountingSink {
    /// A fresh counting sink.
    #[must_use]
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// The shared time series (clone to keep after the sim owns the sink).
    #[must_use]
    pub fn series(&self) -> TimeSeries {
        self.series.clone()
    }

    /// Total data tuples seen.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.series.total()
    }
}

impl Component for CountingSink {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        if matches!(msg, Message::Data(_)) {
            self.series.increment(ctx.now);
        }
    }

    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(self.series.len()))
    }

    fn restore(&mut self, snapshot: Box<dyn std::any::Any + Send>) {
        let len = *snapshot.downcast::<usize>().expect("counting snapshot");
        self.series.truncate(len);
    }

    fn name(&self) -> &str {
        "counting-sink"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::InstanceId;

    #[test]
    fn collector_records_time_and_payload() {
        let sink = CollectorSink::new();
        let mut c = sink.clone();
        let mut ctx = Context::new(42, InstanceId(0));
        c.on_message(0, Message::data([1i64]), &mut ctx);
        assert_eq!(sink.entries(), vec![(42, Message::data([1i64]))]);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn message_set_ignores_order() {
        let sink = CollectorSink::new();
        let mut c = sink.clone();
        let mut ctx = Context::new(0, InstanceId(0));
        c.on_message(0, Message::data([2i64]), &mut ctx);
        c.on_message(0, Message::data([1i64]), &mut ctx);
        let other = CollectorSink::new();
        let mut o = other.clone();
        o.on_message(0, Message::data([1i64]), &mut ctx);
        o.on_message(0, Message::data([2i64]), &mut ctx);
        assert_ne!(sink.messages(), other.messages());
        assert_eq!(sink.message_set(), other.message_set());
    }

    #[test]
    fn counting_sink_ignores_control_messages() {
        let sink = CountingSink::new();
        let mut c = sink.clone();
        let mut ctx = Context::new(10, InstanceId(0));
        c.on_message(0, Message::data([1i64]), &mut ctx);
        c.on_message(0, Message::Eos, &mut ctx);
        assert_eq!(sink.total(), 1);
    }
}
