//! The bolt abstraction: user processing logic hosted by the engine.

use blazes_dataflow::sim::Time;
use blazes_dataflow::value::Tuple;

/// Emission buffer handed to bolts. The hosting [`crate::BoltAdapter`]
/// routes emitted tuples to downstream instances per the topology's
/// groupings. Each adapter keeps one context for its bolt's whole life:
/// the buffer is drained after every callback and reused by the next, so
/// emitting allocates nothing once it has grown to a callback's output.
#[derive(Debug, Default)]
pub struct BoltContext {
    /// Virtual time of the current event.
    pub now: Time,
    /// Index of this bolt instance within its parallelism group.
    pub instance_index: usize,
    pub(crate) emitted: Vec<Tuple>,
}

impl BoltContext {
    pub(crate) fn new(now: Time, instance_index: usize) -> Self {
        BoltContext {
            now,
            instance_index,
            ..BoltContext::default()
        }
    }

    /// Emit a tuple downstream.
    pub fn emit(&mut self, tuple: Tuple) {
        self.emitted.push(tuple);
    }

    /// Tuples emitted so far, in emission order — what the engine routes
    /// downstream once the callback returns. Lets a bolt be unit-tested
    /// without a topology around it.
    #[must_use]
    pub fn emitted(&self) -> &[Tuple] {
        &self.emitted
    }
}

/// A Storm-style bolt.
pub trait Bolt: Send {
    /// Process one tuple. The tuple is owned: the adapter hands over the
    /// delivered message's own tuple and makes no copy for this call, so
    /// a bolt may take its fields apart instead of cloning them.
    fn execute(&mut self, tuple: Tuple, ctx: &mut BoltContext);

    /// Called when a batch is complete at this instance (all upstream seals
    /// for the batch have arrived — and, in a transactional topology, the
    /// coordinator has granted the commit).
    fn finish_batch(&mut self, _batch: i64, _ctx: &mut BoltContext) {}

    /// Bolt name for traces.
    fn name(&self) -> &str {
        "bolt"
    }
}

/// A bolt that forwards tuples unchanged (used for spout adapters and in
/// tests).
#[derive(Debug, Default)]
pub struct IdentityBolt;

impl Bolt for IdentityBolt {
    fn execute(&mut self, tuple: Tuple, ctx: &mut BoltContext) {
        ctx.emit(tuple);
    }

    fn name(&self) -> &str {
        "identity"
    }
}

/// A bolt defined by a closure (convenience for tests and examples).
pub struct FnBolt<F> {
    name: String,
    f: F,
}

impl<F> FnBolt<F>
where
    F: FnMut(Tuple, &mut BoltContext) + Send,
{
    /// Wrap a closure as a bolt.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnBolt {
            name: name.into(),
            f,
        }
    }
}

impl<F> Bolt for FnBolt<F>
where
    F: FnMut(Tuple, &mut BoltContext) + Send,
{
    fn execute(&mut self, tuple: Tuple, ctx: &mut BoltContext) {
        (self.f)(tuple, ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_dataflow::value::Value;

    #[test]
    fn identity_forwards() {
        let mut b = IdentityBolt;
        let mut ctx = BoltContext::new(0, 0);
        b.execute(Tuple::new([Value::Int(1)]), &mut ctx);
        assert_eq!(ctx.emitted, vec![Tuple::new([Value::Int(1)])]);
    }

    #[test]
    fn fn_bolt_runs_closure() {
        let mut b = FnBolt::new("double", |t: Tuple, ctx: &mut BoltContext| {
            let v = t.get(0).and_then(Value::as_int).unwrap_or(0);
            ctx.emit(Tuple::new([Value::Int(v * 2)]));
        });
        let mut ctx = BoltContext::new(0, 0);
        b.execute(Tuple::new([Value::Int(21)]), &mut ctx);
        assert_eq!(ctx.emitted, vec![Tuple::new([Value::Int(42)])]);
        assert_eq!(b.name(), "double");
    }

    #[test]
    fn context_carries_event_time_and_instance() {
        let ctx = BoltContext::new(9, 2);
        assert!(ctx.emitted().is_empty());
        assert_eq!(ctx.instance_index, 2);
        assert_eq!(ctx.now, 9);
    }
}
