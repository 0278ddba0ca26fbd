//! The component abstraction executed by the simulator.
//!
//! A [`Component`] is the runtime counterpart of the black boxes in the
//! Blazes system model (paper Section II-A): deterministic message handlers
//! over named input/output *ports* (interfaces). Determinism is the
//! component author's obligation — the trait provides no randomness or
//! wall-clock access, only the virtual time of the current event.

use crate::message::Message;
use crate::sim::{InstanceId, Time};

/// Execution context handed to a component while it handles one event.
///
/// Emissions are buffered and dispatched by the simulator when the handler
/// returns, at the instance's processing-completion time.
#[derive(Debug)]
pub struct Context {
    /// Virtual time at which processing of the current event *starts*.
    pub now: Time,
    /// The instance executing.
    pub instance: InstanceId,
    pub(crate) emitted: Vec<(usize, Message)>,
    /// Speculation-epoch tags, parallel to `emitted` (lazily padded:
    /// shorter-than-`emitted` means the tail is epoch 0 / committed).
    pub(crate) epochs: Vec<u64>,
    /// Epoch resolutions as `(epoch, commit, position)`, where `position`
    /// is the emission index the resolution precedes — so an abort can be
    /// ordered before the corrected re-emissions of the same activation.
    pub(crate) resolves: Vec<(u64, bool, usize)>,
}

impl Context {
    /// Build a context (public so component crates can unit-test handlers
    /// without a full simulation).
    #[must_use]
    pub fn new(now: Time, instance: InstanceId) -> Self {
        Context {
            now,
            instance,
            emitted: Vec::new(),
            epochs: Vec::new(),
            resolves: Vec::new(),
        }
    }

    /// Messages emitted so far, as `(port, message)` pairs (test hook).
    #[must_use]
    pub fn emitted(&self) -> &[(usize, Message)] {
        &self.emitted
    }

    /// Emit `msg` on output port `port`. The message leaves the instance at
    /// its processing-completion time plus channel latency.
    pub fn emit(&mut self, port: usize, msg: Message) {
        self.emitted.push((port, msg));
    }

    /// Emit `msg` tagged with speculation `epoch` (time-warp mode of the
    /// parallel backend). Consumers treat the message as provisional until
    /// the epoch resolves: a commit makes it permanent, an abort makes
    /// them drop it (or roll back, if already processed). Epoch 0 means
    /// committed and is identical to [`Context::emit`].
    pub fn emit_speculative(&mut self, port: usize, msg: Message, epoch: u64) {
        if epoch != 0 {
            self.epochs.resize(self.emitted.len(), 0);
            self.epochs.push(epoch);
        }
        self.emitted.push((port, msg));
    }

    /// Resolve speculation `epoch`: `commit = true` makes everything
    /// tagged with it permanent; `false` aborts it, rolling back every
    /// consumer that processed tagged messages. The resolution is ordered
    /// between the emissions before and after this call.
    pub fn resolve_speculation(&mut self, epoch: u64, commit: bool) {
        self.resolves.push((epoch, commit, self.emitted.len()));
    }

    /// Epoch tag of emission `i` (0 = committed). Test hook.
    #[must_use]
    pub fn emission_epoch(&self, i: usize) -> u64 {
        self.epochs.get(i).copied().unwrap_or(0)
    }

    /// Epoch resolutions recorded so far, as `(epoch, commit, position)`.
    /// Test hook.
    #[must_use]
    pub fn resolutions(&self) -> &[(u64, bool, usize)] {
        &self.resolves
    }

    /// Did this activation use the speculation surface at all? Backends
    /// without time-warp support reject such activations loudly.
    pub(crate) fn has_speculative_ops(&self) -> bool {
        !self.resolves.is_empty() || self.epochs.iter().any(|&e| e != 0)
    }
}

/// A deterministic dataflow component.
pub trait Component: Send {
    /// Handle one message arriving on input port `port`.
    fn on_message(&mut self, port: usize, msg: Message, ctx: &mut Context);

    /// Timer callback that no executor calls: no backend offers a timer,
    /// because sim, par and dist could not give one the same meaning. The
    /// method stays only because the benchmark's tracing decorator
    /// overrides it; it goes once that decorator no longer does.
    fn on_tick(&mut self, _ctx: &mut Context) {}

    /// Capture a state checkpoint for time-warp speculation. Return
    /// `None` (the default) to opt out: the runtime then defers
    /// speculative deliveries to this component until their epoch
    /// resolves, which degrades to blocking but stays correct.
    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        None
    }

    /// Restore a checkpoint produced by [`Component::snapshot`]. Only
    /// ever called with this component's own snapshots; the default is
    /// unreachable because the default `snapshot` never offers one.
    fn restore(&mut self, _snapshot: Box<dyn std::any::Any + Send>) {}

    /// End-of-run drain signal. The parallel backend delivers this when
    /// a run has wedged on speculation that no in-flight message can
    /// resolve — every component is asked to resolve what only it can. A
    /// coordination gate aborts its never-sealed speculation session
    /// here, re-emitting what the blocking protocol would have released;
    /// components without such obligations ignore it (the default).
    fn on_drain(&mut self, _ctx: &mut Context) {}

    /// Human-readable name for stats and traces.
    fn name(&self) -> &str {
        "component"
    }
}

/// Blanket helper: a component defined by a closure over `(port, msg, ctx)`.
pub struct FnComponent<F> {
    name: String,
    f: F,
}

impl<F> FnComponent<F>
where
    F: FnMut(usize, Message, &mut Context) + Send,
{
    /// Wrap a closure as a component.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnComponent {
            name: name.into(),
            f,
        }
    }
}

impl<F> Component for FnComponent<F>
where
    F: FnMut(usize, Message, &mut Context) + Send,
{
    fn on_message(&mut self, port: usize, msg: Message, ctx: &mut Context) {
        (self.f)(port, msg, ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_emissions() {
        let mut ctx = Context::new(5, InstanceId(0));
        ctx.emit(0, Message::data([1i64]));
        ctx.emit(1, Message::Eos);
        assert_eq!(ctx.emitted.len(), 2);
        assert_eq!(ctx.now, 5);
    }

    #[test]
    fn fn_component_invokes_closure() {
        let mut c = FnComponent::new("echo", |port, msg, ctx: &mut Context| {
            ctx.emit(port, msg);
        });
        let mut ctx = Context::new(0, InstanceId(3));
        c.on_message(2, Message::data([7i64]), &mut ctx);
        assert_eq!(c.name(), "echo");
        assert_eq!(ctx.emitted, vec![(2, Message::data([7i64]))]);
    }
}
