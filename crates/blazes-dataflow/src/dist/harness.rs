//! An in-memory dist run: one coordinator core and a worker core per
//! worker (each over a one-thread par runtime), joined by byte queues
//! instead of sockets and driven by a virtual clock, so a respawn's
//! backoff costs nothing. [`run`] does what the shell's event loop and
//! its workers' control loops do, minus the IO; the sweep below uses it to
//! kill a worker at every routed-frame boundary of a run.
#![cfg(test)]

use super::coord::{Coord, Effect, Input, Phase, Received};
use super::wire::{self, Frame, FrameDecoder};
use super::worker::{Control, EgressFrame, WorkerCore};
use super::{ChaosSpec, DistRun, DistSpec, Kill, KillPoint, Registry, SinkSet};
use crate::backend::{ExecutorBuilder, PortId, Topology};
use crate::channel::ChannelConfig;
use crate::component::{Component, Context, FnComponent};
use crate::message::Message;
use crate::sim::Simulator;
use crate::sinks::CollectorSink;
use crate::value::{Tuple, Value};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::io::Write;
use std::rc::Rc;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A byte queue: the coordinator's outbox writes into one end, the
/// worker side takes whatever has arrived.
#[derive(Clone, Default)]
pub(super) struct Pipe(Rc<RefCell<Vec<u8>>>);

impl Pipe {
    /// Everything written since the last take.
    pub(super) fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.borrow_mut())
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Virtual time a round advances when nothing moved and every worker
/// core is idle — the only rounds in which time passes.
const QUIET_STEP: Duration = Duration::from_millis(5);

/// Where a worker incarnation is in its life.
enum Stage {
    AwaitingPlan,
    Running(Box<WorkerCore>, mpsc::Receiver<EgressFrame>),
    Finished,
}

/// One worker incarnation and its connection.
struct Incarnation {
    worker: usize,
    epoch: u32,
    conn: u64,
    /// Coordinator → worker bytes.
    inbox: Pipe,
    decoder: FrameDecoder,
    stage: Stage,
    /// Egress frames handed to the coordinator (the pump's count).
    written: u64,
    last_beat: Option<Duration>,
}

impl Incarnation {
    /// One control-loop pass: write out the egress queue, take in what
    /// the coordinator sent, heartbeat when due, report idleness. Returns
    /// the bytes for the coordinator, in send order.
    fn poll(&mut self, registry: &Registry, now: Duration) -> Vec<u8> {
        let mut out = Vec::new();
        let mut send = |frame: &Frame| wire::encode_into(frame, &mut out);
        if let Stage::Running(_, egress) = &self.stage {
            while let Ok((wire, seq, msg)) = egress.try_recv() {
                send(&Frame::Data { wire, seq, msg });
                self.written += 1;
            }
        }
        self.decoder.push(&self.inbox.take());
        while let Some(frame) = self.decoder.next_frame().expect("coordinator bytes decode") {
            match &mut self.stage {
                Stage::AwaitingPlan => {
                    let (core, egress) =
                        WorkerCore::start(registry, frame, self.worker, self.epoch)
                            .expect("the plan fits this incarnation");
                    self.stage = Stage::Running(Box::new(core), egress);
                }
                Stage::Running(core, _) => match core.on_frame(frame, self.written) {
                    Ok(None) => {}
                    Ok(Some(Control::Collect)) => {
                        let Stage::Running(core, _) =
                            std::mem::replace(&mut self.stage, Stage::Finished)
                        else {
                            unreachable!("matched above");
                        };
                        for frame in core.finish().expect("the sinks fit in frames") {
                            send(&frame);
                        }
                    }
                    Ok(Some(Control::Shutdown)) => self.stage = Stage::Finished,
                    Err(e) => panic!("worker {} violated the protocol: {e}", self.worker),
                },
                Stage::Finished => {}
            }
        }
        if let Stage::Running(core, _) = &mut self.stage {
            core.inject_staged();
            if self
                .last_beat
                .is_none_or(|t| now.saturating_sub(t) >= core.heartbeat_every)
            {
                send(&Frame::Heartbeat);
                self.last_beat = Some(now);
            }
            if let Some(idle) = core.idle_report(self.written) {
                send(&idle);
            }
        }
        out
    }

    /// Nothing left for wall-clock time to do: no plan pending, the
    /// runtime settled and the egress queue written out.
    fn quiet(&self) -> bool {
        match &self.stage {
            Stage::AwaitingPlan => false,
            Stage::Running(core, _) => core.idle(self.written),
            Stage::Finished => true,
        }
    }

    /// At `Collect`, this incarnation has nothing in flight and nothing to
    /// do: its core is idle with every egress frame written (so none is
    /// waiting to reach the coordinator, which decodes every write in the
    /// round it is made), it holds no undecoded coordinator bytes, and
    /// the coordinator sent it nothing since its last read but the
    /// `Collect` itself.
    fn assert_quiescent_at_collect(&mut self) {
        let w = self.worker;
        let Stage::Running(core, egress) = &self.stage else {
            panic!("worker {w} is not running at Collect");
        };
        assert!(core.idle(self.written), "worker {w} is busy at Collect");
        assert!(
            egress.try_recv().is_err(),
            "worker {w} has unwritten egress"
        );
        assert_eq!(self.decoder.buffered(), 0, "worker {w} has undecoded bytes");
        let sent = self.inbox.take();
        let mut frames = FrameDecoder::new();
        frames.push(&sent);
        assert!(
            matches!(frames.next_frame(), Ok(Some(Frame::Collect { .. })))
                && frames.buffered() == 0,
            "worker {w} has undelivered coordinator frames at Collect"
        );
        self.decoder.push(&sent);
    }

    /// The process dies: its runtime is stopped and discarded.
    fn kill(self) {
        if let Stage::Running(core, _) = self.stage {
            let _ = core.finish();
        }
    }
}

/// Run `spec` in memory and return what [`super::run_dist`] would.
///
/// # Panics
/// On any protocol error, when the run is not quiescent at `Collect`, and
/// when the run takes a minute of wall time.
pub(super) fn run(spec: &DistSpec, registry: &Registry) -> DistRun {
    let mut topology = Topology::new();
    let sinks = registry
        .assemble(&spec.topology, &spec.params, &mut topology)
        .expect("registered topology");
    let mut now = Duration::ZERO;
    let (mut coord, spawns) = Coord::new(spec, topology, sinks, now);
    let mut effects: VecDeque<Effect> = spawns.into();
    let mut workers: Vec<Option<Incarnation>> = (0..spec.processes).map(|_| None).collect();
    let mut conns = 0;
    let mut collecting = false;
    let started = Instant::now();
    loop {
        while let Some(effect) = effects.pop_front() {
            match effect {
                Effect::Spawn { worker, epoch } => {
                    // The incarnation dials at once and says hello.
                    conns += 1;
                    let inbox = Pipe::default();
                    workers[worker] = Some(Incarnation {
                        worker,
                        epoch,
                        conn: conns,
                        inbox: inbox.clone(),
                        decoder: FrameDecoder::new(),
                        stage: Stage::AwaitingPlan,
                        written: 0,
                        last_beat: None,
                    });
                    assert!(coord.admits(worker, epoch));
                    let hello = Input::Hello {
                        worker,
                        epoch,
                        conn: conns,
                        writer: inbox,
                    };
                    effects.extend(coord.step(now, hello).expect("hello"));
                }
                Effect::Kill { worker } => {
                    if let Some(victim) = workers[worker].take() {
                        victim.kill();
                    }
                }
                Effect::Done(run) => return run,
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the in-memory run stalled"
        );
        coord.flush();
        let (mut moved, mut collect_began) = (false, false);
        for (worker, slot) in workers.iter_mut().enumerate() {
            let Some(incarnation) = slot else { continue };
            let sent = incarnation.poll(registry, now);
            if sent.is_empty() {
                continue;
            }
            moved = true;
            // Decoded as the shell's reader decodes a socket read.
            let mut decoder = FrameDecoder::new();
            decoder.push(&sent);
            let (frames, corrupt) = Received::decode(&mut decoder);
            assert!(
                corrupt.is_none() && decoder.buffered() == 0,
                "worker bytes decode"
            );
            let input = Input::Frames {
                worker,
                conn: incarnation.conn,
                frames,
            };
            effects.extend(coord.step(now, input).expect("no protocol violation"));
            collect_began = !collecting && matches!(coord.phase, Phase::Collecting { .. });
            if !effects.is_empty() || collect_began {
                break; // a kill takes effect, and `Collect` is checked, before anyone else runs
            }
        }
        if collect_began {
            collecting = true;
            for incarnation in &mut workers {
                let incarnation = incarnation.as_mut().expect("every worker is up at Collect");
                incarnation.assert_quiescent_at_collect();
            }
        }
        if moved {
            continue;
        }
        if workers.iter().flatten().all(Incarnation::quiet) {
            now += QUIET_STEP;
            effects.extend(coord.step(now, Input::Tick).expect("no stall"));
        } else {
            std::thread::yield_now();
        }
    }
}

const SWEEP_TOPOLOGY: &str = "sweep";
const MESSAGES: i64 = 48;

/// A stage mapping each `[x]` to `[f(x)]`.
fn map(name: &'static str, f: fn(i64) -> i64) -> Box<dyn Component> {
    Box::new(FnComponent::new(name, move |_, msg, ctx: &mut Context| {
        if let Message::Data(Tuple(values)) = msg {
            if let [Value::Int(x)] = values[..] {
                ctx.emit(0, Message::data([f(x)]));
            }
        }
    }))
}

/// A stage passing each distinct message once: what it emits is a set,
/// whatever duplicates its input carries.
fn distinct(name: &'static str) -> Box<dyn Component> {
    let mut seen = BTreeSet::new();
    Box::new(FnComponent::new(
        name,
        move |_, msg: Message, ctx: &mut Context| {
            if seen.insert(msg.clone()) {
                ctx.emit(0, msg);
            }
        },
    ))
}

/// Two chains of stages from one source into two sinks:
///
/// ```text
/// src ─w0→ triple ─w1→ shift ─w2→ sink 1
///                          └─w3→ double ─w4→ distinct ─w5→ sink 2
/// ```
///
/// `w0`–`w2` lose frames (at-least-once: a loss is a counted
/// retransmit), so sink 1 sees every message exactly once — a frame
/// recovery delivered twice would show there. `w3` and `w4` also
/// duplicate, which the `distinct` stage absorbs, so sink 2 is a set the
/// simulator reaches too although each backend draws its own duplicates.
/// On 2 processes `w3` stays local and the other wires cross in
/// alternating directions; on 3 every wire crosses.
fn sweep_assembly(b: &mut dyn ExecutorBuilder, _params: &str) -> SinkSet {
    let lossy = b.add_channel(ChannelConfig::lan().with_loss(0.1));
    let duplicating = b.add_channel(ChannelConfig::lan().with_loss(0.1).with_duplicates(0.1));
    let exact = b.add_channel(ChannelConfig::instant());
    let p = PortId(0);
    let src = b.add_instance(map("src", |x| x));
    let triple = b.add_instance(map("triple", |x| 3 * x + 1));
    let shift = b.add_instance(map("shift", |x| x + 7));
    let sink_1 = CollectorSink::new();
    let sink_1_id = b.add_instance(Box::new(sink_1.clone()));
    let double = b.add_instance(map("double", |x| 2 * x));
    let distinct_2 = b.add_instance(distinct("distinct"));
    let sink_2 = CollectorSink::new();
    let sink_2_id = b.add_instance(Box::new(sink_2.clone()));
    b.connect(src, p, triple, p, lossy);
    b.connect(triple, p, shift, p, lossy);
    b.connect(shift, p, sink_1_id, p, lossy);
    b.connect(shift, p, double, p, duplicating);
    b.connect(double, p, distinct_2, p, duplicating);
    b.connect(distinct_2, p, sink_2_id, p, exact);
    for i in 0..MESSAGES {
        b.inject(0, src, p, Message::data([i]));
    }
    vec![(sink_1_id, sink_1), (sink_2_id, sink_2)]
}

/// Each sink's messages, sorted: its multiset.
fn multisets(sinks: &SinkSet) -> Vec<Vec<Message>> {
    sinks
        .iter()
        .map(|(_, sink)| {
            let mut messages = sink.messages();
            messages.sort();
            messages
        })
        .collect()
}

/// The crash model is fail-stop at any point of routing, so check every
/// point: for each worker of each configuration, kill it once the
/// coordinator has routed `n` frames to it, for every `n` up to the last
/// frame it is ever routed (the first `n` whose kill never fires ends the
/// worker's sweep, and doubles as its crash-free run). Every run must end
/// on the simulator's sink multisets, with the kill fired once and the
/// respawn rehydrated by a replay of at least `n` frames.
#[test]
fn a_kill_at_every_routed_frame_boundary_ends_on_the_simulator_sinks() {
    let started = Instant::now();
    let mut registry = Registry::new();
    registry.register(SWEEP_TOPOLOGY, sweep_assembly);
    let mut kill_points = 0u64;
    for (processes, seed) in [(2, 1), (3, 2), (2, 3), (3, 4)] {
        let mut topology = Topology::new();
        let sinks = sweep_assembly(&mut topology, "");
        let _ = Simulator::new(topology, seed).run();
        let reference = multisets(&sinks);
        assert!(reference.iter().all(|m| m.len() == MESSAGES as usize));
        for victim in 0..processes {
            for n in 1.. {
                let mut spec = DistSpec::new(SWEEP_TOPOLOGY, "", Vec::new());
                spec.processes = processes;
                spec.workers_per_process = 1;
                spec.seed = seed;
                spec.chaos = ChaosSpec {
                    kills: vec![Kill {
                        worker: victim,
                        point: KillPoint::RoutedFrames(n),
                    }],
                };
                let run = run(&spec, &registry);
                let at = format!(
                    "{processes} processes, seed {seed}, worker {victim} killed {n} frames in"
                );
                assert_eq!(multisets(&run.sinks), reference, "{at}");
                if run.stats.respawns == 0 {
                    break; // past the last frame the victim is routed
                }
                assert_eq!(run.stats.respawns, 1, "{at}");
                assert!(run.stats.replayed_frames >= n, "{at}");
                kill_points += 1;
            }
        }
    }
    eprintln!(
        "{kill_points} kill points in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    assert!(kill_points >= 1000, "only {kill_points} kill points");
}
