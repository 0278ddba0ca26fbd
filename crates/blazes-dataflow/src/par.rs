//! The multi-worker parallel executor.
//!
//! Where [`crate::sim`] *models* concurrency in virtual time, this backend
//! *runs* it: component instances execute on OS worker threads, messages
//! travel through per-instance FIFO mailboxes, and delivery order across
//! producers is whatever the scheduler produces. This is exactly the
//! execution regime the Blazes analysis reasons about — confluent
//! (order-insensitive) topologies reach the same final state as any
//! sequential interleaving, which the differential tests assert against the
//! seeded simulator.
//!
//! # Scheduling
//!
//! Every instance has a mailbox and an atomic *scheduled* flag. A sender
//! that transitions the flag makes the instance runnable by pushing its
//! id onto the runtime's one run queue. That queue is a single `Mutex`
//! over two FIFOs — `ready` (instances a worker's flush or release
//! re-check made runnable) and `injected` (instances an external push
//! made runnable) — plus the idle-worker count and the run's `done`
//! flag, with one `Condvar` beside it. Workers pop `ready` first, then
//! `injected`, so work already inside the pipeline runs before new input
//! is admitted. A runnable instance is drained up to
//! [`ParTuning::batch_size`] messages per activation, then requeued if
//! work remains — so a hot instance's activations go to whichever worker
//! is free, and skewed workloads balance without any stealing.
//!
//! A worker that finds both queues empty, still under the lock, runs the
//! validated in-flight scan: if nothing is in flight the run is over (or,
//! in time-warp mode, wedged on speculation only the rescue ladder can
//! resolve); otherwise it counts itself idle and waits on the `Condvar`,
//! with no timeout. A push notifies one waiter when the idle count is
//! non-zero. Both happen under the same lock, so a push either lands
//! before the worker's check (which sees it) or after its wait began
//! (and wakes it): no wakeup can be lost, and a lost one would hang the
//! run rather than cost a timeout. The in-flight sum reaches its final
//! value either in a worker's activation — and that worker scans before
//! it waits — or when [`RunningPar::finish`] releases its source token,
//! which it follows with a notify under the lock.
//!
//! # The hot path
//!
//! The unit of cross-thread traffic is an *activation*, not a message.
//! While an instance's handlers run, everything they emit is staged in
//! the worker's outbox, grouped by destination and kept in emission
//! order. When the batch is done, the worker *flushes*: one in-flight
//! charge for the whole outbox, then per destination one mailbox push of
//! that destination's run and one scheduled-flag handoff. The flush comes
//! after the handlers and before the batch settles and the flag is
//! released, so quiescence cannot be declared while the emissions are
//! uncharged, and the instance's next activation cannot overtake them.
//! In a distributed worker, a wire whose consumer lives in another
//! process is an *egress wire*: its emissions are staged as numbered
//! frames, skip the mailboxes and the in-flight charge, and leave in one
//! batch per activation, at the same point of the flush.
//! Event and delivery totals are summed from per-worker and per-instance
//! stats when the run finishes; no counter every worker bumps is touched
//! per message. Locks are taken per activation, never per message:
//!
//! * **Mailboxes** are locked FIFOs (a `Mutex` around a list of
//!   fixed-size `VecDeque` rings): a sending activation appends its whole
//!   run for one destination under one lock (runs are counted in
//!   [`WorkerStats::mailbox_pushes`]), and a drain moves up to
//!   [`ParTuning::batch_size`] messages into a worker-local buffer under
//!   one lock. Only the worker that owns the *scheduled flag* drains a
//!   mailbox, so its order is the order of the runs.
//! * **Instance state** sits behind a `Mutex` of its own, taken once per
//!   activation with `try_lock`. The scheduled flag already makes the
//!   activation exclusive, so the lock is never contended; a failed
//!   `try_lock` is a protocol violation and panics, in every build.
//! * **The run queue** is locked once per push (one per newly scheduled
//!   destination of a flush) and once per pop.
//!
//! Mailboxes are unbounded, so a send — and with it
//! [`RunningPar::inject`] — never blocks; [`ParStats::max_mailbox_depth`]
//! reports how far queues grew.
//!
//! # Guarantees
//!
//! * **Per-wire FIFO — always.** The scheduled flag makes instance
//!   execution exclusive: however activations migrate between workers, a
//!   producer's emissions are pushed into destination mailboxes *before*
//!   the producer can be re-activated elsewhere, each destination's run
//!   keeps emission order, and mailboxes are FIFO.
//!   Seal and EOS punctuations therefore never overtake the records they
//!   cover — the invariant the sealing protocol needs (paper Section V-B1).
//!   The simulator and the dist backend give every wire the same guarantee.
//! * **At-least-once faults, with reproducible schedules.** Channel
//!   `duplicate_prob` injects duplicate deliveries and `loss_prob` counts
//!   a retransmission (the message is still delivered — losses are
//!   retried, as in the simulator). Fault draws come from *per-wire*
//!   seeded RNG streams: the k-th *send* on a wire sees the same
//!   loss/duplicate decisions whatever the worker count or thread
//!   interleaving (unlike the per-worker RNGs this replaced, where even
//!   the decision sequence depended on thread timing). Which *record*
//!   occupies position k is deterministic only where the producer's
//!   emission order is — always true for single-input pipelines, but at a
//!   fan-in component the interleaving of its inputs still decides which
//!   record each draw lands on.
//! * **Quiescence.** `run` returns once every injected and derived message
//!   has been processed, detected by a global in-flight counter.
//!
//! # Time-warp speculation
//!
//! With [`ParTuning::with_speculation`] the backend runs an optimistic
//! *time-warp mode* (Jefferson's virtual time, scoped to seal gates): a
//! coordination gate that would block awaiting punctuations instead
//! forwards tagged with a **speculation epoch**; the first tagged delivery
//! snapshots the consumer's state ([`Component::snapshot`]), and from then
//! on the consumer is *tainted* — everything it emits carries the epoch,
//! so the taint cascades transitively. When the gate learns the
//! speculation was right it **commits** the epoch (snapshots are dropped,
//! state is already correct); when a late event violates it, it **aborts**
//! (`Context::resolve_speculation(epoch, false)`): every tainted consumer
//! restores its snapshot, unprocessed tagged mail is discarded, and the
//! committed inputs it absorbed while tainted are replayed
//! deterministically from a per-instance log. Components that do not
//! implement `snapshot` never speculate — their tagged deliveries are
//! *deferred* until the epoch resolves, which degrades to blocking but
//! stays correct. The epoch registry is one mutex, but it is off the hot
//! path: each cell caches the per-epoch status `Arc`, so steady-state
//! checks are a single atomic load. CALM pays off mechanically here:
//! confluent topologies get no gates, so they never speculate and never
//! roll back — `tests/speculation.rs` asserts exactly that.
//!
//! `Context::now` under this backend is a per-instance event ordinal, not
//! virtual microseconds: it orders the events one instance observed but is
//! not comparable across instances.

use crate::backend::{ChannelId, ExecutorBuilder, Injection, PortId, Topology};
use crate::channel::{ChannelConfig, WireFaults};
use crate::component::{Component, Context};
use crate::message::Message;
use crate::metrics::{event_balance, InstanceStats, WorkerStats};
use crate::sim::{InstanceId, Time};
use blazes_obs::{EventKind, Histogram, HistogramSnapshot};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Lock `m`, recovering the guard from poison: every update made under
/// these locks (a queue's extend, push, pop or drain, the idle count, an
/// epoch entry's insert or participant push) leaves the data valid at
/// every step, and the run re-raises the panic that poisoned it anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default number of messages drained per instance activation.
const DEFAULT_BATCH_SIZE: usize = 64;

/// Cap on the derived (unpinned) worker count.
const MAX_POOL_WORKERS: usize = 8;

/// The worker count used when the caller does not pin one: the machine's
/// available parallelism, capped at [`MAX_POOL_WORKERS`] and floored at 1.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(2, std::num::NonZeroUsize::get)
        .clamp(1, MAX_POOL_WORKERS)
}

/// Error returned by [`ParBuilder::with_tuning`] on invalid configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParConfigError {
    /// Worker count must be at least 1.
    ZeroWorkers,
    /// Batch size must be at least 1.
    ZeroBatchSize,
}

impl fmt::Display for ParConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParConfigError::ZeroWorkers => "need at least one worker",
            ParConfigError::ZeroBatchSize => "batch size must be at least 1",
        })
    }
}

impl Error for ParConfigError {}

/// Tuning knobs for the parallel executor — the one bundle every layer
/// (the backend dispatcher, the Storm topology builder, benches, the dist
/// worker) threads through [`ParBuilder::with_tuning`], which validates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParTuning {
    /// Messages drained per instance activation. Larger batches amortize
    /// scheduling; smaller ones migrate hot instances between workers more
    /// eagerly.
    pub batch_size: usize,
    /// Time-warp mode: speculative gates forward past missing
    /// punctuations, consumers checkpoint and roll back on violation
    /// (see the module docs' speculation section).
    pub speculation: bool,
    /// Realize modeled service times as wall-clock spins: a processed
    /// event burns `service × virtual_service_ns` nanoseconds, making
    /// par-backend latency curves magnitude-comparable to the
    /// simulator's virtual-time predictions. `None` (default) ignores
    /// service times entirely.
    pub virtual_service_ns: Option<u64>,
}

impl ParTuning {
    /// Enable (or disable) time-warp speculation.
    #[must_use]
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// Set the wall-clock scale for modeled service times (nanoseconds
    /// per virtual time unit; `1_000` makes one virtual microsecond cost
    /// one wall-clock microsecond).
    #[must_use]
    pub fn with_virtual_service_ns(mut self, ns: Option<u64>) -> Self {
        self.virtual_service_ns = ns;
        self
    }
}

impl Default for ParTuning {
    fn default() -> Self {
        ParTuning {
            batch_size: DEFAULT_BATCH_SIZE,
            speculation: false,
            virtual_service_ns: None,
        }
    }
}

/// One mailbox entry. `epoch` 0 means committed; a nonzero epoch marks the
/// item speculative until that epoch resolves. `Clone` exists for the
/// replay log of time-warp mode.
#[derive(Debug, Clone)]
enum MailItem {
    Deliver {
        port: usize,
        msg: Message,
        epoch: u64,
        /// Tracer timestamp of the source injection this delivery descends
        /// from (0 = tracing was off at injection): the source-to-sink
        /// latency stamp. Emissions inherit the triggering delivery's
        /// stamp, so the histogram sees the full pipeline latency.
        born: u64,
    },
    /// End-of-run drain signal ([`Component::on_drain`]): sent to every
    /// instance by the never-sealed-session rescue when the run has
    /// wedged on speculation that can no longer resolve on its own.
    Drain,
}

impl MailItem {
    fn epoch(&self) -> u64 {
        match self {
            MailItem::Deliver { epoch, .. } => *epoch,
            MailItem::Drain => 0,
        }
    }
}

/// Speculation-epoch lifecycle states (stored in a shared `AtomicU8` so
/// consumers can poll without the registry lock).
const EPOCH_OPEN: u8 = 0;
const EPOCH_COMMITTED: u8 = 1;
const EPOCH_ABORTED: u8 = 2;

/// One instance's open speculation: the checkpoint to roll back to, the
/// epoch that tainted it, and the committed inputs absorbed while tainted
/// (replayed against the restored checkpoint after an abort).
struct InstSpec {
    epoch: u64,
    status: Arc<AtomicU8>,
    snapshot: Box<dyn Any + Send>,
    log: Vec<MailItem>,
}

/// Registry entry for one speculation epoch.
#[derive(Default)]
struct EpochEntry {
    status: Arc<AtomicU8>,
    /// Instances tainted by (or deferring on) this epoch; rescheduled
    /// when it resolves so rollback/drain happens promptly.
    participants: Vec<usize>,
}

/// Shared speculation state (present only in time-warp mode). The
/// registry mutex is off the hot path: cells cache the per-epoch status
/// `Arc`, so steady-state epoch checks are one atomic load; the lock is
/// taken once per new `(instance, epoch)` pair and once per resolution.
struct SpecShared {
    epochs: Mutex<HashMap<u64, EpochEntry>>,
    opened: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
}

impl SpecShared {
    fn new() -> Self {
        SpecShared {
            epochs: Mutex::new(HashMap::new()),
            opened: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
        }
    }
}

/// A wire resolved for execution: destination plus the wire's fault
/// schedule (present only when faults are configured).
struct WireRt {
    dst: Dst,
    faults: Option<WireFaults>,
}

/// Where a wire's emissions go.
enum Dst {
    /// An input port of an instance of this runtime.
    Local { inst: usize, port: usize },
    /// Another process: frames of global wire `wire`, `seq` the sequence
    /// number of the next. The receiving side draws the wire's faults.
    Egress { wire: u64, seq: u64 },
}

/// A wire whose consumer runs in another process: what its producer emits
/// on `(from, out_port)` leaves the runtime as frames of wire `number`.
pub(crate) struct EgressWire {
    pub(crate) from: InstanceId,
    pub(crate) out_port: PortId,
    pub(crate) number: u64,
}

/// One emission leaving the runtime on an egress wire:
/// `(wire, seq, message)`.
pub(crate) type EgressFrame = (u64, u64, Message);

/// Where a run's egress wires lead: each activation's frames arrive on
/// `tx` as one batch, in emission order, and every wire's frames in
/// sequence order.
pub(crate) struct EgressQueue {
    pub(crate) tx: mpsc::Sender<Vec<EgressFrame>>,
    /// Frames sent so far. Bumped before each batch is sent, so a reader
    /// that compares it with the frames taken off `tx` over-counts, never
    /// under-counts, what is still in the queue.
    pub(crate) queued: Arc<AtomicU64>,
}

/// Mutable per-instance state, owned by whichever worker holds the
/// instance's scheduled flag.
struct Cell {
    component: Box<dyn Component>,
    wires: Vec<Vec<WireRt>>,
    processed: u64,
    now: Time,
    /// Modeled service time per event (realized only when
    /// [`ParTuning::virtual_service_ns`] is set).
    service: Time,
    /// Open speculation, if this instance is currently tainted.
    spec: Option<InstSpec>,
    /// Speculative deliveries waiting for their epoch to resolve (kept
    /// charged against the in-flight counter so quiescence waits).
    deferred: VecDeque<MailItem>,
    /// Cached epoch-status handles: repeat checks skip the registry lock.
    epoch_cache: HashMap<u64, Arc<AtomicU8>>,
}

/// The instance state behind a lock that is never contended: the
/// scheduled-flag protocol makes instance execution exclusive (exactly
/// one worker holds the flag), so an activation takes the lock with
/// `try_lock`, and a failure means the protocol was violated.
struct InstanceCell(Mutex<Cell>);

impl InstanceCell {
    /// Take the cell for one activation.
    ///
    /// # Panics
    /// When another activation of the same instance holds it, or one
    /// panicked in it: either way the scheduled flag let a second
    /// activation in.
    fn claim(&self) -> MutexGuard<'_, Cell> {
        self.0
            .try_lock()
            .unwrap_or_else(|e| panic!("scheduled-flag protocol violated: {e}"))
    }

    fn into_inner(self) -> Cell {
        self.0
            .into_inner()
            .expect("a handler panic is re-raised before the cells are read")
    }
}

/// An unbounded mailbox: a locked FIFO plus the scheduling state around
/// it. A sending activation appends its whole run for this mailbox under
/// one lock, and the owner drains a batch under one lock.
struct Mailbox {
    queue: Mutex<Blocks>,
    /// True while the instance is in the run queue or being executed.
    scheduled: AtomicBool,
    /// High-water mark of the queue length (stats).
    depth_max: AtomicUsize,
    /// Time-warp wake hint: an epoch this instance participates in has
    /// resolved. Mirrors the mailbox's own release protocol — the
    /// resolver sets it *before* its scheduled-flag CAS, the owner clears
    /// the flag *before* re-checking it — so a resolution can never
    /// strand a tainted or deferring instance.
    spec_dirty: AtomicBool,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            queue: Mutex::default(),
            scheduled: AtomicBool::new(false),
            depth_max: AtomicUsize::new(0),
            spec_dirty: AtomicBool::new(false),
        }
    }

    /// Append one run of items, which the consumer will pop contiguously
    /// and in order.
    fn push_run(&self, items: impl IntoIterator<Item = MailItem>) {
        let mut queue = lock(&self.queue);
        queue.extend(items);
        // Under the lock, so the high-water mark is exact.
        if queue.len > self.depth_max.load(Ordering::Relaxed) {
            self.depth_max.store(queue.len, Ordering::Relaxed);
        }
    }

    /// Move up to `max` items into `buf`, in order; returns how many.
    fn pop_batch(&self, buf: &mut Vec<MailItem>, max: usize) -> usize {
        lock(&self.queue).drain_into(buf, max)
    }

    fn is_empty(&self) -> bool {
        lock(&self.queue).len == 0
    }
}

/// Messages per mailbox ring ([`Blocks`]).
const MAILBOX_BLOCK: usize = 64;

/// A mailbox's FIFO as a list of rings of at most [`MAILBOX_BLOCK`]
/// items, oldest first. Pushes fill the newest ring and start another
/// when it is full; drains empty the oldest and free it once a newer one
/// exists. A mailbox so holds memory for the items it holds plus at most
/// two rings' slack, where one flat ring would keep the doubled capacity
/// of its deepest burst for the rest of the run (measured: +20–30 % peak
/// RSS on the wordcount benchmark), and it allocates once per
/// [`MAILBOX_BLOCK`] items, not once per item like a linked queue.
#[derive(Default)]
struct Blocks {
    rings: VecDeque<VecDeque<MailItem>>,
    /// Items across all rings.
    len: usize,
}

impl Blocks {
    fn extend(&mut self, items: impl IntoIterator<Item = MailItem>) {
        for item in items {
            match self.rings.back_mut() {
                Some(ring) if ring.len() < MAILBOX_BLOCK => ring.push_back(item),
                _ => {
                    let mut ring = VecDeque::with_capacity(MAILBOX_BLOCK);
                    ring.push_back(item);
                    self.rings.push_back(ring);
                }
            }
            self.len += 1;
        }
    }

    fn drain_into(&mut self, buf: &mut Vec<MailItem>, max: usize) -> usize {
        let n = self.len.min(max);
        let mut left = n;
        while left > 0 {
            let front = &mut self.rings[0];
            let take = front.len().min(left);
            buf.extend(front.drain(..take));
            left -= take;
            if front.is_empty() && self.rings.len() > 1 {
                self.rings.pop_front();
            }
        }
        self.len -= n;
        n
    }
}

struct Slot {
    cell: InstanceCell,
    mailbox: Mailbox,
}

/// A cache-line-isolated atomic, so per-worker counters do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedI64(AtomicI64);

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Sharded in-flight accounting, so no cache line is shared by every send
/// and every processed message. Each worker owns one padded cell (cell
/// `workers` belongs to the injecting coordinator thread) and a monotone
/// *send epoch*:
///
/// * before any of an activation's emissions become visible, the
///   processing worker adds their count to **its own** cell and bumps its
///   epoch — two uncontended RMWs on a private line per activation;
/// * after draining a batch, it subtracts the number of messages it
///   consumed from its own cell, once per activation instead of once per
///   message.
///
/// The global sum is exact whenever all updates have landed; a worker
/// that runs out of work detects quiescence by [`InFlight::quiescent`]:
/// read all epochs, sum all cells, re-read the epochs. A non-atomic scan
/// can only be fooled into a false zero by *missing* an increment whose
/// matching decrement it *saw* — but the decrement happens causally after
/// the increment (through the mailbox push), so the missed increment (and
/// its epoch bump) must fall inside the scan window, and the epoch
/// re-read rejects the scan. Sum ≠ 0 or changed epochs simply mean "not
/// quiescent yet": a worker's update is followed by that worker's own
/// scan before it waits, and the source token's release by a notify.
struct InFlight {
    cells: Vec<PaddedI64>,
    epochs: Vec<PaddedU64>,
}

impl InFlight {
    fn new(shards: usize, injected: i64) -> Self {
        let cells: Vec<PaddedI64> = (0..shards).map(|_| PaddedI64::default()).collect();
        // External injections are pre-charged to the coordinator's cell.
        cells[shards - 1].0.store(injected, Ordering::SeqCst);
        InFlight {
            cells,
            epochs: (0..shards).map(|_| PaddedU64::default()).collect(),
        }
    }

    /// Charge `n` sends to `shard` *before* the messages become visible.
    fn charge(&self, shard: usize, n: i64) {
        self.cells[shard].0.fetch_add(n, Ordering::SeqCst);
        self.epochs[shard].0.fetch_add(1, Ordering::SeqCst);
    }

    /// Settle `n` processed messages against `shard`.
    fn settle(&self, shard: usize, n: i64) {
        self.cells[shard].0.fetch_sub(n, Ordering::SeqCst);
    }

    /// Validated scan for `sum == expected` (see type docs for the
    /// argument; `expected = 0` is quiescence, a nonzero `expected` is
    /// the stuck-run check — every remaining charge is a parked
    /// deferral).
    fn settled_at(&self, expected: i64) -> bool {
        let read_epochs = |buf: &mut Vec<u64>| {
            buf.clear();
            buf.extend(self.epochs.iter().map(|e| e.0.load(Ordering::SeqCst)));
        };
        let mut before = Vec::with_capacity(self.epochs.len());
        let mut after = Vec::with_capacity(self.epochs.len());
        for _ in 0..2 {
            read_epochs(&mut before);
            let sum: i64 = self.cells.iter().map(|c| c.0.load(Ordering::SeqCst)).sum();
            if sum != expected {
                return false;
            }
            read_epochs(&mut after);
            if before == after {
                return true;
            }
        }
        false
    }
}

/// Run-wide shared counters. Event and delivery totals are not among
/// them: they are summed from [`WorkerStats::events`] and
/// [`InstanceStats::processed`] when the run finishes, so no counter every
/// worker bumps sits on the message hot path. Faults are rare enough to
/// count here.
struct Counters {
    in_flight: InFlight,
    duplicates: AtomicU64,
    retransmits: AtomicU64,
}

/// The run queue and idle state, all under [`Shared::sched`].
#[derive(Default)]
struct Sched {
    /// Instances a worker's flush or release re-check made runnable.
    /// Popped before `injected`.
    ready: VecDeque<usize>,
    /// Instances an external push made runnable.
    injected: VecDeque<usize>,
    /// Workers waiting on [`Shared::wake`].
    idle: usize,
    /// The run is over (quiescent, or a worker panicked).
    done: bool,
}

/// State shared by all workers and the coordinating thread.
struct Shared {
    slots: Vec<Slot>,
    workers: usize,
    batch_size: usize,
    /// The one scheduler lock (see the module docs' scheduling section).
    sched: Mutex<Sched>,
    /// Where idle workers wait for a push or the end of the run.
    wake: Condvar,
    counters: Counters,
    /// Speculation registry; `Some` only in time-warp mode.
    spec: Option<SpecShared>,
    /// Deliveries currently parked in some cell's deferred queue (each
    /// kept charged in `in_flight`). Maintained only in time-warp mode;
    /// the stuck-run check compares the in-flight sum against it.
    deferred: AtomicI64,
    /// Never-sealed-session rescue ladder: 0 = untried, 1 = drain pass
    /// sent, 2 = hard abort done. Reset to 0 by any epoch resolution
    /// (progress restarts the ladder for a later wedge).
    rescue: AtomicU8,
    /// Rescue passes initiated (stats).
    rescue_passes: AtomicU64,
    /// Wall-clock scale for modeled service times, if realized.
    virtual_ns: Option<u64>,
    /// Source-to-sink tuple latencies, created by the first
    /// latency-stamped sink arrival, so an untraced run never allocates it.
    latency: OnceLock<Histogram>,
    /// Where egress wires lead; `Some` only in a run that has them.
    egress: Option<EgressQueue>,
}

impl Shared {
    /// Mark the run finished and wake every waiting worker.
    fn finish(&self) {
        let mut sched = lock(&self.sched);
        sched.done = true;
        self.wake.notify_all();
        drop(sched);
    }

    /// A latency-stamped tuple reached a sink: record source-to-sink
    /// nanoseconds into the run's histogram and the trace. Reached only
    /// when tracing was enabled at injection, so this is off the
    /// disabled-mode path entirely.
    fn note_sink_latency(&self, inst: usize, born: u64) {
        let obs = blazes_obs::global();
        let latency = obs.now_ns().saturating_sub(born);
        self.latency.get_or_init(Histogram::new).record(latency);
        obs.record(EventKind::SinkArrival, inst as u64, latency);
    }

    /// Queue the runnable instance `inst` — on `ready` from a worker, on
    /// `injected` from an external push — and notify one waiter if any
    /// worker is idle. Returns whether one was.
    fn enqueue(&self, inst: usize, external: bool) -> bool {
        let mut sched = lock(&self.sched);
        if external {
            sched.injected.push_back(inst);
        } else {
            sched.ready.push_back(inst);
        }
        let idle = sched.idle > 0;
        if idle {
            self.wake.notify_one();
        }
        idle
    }

    /// Push `(destination, item)`s from a coordinating (non-worker)
    /// thread, in order: each stretch of items for one destination lands
    /// as one mailbox run. The caller has charged them already.
    fn external_push(&self, items: impl Iterator<Item = (usize, MailItem)>) {
        let mut items = items.peekable();
        while let Some(&(dst, _)) = items.peek() {
            let mb = &self.slots[dst].mailbox;
            let run = std::iter::from_fn(|| items.next_if(|(d, _)| *d == dst).map(|(_, i)| i));
            mb.push_run(run);
            if mb
                .scheduled
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.enqueue(dst, true);
            }
        }
    }

    /// Realize a modeled service time as a wall-clock spin, if configured.
    fn burn_service(&self, service: Time) {
        let Some(ns) = self.virtual_ns else { return };
        if service == 0 {
            return;
        }
        let dur = Duration::from_nanos(service.saturating_mul(ns));
        let end = Instant::now() + dur;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }
}

/// A parallel run's configuration over the [`Topology`] its assembly
/// records: the builder holds the recording, forwards every
/// [`ExecutorBuilder`] call to it, and [`ParBuilder::build`] turns the two
/// into a [`ParExecutor`].
pub struct ParBuilder {
    topology: Topology,
    seed: u64,
    workers: Option<usize>,
    tuning: ParTuning,
    egress: Option<(Vec<EgressWire>, EgressQueue)>,
}

impl ParBuilder {
    /// Start a new parallel run description. `seed` drives the per-wire
    /// fault-injection RNG streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ParBuilder {
            topology: Topology::new(),
            seed,
            workers: None,
            tuning: ParTuning::default(),
            egress: None,
        }
    }

    /// Pin the worker-thread count (default: available parallelism, capped
    /// at 8, never more than the instance count). Zero is rejected by
    /// [`ParBuilder::with_tuning`] (typed) and [`ParBuilder::build`].
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Apply a [`ParTuning`] bundle — the single validated construction
    /// point of a parallel run's configuration.
    ///
    /// # Errors
    /// [`ParConfigError`] when the worker count or batch size is zero.
    pub fn with_tuning(mut self, tuning: ParTuning) -> Result<Self, ParConfigError> {
        self.tuning = tuning;
        self.validate()?;
        Ok(self)
    }

    /// Run over `topology`, recorded elsewhere, in place of what this
    /// builder recorded so far. The distributed backend builds a worker's
    /// runtime from its partition of the assembly this way.
    pub(crate) fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Add `wires`, which leave this runtime: what their producers emit
    /// on them is sent to `queue`, with no mailbox, fault draw or
    /// in-flight charge on this side. A distributed worker's cross wires.
    pub(crate) fn with_egress(mut self, wires: Vec<EgressWire>, queue: EgressQueue) -> Self {
        self.egress = Some((wires, queue));
        self
    }

    fn validate(&self) -> Result<(), ParConfigError> {
        if self.workers == Some(0) {
            return Err(ParConfigError::ZeroWorkers);
        }
        if self.tuning.batch_size == 0 {
            return Err(ParConfigError::ZeroBatchSize);
        }
        Ok(())
    }

    /// Finalize into a runnable [`ParExecutor`]. Each output port's wires
    /// fire in registration order, each seeding its fault RNG stream from
    /// its wire number — which is what makes fault schedules independent
    /// of the worker count. Injections are dispatched in ascending `at`
    /// (an ordering key only: this backend has no virtual clock), ties in
    /// recording order — the same order the simulator's event queue opens
    /// with.
    ///
    /// # Panics
    /// Panics on a configuration [`ParBuilder::with_tuning`] would reject
    /// (reachable only by pinning zero workers after, or without, it).
    #[must_use]
    pub fn build(self) -> ParExecutor {
        if let Err(e) = self.validate() {
            panic!("invalid parallel configuration: {e}");
        }
        let Topology {
            instances,
            channels,
            wires,
            injections,
        } = self.topology;
        // An explicitly pinned count is honored as-is; only the derived
        // default is capped and clamped to the instance count.
        let workers = self
            .workers
            .unwrap_or_else(|| default_workers().min(instances.len().max(1)));
        // Dispatch order: by time, ties in recording order. Sorting the
        // injections themselves would allocate a scratch copy of all of
        // them (megabytes for a large click log, on every build), so only
        // their positions are sorted.
        let mut order: Vec<(Time, usize)> = injections
            .iter()
            .enumerate()
            .map(|(i, &(at, ..))| (at, i))
            .collect();
        order.sort_by_key(|&(at, _)| at);

        let mut cells: Vec<Cell> = instances
            .into_iter()
            .map(|instance| Cell {
                component: instance.component,
                wires: Vec::new(),
                processed: 0,
                now: 0,
                service: instance.service,
                spec: None,
                deferred: VecDeque::new(),
                epoch_cache: HashMap::new(),
            })
            .collect();
        let seed = self.seed;
        let local = wires.into_iter().map(|w| {
            let faults = WireFaults::new(&channels[w.channel.0], seed, w.number);
            let dst = Dst::Local {
                inst: w.to.0,
                port: w.in_port.0,
            };
            (w.from, w.out_port, WireRt { dst, faults })
        });
        let (egress_wires, egress) = self.egress.unzip();
        let leaving = egress_wires.into_iter().flatten().map(|w| {
            let dst = Dst::Egress {
                wire: w.number,
                seq: 0,
            };
            (w.from, w.out_port, WireRt { dst, faults: None })
        });
        for (from, out_port, wire) in local.chain(leaving) {
            let ports = &mut cells[from.0].wires;
            if ports.len() <= out_port.0 {
                ports.resize_with(out_port.0 + 1, Vec::new);
            }
            ports[out_port.0].push(wire);
        }
        let slots = cells
            .into_iter()
            .map(|cell| Slot {
                cell: InstanceCell(Mutex::new(cell)),
                mailbox: Mailbox::new(),
            })
            .collect();

        ParExecutor {
            slots,
            injected: injections,
            order,
            workers,
            tuning: self.tuning,
            egress,
        }
    }
}

impl ExecutorBuilder for ParBuilder {
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        self.topology.add_instance(component)
    }

    /// Realized only when [`ParTuning::virtual_service_ns`] is set, as a
    /// wall-clock spin per processed event.
    fn set_service_time(&mut self, id: InstanceId, service: Time) {
        self.topology.set_service_time(id, service);
    }

    fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        self.topology.add_channel(cfg)
    }

    fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    ) {
        self.topology.connect(from, out_port, to, in_port, channel);
    }

    fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        self.topology.inject(at, to, port, msg);
    }

    fn take_recording(&mut self, topology: Topology) {
        self.topology.take_recording(topology);
    }
}

/// Aggregate statistics of one parallel run.
#[derive(Debug, Clone)]
pub struct ParStats {
    /// Total events processed (deliveries and drain signals).
    pub events_processed: u64,
    /// Messages delivered to instances.
    pub messages_delivered: u64,
    /// Channel-level duplicate deliveries injected.
    pub duplicates: u64,
    /// Channel-level retransmissions counted (message still delivered).
    pub retransmits: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Per-instance breakdown.
    pub per_instance: Vec<InstanceStats>,
    /// Per-worker scheduling breakdown (events, parks, wakeups, skew).
    pub per_worker: Vec<WorkerStats>,
    /// High-water mark over all mailbox depths.
    pub max_mailbox_depth: usize,
    /// Time-warp speculation epochs opened (0 unless speculation is on).
    pub epochs_opened: u64,
    /// Epochs that committed — the speculation paid off.
    pub epochs_committed: u64,
    /// Epochs that aborted — a late event violated the speculation.
    pub epochs_aborted: u64,
    /// Never-sealed-session rescue passes the run needed (0 for any run
    /// whose speculation sessions all resolved on their own; see the
    /// module docs' end-of-run resolution section).
    pub rescue_passes: u64,
    /// Source-to-sink latency of this run's tuples, in nanoseconds:
    /// stamped at injection, recorded at wire-less sinks. `None` unless
    /// tracing was on when tuples were injected.
    pub latency: Option<HistogramSnapshot>,
}

impl ParStats {
    /// Throughput in messages per wall-clock second.
    #[must_use]
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.messages_delivered as f64 / secs
    }

    /// Load-balance summary: max worker events over mean worker events
    /// (1.0 = perfectly even).
    #[must_use]
    pub fn balance(&self) -> f64 {
        event_balance(&self.per_worker)
    }

    /// Always 0: workers share one run queue, so nothing is stolen. Kept
    /// because the benchmark still reads it (`par.steals`).
    #[must_use]
    pub fn total_steals(&self) -> u64 {
        0
    }

    /// Total idle waits on the run queue's condition variable, across
    /// workers.
    #[must_use]
    pub fn total_parks(&self) -> u64 {
        self.per_worker.iter().map(|w| w.parks).sum()
    }

    /// Total notifies workers' pushes sent to an idle peer. Pushes from
    /// outside the pool ([`RunningPar::inject`]) are not counted.
    #[must_use]
    pub fn total_wakeups(&self) -> u64 {
        self.per_worker.iter().map(|w| w.wakeups).sum()
    }

    /// Always 0: mailboxes are locked queues, so a push has no CAS to
    /// retry. Kept because the benchmark still reads it
    /// (`par.push_retries`).
    #[must_use]
    pub fn total_push_retries(&self) -> u64 {
        0
    }

    /// Total mailbox pushes across workers: one per destination per
    /// activation, however many items the run carried.
    #[must_use]
    pub fn total_mailbox_pushes(&self) -> u64 {
        self.per_worker.iter().map(|w| w.mailbox_pushes).sum()
    }

    /// Total speculation sessions entered (state snapshots taken).
    #[must_use]
    pub fn total_speculations(&self) -> u64 {
        self.per_worker.iter().map(|w| w.speculations).sum()
    }

    /// Total rollbacks (snapshot restores after an aborted epoch).
    #[must_use]
    pub fn total_rollbacks(&self) -> u64 {
        self.per_worker.iter().map(|w| w.rollbacks).sum()
    }

    /// Total committed events replayed after rollbacks.
    #[must_use]
    pub fn total_replayed_events(&self) -> u64 {
        self.per_worker.iter().map(|w| w.replayed_events).sum()
    }
}

/// A runnable parallel execution.
pub struct ParExecutor {
    slots: Vec<Slot>,
    injected: Vec<Injection>,
    /// `(time, position in injected)`, in dispatch order.
    order: Vec<(Time, usize)>,
    workers: usize,
    tuning: ParTuning,
    egress: Option<EgressQueue>,
}

impl ParExecutor {
    /// Execute to quiescence and return run statistics.
    ///
    /// # Panics
    /// Re-raises the first panic of any component handler.
    #[must_use]
    pub fn run(self) -> ParStats {
        self.start().finish()
    }

    /// Spawn the workers and dispatch the builder's injections, returning
    /// a handle that accepts further external input while the run is
    /// live ([`RunningPar::inject`]). The handle holds a *source token*
    /// in the in-flight accounting: quiescence — and with it run
    /// completion — is unreachable until [`RunningPar::finish`] releases
    /// it, so a live handle can inject at any time without racing
    /// shutdown. This is the ingress the distributed backend feeds
    /// cross-process deliveries through.
    #[must_use]
    pub fn start(self) -> RunningPar {
        let started = Instant::now();
        let workers = self.workers;

        let shared = Arc::new(Shared {
            slots: self.slots,
            workers,
            batch_size: self.tuning.batch_size,
            sched: Mutex::default(),
            wake: Condvar::new(),
            counters: Counters {
                // One shard per worker plus one for the injecting
                // coordinator thread. The builder's injections are
                // pre-charged, plus one source token the RunningPar
                // handle holds until `finish` — which is also why an
                // empty injection list no longer needs a special case.
                in_flight: InFlight::new(workers + 1, self.injected.len() as i64 + 1),
                duplicates: AtomicU64::new(0),
                retransmits: AtomicU64::new(0),
            },
            spec: self.tuning.speculation.then(SpecShared::new),
            deferred: AtomicI64::new(0),
            rescue: AtomicU8::new(0),
            rescue_passes: AtomicU64::new(0),
            virtual_ns: self.tuning.virtual_service_ns,
            latency: OnceLock::new(),
            egress: self.egress,
        });

        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let ctx = WorkerCtx {
                outbox: Outbox::new(shared.slots.len()),
                shared: Arc::clone(&shared),
                idx: w,
                drain_buf: Vec::new(),
                emit_buf: Vec::new(),
                ws: WorkerStats {
                    worker: w,
                    ..WorkerStats::default()
                },
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("blazes-par-{w}"))
                    .spawn(move || ctx.run())
                    .expect("spawn worker thread"),
            );
        }

        // Dispatch injections (workers are already listening). Pushing in
        // the sorted order preserves each instance's injection sequence;
        // pushing them one at a time lets the workers start on the first
        // while the rest are still being dispatched.
        let mut injected = self.injected;
        for (_, i) in self.order {
            let (_, to, port, msg) = &mut injected[i];
            let msg = std::mem::replace(msg, Message::Eos);
            shared.external_push(std::iter::once(external_delivery(*to, port.0, msg)));
        }

        RunningPar {
            shared,
            handles,
            started,
        }
    }
}

/// An external message for `port` of `to`, as the mailbox item that
/// delivers it.
fn external_delivery(to: InstanceId, port: usize, msg: Message) -> (usize, MailItem) {
    let born = blazes_obs::start();
    blazes_obs::record(EventKind::Inject, to.0 as u64, 0);
    let item = MailItem::Deliver {
        port,
        msg,
        epoch: 0,
        born,
    };
    (to.0, item)
}

/// A live parallel run: workers are executing, and the holder may still
/// feed external messages in. Dropping the handle without calling
/// [`RunningPar::finish`] leaks the source token and the worker threads —
/// always finish.
pub struct RunningPar {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<WorkerStats>>,
    started: Instant,
}

impl RunningPar {
    /// Deliver a run of external (committed) messages, each to its
    /// `(instance, port)`, in order; never blocks. The run is charged to
    /// the in-flight accounting once, each stretch of messages for one
    /// instance lands in its mailbox as one push, and the pool is woken
    /// at most once. Callable from any thread; concurrent calls race only
    /// in arrival order, exactly like concurrent producers.
    pub fn inject<I>(&self, run: I)
    where
        I: IntoIterator<Item = (InstanceId, PortId, Message)>,
        I::IntoIter: ExactSizeIterator,
    {
        let run = run.into_iter();
        // Charge the coordinator's shard before any push becomes
        // visible — the same invariant every worker send upholds.
        self.shared
            .counters
            .in_flight
            .charge(self.shared.workers, run.len() as i64);
        self.shared
            .external_push(run.map(|(to, port, msg)| external_delivery(to, port.0, msg)));
    }

    /// Advisory quiescence probe: has every delivery — injected or
    /// internal — been fully processed, so that only this handle's source
    /// token (plus any speculation deferrals parked behind it, which only
    /// [`RunningPar::finish`]'s rescue ladder can resolve) remains in the
    /// in-flight accounting? A concurrent [`RunningPar::inject`] from
    /// another thread invalidates the answer the instant it is produced;
    /// a distributed worker acts on it only by sending an idle report,
    /// which its coordinator checks against every worker's counters
    /// before it collects.
    #[must_use]
    pub fn settled(&self) -> bool {
        let expected = if self.shared.spec.is_some() {
            self.shared.deferred.load(Ordering::SeqCst)
        } else {
            0
        };
        self.shared.counters.in_flight.settled_at(1 + expected)
    }

    /// Release the source token, wait for quiescence, and return the
    /// run's statistics.
    ///
    /// # Panics
    /// Re-raises the first panic of any component handler.
    #[must_use]
    pub fn finish(self) -> ParStats {
        let RunningPar {
            shared,
            handles,
            started,
        } = self;
        let workers = shared.workers;
        // Release the source token: the in-flight sum can now reach
        // zero. If every worker is already waiting, none of them will
        // scan again on its own, so wake one under the scheduler lock: a
        // worker that scanned before the release was waiting before this
        // notify, and one that scans after it sees the release.
        shared.counters.in_flight.settle(workers, 1);
        let sched = lock(&shared.sched);
        shared.wake.notify_one();
        drop(sched);

        let mut per_worker = Vec::with_capacity(workers);
        let mut panic_payload = None;
        for handle in handles {
            match handle.join() {
                Ok(ws) => per_worker.push(ws),
                Err(payload) => {
                    // Keep the first worker's payload: later panics are
                    // usually cascades of the originating failure.
                    if panic_payload.is_none() {
                        panic_payload = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        per_worker.sort_by_key(|w| w.worker);

        let shared = Arc::into_inner(shared).expect("workers joined, no other holders");
        let mut per_instance = Vec::with_capacity(shared.slots.len());
        let mut max_mailbox_depth = 0;
        for slot in shared.slots {
            max_mailbox_depth = max_mailbox_depth.max(slot.mailbox.depth_max.into_inner());
            let cell = slot.cell.into_inner();
            per_instance.push(InstanceStats {
                name: cell.component.name().to_string(),
                processed: cell.processed,
            });
        }

        let rescue_passes = shared.rescue_passes.into_inner();
        let (epochs_opened, epochs_committed, epochs_aborted) =
            shared.spec.map_or((0, 0, 0), |s| {
                (
                    s.opened.into_inner(),
                    s.committed.into_inner(),
                    s.aborted.into_inner(),
                )
            });

        ParStats {
            events_processed: per_worker.iter().map(|w| w.events).sum(),
            messages_delivered: per_instance.iter().map(|i| i.processed).sum(),
            duplicates: shared.counters.duplicates.load(Ordering::SeqCst),
            retransmits: shared.counters.retransmits.load(Ordering::SeqCst),
            workers,
            wall_time: started.elapsed(),
            per_instance,
            per_worker,
            max_mailbox_depth,
            epochs_opened,
            epochs_committed,
            epochs_aborted,
            rescue_passes,
            latency: shared.latency.into_inner().map(|h| h.snapshot()),
        }
    }
}

/// Sets the global done flag if the owning worker unwinds, so sibling
/// workers (and the joining coordinator) cannot deadlock on a dead peer.
struct PanicGuard {
    shared: Arc<Shared>,
}

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.finish();
        }
    }
}

/// What to do with one drained delivery under time-warp rules.
enum Admit {
    /// Process it now (committed, same-epoch speculation, or a freshly
    /// entered speculation session).
    Run,
    /// Park it until its epoch resolves.
    Defer,
    /// Its epoch aborted before it was processed: discard.
    Drop,
}

/// One activation's outbound mail, grouped by destination. `process`
/// stages every emission here instead of sending it; the mailbox runs
/// are per worker and keep their capacity, so steady-state staging
/// allocates nothing but each activation's egress batch.
struct Outbox {
    /// Staged items per destination instance, each in emission order.
    runs: Vec<Vec<MailItem>>,
    /// Destinations with a non-empty run, in first-staged order.
    dsts: Vec<usize>,
    /// Items staged across all runs.
    len: usize,
    /// Frames staged on egress wires, in emission order.
    egress: Vec<EgressFrame>,
}

impl Outbox {
    fn new(instances: usize) -> Self {
        Outbox {
            runs: (0..instances).map(|_| Vec::new()).collect(),
            dsts: Vec::new(),
            len: 0,
            egress: Vec::new(),
        }
    }

    fn push(&mut self, dst: usize, item: MailItem) {
        let run = &mut self.runs[dst];
        if run.is_empty() {
            self.dsts.push(dst);
        }
        run.push(item);
        self.len += 1;
    }
}

struct WorkerCtx {
    shared: Arc<Shared>,
    idx: usize,
    /// The current activation's outbound mail, sent by [`WorkerCtx::flush`].
    outbox: Outbox,
    /// Reusable drain buffer: one activation's mailbox batch, moved out
    /// of the mailbox under one lock.
    drain_buf: Vec<MailItem>,
    /// Reusable emission buffer: lent to each handler's [`Context`],
    /// drained while staging, then put back.
    emit_buf: Vec<(usize, Message)>,
    ws: WorkerStats,
}

impl WorkerCtx {
    fn run(mut self) -> WorkerStats {
        let guard = PanicGuard {
            shared: Arc::clone(&self.shared),
        };
        // One Arc clone for the whole worker lifetime; the hot path below
        // passes `&Shared` down instead of touching the refcount per call.
        let shared = Arc::clone(&self.shared);
        while let Some(inst) = self.next_task(&shared) {
            self.run_instance(&shared, inst);
        }
        drop(guard);
        self.ws
    }

    /// The next instance to activate, or `None` once the run is done.
    /// Pops `ready`, then `injected`; with both empty, runs the
    /// validated in-flight scan under the scheduler lock and finishes
    /// the run, starts a rescue pass, or waits for a push. The scan and
    /// the wait are under the one lock every push takes, so a push lands
    /// either before the scan (and is popped) or after the wait began
    /// (and notifies): there is no timeout to fall back on, and none is
    /// needed.
    fn next_task(&mut self, shared: &Shared) -> Option<usize> {
        let mut sched = lock(&shared.sched);
        loop {
            if sched.done {
                return None;
            }
            if let Some(inst) = sched.ready.pop_front() {
                return Some(inst);
            }
            if let Some(inst) = sched.injected.pop_front() {
                return Some(inst);
            }
            // With `expected` = the parked-deferral count, a validated
            // match means nothing is in any mailbox or mid-batch: the run
            // is either over or wedged on speculation that no message in
            // flight can resolve.
            let expected = if shared.spec.is_some() {
                shared.deferred.load(Ordering::SeqCst)
            } else {
                0
            };
            if shared.counters.in_flight.settled_at(expected) {
                if let Some(pass) = claim_rescue(shared) {
                    // The pass pushes through the scheduler lock.
                    drop(sched);
                    self.rescue(shared, pass);
                    sched = lock(&shared.sched);
                    continue;
                }
                if expected == 0 {
                    sched.done = true;
                    shared.wake.notify_all();
                    return None;
                }
                // expected > 0 with no pass to run: the deferrals'
                // epochs have resolved and their instances are queued or
                // running; whoever runs them scans again.
            }
            sched.idle += 1;
            self.ws.parks += 1;
            let span = blazes_obs::start();
            sched = shared
                .wake
                .wait(sched)
                .unwrap_or_else(PoisonError::into_inner);
            blazes_obs::span(span, EventKind::Park, self.idx as u64, 0);
            sched.idle -= 1;
        }
    }

    /// Drain up to `batch_size` messages from one instance in one batched
    /// queue operation, send what the handlers emitted, then release or
    /// reschedule it.
    fn run_instance(&mut self, shared: &Shared, inst: usize) {
        if shared.spec.is_some() {
            // Time-warp mode takes a separate activation path so the
            // speculation-free hot path below stays byte-for-byte what
            // the lock-accounting tests pin.
            self.run_instance_spec(shared, inst);
            return;
        }
        let slot = &shared.slots[inst];
        let span = blazes_obs::start();
        // The scheduled flag makes us the exclusive owner of both the
        // mailbox's consumer side and the instance cell.
        let mut cell = slot.cell.claim();
        let mut batch = std::mem::take(&mut self.drain_buf);
        batch.clear();
        let drained = slot.mailbox.pop_batch(&mut batch, shared.batch_size);
        for item in batch.drain(..) {
            self.process(shared, inst, item, &mut cell, 0);
        }
        self.drain_buf = batch;
        // Send before settling and before releasing the flag: the
        // unsettled batch keeps the in-flight sum above zero until the
        // emissions are charged, and the next activation of this
        // instance cannot start until they are in their mailboxes.
        self.flush(shared);
        drop(cell);
        blazes_obs::span(span, EventKind::Activation, inst as u64, drained as u64);
        if drained > 0 {
            // Settle the whole batch against this worker's shard in one
            // RMW. Deferring decrements is safe (the sum only
            // over-approximates); quiescence is detected by the idle scan
            // in `next_task`.
            shared.counters.in_flight.settle(self.idx, drained as i64);
        }

        // Release protocol: keep the scheduled flag while work remains;
        // otherwise clear it and re-check for the racing producer whose
        // flag CAS failed just before we cleared. A producer appends
        // under the mailbox lock before its CAS, so either our locked
        // re-check sees its run or its CAS sees the cleared flag.
        if !slot.mailbox.is_empty() {
            self.enqueue_ready(shared, inst);
        } else {
            slot.mailbox.scheduled.store(false, Ordering::SeqCst);
            if !slot.mailbox.is_empty()
                && slot
                    .mailbox
                    .scheduled
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                self.enqueue_ready(shared, inst);
            }
        }
    }

    /// The time-warp activation path: resolve any finished epoch first
    /// (commit/rollback), retry deferred deliveries, then admit the
    /// drained batch item by item — run, defer, or drop each according to
    /// its epoch — and re-check both queues and the `spec_dirty` hint in
    /// the release protocol.
    fn run_instance_spec(&mut self, shared: &Shared, inst: usize) {
        let slot = &shared.slots[inst];
        let span = blazes_obs::start();
        let mut guard = slot.cell.claim();
        let cell = &mut *guard;
        // Clear the wake hint before acting on it: a resolution landing
        // after this store re-sets it, and the release re-check below (or
        // the resolver's own scheduled-flag CAS) guarantees another
        // activation sees it.
        slot.mailbox.spec_dirty.store(false, Ordering::SeqCst);
        self.spec_maintain(shared, inst, cell);
        self.drain_deferred(shared, inst, cell);
        let mut batch = std::mem::take(&mut self.drain_buf);
        batch.clear();
        let drained = slot.mailbox.pop_batch(&mut batch, shared.batch_size);
        for item in batch.drain(..) {
            self.admit(shared, inst, item, cell);
        }
        self.drain_buf = batch;
        // An epoch may have resolved while we held the flag (its resolver
        // could not reschedule us); act on it before releasing.
        self.spec_maintain(shared, inst, cell);
        self.drain_deferred(shared, inst, cell);
        // Same send point as the committed path. Epoch resolutions were
        // applied while staging, so a tagged item staged before an abort
        // reaches its consumer already aborted and is dropped there — the
        // outcome the consumer would also reach had it arrived first.
        self.flush(shared);
        drop(guard);
        blazes_obs::span(span, EventKind::Activation, inst as u64, drained as u64);
        if drained > 0 {
            shared.counters.in_flight.settle(self.idx, drained as i64);
        }

        if !slot.mailbox.is_empty() {
            self.enqueue_ready(shared, inst);
        } else {
            slot.mailbox.scheduled.store(false, Ordering::SeqCst);
            if (!slot.mailbox.is_empty() || slot.mailbox.spec_dirty.load(Ordering::SeqCst))
                && slot
                    .mailbox
                    .scheduled
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                self.enqueue_ready(shared, inst);
            }
        }
    }

    /// Act on a resolved epoch this instance is tainted by: a commit
    /// simply drops the checkpoint (current state is the real state); an
    /// abort restores the checkpoint and deterministically replays the
    /// committed inputs absorbed while tainted.
    fn spec_maintain(&mut self, shared: &Shared, inst: usize, cell: &mut Cell) {
        let Some(spec) = &cell.spec else { return };
        match spec.status.load(Ordering::SeqCst) {
            EPOCH_COMMITTED => {
                cell.spec = None;
            }
            EPOCH_ABORTED => {
                let spec = cell.spec.take().expect("checked above");
                cell.component.restore(spec.snapshot);
                self.ws.rollbacks += 1;
                self.ws.replayed_events += spec.log.len() as u64;
                blazes_obs::record(EventKind::Rollback, spec.epoch, inst as u64);
                for item in spec.log {
                    // Untainted again: replay emissions go out committed
                    // (the originals carried the aborted epoch and were
                    // discarded downstream).
                    self.process(shared, inst, item, cell, 0);
                }
            }
            _ => {}
        }
    }

    /// Retry deferred deliveries in arrival order, stopping at the first
    /// that still has to wait (FIFO must hold through deferral).
    fn drain_deferred(&mut self, shared: &Shared, inst: usize, cell: &mut Cell) {
        while let Some(item) = cell.deferred.pop_front() {
            match self.admit_decision(shared, inst, &item, cell) {
                Admit::Run => {
                    shared.counters.in_flight.settle(self.idx, 1);
                    shared.deferred.fetch_sub(1, Ordering::SeqCst);
                    self.process_admitted(shared, inst, item, cell);
                }
                Admit::Drop => {
                    shared.counters.in_flight.settle(self.idx, 1);
                    shared.deferred.fetch_sub(1, Ordering::SeqCst);
                    self.ws.discarded_deliveries += 1;
                }
                Admit::Defer => {
                    cell.deferred.push_front(item);
                    return;
                }
            }
        }
    }

    /// Admit one freshly drained item under time-warp rules.
    fn admit(&mut self, shared: &Shared, inst: usize, item: MailItem, cell: &mut Cell) {
        // Order preservation: once anything is deferred, everything
        // behind it defers too (a later committed item must not overtake
        // a deferred speculative one on the same wire).
        if !cell.deferred.is_empty() {
            self.defer(shared, cell, item);
            return;
        }
        match self.admit_decision(shared, inst, &item, cell) {
            Admit::Run => self.process_admitted(shared, inst, item, cell),
            Admit::Defer => self.defer(shared, cell, item),
            Admit::Drop => self.ws.discarded_deliveries += 1,
        }
    }

    /// Classify one delivery: run it now, park it until its epoch
    /// resolves, or drop it (epoch already aborted). Entering a
    /// speculation session (snapshot + taint) happens here, on the first
    /// open-epoch delivery to an untainted, checkpointable component.
    fn admit_decision(
        &mut self,
        shared: &Shared,
        inst: usize,
        item: &MailItem,
        cell: &mut Cell,
    ) -> Admit {
        let epoch = item.epoch();
        if epoch == 0 {
            return Admit::Run;
        }
        let status = self.epoch_status(shared, cell, epoch);
        match status.load(Ordering::SeqCst) {
            EPOCH_ABORTED => return Admit::Drop,
            EPOCH_COMMITTED => return Admit::Run,
            _ => {}
        }
        if let Some(spec) = &cell.spec {
            if spec.epoch == epoch {
                // Already speculating in this epoch: keep going.
                return Admit::Run;
            }
            // Tainted by a different epoch: wait (and register for the
            // other epoch's wake too, for prompt draining).
            self.spec_join(shared, inst, epoch);
            return Admit::Defer;
        }
        match cell.component.snapshot() {
            Some(snapshot) => {
                let status = self.spec_join(shared, inst, epoch);
                // The join is atomic with registration under the registry
                // lock; re-check in case the epoch resolved since the
                // cached load above.
                match status.load(Ordering::SeqCst) {
                    EPOCH_ABORTED => Admit::Drop,
                    EPOCH_COMMITTED => Admit::Run,
                    _ => {
                        cell.spec = Some(InstSpec {
                            epoch,
                            status,
                            snapshot,
                            log: Vec::new(),
                        });
                        self.ws.speculations += 1;
                        Admit::Run
                    }
                }
            }
            None => {
                // Not checkpointable: this consumer blocks on the seal
                // after all. Register so the resolution reschedules us.
                self.spec_join(shared, inst, epoch);
                Admit::Defer
            }
        }
    }

    /// Run an admitted item, logging it first if it is committed input
    /// absorbed under taint (those must be replayed after a rollback —
    /// same-epoch speculative input is *not* logged, because the gate
    /// re-emits its corrected equivalent after an abort).
    fn process_admitted(&mut self, shared: &Shared, inst: usize, item: MailItem, cell: &mut Cell) {
        if let Some(spec) = &mut cell.spec {
            if item.epoch() != spec.epoch {
                spec.log.push(item.clone());
            }
        }
        let taint = cell.spec.as_ref().map_or(0, |s| s.epoch);
        self.process(shared, inst, item, cell, taint);
    }

    /// Park a delivery until its epoch resolves. The batch settle counts
    /// it as consumed, so re-charge to keep the quiescence sum honest
    /// until it actually runs or is dropped.
    fn defer(&mut self, shared: &Shared, cell: &mut Cell, item: MailItem) {
        shared.counters.in_flight.charge(self.idx, 1);
        shared.deferred.fetch_add(1, Ordering::SeqCst);
        cell.deferred.push_back(item);
    }

    /// Status handle for `epoch`, from the cell's cache or (once) the
    /// shared registry.
    fn epoch_status(&mut self, shared: &Shared, cell: &mut Cell, epoch: u64) -> Arc<AtomicU8> {
        if let Some(s) = cell.epoch_cache.get(&epoch) {
            return Arc::clone(s);
        }
        let spec = shared.spec.as_ref().expect("time-warp mode");
        let mut table = lock(&spec.epochs);
        let entry = table.entry(epoch).or_insert_with(|| {
            spec.opened.fetch_add(1, Ordering::Relaxed);
            blazes_obs::record(EventKind::EpochOpen, epoch, 0);
            EpochEntry::default()
        });
        let status = Arc::clone(&entry.status);
        drop(table);
        cell.epoch_cache.insert(epoch, Arc::clone(&status));
        status
    }

    /// Register `inst` as a participant of `epoch` and return the status
    /// handle — atomically under the registry lock, so a resolution
    /// concurrent with the join either sees the registration (and wakes
    /// us) or is visible in the returned status.
    fn spec_join(&mut self, shared: &Shared, inst: usize, epoch: u64) -> Arc<AtomicU8> {
        let spec = shared.spec.as_ref().expect("time-warp mode");
        let mut table = lock(&spec.epochs);
        let entry = table.entry(epoch).or_insert_with(|| {
            spec.opened.fetch_add(1, Ordering::Relaxed);
            blazes_obs::record(EventKind::EpochOpen, epoch, 0);
            EpochEntry::default()
        });
        if entry.status.load(Ordering::SeqCst) == EPOCH_OPEN && !entry.participants.contains(&inst)
        {
            entry.participants.push(inst);
        }
        Arc::clone(&entry.status)
    }

    /// Resolve `epoch`: publish the status and reschedule every
    /// registered participant so commits drain deferred mail and aborts
    /// roll back promptly. Participants are taken under the same lock
    /// the join registers under — no registration can fall between.
    /// Only the OPEN → resolved transition counts: the first verdict
    /// stands and a later one (the rescue ladder's hard abort racing a
    /// gate's own `on_drain` abort) is a no-op, so consumers that already
    /// acted on COMMITTED never see it flip.
    fn resolve_epoch(&mut self, shared: &Shared, epoch: u64, commit: bool) {
        let spec = shared
            .spec
            .as_ref()
            .expect("resolve_speculation requires ParTuning::with_speculation");
        let participants = {
            let mut table = lock(&spec.epochs);
            let entry = table.entry(epoch).or_insert_with(|| {
                spec.opened.fetch_add(1, Ordering::Relaxed);
                blazes_obs::record(EventKind::EpochOpen, epoch, 0);
                EpochEntry::default()
            });
            let verdict = if commit {
                EPOCH_COMMITTED
            } else {
                EPOCH_ABORTED
            };
            if entry
                .status
                .compare_exchange(EPOCH_OPEN, verdict, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                return;
            }
            std::mem::take(&mut entry.participants)
        };
        if commit {
            spec.committed.fetch_add(1, Ordering::Relaxed);
            blazes_obs::record(EventKind::EpochCommit, epoch, 0);
        } else {
            spec.aborted.fetch_add(1, Ordering::Relaxed);
            blazes_obs::record(EventKind::EpochAbort, epoch, 0);
        }
        // Any resolution is progress: restart the never-sealed rescue
        // ladder, so a later wedge gets the gentle drain pass first.
        shared.rescue.store(0, Ordering::SeqCst);
        for inst in participants {
            let mb = &shared.slots[inst].mailbox;
            // Hint first, then try to schedule: mirrors the mailbox
            // release protocol, so the owner's post-release re-check
            // catches the case where our CAS loses to a running owner.
            mb.spec_dirty.store(true, Ordering::SeqCst);
            if mb
                .scheduled
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.enqueue_ready(shared, inst);
            }
        }
    }

    fn process(
        &mut self,
        shared: &Shared,
        inst: usize,
        item: MailItem,
        cell: &mut Cell,
        taint: u64,
    ) {
        self.ws.events += 1;
        cell.now += 1;
        let mut ctx = Context::new(cell.now, InstanceId(inst));
        ctx.emitted = std::mem::take(&mut self.emit_buf);
        let mut born = 0;
        match item {
            MailItem::Deliver {
                port,
                msg,
                born: stamp,
                ..
            } => {
                born = stamp;
                if stamp != 0 {
                    // Tracing was on at injection: this delivery carries a
                    // latency stamp. At a sink (no outgoing wires) the
                    // tuple's journey ends — record source-to-sink latency.
                    if cell.wires.iter().all(Vec::is_empty) {
                        shared.note_sink_latency(inst, stamp);
                    }
                }
                cell.component.on_message(port, msg, &mut ctx);
                cell.processed += 1;
            }
            MailItem::Drain => cell.component.on_drain(&mut ctx),
        }
        shared.burn_service(cell.service);

        let Context {
            mut emitted,
            epochs,
            resolves,
            ..
        } = ctx;
        assert!(
            shared.spec.is_some() || (resolves.is_empty() && epochs.iter().all(|&e| e == 0)),
            "{} used speculative emissions without ParTuning::with_speculation",
            cell.component.name()
        );
        // Resolutions interleave with emissions at their recorded
        // positions: applying them during staging (before any send is
        // visible) keeps "abort, then re-emit corrected" well-ordered —
        // a pre-abort tagged send that later reaches a consumer is
        // simply dropped as aborted.
        let mut next_resolve = 0usize;
        for (i, (out_port, msg)) in emitted.drain(..).enumerate() {
            while next_resolve < resolves.len() && resolves[next_resolve].2 <= i {
                let (epoch, commit, _) = resolves[next_resolve];
                self.resolve_epoch(shared, epoch, commit);
                next_resolve += 1;
            }
            // A tainted instance's every emission carries the taint, even
            // replies to committed input — the cascade that makes abort
            // reach everything downstream of speculative state.
            let epoch = if taint != 0 {
                taint
            } else {
                epochs.get(i).copied().unwrap_or(0)
            };
            Self::stage(
                shared,
                out_port,
                msg,
                epoch,
                born,
                &mut cell.wires,
                &mut self.outbox,
            );
        }
        self.emit_buf = emitted;
        while next_resolve < resolves.len() {
            let (epoch, commit, _) = resolves[next_resolve];
            self.resolve_epoch(shared, epoch, commit);
            next_resolve += 1;
        }
    }

    /// Resolve one emission along every wire of `(instance, out_port)`
    /// into staged mail items. Every wire but the last gets a clone; the
    /// last takes the message itself.
    fn stage(
        shared: &Shared,
        out_port: usize,
        msg: Message,
        epoch: u64,
        born: u64,
        wires: &mut [Vec<WireRt>],
        outbox: &mut Outbox,
    ) {
        let Some((last, rest)) = wires.get_mut(out_port).and_then(|w| w.split_last_mut()) else {
            return;
        };
        for wire in rest {
            Self::stage_on(shared, wire, msg.clone(), epoch, born, outbox);
        }
        Self::stage_on(shared, last, msg, epoch, born, outbox);
    }

    /// Stage one copy of a message on one wire, drawing the wire's faults
    /// from its schedule: a lost first transmission is counted and
    /// retried, a duplicate stages a second copy. An egress wire stages
    /// the message as its next frame instead; the receiving side draws
    /// that wire's faults.
    fn stage_on(
        shared: &Shared,
        wire: &mut WireRt,
        msg: Message,
        epoch: u64,
        born: u64,
        outbox: &mut Outbox,
    ) {
        let (dst, port) = match &mut wire.dst {
            Dst::Local { inst, port } => (*inst, *port),
            Dst::Egress { wire, seq } => {
                outbox.egress.push((*wire, *seq, msg));
                *seq += 1;
                return;
            }
        };
        let (retransmitted, duplicate) = wire
            .faults
            .as_mut()
            .map_or((false, false), WireFaults::draw);
        if retransmitted {
            shared.counters.retransmits.fetch_add(1, Ordering::Relaxed);
        }
        let deliver = |msg| MailItem::Deliver {
            port,
            msg,
            epoch,
            born,
        };
        if duplicate {
            shared.counters.duplicates.fetch_add(1, Ordering::Relaxed);
            outbox.push(dst, deliver(msg.clone()));
        }
        outbox.push(dst, deliver(msg));
    }

    /// Send everything the activation staged. Egress frames go first, as
    /// one batch, after their count is added to the queue's counter; like
    /// the mailbox runs, they leave before the instance can be activated
    /// again, which keeps each egress wire in sequence order. The mailbox
    /// runs are charged to this worker's in-flight shard in one RMW
    /// *before* any item becomes visible — the invariant that keeps the
    /// sharded quiescence scan from under-counting. Then each destination
    /// gets its run in one locked mailbox append and one scheduled-flag
    /// handoff.
    fn flush(&mut self, shared: &Shared) {
        let frames = self.outbox.egress.len();
        if frames > 0 {
            let queue = shared.egress.as_ref().expect("egress wires have a queue");
            queue.queued.fetch_add(frames as u64, Ordering::SeqCst);
            // The next activation is sized like this one: one allocation
            // per batch. A closed queue means the process is going down.
            let batch = std::mem::replace(&mut self.outbox.egress, Vec::with_capacity(frames));
            let _ = queue.tx.send(batch);
        }
        if self.outbox.len == 0 {
            return;
        }
        shared
            .counters
            .in_flight
            .charge(self.idx, self.outbox.len as i64);
        self.outbox.len = 0;
        let mut dsts = std::mem::take(&mut self.outbox.dsts);
        for dst in dsts.drain(..) {
            let mb = &shared.slots[dst].mailbox;
            mb.push_run(self.outbox.runs[dst].drain(..));
            self.ws.mailbox_pushes += 1;
            if mb
                .scheduled
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.enqueue_ready(shared, dst);
            }
        }
        self.outbox.dsts = dsts;
    }

    /// Put a runnable instance on the `ready` queue, waking an idle
    /// worker if there is one.
    fn enqueue_ready(&mut self, shared: &Shared, inst: usize) {
        if shared.enqueue(inst, false) {
            self.ws.wakeups += 1;
            blazes_obs::record(EventKind::Wakeup, self.idx as u64, inst as u64);
        }
    }

    /// Run a rescue pass [`claim_rescue`] claimed: stage 0 sends
    /// [`MailItem::Drain`] to every instance, like any activation's
    /// emissions, so the settled scan stays honest while the pass is in
    /// flight; stage 1 aborts every epoch still open.
    fn rescue(&mut self, shared: &Shared, (stage, open): (u8, Vec<u64>)) {
        shared.rescue_passes.fetch_add(1, Ordering::Relaxed);
        blazes_obs::record(EventKind::Rescue, u64::from(stage), open.len() as u64);
        if stage == 0 {
            for inst in 0..shared.slots.len() {
                self.outbox.push(inst, MailItem::Drain);
            }
            self.flush(shared);
        } else {
            for epoch in open {
                self.resolve_epoch(shared, epoch, false);
            }
        }
    }
}

/// The never-sealed-session rescue, claimed under the scheduler lock and
/// only behind a validated settled scan: every remaining in-flight charge
/// is a parked deferral, so an OPEN speculation epoch at this point can
/// never resolve on its own — no message exists that could still reach
/// its gate. Escalate in two stages: first a *drain pass* delivering
/// [`MailItem::Drain`] to every instance, giving gates the chance to
/// resolve their open sessions themselves ([`Component::on_drain`] — the
/// speculative seal gate aborts, re-emits its voted partitions committed,
/// and holds the unsealed ones back, i.e. blocking semantics); then, if
/// the run wedges again without any resolution, a *hard abort* of every
/// epoch still open. Returns the claimed stage and the open epochs, or
/// `None` when there is nothing to rescue or the ladder is exhausted (a
/// component keeps an epoch open through both passes: give up rather
/// than spin).
fn claim_rescue(shared: &Shared) -> Option<(u8, Vec<u64>)> {
    let spec = shared.spec.as_ref()?;
    let open: Vec<u64> = lock(&spec.epochs)
        .iter()
        .filter(|(_, e)| e.status.load(Ordering::SeqCst) == EPOCH_OPEN)
        .map(|(&epoch, _)| epoch)
        .collect();
    if open.is_empty() {
        return None;
    }
    // Claims are serialized by the scheduler lock; only an epoch
    // resolution's reset to 0 can race this update.
    let stage = shared
        .rescue
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |stage| {
            (stage < 2).then_some(stage + 1)
        })
        .ok()?;
    Some((stage, open))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::FnComponent;
    use crate::sinks::CollectorSink;

    fn echo() -> Box<dyn Component> {
        Box::new(FnComponent::new("echo", |_, msg, ctx: &mut Context| {
            ctx.emit(0, msg)
        }))
    }

    /// Run the same assembly under every tuning variant worth covering.
    fn variants() -> Vec<(&'static str, ParTuning)> {
        vec![
            ("default", ParTuning::default()),
            (
                "batch-3",
                ParTuning {
                    batch_size: 3,
                    ..ParTuning::default()
                },
            ),
            (
                "batch-1",
                ParTuning {
                    batch_size: 1,
                    ..ParTuning::default()
                },
            ),
        ]
    }

    #[test]
    fn delivers_every_message_exactly_once() {
        for (name, tuning) in variants() {
            let mut b = ParBuilder::new(1)
                .with_workers(4)
                .with_tuning(tuning)
                .unwrap();
            let e = b.add_instance(echo());
            let sink = CollectorSink::new();
            let s = b.add_instance(Box::new(sink.clone()));
            b.connect_with(e, PortId(0), s, PortId(0), ChannelConfig::lan());
            for i in 0..500i64 {
                b.inject(0, e, PortId(0), Message::data([i]));
            }
            let stats = b.build().run();
            assert_eq!(sink.len(), 500, "{name}");
            assert_eq!(stats.messages_delivered, 1_000, "{name}"); // 500 at echo + 500 at sink
            let expected: std::collections::BTreeSet<Message> =
                (0..500i64).map(|i| Message::data([i])).collect();
            assert_eq!(sink.message_set(), expected, "{name}");
        }
    }

    #[test]
    fn single_wire_preserves_send_order() {
        // One producer, one sink, activations migrating between workers:
        // per-wire FIFO must hold whatever the thread interleaving.
        for (name, tuning) in variants() {
            let mut b = ParBuilder::new(3)
                .with_workers(2)
                .with_tuning(ParTuning {
                    batch_size: 7,
                    ..tuning
                })
                .unwrap();
            let e = b.add_instance(echo());
            let sink = CollectorSink::new();
            let s = b.add_instance(Box::new(sink.clone()));
            b.connect_with(e, PortId(0), s, PortId(0), ChannelConfig::lan());
            for i in 0..200i64 {
                b.inject(0, e, PortId(0), Message::data([i]));
            }
            let _ = b.build().run();
            let expected: Vec<Message> = (0..200i64).map(|i| Message::data([i])).collect();
            assert_eq!(sink.messages(), expected, "{name}");
        }
    }

    #[test]
    fn fan_out_reaches_every_wire() {
        let mut b = ParBuilder::new(0).with_workers(3);
        let e = b.add_instance(echo());
        let s1 = CollectorSink::new();
        let s2 = CollectorSink::new();
        let i1 = b.add_instance(Box::new(s1.clone()));
        let i2 = b.add_instance(Box::new(s2.clone()));
        let ch = b.add_channel(ChannelConfig::instant());
        b.connect(e, PortId(0), i1, PortId(0), ch);
        b.connect(e, PortId(0), i2, PortId(0), ch);
        b.inject(0, e, PortId(0), Message::data([9i64]));
        let _ = b.build().run();
        assert_eq!(s1.len(), 1);
        assert_eq!(s2.len(), 1);
    }

    #[test]
    fn fan_out_keeps_per_wire_fifo_across_batch_sizes_and_workers() {
        // 4 forwarders x 3 consumers: each input goes to one consumer
        // directly (port i % 3) and to all three over a broadcast port
        // (port 3), so every activation stages interleaved runs for
        // several destinations. Each consumer must see every producer's
        // emissions to it in emission order.
        const PRODUCERS: i64 = 4;
        const PER: i64 = 300;
        for batch_size in [1, 3, 64] {
            for workers in [1, 3] {
                let mut b = ParBuilder::new(21)
                    .with_workers(workers)
                    .with_tuning(ParTuning {
                        batch_size,
                        ..ParTuning::default()
                    })
                    .unwrap();
                let sinks: Vec<CollectorSink> = (0..3).map(|_| CollectorSink::new()).collect();
                let consumers: Vec<InstanceId> = sinks
                    .iter()
                    .map(|s| b.add_instance(Box::new(s.clone())))
                    .collect();
                for p in 0..PRODUCERS {
                    let fwd = b.add_instance(Box::new(FnComponent::new(
                        "fwd",
                        move |_, msg: Message, ctx: &mut Context| {
                            let i = msg.as_data().and_then(|t| t.get(0)?.as_int()).unwrap();
                            ctx.emit((i % 3) as usize, Message::data([p, i, 0]));
                            ctx.emit(3, Message::data([p, i, 1]));
                        },
                    )));
                    for (c, &consumer) in consumers.iter().enumerate() {
                        let lan = ChannelConfig::lan();
                        b.connect_with(fwd, PortId(c), consumer, PortId(0), lan.clone());
                        b.connect_with(fwd, PortId(3), consumer, PortId(0), lan);
                    }
                    for i in 0..PER {
                        b.inject(0, fwd, PortId(0), Message::data([i]));
                    }
                }
                let _ = b.build().run();
                for (c, sink) in sinks.iter().enumerate() {
                    let arrived: Vec<Vec<i64>> = sink
                        .messages()
                        .iter()
                        .map(|m| {
                            let t = m.as_data().unwrap();
                            (0..3)
                                .map(|k| t.get(k).unwrap().as_int().unwrap())
                                .collect()
                        })
                        .collect();
                    for p in 0..PRODUCERS {
                        let got: Vec<(i64, i64)> = arrived
                            .iter()
                            .filter(|t| t[0] == p)
                            .map(|t| (t[1], t[2]))
                            .collect();
                        let expected: Vec<(i64, i64)> = (0..PER)
                            .flat_map(|i| {
                                let direct = (i % 3 == c as i64).then_some((i, 0));
                                direct.into_iter().chain([(i, 1)])
                            })
                            .collect();
                        assert_eq!(
                            got, expected,
                            "batch {batch_size}, {workers} workers: producer {p} -> consumer {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_activation_pushes_once_per_destination() {
        // One worker, so the activation sequence is fixed: the source's
        // single activation stages 100 emissions for 3 forwarders and
        // pushes 3 runs; each forwarder then drains its full mailbox in
        // batches of 8 and pushes one run to the sink per activation
        // (ceil(34/8) + 2 * ceil(33/8) = 15). The sink emits nothing.
        // One push per message would be 200.
        let mut b = ParBuilder::new(8)
            .with_workers(1)
            .with_tuning(ParTuning {
                batch_size: 8,
                ..ParTuning::default()
            })
            .unwrap();
        let source = b.add_instance(Box::new(FnComponent::new(
            "source",
            |_, _, ctx: &mut Context| {
                for k in 0..100i64 {
                    ctx.emit((k % 3) as usize, Message::data([k]));
                }
            },
        )));
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        for port in 0..3 {
            let fwd = b.add_instance(echo());
            b.connect_with(source, PortId(port), fwd, PortId(0), ChannelConfig::lan());
            b.connect_with(fwd, PortId(0), s, PortId(0), ChannelConfig::lan());
        }
        b.inject(0, source, PortId(0), Message::Eos);
        let stats = b.build().run();
        assert_eq!(sink.len(), 100);
        assert_eq!(stats.events_processed, 201);
        assert_eq!(stats.messages_delivered, 201);
        assert_eq!(stats.total_mailbox_pushes(), 3 + 15);
    }

    fn deliver(port: usize, i: i64) -> MailItem {
        MailItem::Deliver {
            port,
            msg: Message::data([i]),
            epoch: 0,
            born: 0,
        }
    }

    /// `(port, value)` of a drained delivery.
    fn key(item: &MailItem) -> (usize, i64) {
        match item {
            MailItem::Deliver { port, msg, .. } => (
                *port,
                msg.as_data().and_then(|t| t.get(0)?.as_int()).unwrap(),
            ),
            MailItem::Drain => panic!("no drain was pushed"),
        }
    }

    /// A mailbox holding runs that cross ring boundaries, after a first
    /// drain of 30 that interleaves with the pushes: 0..100 on port 0, an
    /// empty run, then 100..170 on port 1.
    fn interleaved_mailbox(buf: &mut Vec<MailItem>) -> Mailbox {
        let mb = Mailbox::new();
        mb.push_run((0..100).map(|i| deliver(0, i)));
        mb.push_run(std::iter::empty());
        assert_eq!(mb.pop_batch(buf, 30), 30);
        mb.push_run((100..170).map(|i| deliver(1, i)));
        mb
    }

    #[test]
    fn mailbox_runs_drain_contiguously_and_in_order() {
        let mut buf = Vec::new();
        let mb = interleaved_mailbox(&mut buf);
        while mb.pop_batch(&mut buf, 30) > 0 {}
        let drained: Vec<(usize, i64)> = buf.iter().map(key).collect();
        let expected: Vec<(usize, i64)> = (0..100)
            .map(|i| (0, i))
            .chain((100..170).map(|i| (1, i)))
            .collect();
        assert_eq!(drained, expected);
    }

    #[test]
    fn mailbox_pop_batch_respects_the_max_and_frees_drained_rings() {
        let mut buf = Vec::new();
        let mb = interleaved_mailbox(&mut buf);
        assert_eq!(mb.depth_max.load(Ordering::Relaxed), 140);
        let mut sizes = Vec::new();
        while !mb.is_empty() {
            sizes.push(mb.pop_batch(&mut buf, 30));
            let queue = lock(&mb.queue);
            assert!(queue.rings.len() <= queue.len / MAILBOX_BLOCK + 2);
        }
        assert_eq!(sizes, [30, 30, 30, 30, 20]);
        assert_eq!(lock(&mb.queue).len, 0);
        assert_eq!(mb.pop_batch(&mut buf, 30), 0);
        assert_eq!(buf.len(), 170);
    }

    /// Runs of this many items, pushed by [`drain_many_producers`].
    const RUN: i64 = 7;

    /// Producers push runs of [`RUN`] while one consumer drains; returns
    /// the `(producer, value)` keys in drain order.
    fn drain_many_producers(producers: usize, per: i64) -> Vec<(usize, i64)> {
        let mb = Mailbox::new();
        let mut buf = Vec::new();
        std::thread::scope(|s| {
            for p in 0..producers {
                let mb = &mb;
                s.spawn(move || {
                    for start in (0..per).step_by(RUN as usize) {
                        mb.push_run((start..start + RUN).map(|i| deliver(p, i)));
                    }
                });
            }
            while buf.len() < producers * per as usize {
                if mb.pop_batch(&mut buf, 16) == 0 {
                    std::thread::yield_now();
                }
            }
        });
        assert!(mb.is_empty());
        buf.iter().map(key).collect()
    }

    #[test]
    fn mailbox_runs_from_many_producers_arrive_whole() {
        // No run is split by another producer's.
        let keys = drain_many_producers(4, 3_500);
        for pair in keys.windows(2) {
            if pair[1].1 % RUN != 0 {
                assert_eq!(pair[0], (pair[1].0, pair[1].1 - 1), "a run was split");
            }
        }
    }

    #[test]
    fn mailbox_concurrent_producers_lose_nothing_and_keep_per_producer_fifo() {
        const PRODUCERS: usize = 4;
        const PER: i64 = 3_500;
        let keys = drain_many_producers(PRODUCERS, PER);
        assert_eq!(keys.len(), PRODUCERS * PER as usize);
        for p in 0..PRODUCERS {
            let mine: Vec<i64> = keys.iter().filter(|k| k.0 == p).map(|k| k.1).collect();
            assert_eq!(mine, (0..PER).collect::<Vec<_>>(), "producer {p}");
        }
    }

    #[test]
    fn multi_hop_pipeline_terminates() {
        // A chain long enough to bounce between workers repeatedly.
        for (name, tuning) in variants() {
            let mut b = ParBuilder::new(5)
                .with_workers(4)
                .with_tuning(ParTuning {
                    batch_size: 3,
                    ..tuning
                })
                .unwrap();
            let sink = CollectorSink::new();
            let mut prev = b.add_instance(echo());
            let first = prev;
            for _ in 0..10 {
                let next = b.add_instance(echo());
                b.connect_with(prev, PortId(0), next, PortId(0), ChannelConfig::lan());
                prev = next;
            }
            let s = b.add_instance(Box::new(sink.clone()));
            b.connect_with(prev, PortId(0), s, PortId(0), ChannelConfig::lan());
            for i in 0..50i64 {
                b.inject(0, first, PortId(0), Message::data([i]));
            }
            let stats = b.build().run();
            assert_eq!(sink.len(), 50, "{name}");
            assert_eq!(stats.messages_delivered, 50 * 12, "{name}");
        }
    }

    #[test]
    fn duplicates_are_injected_and_counted() {
        let mut b = ParBuilder::new(11).with_workers(2);
        let e = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(
            e,
            PortId(0),
            s,
            PortId(0),
            ChannelConfig::instant().with_duplicates(1.0),
        );
        for i in 0..10i64 {
            b.inject(0, e, PortId(0), Message::data([i]));
        }
        let stats = b.build().run();
        assert_eq!(stats.duplicates, 10);
        assert_eq!(sink.len(), 20);
    }

    #[test]
    fn lossy_channels_still_deliver() {
        let mut b = ParBuilder::new(13).with_workers(2);
        let e = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(
            e,
            PortId(0),
            s,
            PortId(0),
            ChannelConfig::lan().with_loss(1.0),
        );
        for i in 0..25i64 {
            b.inject(0, e, PortId(0), Message::data([i]));
        }
        let stats = b.build().run();
        assert_eq!(stats.retransmits, 25);
        assert_eq!(sink.len(), 25, "losses are retransmitted, never dropped");
    }

    #[test]
    fn fault_schedule_is_identical_across_worker_counts() {
        // Per-wire RNG streams: the k-th message on a wire sees the same
        // fault draws whatever the worker count, so aggregate fault counts
        // (and per-wire schedules) reproduce exactly.
        let run = |workers: usize| {
            let mut b = ParBuilder::new(99).with_workers(workers);
            let e = b.add_instance(echo());
            let mid = b.add_instance(echo());
            let sink = CollectorSink::new();
            let s = b.add_instance(Box::new(sink.clone()));
            b.connect_with(
                e,
                PortId(0),
                mid,
                PortId(0),
                ChannelConfig::lan().with_loss(0.3).with_duplicates(0.2),
            );
            b.connect_with(
                mid,
                PortId(0),
                s,
                PortId(0),
                ChannelConfig::lan().with_duplicates(0.4),
            );
            for i in 0..300i64 {
                b.inject(0, e, PortId(0), Message::data([i]));
            }
            let stats = b.build().run();
            (stats.duplicates, stats.retransmits, sink.messages())
        };
        let baseline = run(1);
        assert!(baseline.0 > 0 && baseline.1 > 0, "faults must fire");
        for workers in [2usize, 4] {
            assert_eq!(
                run(workers),
                baseline,
                "fault schedule diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn empty_run_terminates() {
        let mut b = ParBuilder::new(0).with_workers(2);
        let _ = b.add_instance(echo());
        let stats = b.build().run();
        assert_eq!(stats.messages_delivered, 0);
    }

    #[test]
    fn per_instance_stats_cover_all_instances() {
        let mut b = ParBuilder::new(2).with_workers(3);
        let e = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(e, PortId(0), s, PortId(0), ChannelConfig::lan());
        for i in 0..7i64 {
            b.inject(0, e, PortId(0), Message::data([i]));
        }
        let stats = b.build().run();
        assert_eq!(stats.per_instance.len(), 2);
        assert_eq!(stats.per_instance[0].name, "echo");
        assert_eq!(stats.per_instance[0].processed, 7);
        assert_eq!(stats.per_instance[1].processed, 7);
        assert_eq!(stats.per_worker.len(), 3);
        let worker_events: u64 = stats.per_worker.iter().map(|w| w.events).sum();
        assert_eq!(worker_events, stats.events_processed);
    }

    #[test]
    fn builder_validation_returns_typed_errors() {
        let rejected = |workers: usize, tuning: ParTuning| {
            ParBuilder::new(0)
                .with_workers(workers)
                .with_tuning(tuning)
                .err()
        };
        assert_eq!(
            rejected(0, ParTuning::default()),
            Some(ParConfigError::ZeroWorkers)
        );
        assert_eq!(
            rejected(
                1,
                ParTuning {
                    batch_size: 0,
                    ..ParTuning::default()
                }
            ),
            Some(ParConfigError::ZeroBatchSize)
        );
        assert_eq!(rejected(1, ParTuning::default()), None);
        assert_eq!(
            ParConfigError::ZeroBatchSize.to_string(),
            "batch size must be at least 1"
        );
    }

    #[test]
    fn idle_waits_do_not_grow_with_messages() {
        // A long single-worker pipeline run: with one worker there is
        // always local work once the injections are in, so the worker
        // waits only while the dispatch outpaces it, and no push of its
        // own finds an idle peer. Its waits and wakeups (per-run state,
        // immune to whatever concurrent tests do) must therefore not
        // scale with the 40k messages: a worker that waited or notified
        // per activation would show up here.
        let mut b = ParBuilder::new(77).with_workers(1);
        let sink = CollectorSink::new();
        let mut prev = b.add_instance(echo());
        let first = prev;
        for _ in 0..3 {
            let next = b.add_instance(echo());
            b.connect_with(prev, PortId(0), next, PortId(0), ChannelConfig::lan());
            prev = next;
        }
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(prev, PortId(0), s, PortId(0), ChannelConfig::lan());
        for i in 0..8_000i64 {
            b.inject(0, first, PortId(0), Message::data([i]));
        }
        let stats = b.build().run();
        assert_eq!(sink.len(), 8_000);
        assert_eq!(stats.messages_delivered, 8_000 * 5);
        assert_eq!(stats.total_wakeups(), 0, "no peer to wake");
        let waits = stats.total_parks();
        let messages = stats.messages_delivered;
        assert!(
            waits < messages / 50,
            "idle waits ({waits}) must not scale with messages ({messages})"
        );
    }

    #[test]
    fn starved_workers_park_and_the_counters_say_so() {
        // One slow consumer instance, several fast producers, four
        // workers: the producers drain quickly, after which at most one
        // worker can run the consumer — the others starve and wait on the
        // run queue's condvar (parks > 0). The consumer burns enough CPU
        // per message that the starvation phase dominates the run, and
        // each of its activations but the last requeues it while the
        // starved workers wait, so that push wakes one (wakeups > 0).
        let mut b = ParBuilder::new(5).with_workers(4);
        let sink = CollectorSink::new();
        let slow = b.add_instance(heavy_echo());
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(slow, PortId(0), s, PortId(0), ChannelConfig::lan());
        for p in 0..4 {
            let e = b.add_instance(echo());
            b.connect_with(e, PortId(0), slow, PortId(0), ChannelConfig::lan());
            for i in 0..150i64 {
                b.inject(0, e, PortId(0), Message::data([p * 1_000 + i]));
            }
        }
        let stats = b.build().run();
        assert_eq!(sink.len(), 600);
        assert!(
            stats.total_parks() > 0,
            "starved workers must park: {:?}",
            stats.per_worker
        );
        assert!(
            stats.total_wakeups() > 0,
            "the consumer's requeues must wake a starved worker: {:?}",
            stats.per_worker
        );
    }

    #[test]
    fn self_loop_terminates() {
        // An instance that forwards to itself, drained one message per
        // activation: every activation refills the mailbox it just
        // emptied, and the run must still quiesce.
        let mut b = ParBuilder::new(4)
            .with_workers(1)
            .with_tuning(ParTuning {
                batch_size: 1,
                ..ParTuning::default()
            })
            .unwrap();
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let looper = b.add_instance(Box::new(FnComponent::new(
            "looper",
            move |_, msg: Message, ctx: &mut Context| {
                if let Some(t) = msg.as_data() {
                    let v = t.get(0).and_then(crate::value::Value::as_int).unwrap();
                    c2.fetch_add(1, Ordering::SeqCst);
                    if v > 0 {
                        ctx.emit(0, Message::data([v - 1]));
                    }
                }
            },
        )));
        b.connect_with(
            looper,
            PortId(0),
            looper,
            PortId(0),
            ChannelConfig::instant(),
        );
        b.inject(0, looper, PortId(0), Message::data([50i64]));
        let _ = b.build().run();
        assert_eq!(counter.load(Ordering::SeqCst), 51);
    }

    #[test]
    fn inject_never_waits_on_a_stalled_consumer() {
        // The consumer wedges one worker until the gate opens, so nothing
        // drains its mailbox while the caller injects: every `inject`
        // must still return, and every message must arrive once the
        // consumer resumes.
        let gate = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(AtomicU64::new(0));
        let mut b = ParBuilder::new(0).with_workers(2);
        let (g, s) = (Arc::clone(&gate), Arc::clone(&seen));
        let consumer = b.add_instance(Box::new(FnComponent::new(
            "gated",
            move |_, _, _: &mut Context| {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                s.fetch_add(1, Ordering::SeqCst);
            },
        )));
        let run = b.build().start();
        for i in 0..10_000i64 {
            run.inject([(consumer, PortId(0), Message::data([i]))]);
        }
        assert_eq!(seen.load(Ordering::SeqCst), 0, "the gate was open");
        gate.store(true, Ordering::Release);
        let stats = run.finish();
        assert_eq!(seen.load(Ordering::SeqCst), 10_000);
        assert!(
            stats.max_mailbox_depth >= 10_000 - DEFAULT_BATCH_SIZE,
            "the stalled mailbox absorbed the injections: depth {}",
            stats.max_mailbox_depth
        );
    }

    #[test]
    fn default_workers_is_positive_and_capped() {
        let w = default_workers();
        assert!(w >= 1);
        assert!(w <= MAX_POOL_WORKERS);
    }

    /// A deliberately CPU-expensive echo, so runs last long enough for
    /// idle workers to wake up and participate even on one core.
    fn heavy_echo() -> Box<dyn Component> {
        Box::new(FnComponent::new(
            "heavy-echo",
            |_, msg, ctx: &mut Context| {
                let mut x = 0x9e37_79b9_7f4a_7c15u64;
                for i in 0..20_000u64 {
                    x = std::hint::black_box(x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    x ^= x >> 31;
                }
                std::hint::black_box(x);
                ctx.emit(0, msg);
            },
        ))
    }

    #[test]
    fn a_skewed_workload_keeps_every_worker_busy() {
        // 8 instances with wildly uneven message counts on 4 workers: the
        // hot instance is requeued after every batch of 4 on the one
        // shared queue, so its activations go to whichever worker is
        // free, and no worker sits the run out.
        let mut b = ParBuilder::new(17)
            .with_workers(4)
            .with_tuning(ParTuning {
                batch_size: 4,
                ..ParTuning::default()
            })
            .unwrap();
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        for m in 0..8usize {
            let e = b.add_instance(heavy_echo());
            b.connect_with(e, PortId(0), s, PortId(0), ChannelConfig::lan());
            // Instance 0 gets the lion's share.
            let n = if m == 0 { 600 } else { 25 };
            for i in 0..n {
                b.inject(0, e, PortId(0), Message::data([i as i64]));
            }
        }
        let stats = b.build().run();
        assert_eq!(sink.len(), 600 + 7 * 25);
        assert!(
            stats.per_worker.iter().all(|w| w.events > 0),
            "every worker must have processed events: {:?}",
            stats.per_worker
        );
    }
}
