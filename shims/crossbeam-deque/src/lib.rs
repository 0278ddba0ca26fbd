//! The work-stealing deque the parallel executor runs on: code this
//! repository owns, under the `crossbeam-deque` name because it implements
//! that crate's API surface:
//!
//! * [`Worker`] — a per-thread FIFO deque with `push` / `pop` for the
//!   owner;
//! * [`Stealer`] — a cloneable handle through which other threads steal
//!   from the opposite end;
//! * [`Injector`] — a shared MPMC FIFO queue for tasks with no owner;
//! * [`Steal`] — the three-valued steal result (`Empty` / `Success` /
//!   `Retry`).
//!
//! [`Worker`]/[`Stealer`] are a Chase–Lev deque with atomic
//! `top`/`bottom` indices and a growable ring buffer, and [`Injector`] is
//! a linked list of fixed-size slot blocks in the style of the crossbeam
//! injector — every push, pop and steal is lock-free.
//!
//! # Memory reclamation
//!
//! The published crate reclaims memory with epoch GC (`crossbeam-epoch`),
//! which this repository does not have. Two simpler schemes do the job:
//!
//! * **Deque buffers** grown out of are *retired, not freed*: a stealer
//!   holding a stale buffer pointer only ever dereferences indices that
//!   were live when the buffer was current, so keeping retired buffers
//!   until the deque drops makes those reads safe. The retire list is
//!   behind a `Mutex`, but it is touched only on the (amortized-rare)
//!   grow path and at drop — never on push/pop/steal. Those acquisitions
//!   are counted so tests can assert the hot path stays lock-free.
//! * **Injector blocks** reclaim themselves through per-slot state bits
//!   (`WRITE`/`READ`/`DESTROY`): the last reader out of a block frees it,
//!   with a hand-off baton for readers still mid-slot. No locks at all.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::{self, MaybeUninit};
use std::ptr;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Batch cap for `steal_batch_and_pop` (the real crate uses a similar
/// small constant to bound latency of one steal operation).
const MAX_BATCH: usize = 32;

/// Cold-path `Mutex` acquisitions (deque-buffer retire list) since process
/// start. The lock-audit test asserts this stays proportional to buffer
/// growths, not to operations.
static LOCK_ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

fn count_lock() {
    LOCK_ACQUISITIONS.fetch_add(1, Ordering::SeqCst);
}

/// The result of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The queue was empty.
    Empty,
    /// One task was stolen.
    Success(T),
    /// The operation lost a race and should be retried.
    Retry,
}

impl<T> Steal<T> {
    /// Did the steal find the queue empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }

    /// The stolen task, if any.
    #[must_use]
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(t) => Some(t),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Chase–Lev deque (Worker / Stealer)
// ---------------------------------------------------------------------------

/// Initial ring capacity (power of two).
const MIN_CAP: usize = 32;

/// A fixed-capacity ring the deque indexes modulo `cap`.
struct RingBuf<T> {
    ptr: *mut MaybeUninit<T>,
    cap: usize,
}

impl<T> RingBuf<T> {
    fn alloc(cap: usize) -> *mut RingBuf<T> {
        debug_assert!(cap.is_power_of_two());
        let mut slots = Vec::<MaybeUninit<T>>::with_capacity(cap);
        let ptr = slots.as_mut_ptr();
        mem::forget(slots);
        Box::into_raw(Box::new(RingBuf { ptr, cap }))
    }

    /// Free the ring storage. Caller guarantees no element inside is still
    /// logically owned (tasks are moved out by `ptr::read`).
    unsafe fn dealloc(this: *mut RingBuf<T>) {
        let me = Box::from_raw(this);
        drop(Vec::from_raw_parts(me.ptr, 0, me.cap));
    }

    unsafe fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
        self.ptr.add(index as usize & (self.cap - 1))
    }

    unsafe fn write(&self, index: isize, value: T) {
        ptr::write(self.slot(index), MaybeUninit::new(value));
    }

    /// Read the (possibly stale or torn — a racing owner may be
    /// rewriting the position) bytes at `index`. The caller may
    /// `assume_init` only after winning the claiming CAS on `top`, which
    /// proves the read observed a live task.
    unsafe fn read(&self, index: isize) -> MaybeUninit<T> {
        ptr::read(self.slot(index))
    }
}

struct DequeInner<T> {
    /// Steal end. Claimed (only ever incremented) by CAS.
    top: AtomicIsize,
    /// Owner end. Only the owner writes it (push increments).
    bottom: AtomicIsize,
    /// Current ring; replaced on growth, old rings retired below.
    buf: AtomicPtr<RingBuf<T>>,
    /// Rings grown out of, kept alive so stale stealer reads stay valid.
    /// Locked only on growth and at drop — never on push/pop/steal.
    retired: Mutex<Vec<*mut RingBuf<T>>>,
}

unsafe impl<T: Send> Send for DequeInner<T> {}
unsafe impl<T: Send> Sync for DequeInner<T> {}

impl<T> Drop for DequeInner<T> {
    fn drop(&mut self) {
        // Exclusive access: drop unconsumed tasks, then every ring.
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        let buf = *self.buf.get_mut();
        unsafe {
            for i in t..b {
                ptr::drop_in_place((*buf).slot(i).cast::<T>());
            }
            RingBuf::dealloc(buf);
            count_lock();
            let retired = mem::take(
                &mut *self
                    .retired
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            for old in retired {
                RingBuf::dealloc(old);
            }
        }
    }
}

/// A worker's own end of a work-stealing deque.
///
/// `Send` but deliberately not `Sync`: owner operations are unsynchronized
/// against each other, so exactly one thread may hold the handle at a
/// time (it can move between threads freely).
pub struct Worker<T> {
    inner: Arc<DequeInner<T>>,
    /// Suppresses the auto `Sync` impl without affecting `Send`.
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl<T> Worker<T> {
    /// A deque whose owner pops in push order (queue-like).
    #[must_use]
    pub fn new_fifo() -> Self {
        Worker {
            inner: Arc::new(DequeInner {
                top: AtomicIsize::new(0),
                bottom: AtomicIsize::new(0),
                buf: AtomicPtr::new(RingBuf::alloc(MIN_CAP)),
                retired: Mutex::new(Vec::new()),
            }),
            _not_sync: std::marker::PhantomData,
        }
    }

    /// Double the ring, copying live indices `t..b`. Owner-only; the old
    /// ring is retired (kept alive), so concurrent stealers reading from a
    /// stale pointer stay safe.
    #[cold]
    fn grow(&self, t: isize, b: isize) {
        let inner = &*self.inner;
        let old = inner.buf.load(Ordering::Relaxed);
        unsafe {
            let new = RingBuf::alloc((*old).cap * 2);
            for i in t..b {
                ptr::copy_nonoverlapping((*old).slot(i), (*new).slot(i), 1);
            }
            inner.buf.store(new, Ordering::Release);
            count_lock();
            inner
                .retired
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(old);
        }
    }

    /// Push a task onto the owner's end.
    pub fn push(&self, task: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let buf = inner.buf.load(Ordering::Relaxed);
        if b - t >= unsafe { (*buf).cap } as isize {
            self.grow(t, b);
        }
        let buf = inner.buf.load(Ordering::Relaxed);
        unsafe { (*buf).write(b, task) };
        // Publish: the slot write must be visible before the new bottom.
        inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Pop a task from the owner's end — the oldest one: the owner takes
    /// from the steal end and so competes on the same CAS as stealers (as
    /// the real crate's FIFO flavor does).
    #[must_use]
    pub fn pop(&self) -> Option<T> {
        loop {
            match steal_one(&self.inner) {
                Steal::Success(t) => return Some(t),
                Steal::Empty => return None,
                Steal::Retry => {}
            }
        }
    }

    /// Is the deque empty (racy snapshot)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queued tasks (racy snapshot).
    #[must_use]
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        usize::try_from(b - t).unwrap_or(0)
    }

    /// A handle other threads use to steal from this deque.
    #[must_use]
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for Worker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Worker { .. }")
    }
}

/// Steal the task at `top`, if any. Shared by stealers and FIFO owners.
fn steal_one<T>(inner: &DequeInner<T>) -> Steal<T> {
    let t = inner.top.load(Ordering::Acquire);
    fence(Ordering::SeqCst);
    let b = inner.bottom.load(Ordering::Acquire);
    if t >= b {
        return Steal::Empty;
    }
    // Loading the buffer *after* bottom makes the slot read safe to
    // perform: any index below the observed bottom is live in (or was
    // copied into) the buffer observed afterwards, and retired rings are
    // never freed early. The bytes stay `MaybeUninit` until the CAS
    // proves we claimed a live task.
    let buf = inner.buf.load(Ordering::Acquire);
    let task = unsafe { (*buf).read(t) };
    if inner
        .top
        .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
        .is_ok()
    {
        Steal::Success(unsafe { task.assume_init() })
    } else {
        // Lost the race: the value belongs to whoever won; our
        // `MaybeUninit` copy is dropped without running T's destructor.
        Steal::Retry
    }
}

/// Steal up to `max` tasks starting at `top` with one claiming CAS,
/// delivering the first to the caller and the rest into `dest`.
///
/// Sound because the owner pops through the same top CAS: no pop can
/// take a task the batch read without the claim failing.
fn steal_batch<T>(inner: &DequeInner<T>, dest: &Worker<T>, max: usize) -> Steal<T> {
    let t = inner.top.load(Ordering::Acquire);
    fence(Ordering::SeqCst);
    let b = inner.bottom.load(Ordering::Acquire);
    let available = b - t;
    if available <= 0 {
        return Steal::Empty;
    }
    // Take about half, like the real crate, to leave the victim working.
    let take = usize::try_from((available + 1) / 2)
        .unwrap_or(1)
        .min(max)
        .max(1);
    let buf = inner.buf.load(Ordering::Acquire);
    let mut batch = Vec::with_capacity(take);
    for i in 0..take {
        batch.push(unsafe { (*buf).read(t + i as isize) });
    }
    if inner
        .top
        .compare_exchange(t, t + take as isize, Ordering::SeqCst, Ordering::Relaxed)
        .is_ok()
    {
        // The CAS proves every read observed a live task: initialize.
        let mut it = batch.into_iter();
        let first = unsafe { it.next().expect("take >= 1").assume_init() };
        for task in it {
            dest.push(unsafe { task.assume_init() });
        }
        Steal::Success(first)
    } else {
        // Lost the race: none of the read bytes are ours; dropping the
        // `MaybeUninit`s runs no destructors.
        Steal::Retry
    }
}

/// The stealing end of a [`Worker`]'s deque.
pub struct Stealer<T> {
    inner: Arc<DequeInner<T>>,
}

impl<T> Stealer<T> {
    /// Steal one task from the top.
    #[must_use]
    pub fn steal(&self) -> Steal<T> {
        steal_one(&self.inner)
    }

    /// Steal up to half the tasks (capped) into `dest`, returning one.
    #[must_use]
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        steal_batch(&self.inner, dest, MAX_BATCH)
    }

    /// Is the source deque empty (racy snapshot)? `SeqCst` loads so
    /// callers using this as a park-side re-check (sleep if every source
    /// looks empty) get the strongest cross-thread visibility available.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let t = self.inner.top.load(Ordering::SeqCst);
        let b = self.inner.bottom.load(Ordering::SeqCst);
        b - t <= 0
    }
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Stealer { .. }")
    }
}

// ---------------------------------------------------------------------------
// Injector: a lock-free segmented MPMC FIFO queue
// ---------------------------------------------------------------------------

/// Slot state bits.
const WRITE: usize = 1;
const READ: usize = 2;
const DESTROY: usize = 4;

/// Index positions per block: `BLOCK_CAP` real slots plus one phantom
/// offset that marks "next block being installed".
const LAP: usize = 64;
const BLOCK_CAP: usize = LAP - 1;

struct InjSlot<T> {
    task: UnsafeCell<MaybeUninit<T>>,
    state: AtomicUsize,
}

impl<T> InjSlot<T> {
    /// Spin until the producer that claimed this slot finishes writing.
    fn wait_write(&self) {
        while self.state.load(Ordering::Acquire) & WRITE == 0 {
            std::hint::spin_loop();
        }
    }
}

struct Block<T> {
    next: AtomicPtr<Block<T>>,
    slots: [InjSlot<T>; BLOCK_CAP],
}

impl<T> Block<T> {
    fn alloc() -> *mut Block<T> {
        let block: Box<Block<T>> = unsafe {
            // Zeroed is a valid initial state: null `next`, zero slot
            // states, uninit tasks.
            Box::new(mem::zeroed())
        };
        Box::into_raw(block)
    }

    /// Spin until the next block is installed by the producer that claimed
    /// the last slot of this one.
    fn wait_next(&self) -> *mut Block<T> {
        loop {
            let next = self.next.load(Ordering::Acquire);
            if !next.is_null() {
                return next;
            }
            std::hint::spin_loop();
        }
    }

    /// Mark slots `0..count` destroyed and free the block once every
    /// reader is out. A slot whose reader is still mid-read inherits the
    /// destruction baton (it sees `DESTROY` when it marks `READ`).
    unsafe fn destroy(this: *mut Block<T>, count: usize) {
        for i in (0..count).rev() {
            let slot = &(*this).slots[i];
            if slot.state.load(Ordering::Acquire) & READ == 0
                && slot.state.fetch_or(DESTROY, Ordering::AcqRel) & READ == 0
            {
                // A reader is still inside this slot; it will continue the
                // destruction when it leaves.
                return;
            }
        }
        drop(Box::from_raw(this));
    }
}

struct Position<T> {
    index: AtomicUsize,
    block: AtomicPtr<Block<T>>,
}

/// Pad the two ends onto separate cache lines.
#[repr(align(64))]
struct PaddedPos<T>(Position<T>);

/// A shared FIFO queue feeding tasks to any worker (the global run queue).
///
/// Lock-free: a linked list of [`BLOCK_CAP`]-slot blocks; producers claim
/// slots by CAS on the tail index, consumers by CAS on the head index, and
/// blocks free themselves when their last reader leaves.
pub struct Injector<T> {
    head: PaddedPos<T>,
    tail: PaddedPos<T>,
}

unsafe impl<T: Send> Send for Injector<T> {}
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Injector::new()
    }
}

impl<T> Injector<T> {
    /// An empty injector.
    #[must_use]
    pub fn new() -> Self {
        let first = Block::alloc();
        Injector {
            head: PaddedPos(Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(first),
            }),
            tail: PaddedPos(Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(first),
            }),
        }
    }

    /// Push a task.
    pub fn push(&self, task: T) {
        let mut tail = self.tail.0.index.load(Ordering::Acquire);
        let mut block = self.tail.0.block.load(Ordering::Acquire);
        let mut spare: Option<*mut Block<T>> = None;
        loop {
            let offset = tail % LAP;
            if offset == BLOCK_CAP {
                // Another producer claimed the last slot and is installing
                // the next block; wait for the index to move there.
                std::hint::spin_loop();
                tail = self.tail.0.index.load(Ordering::Acquire);
                block = self.tail.0.block.load(Ordering::Acquire);
                continue;
            }
            // Pre-allocate the successor before claiming the final slot so
            // the install window (which stalls other producers) is short.
            if offset + 1 == BLOCK_CAP && spare.is_none() {
                spare = Some(Block::alloc());
            }
            match self.tail.0.index.compare_exchange_weak(
                tail,
                tail + 1,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(_) => unsafe {
                    if offset + 1 == BLOCK_CAP {
                        // We claimed the final slot: install the next block
                        // (block pointer first, then the index that frees
                        // the spinning producers, then the link consumers
                        // follow).
                        let next = spare.take().expect("preallocated above");
                        self.tail.0.block.store(next, Ordering::Release);
                        self.tail.0.index.store(tail + 2, Ordering::Release);
                        (*block).next.store(next, Ordering::Release);
                    }
                    let slot = &(*block).slots[offset];
                    slot.task.get().write(MaybeUninit::new(task));
                    slot.state.fetch_or(WRITE, Ordering::Release);
                    if let Some(unused) = spare {
                        drop(Box::from_raw(unused));
                    }
                    return;
                },
                Err(current) => {
                    tail = current;
                    block = self.tail.0.block.load(Ordering::Acquire);
                }
            }
        }
    }

    /// Steal one task.
    #[must_use]
    pub fn steal(&self) -> Steal<T> {
        let head = self.head.0.index.load(Ordering::Acquire);
        let block = self.head.0.block.load(Ordering::Acquire);
        let offset = head % LAP;
        if offset == BLOCK_CAP {
            // A consumer is installing the next head block.
            return Steal::Retry;
        }
        fence(Ordering::SeqCst);
        let tail = self.tail.0.index.load(Ordering::Acquire);
        if head == tail {
            return Steal::Empty;
        }
        match self.head.0.index.compare_exchange(
            head,
            head + 1,
            Ordering::SeqCst,
            Ordering::Acquire,
        ) {
            Ok(_) => unsafe { Steal::Success(self.consume(block, head, offset, 1)) },
            Err(_) => Steal::Retry,
        }
    }

    /// Steal up to half a block of tasks with one claiming CAS, delivering
    /// the first to the caller and the rest into `dest`.
    #[must_use]
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        let head = self.head.0.index.load(Ordering::Acquire);
        let block = self.head.0.block.load(Ordering::Acquire);
        let offset = head % LAP;
        if offset == BLOCK_CAP {
            return Steal::Retry;
        }
        fence(Ordering::SeqCst);
        let tail = self.tail.0.index.load(Ordering::Acquire);
        if head == tail {
            return Steal::Empty;
        }
        // Claimable run: stop at the block edge; across blocks only the
        // current block's remainder is claimable in one CAS.
        let in_block = if head / LAP == tail / LAP {
            tail - head
        } else {
            BLOCK_CAP - offset
        };
        let take = in_block.div_ceil(2).clamp(1, MAX_BATCH.min(in_block));
        match self.head.0.index.compare_exchange(
            head,
            head + take,
            Ordering::SeqCst,
            Ordering::Acquire,
        ) {
            Ok(_) => unsafe {
                let ends_block = offset + take == BLOCK_CAP;
                let first = self.consume(block, head, offset, take);
                for i in 1..take {
                    let slot = &(*block).slots[offset + i];
                    slot.wait_write();
                    let task = slot.task.get().read().assume_init();
                    if ends_block && i + 1 == take {
                        // The block's final slot: its reader initiates the
                        // destruction sweep (its own slot needs no mark).
                        Block::destroy(block, offset + i);
                    } else if slot.state.fetch_or(READ, Ordering::AcqRel) & DESTROY != 0 {
                        Block::destroy(block, offset + i);
                    }
                    dest.push(task);
                }
                Steal::Success(first)
            },
            Err(_) => Steal::Retry,
        }
    }

    /// Read the first task of a claimed run `offset..offset + take`,
    /// advancing the head block if the run reaches the block's end, and
    /// participating in block destruction. Caller must have claimed the
    /// run via the head-index CAS.
    unsafe fn consume(&self, block: *mut Block<T>, head: usize, offset: usize, take: usize) -> T {
        if offset + take == BLOCK_CAP {
            // Our run ends the block: move head to the successor. Other
            // consumers spin on the phantom offset until the index store.
            let next = (*block).wait_next();
            self.head.0.block.store(next, Ordering::Release);
            self.head.0.index.store(head + take + 1, Ordering::Release);
        }
        let slot = &(*block).slots[offset];
        slot.wait_write();
        let task = slot.task.get().read().assume_init();
        if offset + take == BLOCK_CAP && take == 1 {
            // Final slot of the block: we begin its destruction (our own
            // slot needs no READ mark — destruction starts below it).
            Block::destroy(block, offset);
        } else if slot.state.fetch_or(READ, Ordering::AcqRel) & DESTROY != 0 {
            Block::destroy(block, offset);
        }
        task
    }

    /// Is the queue empty (racy snapshot)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let head = self.head.0.index.load(Ordering::SeqCst);
        let tail = self.tail.0.index.load(Ordering::SeqCst);
        head == tail
    }

    /// Number of queued tasks (racy snapshot).
    #[must_use]
    pub fn len(&self) -> usize {
        let real = |index: usize| index / LAP * BLOCK_CAP + (index % LAP).min(BLOCK_CAP);
        let tail = self.tail.0.index.load(Ordering::SeqCst);
        let head = self.head.0.index.load(Ordering::SeqCst);
        real(tail).saturating_sub(real(head))
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        // Exclusive access: drop every unconsumed task, then the blocks.
        let mut head = self.head.0.index.load(Ordering::Relaxed);
        let tail = self.tail.0.index.load(Ordering::Relaxed);
        let mut block = *self.head.0.block.get_mut();
        unsafe {
            while head != tail {
                let offset = head % LAP;
                if offset < BLOCK_CAP {
                    let slot = &(*block).slots[offset];
                    ptr::drop_in_place(slot.task.get().cast::<T>());
                    head += 1;
                } else {
                    let next = (*block).next.load(Ordering::Relaxed);
                    drop(Box::from_raw(block));
                    block = next;
                    head += 1;
                }
            }
            drop(Box::from_raw(block));
        }
    }
}

impl<T> fmt::Debug for Injector<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Injector { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_owner_pops_in_push_order() {
        let w = Worker::new_fifo();
        w.push(1);
        w.push(2);
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn stealer_takes_from_the_front() {
        let w = Worker::new_fifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert!(s.steal().is_empty());
    }

    #[test]
    fn steal_batch_moves_about_half() {
        let w = Worker::new_fifo();
        let s = w.stealer();
        for i in 0..10 {
            w.push(i);
        }
        let thief = Worker::new_fifo();
        assert_eq!(s.steal_batch_and_pop(&thief), Steal::Success(0));
        assert_eq!(thief.len(), 4, "half of 10, minus the popped one");
        assert_eq!(w.len(), 5);
    }

    #[test]
    fn deque_grows_past_initial_capacity() {
        let w = Worker::new_fifo();
        let n = MIN_CAP * 5;
        for i in 0..n {
            w.push(i);
        }
        assert_eq!(w.len(), n);
        for i in 0..n {
            assert_eq!(w.pop(), Some(i), "FIFO order across growth");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn grows_and_drops_unconsumed() {
        let w = Worker::new_fifo();
        for i in 0..MIN_CAP * 3 {
            w.push(i);
        }
        assert_eq!(w.pop(), Some(0));
        // The rest dropped with the deque.
    }

    #[test]
    fn injector_is_fifo() {
        let inj = Injector::new();
        inj.push("a");
        inj.push("b");
        let w = Worker::new_fifo();
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success("a"));
        // "b" either came along in the batch or is still queued.
        assert_eq!(w.pop().or_else(|| inj.steal().success()), Some("b"));
    }

    #[test]
    fn injector_crosses_block_boundaries() {
        let inj = Injector::new();
        let n = LAP * 4 + 7;
        for i in 0..n {
            inj.push(i);
        }
        assert_eq!(inj.len(), n);
        for i in 0..n {
            loop {
                match inj.steal() {
                    Steal::Success(v) => {
                        assert_eq!(v, i, "FIFO across blocks");
                        break;
                    }
                    Steal::Retry => {}
                    Steal::Empty => panic!("lost task {i}"),
                }
            }
        }
        assert!(inj.is_empty());
    }

    #[test]
    fn injector_drop_releases_unconsumed_tasks() {
        struct Counting(Arc<AtomicUsize>);
        impl Drop for Counting {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let inj = Injector::new();
        for _ in 0..LAP * 2 + 3 {
            inj.push(Counting(Arc::clone(&drops)));
        }
        for _ in 0..5 {
            let _ = inj.steal();
        }
        drop(inj);
        assert_eq!(drops.load(Ordering::SeqCst), LAP * 2 + 3);
    }

    #[test]
    fn every_task_delivered_exactly_once_under_contention() {
        let w = Worker::new_fifo();
        let stealers: Vec<_> = (0..3).map(|_| w.stealer()).collect();
        let n = 10_000u64;
        for i in 1..=n {
            w.push(i);
        }
        let total = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for s in stealers {
            let total = Arc::clone(&total);
            handles.push(thread::spawn(move || {
                let local = Worker::new_fifo();
                loop {
                    let task = local.pop().or_else(|| match s.steal_batch_and_pop(&local) {
                        Steal::Success(t) => Some(t),
                        Steal::Retry => Some(u64::MAX), // sentinel: retry
                        Steal::Empty => None,
                    });
                    match task {
                        Some(u64::MAX) => continue,
                        Some(v) => {
                            total.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                        }
                        None => break,
                    }
                }
            }));
        }
        let mut own = 0u64;
        while let Some(v) = w.pop() {
            own += v;
        }
        for h in handles {
            h.join().unwrap();
        }
        let sum = own + total.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(sum, n * (n + 1) / 2);
    }

    #[test]
    fn injector_mpmc_delivers_exactly_once() {
        let inj = Arc::new(Injector::new());
        let producers = 4usize;
        let consumers = 4usize;
        let per = 20_000u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let inj = Arc::clone(&inj);
            handles.push(thread::spawn(move || {
                for i in 0..per {
                    inj.push((p as u64) << 32 | i);
                }
            }));
        }
        let seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut takers = Vec::new();
        for _ in 0..consumers {
            let inj = Arc::clone(&inj);
            let seen = Arc::clone(&seen);
            let sum = Arc::clone(&sum);
            takers.push(thread::spawn(move || {
                let local = Worker::new_fifo();
                let target = per * producers as u64;
                loop {
                    if let Some(v) = local.pop() {
                        sum.fetch_add(v & 0xffff_ffff, Ordering::Relaxed);
                        seen.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    match inj.steal_batch_and_pop(&local) {
                        Steal::Success(v) => {
                            sum.fetch_add(v & 0xffff_ffff, Ordering::Relaxed);
                            seen.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => continue,
                        Steal::Empty => {
                            if seen.load(Ordering::Relaxed) >= target {
                                break;
                            }
                            thread::yield_now();
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for h in takers {
            h.join().unwrap();
        }
        assert_eq!(seen.load(Ordering::Relaxed), per * producers as u64);
        assert_eq!(
            sum.load(Ordering::Relaxed),
            producers as u64 * (per * (per - 1) / 2)
        );
        assert!(inj.is_empty());
    }

    #[test]
    fn hot_paths_do_not_lock() {
        // The lock counter is process-global and sibling tests run
        // concurrently (each Worker drop or growth contributes a few
        // acquisitions), so assert a bound a per-operation lock would
        // blow through by orders of magnitude, not strict equality.
        let ops = 30_000usize;
        let lock_acquisitions = || LOCK_ACQUISITIONS.load(Ordering::SeqCst);
        let before = lock_acquisitions();
        let w = Worker::new_fifo();
        let s = w.stealer();
        let inj = Injector::new();
        for round in 0..ops / (MIN_CAP / 2) {
            // Stay within MIN_CAP so no growth happens in `w`.
            for i in 0..MIN_CAP / 2 {
                w.push(round * MIN_CAP + i);
                inj.push(i);
            }
            for _ in 0..MIN_CAP / 2 {
                let _ = w.pop();
                let _ = s.steal();
                let _ = inj.steal();
            }
        }
        let delta = lock_acquisitions() - before;
        assert!(
            delta < ops as u64 / 100,
            "push/pop/steal must not touch a Mutex: {delta} locks over ~{ops} ops"
        );
    }
}
