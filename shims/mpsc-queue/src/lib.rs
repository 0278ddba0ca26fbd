//! A lock-free multi-producer single-consumer queue in the style of
//! Dmitry Vyukov's intrusive MPSC queue: the parallel executor's mailbox,
//! code this repository owns.
//!
//! # Algorithm
//!
//! The queue is a singly linked list of heap nodes with a permanent stub:
//! `head` is the consumer's cursor (it always points at the last consumed
//! node, whose value has already been moved out), `tail` is the producer
//! end.
//!
//! * **Push** (any thread): allocate a node, then publish it with a single
//!   CAS on `tail`; the previous tail is linked to the new node with one
//!   release store. Failed CAS attempts (another producer won the race)
//!   are retried and *counted* — the retry count is the queue's honest
//!   contention signal, surfaced by the caller's stats.
//! * **Batched push**: [`MpscQueue::push_batch`] links a whole run of
//!   values into a private node chain and publishes it with the same one
//!   tail CAS and one length add, so the run pops contiguously and in
//!   order. [`MpscQueue::push`] is the one-value run.
//! * **Pop** (one thread at a time): follow `head->next`; if present, move
//!   the value out, advance `head`, free the old node. No RMW at all —
//!   the consumer side is plain loads and stores.
//! * **Batched drain**: [`MpscQueue::pop_batch`] pops up to `max` values
//!   into a caller-owned buffer and settles the shared length counter with
//!   *one* `fetch_sub` for the whole batch, so steady-state consumption
//!   costs one contended RMW per activation instead of one per message.
//!
//! # The inconsistent window
//!
//! Between a producer's tail CAS and its `prev.next` store, the new run
//! is reachable from `tail` but not yet from `head`: a pop can find
//! `next == null` while [`MpscQueue::len`] is already positive. Callers
//! that gate on emptiness must treat `len() > 0` (not a failed pop) as
//! "work may remain" — the producer is about to complete the link, so
//! re-polling is enough. The length counter is incremented *before* the
//! CAS and decremented only *after* values are moved out, so it never
//! under-reports: `len() == 0` reliably means every pushed value has been
//! consumed.
//!
//! # Single-consumer contract
//!
//! Concurrent `pop`/`pop_batch` calls are a protocol violation (the
//! consumer cursor is not synchronized). Callers serialize consumers
//! externally — the parallel executor does so with its per-mailbox
//! scheduled flag. Debug builds enforce the contract with a guard flag
//! and panic on violation; release builds omit the check.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::ptr;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

struct Node<T> {
    next: AtomicPtr<Node<T>>,
    value: MaybeUninit<T>,
}

impl<T> Node<T> {
    fn boxed(value: MaybeUninit<T>) -> *mut Node<T> {
        Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            value,
        }))
    }
}

/// Pad to a cache line so the producer end, the consumer end, and the
/// shared length counter do not false-share.
#[repr(align(64))]
struct Padded<T>(T);

/// A lock-free MPSC FIFO queue. See the module docs for the algorithm and
/// the single-consumer contract.
pub struct MpscQueue<T> {
    /// Producer end: the most recently pushed node.
    tail: Padded<AtomicPtr<Node<T>>>,
    /// Consumer cursor: the last consumed node (initially the stub). Only
    /// the (externally serialized) consumer touches it.
    head: Padded<UnsafeCell<*mut Node<T>>>,
    /// Pushed-but-not-consumed count; never under-reports (see module
    /// docs).
    len: Padded<AtomicUsize>,
    /// Debug-only guard enforcing the single-consumer contract.
    #[cfg(debug_assertions)]
    draining: AtomicBool,
}

unsafe impl<T: Send> Send for MpscQueue<T> {}
unsafe impl<T: Send> Sync for MpscQueue<T> {}

impl<T> Default for MpscQueue<T> {
    fn default() -> Self {
        MpscQueue::new()
    }
}

impl<T> MpscQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        let stub = Node::boxed(MaybeUninit::uninit());
        MpscQueue {
            tail: Padded(AtomicPtr::new(stub)),
            head: Padded(UnsafeCell::new(stub)),
            len: Padded(AtomicUsize::new(0)),
            #[cfg(debug_assertions)]
            draining: AtomicBool::new(false),
        }
    }

    /// Push a value (any thread). Returns the number of CAS retries the
    /// push needed — 0 on an uncontended queue, more as producers collide
    /// on the tail.
    pub fn push(&self, value: T) -> u64 {
        self.push_batch(std::iter::once(value))
    }

    /// Push a run of values (any thread) so that they pop contiguously, in
    /// iteration order. The run is linked into a private node chain first,
    /// then published like a single push: one `len` add, one tail CAS, one
    /// release store. Returns the tail-CAS retry count; an empty run is a
    /// no-op that touches no shared state.
    pub fn push_batch(&self, values: impl IntoIterator<Item = T>) -> u64 {
        let mut values = values.into_iter();
        let Some(first) = values.next() else {
            return 0;
        };
        let first = Node::boxed(MaybeUninit::new(first));
        let mut last = first;
        let mut n = 1usize;
        for value in values {
            let node = Node::boxed(MaybeUninit::new(value));
            // SAFETY: `last` came from `Node::boxed` in this call and is not
            // yet reachable by any other thread, so it is live and ours
            // alone. A relaxed store suffices: the release store that
            // publishes `first` below orders these links before any
            // consumer can follow them.
            unsafe { (*last).next.store(node, Ordering::Relaxed) };
            last = node;
            n += 1;
        }
        // Count the run before it is reachable, so a concurrent
        // `len() == 0` check can never miss an in-flight push.
        self.len.0.fetch_add(n, Ordering::SeqCst);
        let mut retries = 0u64;
        let mut cur = self.tail.0.load(Ordering::Relaxed);
        loop {
            match self
                .tail
                .0
                .compare_exchange_weak(cur, last, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(prev) => {
                    // Link the published run; until this store lands the
                    // queue is in the documented inconsistent window.
                    // SAFETY: `prev` was the tail, so its `next` is null
                    // and only this producer (the CAS winner) may set it;
                    // the consumer frees a node only after moving past it,
                    // which needs that `next`, so `prev` is still live.
                    unsafe { (*prev).next.store(first, Ordering::Release) };
                    return retries;
                }
                Err(actual) => {
                    retries += 1;
                    cur = actual;
                }
            }
        }
    }

    /// Pop one value (single consumer). Returns `None` when the queue is
    /// empty *or* momentarily inconsistent — check [`MpscQueue::len`] to
    /// tell the cases apart.
    pub fn pop(&self) -> Option<T> {
        let _guard = self.consumer_guard();
        let value = unsafe { self.pop_unsynced() };
        if value.is_some() {
            self.len.0.fetch_sub(1, Ordering::SeqCst);
        }
        value
    }

    /// Pop up to `max` values into `buf` (single consumer), settling the
    /// length counter once for the whole batch. Returns the number popped.
    pub fn pop_batch(&self, buf: &mut Vec<T>, max: usize) -> usize {
        let _guard = self.consumer_guard();
        let mut popped = 0usize;
        while popped < max {
            match unsafe { self.pop_unsynced() } {
                Some(v) => {
                    buf.push(v);
                    popped += 1;
                }
                None => break,
            }
        }
        if popped > 0 {
            self.len.0.fetch_sub(popped, Ordering::SeqCst);
        }
        popped
    }

    /// Advance the consumer cursor by one node, if a linked successor
    /// exists. Caller must hold the consumer role and settle `len`.
    unsafe fn pop_unsynced(&self) -> Option<T> {
        let head = *self.head.0.get();
        let next = (*head).next.load(Ordering::Acquire);
        if next.is_null() {
            return None;
        }
        // Move the value out; `next` becomes the new (consumed) stub.
        let value = ptr::read((*next).value.as_ptr());
        *self.head.0.get() = next;
        drop(Box::from_raw(head));
        Some(value)
    }

    /// Pushed-but-not-consumed count. Exact when producers and the
    /// consumer are settled; transiently over-reports during a push or a
    /// batch drain, never under-reports.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len.0.load(Ordering::SeqCst)
    }

    /// Is the queue empty? `true` is authoritative (every pushed value was
    /// consumed); `false` may also mean a push or drain is mid-flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[cfg(debug_assertions)]
    fn consumer_guard(&self) -> impl Drop + '_ {
        struct Guard<'a>(&'a AtomicBool);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        assert!(
            self.draining
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok(),
            "MpscQueue: concurrent consumers (single-consumer contract violated)"
        );
        Guard(&self.draining)
    }

    #[cfg(not(debug_assertions))]
    #[allow(clippy::unused_self)]
    fn consumer_guard(&self) {}
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: every push has completed its link, so the
        // chain from `head` is fully connected. The head node's value was
        // already moved out (or is the original stub); every later node
        // still owns its value.
        unsafe {
            let mut node = *self.head.0.get();
            let mut first = true;
            while !node.is_null() {
                let next = (*node).next.load(Ordering::Relaxed);
                let mut owned = Box::from_raw(node);
                if !first {
                    ptr::drop_in_place(owned.value.as_mut_ptr());
                }
                drop(owned);
                first = false;
                node = next;
            }
        }
    }
}

impl<T> fmt::Debug for MpscQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MpscQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_single_producer() {
        let q = MpscQueue::new();
        for i in 0..100 {
            let _ = q.push(i);
        }
        assert_eq!(q.len(), 100);
        for i in 0..100 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_batch_respects_max_and_settles_len() {
        let q = MpscQueue::new();
        for i in 0..10 {
            let _ = q.push(i);
        }
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch(&mut buf, 4), 4);
        assert_eq!(buf, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 6);
        assert_eq!(q.pop_batch(&mut buf, 100), 6);
        assert_eq!(buf.len(), 10);
        assert!(q.is_empty());
        assert_eq!(q.pop_batch(&mut buf, 5), 0);
    }

    #[test]
    fn push_batch_of_nothing_is_a_no_op() {
        let q = MpscQueue::new();
        assert_eq!(q.push_batch(Vec::<u32>::new()), 0);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // The queue is still usable: the stub was not disturbed.
        let _ = q.push(7);
        assert_eq!(q.pop(), Some(7));
        assert!(q.is_empty());
    }

    #[test]
    fn push_batch_pops_contiguously_in_order() {
        let q = MpscQueue::new();
        let _ = q.push(0);
        assert_eq!(q.push_batch(1..=5), 0, "uncontended run needs no retry");
        assert_eq!(q.len(), 6);
        let _ = q.push(6);
        let _ = q.push_batch([7, 8]);
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch(&mut buf, 3), 3);
        assert_eq!(q.len(), 6);
        assert_eq!(q.pop_batch(&mut buf, 100), 6);
        assert_eq!(buf, (0..=8).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn push_batch_values_are_dropped_on_queue_drop() {
        struct Counting(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Counting {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let q = MpscQueue::new();
        let _ = q.push_batch((0..4).map(|_| Counting(Arc::clone(&drops))));
        drop(q.pop());
        drop(q);
        assert_eq!(drops.load(Ordering::SeqCst), 4);
    }

    /// Runs of assorted lengths from several producers, drained
    /// concurrently: each producer's values arrive in order, no other
    /// producer's value lands inside a run, nothing is lost, and `len()`
    /// never reports fewer values than have been published and not yet
    /// consumed.
    #[test]
    fn push_batch_runs_from_many_producers_keep_fifo_and_len() {
        let producers = 6usize;
        let per = 20_000u64;
        // Run lengths cycle through 1..=17, so one-value runs and long
        // runs interleave at the tail.
        let mut run_start = vec![false; per as usize];
        let (mut next, mut run) = (0u64, 1u64);
        while next < per {
            run_start[next as usize] = true;
            next += run;
            run = run % 17 + 1;
        }
        let q = Arc::new(MpscQueue::new());
        let published: Arc<Vec<std::sync::atomic::AtomicU64>> = Arc::new(
            (0..producers)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
        );
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            let published = Arc::clone(&published);
            handles.push(thread::spawn(move || {
                let mut next = 0u64;
                let mut run = 1u64;
                while next < per {
                    let end = (next + run).min(per);
                    let _ = q.push_batch((next..end).map(|i| (p as u64) << 32 | i));
                    published[p].store(end, Ordering::SeqCst);
                    next = end;
                    run = run % 17 + 1;
                }
            }));
        }
        let mut last = vec![None::<u64>; producers];
        let mut previous = None::<u64>;
        let mut consumed = 0u64;
        let mut buf = Vec::new();
        while consumed < per * producers as u64 {
            let visible: u64 = published.iter().map(|c| c.load(Ordering::SeqCst)).sum();
            let len = q.len() as u64;
            // A value can be consumed before its producer publishes the
            // count, hence the saturating difference.
            assert!(
                len >= visible.saturating_sub(consumed),
                "len under-reported: {len} < {visible} published - {consumed} consumed"
            );
            buf.clear();
            let n = q.pop_batch(&mut buf, 1 + (consumed as usize % 97));
            if n == 0 {
                thread::yield_now();
                continue;
            }
            for &v in &buf {
                let p = (v >> 32) as usize;
                let i = v & 0xffff_ffff;
                assert!(
                    last[p].is_none_or(|prev| prev + 1 == i),
                    "producer {p} out of order: {:?} then {i}",
                    last[p]
                );
                assert!(
                    run_start[i as usize] || previous == Some(v - 1),
                    "run of producer {p} split before {i}"
                );
                last[p] = Some(i);
                previous = Some(v);
            }
            consumed += n as u64;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        for (p, l) in last.iter().enumerate() {
            assert_eq!(*l, Some(per - 1), "producer {p} incomplete");
        }
    }

    #[test]
    fn values_are_dropped_on_queue_drop() {
        struct Counting(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Counting {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let q = MpscQueue::new();
        for _ in 0..5 {
            let _ = q.push(Counting(Arc::clone(&drops)));
        }
        drop(q.pop()); // one consumed and dropped by us
        drop(q);
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn concurrent_producers_lose_nothing_and_keep_per_producer_fifo() {
        let q = Arc::new(MpscQueue::new());
        let producers = 8usize;
        let per = 5_000u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..per {
                    let _ = q.push((p as u64) << 32 | i);
                }
            }));
        }
        // Consume concurrently with the producers (single consumer: this
        // thread), tracking per-producer sequence numbers.
        let mut last = vec![None::<u64>; producers];
        let mut seen = 0u64;
        let mut buf = Vec::new();
        while seen < per * producers as u64 {
            buf.clear();
            let n = q.pop_batch(&mut buf, 256);
            if n == 0 {
                thread::yield_now();
                continue;
            }
            for &v in &buf {
                let p = (v >> 32) as usize;
                let i = v & 0xffff_ffff;
                assert!(
                    last[p].is_none_or(|prev| prev + 1 == i),
                    "producer {p} out of order: {:?} then {i}",
                    last[p]
                );
                last[p] = Some(i);
                seen += 1;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_empty());
        for (p, l) in last.iter().enumerate() {
            assert_eq!(*l, Some(per - 1), "producer {p} incomplete");
        }
    }

    #[test]
    fn len_never_under_reports_under_concurrency() {
        let q = Arc::new(MpscQueue::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let stop = Arc::clone(&stop);
            handles.push(thread::spawn(move || {
                let mut pushed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let _ = q.push(1u64);
                    pushed += 1;
                }
                pushed
            }));
        }
        let mut consumed = 0u64;
        let mut buf = Vec::new();
        for _ in 0..2_000 {
            buf.clear();
            consumed += q.pop_batch(&mut buf, 64) as u64;
        }
        stop.store(true, Ordering::Relaxed);
        let pushed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Drain the rest: every push must be retrievable.
        loop {
            buf.clear();
            let n = q.pop_batch(&mut buf, 1024);
            consumed += n as u64;
            if n == 0 && q.is_empty() {
                break;
            }
        }
        assert_eq!(consumed, pushed);
        assert_eq!(q.len(), 0);
    }
}
