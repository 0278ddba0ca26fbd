//! Allocation gate for the Bloom engine on transitive closure.
//!
//! One tick of `examples/blz/transitive_closure.blz` over a chain derives
//! every reachable `path` tuple. Flat row storage derives, deduplicates,
//! stores and discards those rows without an allocation of their own; what
//! is left is about one allocation per output tuple (each leaves the
//! engine as a `Tuple` of its own) plus the amortised growth of the row
//! buffers. This binary counts every heap allocation the tick makes and
//! bounds it per `path` tuple — a number that does not depend on the
//! machine, unlike the throughput it drives.
//!
//! The counter is process-wide, so this file is its own test binary and
//! holds exactly one `#[test]`: nothing else may allocate while it reads.

use blazes::bloom::interp::ModuleInstance;
use blazes::bloom::parse_module;
use blazes::dataflow::value::{Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations per `path` tuple the tick may make. A boxed tuple per
/// derived fact, copied between rule output, head, iteration delta and
/// output, reads above 4.
const MAX_ALLOCS_PER_PATH: f64 = 1.5;

/// Edges in the chain: 256 · 257 / 2 = 32 896 `path` tuples.
const EDGES: i64 = 256;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn transitive_closure_tick_allocates_at_most_one_and_a_half_per_path_tuple() {
    let module = parse_module(include_str!("../examples/blz/transitive_closure.blz"))
        .expect("the TC example parses");
    let mut instance = ModuleInstance::new(module).expect("the TC example stratifies");
    let edges: Vec<Tuple> = (0..EDGES)
        .map(|i| Tuple(vec![Value::Int(i), Value::Int(i + 1)]))
        .collect();
    let inputs = BTreeMap::from([("edge".to_string(), edges)]);

    let before = ALLOCS.load(Ordering::SeqCst);
    let output = instance.tick(inputs).expect("TC tick");
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    let paths = output.on("path");
    let expected = (EDGES * (EDGES + 1) / 2) as usize;
    assert_eq!(paths.len(), expected, "every reachable pair, once");
    assert!(
        paths.windows(2).all(|w| w[0] < w[1]),
        "sorted on the way out"
    );
    assert_eq!(
        paths.last(),
        Some(&Tuple(vec![Value::Int(EDGES - 1), Value::Int(EDGES)]))
    );
    let per_path = allocs as f64 / expected as f64;
    eprintln!("{allocs} allocations over {expected} path tuples = {per_path:.2} per tuple");
    assert!(
        per_path <= MAX_ALLOCS_PER_PATH,
        "{allocs} allocations over {expected} path tuples = {per_path:.2} per tuple \
         (budget {MAX_ALLOCS_PER_PATH})"
    );
}
