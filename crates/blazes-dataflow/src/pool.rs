//! The worker-sizing heuristic of the parallel executor.
//!
//! [`default_workers`] reads `available_parallelism`, capped at
//! [`MAX_POOL_WORKERS`]; it is what `par` uses when the caller does not
//! pin a worker count.

/// Cap on derived worker counts (mirrors the par backend's default cap).
pub const MAX_POOL_WORKERS: usize = 8;

/// The worker count used when the caller does not pin one: the machine's
/// available parallelism, capped at [`MAX_POOL_WORKERS`] and floored at 1.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(2, std::num::NonZeroUsize::get)
        .clamp(1, MAX_POOL_WORKERS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workers_is_positive_and_capped() {
        let w = default_workers();
        assert!(w >= 1);
        assert!(w <= MAX_POOL_WORKERS);
    }
}
