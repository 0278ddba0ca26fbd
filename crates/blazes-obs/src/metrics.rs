//! Run-owned measurement types: an HDR-style log-bucketed histogram,
//! atomic and shareable across threads, in fixed memory. A run that wants
//! a distribution owns one and hands its [`HistogramSnapshot`] out with
//! the run's statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution bits: 2^5 = 32 sub-buckets per power of two,
/// bounding the relative quantile error at ~3%.
const SUB_BITS: u32 = 5;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Values below 2^SUB_BITS get exact unit buckets; above, one bucket row
/// per power of two. 64-bit values need (64 - SUB_BITS) rows.
const ROWS: usize = (64 - SUB_BITS as usize) + 1;
const BUCKETS: usize = ROWS * SUB_COUNT;

/// An HDR-style log-bucketed histogram of `u64` samples (typically
/// nanoseconds): fixed memory, lock-free recording, ~3% relative error on
/// reported quantiles.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64; BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Bucket index for a value: exact below `2^SUB_BITS`, then
    /// `SUB_COUNT` log-spaced sub-buckets per power of two.
    fn index(v: u64) -> usize {
        if v < SUB_COUNT as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let row = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
        (row * SUB_COUNT + sub).min(BUCKETS - 1)
    }

    /// Representative (midpoint) value of a bucket index.
    fn value_of(idx: usize) -> u64 {
        let row = idx / SUB_COUNT;
        let sub = (idx % SUB_COUNT) as u64;
        if row == 0 {
            return sub;
        }
        let unit = 1u64 << (row as u32 - 1);
        let base = (1u64 << (row as u32 + SUB_BITS - 1)) + sub * unit;
        base + unit / 2
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` in `[0, 1]` (bucket midpoint; 0 when
    /// empty).
    #[must_use]
    fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::value_of(idx).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// A consistent-enough read of the whole distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            mean: if count == 0 {
                0.0
            } else {
                self.sum.load(Ordering::Relaxed) as f64 / count as f64
            },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time summary of a [`Histogram`]; the default is an empty
/// histogram's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest sample.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB_COUNT as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_COUNT as u64);
        assert_eq!(h.quantile(0.0), 0);
        // Unit buckets below the sub-bucket threshold.
        assert_eq!(h.quantile(0.5), (SUB_COUNT as u64) / 2 - 1);
        assert_eq!(h.quantile(1.0), SUB_COUNT as u64 - 1);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let h = Histogram::new();
        // Uniform 1..=100_000: p50 ~ 50_000, p99 ~ 99_000.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100_000);
        let within = |got: u64, want: f64| {
            let rel = (got as f64 - want).abs() / want;
            assert!(rel < 0.04, "got {got}, want ~{want} (rel {rel:.3})");
        };
        within(snap.p50, 50_000.0);
        within(snap.p90, 90_000.0);
        within(snap.p99, 99_000.0);
        within(snap.p999, 99_900.0);
        assert_eq!(snap.max, 100_000);
        assert!((snap.mean - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(h.quantile(0.25), 0);
        assert!(h.quantile(1.0) > u64::MAX / 2);
        let fresh = Histogram::new();
        assert_eq!(fresh.snapshot().count, 0);
        assert_eq!(fresh.quantile(0.5), 0);
    }
}
