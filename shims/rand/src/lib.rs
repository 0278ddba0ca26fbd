//! The seeded RNG behind every workload and fault schedule: code this
//! repository owns, under the `rand` name because it implements the
//! subset of `rand` 0.9 the workspace uses — `rngs::StdRng`,
//! [`SeedableRng::seed_from_u64`], and [`Rng::random`] /
//! [`Rng::random_range`] — backed by xoshiro256++ seeded through
//! SplitMix64. Deterministic for a given seed, which is all the simulator
//! requires; it is NOT cryptographically secure.

use std::ops::{Bound, RangeBounds};

/// A seedable random number generator.
pub trait SeedableRng: Sized {
    /// Derive a generator state from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from an RNG ("standard"
/// distribution): `f64` in `[0, 1)`, integers over their full range.
pub trait StandardSample {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types usable with [`Rng::random_range`].
pub trait UniformSample: Copy + PartialEq {
    /// Draw a value uniformly from `[lo, hi]` (inclusive bounds).
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Smallest representable value.
    const MIN: Self;
    /// Largest representable value.
    const MAX: Self;
    /// The value one below `self`, saturating.
    fn prev(self) -> Self;
    /// The value one above `self`, saturating.
    fn next(self) -> Self;
}

/// Core entropy source: a stream of `u64`s.
pub trait RngCore {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling helpers, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Sample a value from the standard distribution of `T`.
    fn random<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample uniformly from `range` (e.g. `0..n`, `0..=max`).
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformSample,
        R: RangeBounds<T>,
        Self: Sized,
    {
        let lo = match range.start_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => {
                // `next()` saturates; an excluded MAX start means the range
                // is empty and must panic like the real crate.
                assert!(x != T::MAX, "random_range: cannot sample empty range");
                x.next()
            }
            Bound::Unbounded => T::MIN,
        };
        let hi = match range.end_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => {
                // `prev()` saturates; `lo..lo` with lo == MIN (e.g. `0..0`)
                // would otherwise silently collapse to `0..=0`.
                assert!(x != T::MIN, "random_range: cannot sample empty range");
                x.prev()
            }
            Bound::Unbounded => T::MAX,
        };
        T::sample_inclusive(self, lo, hi)
    }
}

impl<R: RngCore> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pre-made generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The standard generator: xoshiro256++ (deterministic, non-crypto).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // All-zero state would be a fixed point; splitmix64 cannot
            // produce four zeros from any seed, but guard anyway.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9e37_79b9_7f4a_7c15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [mut s0, mut s1, mut s2, mut s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
            self.s = [s0, s1, s2, s3];
            result
        }
    }
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high-quality bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for i64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl UniformSample for $t {
            const MIN: $t = <$t>::MIN;
            const MAX: $t = <$t>::MAX;

            fn prev(self) -> $t {
                self.saturating_sub(1)
            }

            fn next(self) -> $t {
                self.saturating_add(1)
            }

            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "random_range: empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u128;
                if span == u128::from(u64::MAX) {
                    return rng.next_u64() as $t;
                }
                // Modulo reduction; bias is negligible for the simulator's
                // span sizes (all far below 2^64).
                let v = u128::from(rng.next_u64()) % (span + 1);
                ((lo as $wide).wrapping_add(v as $wide)) as $t
            }
        }
    )*};
}

impl_uniform_int!(u64 => u64, i64 => u64, u32 => u64, i32 => u64, usize => u64);

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = rng.random_range(0..=10u64);
            assert!(x <= 10);
            let y = rng.random_range(5..8i64);
            assert!((5..8).contains(&y));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_at_type_min_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = rng.random_range(0..0u64);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_elsewhere_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = rng.random_range(5..5i64);
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.random_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }
}
