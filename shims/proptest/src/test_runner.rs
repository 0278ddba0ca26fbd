//! Test-run configuration and the deterministic RNG driving generation.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Per-`proptest!` configuration. Only `cases` is honored by the shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The generation RNG: deterministic, seedable via `PROPTEST_SEED`.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Seeded from `PROPTEST_SEED` if set, else a fixed default so runs
    /// are reproducible.
    #[must_use]
    pub fn from_env() -> Self {
        let seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0x5eed_cafe);
        TestRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `[0, bound)`; returns 0 when `bound == 0`.
    pub fn next_usize(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }
}
