//! The property-test harness of the `prop_*` suites: code this repository
//! owns, under the `proptest` name because it implements the subset of
//! that crate the test suite uses: the [`Strategy`](strategy::Strategy)
//! trait with `prop_map`/`boxed`, `any`, `Just`, range and tuple
//! strategies, `sample::subsequence`, `collection::vec`, `option::of`, and
//! the `proptest!` / `prop_assert!` / `prop_assert_eq!` / `prop_oneof!`
//! macros.
//!
//! Differences from the published crate, deliberately accepted:
//!
//! * no shrinking — a failing case panics with its values via the assert
//!   message;
//! * generation is driven by a fixed-seed deterministic RNG (override with
//!   `PROPTEST_SEED`), so failures always reproduce;
//! * `prop_assert*` panic immediately instead of returning `TestCaseError`.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Strategies over collections (`proptest::collection`).
pub mod collection {
    use crate::strategy::{SizeRange, Strategy};
    use crate::test_runner::TestRng;

    /// A strategy producing `Vec`s of values from `element`, with a length
    /// drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: vectors of `element` with length in
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

/// Strategies over `Option` (`proptest::option`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A strategy producing `Option<S::Value>`.
    #[derive(Debug, Clone)]
    pub struct OfStrategy<S> {
        inner: S,
    }

    /// `proptest::option::of`: `None` about a quarter of the time,
    /// otherwise `Some` of the inner strategy.
    pub fn of<S: Strategy>(inner: S) -> OfStrategy<S> {
        OfStrategy { inner }
    }

    impl<S: Strategy> Strategy for OfStrategy<S> {
        type Value = Option<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_usize(4) == 0 {
                None
            } else {
                Some(self.inner.gen_value(rng))
            }
        }
    }
}

/// Strategies sampling from existing collections (`proptest::sample`).
pub mod sample {
    use crate::strategy::{SizeRange, Strategy};
    use crate::test_runner::TestRng;

    /// A strategy producing order-preserving random subsequences.
    #[derive(Debug, Clone)]
    pub struct Subsequence<T> {
        values: Vec<T>,
        size: SizeRange,
    }

    /// `proptest::sample::subsequence`: a random subsequence of `values`
    /// (order preserved) whose length falls in `size`.
    pub fn subsequence<T: Clone>(values: Vec<T>, size: impl Into<SizeRange>) -> Subsequence<T> {
        Subsequence {
            values,
            size: size.into(),
        }
    }

    impl<T: Clone> Strategy for Subsequence<T> {
        type Value = Vec<T>;

        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.values.len();
            let k = self.size.pick(rng).min(len);
            // Choose k distinct indices, then emit them in order.
            let mut chosen: Vec<usize> = (0..len).collect();
            for i in 0..k {
                let j = i + rng.next_usize(len - i);
                chosen.swap(i, j);
            }
            let mut picked = chosen[..k].to_vec();
            picked.sort_unstable();
            picked.into_iter().map(|i| self.values[i].clone()).collect()
        }
    }
}

/// The commonly imported surface (`proptest::prelude::*`).
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// `prop_assert!`: assert inside a property (panics in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `prop_assert_eq!`: equality assert inside a property (panics in the
/// shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `prop_oneof!`: choose uniformly between the given strategies, which
/// must share a value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// `proptest!`: run each contained `#[test]` function over generated
/// inputs. Supports the `#![proptest_config(..)]` header.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run $config; $($rest)*);
    };
    (@run $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::from_env();
            for _case in 0..config.cases {
                let ($($arg,)+) = (
                    $($crate::strategy::Strategy::gen_value(&($strategy), &mut rng),)+
                );
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run $crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}
