//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API the workspace's property tests
//! use: the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`,
//! [`ProptestConfig`], integer-range strategies, and
//! [`collection::vec`]. Test cases are generated from a deterministic RNG
//! seeded by the test name, so failures are reproducible; there is no
//! shrinking — a failing case panics with the ordinary assertion message.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub use rand::rngs::StdRng as TestRng;
use rand::{Rng, SeedableRng};

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Seeds the per-test RNG from the test's name (deterministic across runs).
pub fn rng_for(name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    TestRng::seed_from_u64(h)
}

/// A value generator (non-shrinking subset of proptest's `Strategy`).
pub trait Strategy {
    /// Generated value type.
    type Value;
    /// Draws one value.
    fn draw(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn draw(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn draw(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A fixed single value (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn draw(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Strategy producing vectors with random length and elements.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// Vector of values drawn from `elem`, with a length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn draw(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.elem.draw(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr);
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::rng_for(stringify!($name));
                for _case in 0..config.cases {
                    $(let $arg = $crate::Strategy::draw(&($strat), &mut rng);)*
                    $body
                }
            }
        )*
    };
}

/// Declares property tests: each function runs `cases` times with fresh
/// random arguments drawn from the strategies after `in`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_sample_in_bounds(x in 3u64..17, v in collection::vec(0u8..5, 1..4)) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert!(v.iter().all(|&b| b < 5));
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(y in 0usize..4) {
            prop_assert!(y < 4);
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        use rand::Rng;
        let mut a = crate::rng_for("case");
        let mut b = crate::rng_for("case");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
