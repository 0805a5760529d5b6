//! Offline stand-in for `proptest`.
//!
//! Runs each property over a fixed number of cases generated from a
//! deterministic per-test RNG (seeded by hashing the test name), so failures
//! reproduce identically on every run. No shrinking: a failing case panics
//! with the values visible in the assertion message.
//!
//! Supported surface: the `proptest! { #[test] fn name(arg in strategy) {..} }`
//! macro form, `prop_assert!`/`prop_assert_eq!`, `any::<T>()`, numeric range
//! strategies, tuple strategies, and `prop::collection::vec`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

pub mod collection;
pub mod prelude;

/// Cases generated per property. Fixed (not configurable) so test time is
/// predictable; the real crate's default is 256.
pub const CASES: u32 = 128;

/// Builds the deterministic RNG for one property test.
#[must_use]
pub fn test_rng(test_name: &str) -> StdRng {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in test_name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(hash)
}

/// A generator of test-case values.
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

/// Strategy producing any value of a type (uniform over its domain).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// Generates arbitrary values of `T`, like proptest's `any::<T>()`.
#[must_use]
pub fn any<T>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: rand::StandardSample> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.random()
    }
}

/// Strategy that always yields the same value.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*
    };
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+);)*) => {
        $(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case, reason = "the tuple's type parameter names bind its parts")]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*
    };
}

tuple_strategy! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over [`CASES`] generated cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut proptest_rng = $crate::test_rng(stringify!($name));
                for proptest_case in 0..$crate::CASES {
                    let ($($arg,)+) = (
                        $($crate::Strategy::generate(&($strat), &mut proptest_rng),)+
                    );
                    let _ = proptest_case;
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_test_name() {
        let a: Vec<u64> = {
            let mut r = crate::test_rng("alpha");
            (0..4).map(|_| rand::RngCore::next_u64(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = crate::test_rng("alpha");
            (0..4).map(|_| rand::RngCore::next_u64(&mut r)).collect()
        };
        let c: Vec<u64> = {
            let mut r = crate::test_rng("beta");
            (0..4).map(|_| rand::RngCore::next_u64(&mut r)).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 0f64..100.0, n in 1usize..20, b in any::<bool>()) {
            prop_assert!((0.0..100.0).contains(&x));
            prop_assert!((1..20).contains(&n));
            let _ = b;
        }

        #[test]
        fn vec_strategy_respects_length(mut xs in prop::collection::vec((0f64..10.0, 0u32..5), 1..30)) {
            prop_assert!(!xs.is_empty() && xs.len() < 30);
            for (f, u) in xs.drain(..) {
                prop_assert!((0.0..10.0).contains(&f));
                prop_assert!(u < 5);
            }
        }
    }
}
