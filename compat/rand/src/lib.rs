//! Offline stand-in for the `rand` crate.
//!
//! This workspace builds in containers with no crates.io access, so the small
//! slice of the `rand 0.10` API the simulator actually uses is reimplemented
//! here: [`rngs::StdRng`] (xoshiro256++ seeded by SplitMix64), the
//! [`Rng`]/[`RngCore`]/[`SeedableRng`] traits with `random`, `random_range`
//! and `random_bool`, and the [`distr::Distribution`] trait that
//! `rand_distr` builds on.
//!
//! Everything here is **deterministic by construction**: there is no
//! `thread_rng`, no `from_entropy`, and no OS entropy source at all — the
//! only way to build a generator is from an explicit seed. That property is
//! load-bearing for the replay methodology (common random numbers, §5.1 of
//! the VIA paper), and it holds because this crate has nothing else to call.

pub mod distr;
pub mod rngs;
pub mod seq;

mod sample;

pub use sample::{SampleRange, StandardSample};

/// The items almost every user wants in scope.
pub mod prelude {
    pub use crate::distr::Distribution;
    pub use crate::rngs::StdRng;
    pub use crate::seq::{IndexedRandom, SliceRandom};
    pub use crate::{Rng, RngCore, SeedableRng};
}

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32` (upper half of a `u64` draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        R::next_u64(self)
    }
}

/// A generator that can be constructed from a seed. Deliberately omits
/// `from_entropy`/`from_os_rng`: all randomness in this workspace must be
/// seeded explicitly.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed via SplitMix64 expansion.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value from the standard distribution of `T` (uniform over
    /// the full domain for integers and `bool`, uniform in `[0, 1)` for
    /// floats).
    fn random<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Samples uniformly from a (half-open or inclusive) range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample_standard(self) < p
    }

    /// Samples from an explicit distribution.
    fn sample<T, D: distr::Distribution<T>>(&mut self, distribution: &D) -> T
    where
        Self: Sized,
    {
        distribution.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_floats_are_in_range_and_cover() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            lo |= x < 0.1;
            hi |= x > 0.9;
        }
        assert!(lo && hi, "samples should cover the unit interval");
    }

    #[test]
    fn integer_ranges_hit_all_values() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.random_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn inclusive_and_signed_ranges() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1_000 {
            let v = rng.random_range(1..=u8::MAX);
            assert!(v >= 1);
            let s = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&s));
            let f = rng.random_range(-0.1..=0.1);
            assert!((-0.1..=0.1).contains(&f));
        }
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn fill_bytes_fills_everything() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut buf = [0u8; 37];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
