//! Uniform sampling machinery behind [`Rng::random`] and
//! [`Rng::random_range`].
//!
//! [`Rng::random`]: crate::Rng::random
//! [`Rng::random_range`]: crate::Rng::random_range

use crate::RngCore;
use std::ops::{Range, RangeInclusive};

/// Types with a canonical "standard" distribution: full-domain uniform for
/// integers and `bool`, uniform `[0, 1)` for floats.
pub trait StandardSample: Sized {
    /// Draws one standard sample.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Converts a `u64` draw to a uniform `f64` in `[0, 1)` using the top 53
/// bits (the full mantissa width, so every representable step is reachable).
pub(crate) fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),+) => {$(
        impl StandardSample for $t {
            #[allow(
                clippy::cast_possible_truncation,
                reason = "a standard draw keeps the low bits of a 64-bit word"
            )]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )+};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardSample for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

/// Types that can be drawn uniformly from a bounded range.
///
/// The `SampleRange` impls are generic over `T: SampleUniform` (one impl per
/// range *shape*, not per element type) so a literal like `-3.0..3.0` unifies
/// its element type with the surrounding expression — the same inference
/// behavior as upstream rand.
pub trait SampleUniform: Sized + PartialOrd {
    /// Draws from the half-open range `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;

    /// Draws from the closed range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_range_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            #[allow(
                clippy::cast_possible_truncation,
                reason = "the draw lies in [lo, hi], so it fits the range's type"
            )]
            fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let (lo, hi) = (i128::from(lo), i128::from(hi));
                assert!(lo < hi, "cannot sample from empty range");
                let draw = i128::from(rng.next_u64()).rem_euclid(hi - lo);
                (lo + draw) as $t
            }

            #[allow(
                clippy::cast_possible_truncation,
                reason = "the draw lies in [lo, hi], so it fits the range's type"
            )]
            fn sample_range_inclusive<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                rng: &mut R,
            ) -> Self {
                let (lo, hi) = (i128::from(lo), i128::from(hi));
                assert!(lo <= hi, "cannot sample from empty range");
                let draw = i128::from(rng.next_u64()).rem_euclid(hi - lo + 1);
                (lo + draw) as $t
            }
        }
    )+};
}

impl_uniform_int!(u8, u16, u32, u64, i8, i16, i32, i64);

// usize/isize lack `From` into i128 on all platforms; go through u64/i64.
impl SampleUniform for usize {
    fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        u64::sample_range(lo as u64, hi as u64, rng) as usize
    }

    fn sample_range_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        u64::sample_range_inclusive(lo as u64, hi as u64, rng) as usize
    }
}

impl SampleUniform for isize {
    #[allow(
        clippy::cast_possible_truncation,
        reason = "the draw lies in [lo, hi], so it fits the range's type"
    )]
    fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        i64::sample_range(lo as i64, hi as i64, rng) as isize
    }

    #[allow(
        clippy::cast_possible_truncation,
        reason = "the draw lies in [lo, hi], so it fits the range's type"
    )]
    fn sample_range_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        i64::sample_range_inclusive(lo as i64, hi as i64, rng) as isize
    }
}

macro_rules! impl_uniform_float {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            #[allow(
                clippy::cast_possible_truncation,
                reason = "a unit draw in f64 narrows to the range's float type"
            )]
            fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "cannot sample from empty range");
                let u = unit_f64(rng) as $t;
                lo + u * (hi - lo)
            }

            #[allow(
                clippy::cast_possible_truncation,
                reason = "a unit draw in f64 narrows to the range's float type"
            )]
            fn sample_range_inclusive<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                rng: &mut R,
            ) -> Self {
                assert!(lo <= hi, "cannot sample from empty range");
                // The closed upper end is hit with probability ~2^-53 —
                // the same convention upstream rand uses.
                let u = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
                lo + (u as $t) * (hi - lo)
            }
        }
    )+};
}

impl_uniform_float!(f32, f64);

/// Range types that [`Rng::random_range`](crate::Rng::random_range) accepts.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_range_inclusive(lo, hi, rng)
    }
}
