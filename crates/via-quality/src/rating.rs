//! The user star-rating model.
//!
//! In the paper, a small random fraction of Skype calls receive a 1–5 star
//! rating from the user; ratings of 1 or 2 are "poor" and their frequency is
//! the Poor Call Rate (PCR, §2.2). Ratings are noisy: users disagree, and
//! factors other than the network (content, mood, device) move them. We model
//! the rating as the E-model MOS plus Gaussian user noise, discretized to the
//! 1–5 scale — enough structure to reproduce Figure 1's strong-but-not-
//! perfect PCR/metric correlations.

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use via_model::metrics::PathMetrics;

use crate::emodel;

/// Standard deviation of per-user rating noise (MOS points).
const USER_NOISE_SD: f64 = 0.65;

/// Configuration of the rating model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatingModel {
    /// Global offset: users rate on the full 1–5 scale while MOS tops out at
    /// 4.5, so real ratings sit slightly above MOS for good calls.
    pub offset: f64,
    /// Fraction of calls that receive a rating at all (paper: "a small
    /// random fraction").
    pub rating_probability: f64,
}

impl Default for RatingModel {
    fn default() -> Self {
        Self {
            offset: 0.3,
            rating_probability: 0.02,
        }
    }
}

impl RatingModel {
    /// Draws a user rating (1–5) for a call with the given averaged network
    /// metrics. Always returns a rating; use [`RatingModel::maybe_rate`] to
    /// model the sampling of which calls get rated.
    pub fn rate(&self, metrics: &PathMetrics, rng: &mut StdRng) -> u8 {
        let mos = emodel::mos(metrics) + self.offset;
        // Box–Muller keeps us independent of distribution crates here.
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let noisy = mos + USER_NOISE_SD * gauss;
        noisy.round().clamp(1.0, 5.0) as u8
    }

    /// Rates the call only with probability `rating_probability`, mirroring
    /// the sparse feedback a deployed service sees.
    pub fn maybe_rate(&self, metrics: &PathMetrics, rng: &mut StdRng) -> Option<u8> {
        (rng.random::<f64>() < self.rating_probability).then(|| self.rate(metrics, rng))
    }

    /// True if a rating counts as "poor" (1 or 2 stars, §2.2).
    pub fn is_poor_rating(rating: u8) -> bool {
        rating <= 2
    }

    /// Expected probability that a call with these metrics is rated poor —
    /// the closed form of `P(rate(..) ≤ 2)` under the Gaussian noise model.
    /// Useful for tests and for plotting smooth PCR curves.
    pub fn poor_probability(&self, metrics: &PathMetrics) -> f64 {
        let mos = emodel::mos(metrics) + self.offset;
        // P(round(X) ≤ 2) = P(X < 2.5) with X ~ N(mos, sd²).
        let z = (2.5 - mos) / USER_NOISE_SD;
        normal_cdf(z)
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max abs error ≈ 1.5e-7 — far below user-noise scale).
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_model::seed::{fnv1a, FNV_BASIS};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn good_calls_rarely_poor() {
        let m = RatingModel::default();
        let good = PathMetrics::new(40.0, 0.05, 1.0);
        let mut r = rng();
        let poor = (0..5000)
            .filter(|_| RatingModel::is_poor_rating(m.rate(&good, &mut r)))
            .count();
        assert!(
            (poor as f64) / 5000.0 < 0.03,
            "good call rated poor {poor}/5000"
        );
    }

    #[test]
    fn bad_calls_mostly_poor() {
        let m = RatingModel::default();
        let bad = PathMetrics::new(900.0, 12.0, 60.0);
        let mut r = rng();
        let poor = (0..5000)
            .filter(|_| RatingModel::is_poor_rating(m.rate(&bad, &mut r)))
            .count();
        assert!(
            (poor as f64) / 5000.0 > 0.7,
            "bad call rated poor only {poor}/5000"
        );
    }

    #[test]
    fn poor_probability_matches_simulation() {
        let m = RatingModel::default();
        let mid = PathMetrics::new(420.0, 2.0, 15.0);
        let analytic = m.poor_probability(&mid);
        let mut r = rng();
        let sim = (0..20_000)
            .filter(|_| RatingModel::is_poor_rating(m.rate(&mid, &mut r)))
            .count() as f64
            / 20_000.0;
        assert!(
            (analytic - sim).abs() < 0.02,
            "analytic {analytic} vs simulated {sim}"
        );
    }

    #[test]
    fn poor_probability_monotone_in_rtt() {
        let m = RatingModel::default();
        let mut last = -1.0;
        for rtt in [50.0, 150.0, 300.0, 500.0, 800.0] {
            let p = m.poor_probability(&PathMetrics::new(rtt, 0.5, 5.0));
            assert!(p >= last, "PCR must grow with RTT");
            last = p;
        }
    }

    #[test]
    fn maybe_rate_respects_sampling() {
        let m = RatingModel {
            rating_probability: 0.1,
            ..RatingModel::default()
        };
        let mut r = rng();
        let metrics = PathMetrics::new(100.0, 0.2, 3.0);
        let rated = (0..10_000)
            .filter(|_| m.maybe_rate(&metrics, &mut r).is_some())
            .count();
        assert!((800..1200).contains(&rated), "rated {rated}/10000");
    }

    #[test]
    fn rating_bounds() {
        let m = RatingModel::default();
        let mut r = rng();
        for _ in 0..1000 {
            let rating = m.rate(&PathMetrics::new(300.0, 1.0, 10.0), &mut r);
            assert!((1..=5).contains(&rating));
        }
    }

    #[test]
    fn rating_draws_and_poor_probability_bits_are_pinned() {
        // 200 seeded draws per call plus the closed form, good call to
        // terrible, folded FNV-1a into one constant.
        let m = RatingModel::default();
        let mut r = rng();
        let mut h = FNV_BASIS;
        for (rtt, loss, jitter) in [
            (40.0, 0.05, 1.0),
            (150.0, 0.5, 5.0),
            (320.0, 1.2, 12.0),
            (420.0, 2.0, 15.0),
            (900.0, 12.0, 60.0),
        ] {
            let metrics = PathMetrics::new(rtt, loss, jitter);
            h = fnv1a(h, &m.poor_probability(&metrics).to_bits().to_le_bytes());
            for _ in 0..200 {
                h = fnv1a(h, &[m.rate(&metrics, &mut r)]);
            }
        }
        assert_eq!(h, 0x8a4c_ab1c_0013_c101, "rating model bits moved");
    }

    #[test]
    fn normal_cdf_anchors() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }
}
