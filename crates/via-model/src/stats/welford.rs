//! Online mean / variance / standard-error via Welford's algorithm.

use serde::{Deserialize, Serialize};

/// Numerically stable single-pass accumulator for mean, variance, and the
/// standard error of the mean (SEM).
///
/// VIA's predictor (§4.4) publishes, for every (source AS, destination AS,
/// relaying option), the sample mean and its SEM; the 95 % confidence bounds
/// `mean ± 1.96·SEM` drive the top-k pruning. This accumulator is the storage
/// unit behind those estimates: O(1) state per key, mergeable, and stable even
/// for millions of samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2).
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation in. Non-finite values are ignored (they would
    /// poison every downstream confidence bound); callers that need strict
    /// validation should check before pushing.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// variance update). Allows per-shard aggregation followed by combination.
    // Float addition is not associative, so the result depends on merge
    // order; every caller combines shards in shard-index order, which fixes
    // the operation sequence for a given shard count.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True if no observations have been folded in.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Unbiased sample variance; `None` with fewer than two observations.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Standard error of the mean, `s / √n`; `None` with fewer than two
    /// observations.
    pub fn sem(&self) -> Option<f64> {
        self.std_dev().map(|s| s / (self.n as f64).sqrt())
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Lower 95 % confidence bound of the mean (`mean − 1.96·SEM`).
    ///
    /// With a single sample the SEM is undefined; following the paper's
    /// "treat sparse data pessimistically" posture, a configurable fallback
    /// spread is applied by the caller instead (see `via-core::predictor`).
    pub fn ci95(&self) -> Option<(f64, f64)> {
        let mean = self.mean()?;
        let sem = self.sem()?;
        Some((mean - 1.96 * sem, mean + 1.96 * sem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_yield_none() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.sem(), None);
        assert_eq!(s.ci95(), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn known_values() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert!((s.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn single_sample_has_mean_but_no_sem() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), Some(3.5));
        assert_eq!(s.sem(), None);
    }

    #[test]
    fn non_finite_inputs_ignored() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), Some(1.0));
    }

    #[test]
    fn ci95_brackets_mean() {
        let mut s = OnlineStats::new();
        for i in 0..100 {
            s.push(i as f64);
        }
        let (lo, hi) = s.ci95().unwrap();
        let mean = s.mean().unwrap();
        assert!(lo < mean && mean < hi);
        assert!((hi - mean - 1.96 * s.sem().unwrap()).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn merge_equals_sequential(mut xs in prop::collection::vec(-1e6f64..1e6, 1..200), split in 0usize..200) {
            let split = split.min(xs.len());
            let (a, b) = xs.split_at(split);
            let mut sa = OnlineStats::new();
            let mut sb = OnlineStats::new();
            for &x in a { sa.push(x); }
            for &x in b { sb.push(x); }
            sa.merge(&sb);

            let mut seq = OnlineStats::new();
            for &x in xs.iter() { seq.push(x); }

            prop_assert_eq!(sa.count(), seq.count());
            let tol = 1e-6 * (1.0 + seq.mean().unwrap().abs());
            prop_assert!((sa.mean().unwrap() - seq.mean().unwrap()).abs() < tol);
            if xs.len() > 1 {
                let vtol = 1e-5 * (1.0 + seq.variance().unwrap().abs());
                prop_assert!((sa.variance().unwrap() - seq.variance().unwrap()).abs() < vtol);
            }
            // Keep xs non-empty for the lint about unused mut.
            xs.clear();
        }

        #[test]
        fn variance_nonnegative(xs in prop::collection::vec(-1e9f64..1e9, 2..100)) {
            let mut s = OnlineStats::new();
            for &x in &xs { s.push(x); }
            prop_assert!(s.variance().unwrap() >= 0.0);
            prop_assert!(s.min().unwrap() <= s.mean().unwrap() + 1e-9);
            prop_assert!(s.max().unwrap() >= s.mean().unwrap() - 1e-9);
        }
    }
}
