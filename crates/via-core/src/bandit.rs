//! The modified UCB1 exploration–exploitation step (Algorithm 3).
//!
//! Within one control window and one source–destination pair, the pruned
//! top-k options are the arms of a multi-armed bandit. VIA adapts UCB1
//! ([Auer et al. 2002]) in two ways (§4.5):
//!
//! 1. **Outlier-robust normalization** — rewards are not normalized by the
//!    full value range (heavy tails would crush common-case differences) but
//!    by `w`, the mean of the top-k candidates' `Pred_upper` bounds.
//! 2. **Minimization form** — network metrics are costs, so the selection
//!    minimizes `mean_normalized_cost − √(0.1·ln T / n_r)` (exploration bonus
//!    subtracted rather than added).
//!
//! A separate ε-fraction of calls bypasses the bandit entirely and samples a
//! uniformly random option from the *full* candidate set — the "general
//! exploration" that keeps the next window's pruning honest when reward
//! distributions drift (the paper's second modification).

use via_model::options::RelayOption;

/// Exploration coefficient (paper: 0.1 under the square root).
const EXPLORATION_COEF: f64 = 0.1;

/// Per-arm statistics.
#[derive(Debug, Clone)]
struct Arm {
    option: RelayOption,
    /// Calls assigned to this arm so far (|C_r|).
    n: u64,
    /// Sum of observed raw costs Q(c, r).
    cost_sum: f64,
}

/// Bandit state for one (pair, window): the `Explore` function of
/// Algorithm 3, kept incrementally instead of recomputed per call.
#[derive(Debug, Clone)]
pub struct UcbBandit {
    arms: Vec<Arm>,
    /// Total assignments made through this bandit (T − 1).
    total: u64,
    /// Normalizer w = mean of top-k Pred_upper values.
    w: f64,
    /// If false, raw costs are used without normalization (the "original
    /// UCB1" ablation of Figure 15).
    pub normalize: bool,
}

impl UcbBandit {
    /// Creates a bandit over the pruned top-k options. `w` is the
    /// normalizer: the mean of the options' upper confidence bounds on the
    /// objective metric (Algorithm 3 line 3).
    pub fn new(options: impl IntoIterator<Item = RelayOption>, w: f64) -> UcbBandit {
        Self::with_priors(options.into_iter().map(|o| (o, 0.0)), w, 0)
    }

    /// Creates a bandit whose arms are warm-started with `virtual_n`
    /// pseudo-observations at their *predicted* cost.
    ///
    /// Plain UCB1 plays every arm once before comparing; with only tens of
    /// calls per (pair, window), that initial sweep dominates. VIA already
    /// holds a prediction for every pruned candidate, so arms start from the
    /// predicted cost and the UCB bonus arbitrates between prediction and
    /// observation — this is the "prediction-guided" half of
    /// prediction-guided exploration applied inside the bandit.
    pub fn with_priors(
        options: impl IntoIterator<Item = (RelayOption, f64)>,
        w: f64,
        virtual_n: u64,
    ) -> UcbBandit {
        let mut bandit = UcbBandit {
            arms: options
                .into_iter()
                .map(|(option, predicted_cost)| Arm {
                    option,
                    n: virtual_n,
                    cost_sum: predicted_cost.max(0.0) * virtual_n as f64,
                })
                .collect(),
            total: 0,
            w: if w > 0.0 { w } else { 1.0 },
            normalize: true,
        };
        bandit.total = bandit.arms.len() as u64 * virtual_n;
        bandit
    }

    /// Number of arms.
    pub fn len(&self) -> usize {
        self.arms.len()
    }

    /// True if the bandit has no arms.
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// The arm options.
    pub fn options(&self) -> impl Iterator<Item = RelayOption> + '_ {
        self.arms.iter().map(|a| a.option)
    }

    /// The arm-ranking pass shared by [`UcbBandit::choose`] and
    /// [`UcbBandit::choose_set`]: among the arms not in `taken`, the first
    /// still-unplayed arm wins (UCB1 plays every arm once before comparing),
    /// otherwise the strict-minimum lower-confidence cost index with
    /// first-wins tie-breaking.
    fn next_arm(&self, taken: &[RelayOption]) -> Option<RelayOption> {
        let t = (self.total + 1) as f64;
        let norm = if self.normalize { self.w } else { 1.0 };
        let mut best: Option<(f64, RelayOption)> = None;
        for arm in &self.arms {
            if taken.contains(&arm.option) {
                continue;
            }
            if arm.n == 0 {
                return Some(arm.option);
            }
            let mean_cost = arm.cost_sum / (norm * arm.n as f64);
            let bonus = (EXPLORATION_COEF * t.ln() / arm.n as f64).sqrt();
            let index = mean_cost - bonus;
            if best.is_none_or(|(b, _)| index < b) {
                best = Some((index, arm.option));
            }
        }
        best.map(|(_, o)| o)
    }

    /// Picks the arm with the minimal lower-confidence cost index — the
    /// first element of [`UcbBandit::choose_set`]. Returns `None` only when
    /// the bandit has no arms.
    pub fn choose(&self) -> Option<RelayOption> {
        self.next_arm(&[])
    }

    /// Combinatorial (CUCB-style) extension of [`UcbBandit::choose`]: fills
    /// `out` with up to `k` distinct arms, best lower-confidence index
    /// first. Under a cardinality-only constraint the optimal super-arm is
    /// exactly the k best per-arm indices, so the set shares the same
    /// per-path confidence intervals as the single-path bandit — no
    /// per-subset statistics are kept, and semi-bandit feedback (one
    /// `update` per played path) keeps the arms honest. Selection order is
    /// deterministic, and `out[0]` is what `choose()` returns.
    pub fn choose_set(&self, k: usize, out: &mut Vec<RelayOption>) {
        out.clear();
        while out.len() < k.min(self.arms.len()) {
            match self.next_arm(out) {
                Some(o) => out.push(o),
                None => break,
            }
        }
    }

    /// Records the realized cost of a call assigned to `option`. Costs for
    /// options outside the arm set (e.g. ε general-exploration picks) are
    /// ignored here — they feed the history/predictor instead.
    ///
    /// # Contract
    /// `cost` must be finite and non-negative: every caller feeds a measured
    /// path metric (RTT ms, loss %, jitter ms), all of which are ≥ 0 by
    /// construction. A negative or non-finite cost indicates a bug upstream
    /// (e.g. an uninitialized metric), so debug builds assert instead of
    /// silently clamping it — a clamp would quietly bias the arm's mean
    /// toward optimism. Release builds still clamp as a last-resort
    /// containment so one bad sample cannot poison `choose()` forever.
    pub fn update(&mut self, option: RelayOption, cost: f64) {
        debug_assert!(
            cost.is_finite() && cost >= 0.0,
            "bandit cost must be a finite non-negative metric, got {cost}"
        );
        let option = option.canonical();
        if let Some(arm) = self.arms.iter_mut().find(|a| a.option == option) {
            arm.n += 1;
            arm.cost_sum += cost.max(0.0);
            self.total += 1;
        }
    }

    /// Assignments recorded so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Debug-build invariants: per-arm counts sum to the bandit total
    /// (virtual prior observations included), the normalizer is positive,
    /// and no arm has accumulated a negative or non-finite cost sum. Free in
    /// release builds.
    pub fn validate(&self) {
        debug_assert!(
            self.arms.iter().map(|a| a.n).sum::<u64>() == self.total,
            "bandit arm counts {:?} do not sum to total {}",
            self.arms.iter().map(|a| a.n).collect::<Vec<_>>(),
            self.total
        );
        debug_assert!(
            self.w > 0.0,
            "bandit normalizer w = {} must be positive",
            self.w
        );
        debug_assert!(
            self.arms
                .iter()
                .all(|a| a.cost_sum.is_finite() && a.cost_sum >= 0.0),
            "bandit has a negative or non-finite cost sum"
        );
    }

    /// Mean observed cost of one arm, if it was played.
    #[cfg(test)]
    pub fn arm_mean(&self, option: RelayOption) -> Option<f64> {
        let option = option.canonical();
        self.arms
            .iter()
            .find(|a| a.option == option && a.n > 0)
            .map(|a| a.cost_sum / a.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use via_model::ids::RelayId;

    fn opts(n: u32) -> Vec<RelayOption> {
        (0..n).map(|i| RelayOption::Bounce(RelayId(i))).collect()
    }

    #[test]
    fn empty_bandit_chooses_nothing() {
        let b = UcbBandit::new([], 1.0);
        assert!(b.is_empty());
        assert_eq!(b.choose(), None);
    }

    #[test]
    fn plays_every_arm_once_first() {
        let mut b = UcbBandit::new(opts(3), 100.0);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let o = b.choose().unwrap();
            seen.push(o);
            b.update(o, 50.0);
        }
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 3, "each arm must be tried once");
    }

    #[test]
    fn converges_to_best_arm() {
        // Arm costs: R0 = 100, R1 = 60 (best), R2 = 90, with noise.
        let mut b = UcbBandit::new(opts(3), 100.0);
        let mut rng = StdRng::seed_from_u64(3);
        let cost_of = |o: RelayOption, rng: &mut StdRng| {
            let base = match o {
                RelayOption::Bounce(RelayId(0)) => 100.0,
                RelayOption::Bounce(RelayId(1)) => 60.0,
                _ => 90.0,
            };
            base + rng.random_range(-10.0..10.0)
        };
        let mut picks = [0u32; 3];
        for _ in 0..500 {
            let o = b.choose().unwrap();
            if let RelayOption::Bounce(r) = o {
                picks[r.index()] += 1;
            }
            let c = cost_of(o, &mut rng);
            b.update(o, c);
        }
        assert!(
            picks[1] > 350,
            "best arm picked only {}/500 times ({picks:?})",
            picks[1]
        );
        assert!(b.arm_mean(RelayOption::Bounce(RelayId(1))).unwrap() < 70.0);
    }

    #[test]
    fn keeps_exploring_under_ties() {
        let mut b = UcbBandit::new(opts(2), 10.0);
        for _ in 0..200 {
            let o = b.choose().unwrap();
            b.update(o, 10.0); // identical costs
        }
        // Both arms should keep being sampled when indistinguishable.
        let n0 = b.arm_mean(RelayOption::Bounce(RelayId(0)));
        let n1 = b.arm_mean(RelayOption::Bounce(RelayId(1)));
        assert!(n0.is_some() && n1.is_some());
        assert_eq!(b.total(), 200);
    }

    #[test]
    fn updates_for_unknown_options_are_ignored() {
        let mut b = UcbBandit::new(opts(2), 10.0);
        b.update(RelayOption::Bounce(RelayId(99)), 5.0);
        assert_eq!(b.total(), 0);
    }

    #[test]
    fn normalization_makes_choices_scale_invariant() {
        // The point of dividing by w (Algorithm 3 line 3): the exploration
        // bonus is an absolute quantity, so without normalization its weight
        // depends on the metric's unit. With normalization, scaling every
        // cost and w by the same factor must leave the choice sequence
        // byte-identical.
        let run = |scale: f64, normalize: bool| {
            let mut b = UcbBandit::new(opts(2), 1000.0 * scale);
            b.normalize = normalize;
            let mut rng = StdRng::seed_from_u64(7);
            let mut choices = Vec::new();
            for _ in 0..300 {
                let o = b.choose().unwrap();
                choices.push(o);
                let base = if o == RelayOption::Bounce(RelayId(1)) {
                    800.0
                } else {
                    900.0
                };
                b.update(o, (base + rng.random_range(-200.0..200.0)) * scale);
            }
            choices
        };
        // Scales chosen so one side puts raw costs near the bonus's O(1)
        // magnitude (0.001 → costs ≈ 0.8) and the other far above it
        // (1.0 → costs ≈ 800).
        assert_eq!(
            run(0.001, true),
            run(1.0, true),
            "normalized choices must not depend on the metric's scale"
        );
        let diverged = run(0.001, false) != run(1.0, false);
        assert!(
            diverged,
            "without normalization the bonus-to-cost ratio (and hence the \
             choice sequence) should shift with the metric's scale"
        );
    }

    #[test]
    fn normalization_tames_outliers() {
        // Heavy-tailed costs: 2% of calls spike to 5000 against a base of
        // 800/900. Normalizing by w (not the observed range) keeps the
        // 100-unit common-case gap visible, so the bandit still converges to
        // the better arm despite outliers dominating the sample variance.
        const ROUNDS: u32 = 2_000;
        const SEEDS: u64 = 10;
        let run = |seed: u64| {
            let mut b = UcbBandit::new(opts(2), 1000.0);
            let mut rng = StdRng::seed_from_u64(seed);
            // True means: arm0 = 900, arm1 = 800 (better), heavy noise.
            let mut picks1 = 0;
            for _ in 0..ROUNDS {
                let o = b.choose().unwrap();
                let base = if o == RelayOption::Bounce(RelayId(1)) {
                    picks1 += 1;
                    800.0
                } else {
                    900.0
                };
                let spike = if rng.random::<f64>() < 0.02 {
                    5000.0
                } else {
                    0.0
                };
                b.update(o, base + rng.random_range(-200.0..200.0) + spike);
            }
            picks1
        };
        let picks: u32 = (0..SEEDS).map(run).sum();
        let total = SEEDS as u32 * ROUNDS;
        assert!(
            picks > total * 3 / 5,
            "better arm picked only {picks}/{total} times under outliers"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "do not sum to total")]
    fn validate_catches_count_drift() {
        let mut b = UcbBandit::new(opts(2), 10.0);
        b.total = 5; // corrupt the count invariant directly
        b.validate();
    }

    proptest::proptest! {
        /// Under any interleaving of known-arm updates, unknown-option
        /// updates, and prior warm-starts, per-arm counts keep summing to
        /// the bandit total.
        #[test]
        fn counts_and_total_stay_consistent(
            updates in proptest::collection::vec((0u32..5, 0f64..100.0), 0..80),
            virtual_n in 0u64..4,
        ) {
            let priors = opts(3).into_iter().map(|o| (o, 50.0));
            let mut b = UcbBandit::with_priors(priors, 100.0, virtual_n);
            b.validate();
            for (arm, cost) in updates {
                // Arms 0–2 exist; ids 3–4 exercise the ignored-update path.
                b.update(RelayOption::Bounce(RelayId(arm)), cost);
                b.validate();
            }
        }
    }

    #[test]
    fn choose_set_of_one_matches_choose() {
        let warm = || UcbBandit::with_priors(opts(4).into_iter().map(|o| (o, 80.0)), 100.0, 3);
        // Warm and normalized (the Via row), a cold start (the unplayed-arm
        // sweep), and raw rewards (the Figure 15 ablation row).
        let cold = UcbBandit::new(opts(4), 100.0);
        let mut raw = warm();
        raw.normalize = false;
        for mut b in [warm(), cold, raw] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut set = Vec::new();
            for _ in 0..200 {
                b.choose_set(1, &mut set);
                assert_eq!(set.as_slice(), &[b.choose().unwrap()]);
                let o = set[0];
                b.update(o, rng.random_range(40.0..120.0));
            }
        }
    }

    #[test]
    fn choose_set_prefers_unplayed_arms_and_dedups() {
        let mut b = UcbBandit::new(opts(4), 100.0);
        // Play arms 0 and 2; arms 1 and 3 stay unplayed.
        b.update(RelayOption::Bounce(RelayId(0)), 10.0);
        b.update(RelayOption::Bounce(RelayId(2)), 10.0);
        let mut set = Vec::new();
        b.choose_set(3, &mut set);
        assert_eq!(set.len(), 3);
        // Unplayed arms come first, in arm order.
        assert_eq!(set[0], RelayOption::Bounce(RelayId(1)));
        assert_eq!(set[1], RelayOption::Bounce(RelayId(3)));
        let mut dedup = set.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), set.len(), "set members must be distinct");
    }

    #[test]
    fn choose_set_is_capped_by_arm_count_and_deterministic() {
        let mut b = UcbBandit::with_priors(opts(3).into_iter().map(|o| (o, 50.0)), 100.0, 3);
        b.update(RelayOption::Bounce(RelayId(1)), 5.0);
        let mut a = Vec::new();
        let mut c = Vec::new();
        b.choose_set(10, &mut a);
        b.choose_set(10, &mut c);
        assert_eq!(a.len(), 3, "set is capped at the arm count");
        assert_eq!(a, c, "same state must give the same set");
        // Best observed arm leads once every arm has plays.
        assert_eq!(a[0], RelayOption::Bounce(RelayId(1)));
    }

    #[test]
    fn canonicalizes_arm_updates() {
        let t = RelayOption::Transit(RelayId(1), RelayId(0));
        let mut b = UcbBandit::new([t.canonical()], 10.0);
        b.update(t, 5.0);
        assert_eq!(b.total(), 1);
        assert_eq!(b.arm_mean(t), Some(5.0));
    }
}
