//! Dynamic top-k pruning of relaying options (Algorithm 2 of the paper).
//!
//! Rather than a fixed k, VIA selects the *minimal* set of options such that
//! the lower 95 % confidence bound of every option outside the set is higher
//! (worse) than the upper bound of every option inside it — i.e. the system
//! is statistically confident every excluded option is worse than every kept
//! one. Overlapping confidence intervals therefore pull options *into* the
//! set, so uncertain candidates are kept for exploration rather than
//! discarded.

use via_model::metrics::Metric;
use via_model::options::RelayOption;

use crate::predictor::Prediction;

/// An option with its confidence bounds on the objective metric.
#[derive(Debug, Clone, Copy)]
pub struct ScoredOption {
    /// The relaying option.
    pub option: RelayOption,
    /// Predicted mean on the objective metric.
    pub mean: f64,
    /// `Pred_lower` on the objective metric.
    pub lower: f64,
    /// `Pred_upper` on the objective metric.
    pub upper: f64,
}

impl ScoredOption {
    /// Scores an option from a prediction for the given objective metric.
    pub fn from_prediction(option: RelayOption, pred: &Prediction, metric: Metric) -> Self {
        let scored = Self {
            option,
            mean: pred.mean(metric),
            lower: pred.lower(metric),
            upper: pred.upper(metric),
        };
        scored.validate();
        scored
    }

    /// Debug-build invariant: the confidence bounds bracket the mean
    /// (`lower ≤ mean ≤ upper`) and none of them is NaN. Free in release
    /// builds.
    pub fn validate(&self) {
        debug_assert!(
            !self.mean.is_nan() && !self.lower.is_nan() && !self.upper.is_nan(),
            "ScoredOption for {:?} has NaN bounds",
            self.option
        );
        debug_assert!(
            self.lower <= self.mean && self.mean <= self.upper,
            "ScoredOption bounds out of order for {:?}: lower {} mean {} upper {}",
            self.option,
            self.lower,
            self.mean,
            self.upper
        );
    }
}

/// Computes the top-k closure: the minimal set `S` such that
/// `min_{r ∉ S} lower(r) > max_{r ∈ S} upper(r)` — equivalently, the closure
/// of "take the best upper bound, then pull in everything whose lower bound
/// overlaps the set's worst upper bound".
///
/// Writes the selected options into `out`, ordered by predicted mean (best
/// first); an empty input yields an empty set. Allocation-free on the
/// per-call hot path: the sort permutation lives in `order` (both buffers
/// cleared first, capacity reused across calls). The index sort is stable,
/// so tied bounds select in input order.
pub fn top_k_into(scored: &[ScoredOption], order: &mut Vec<usize>, out: &mut Vec<ScoredOption>) {
    out.clear();
    if scored.is_empty() {
        return;
    }
    // Sort by lower bound: candidates join the set in this order.
    order.clear();
    order.extend(0..scored.len());
    order.sort_by(|&a, &b| scored[a].lower.total_cmp(&scored[b].lower));
    // Seed with the option with the smallest upper bound: it can never be
    // excluded (its own lower ≤ its upper ≤ anything's upper).
    let seed_upper = scored.iter().map(|s| s.upper).fold(f64::INFINITY, f64::min);

    let mut max_upper = seed_upper;
    // Every option with lower ≤ current max_upper joins; joining may raise
    // max_upper, admitting more. The lower-bound ordering makes one pass a
    // fixpoint.
    for &idx in order.iter() {
        let cand = &scored[idx];
        if cand.lower <= max_upper {
            if cand.upper > max_upper {
                max_upper = cand.upper;
            }
            out.push(*cand);
        } else {
            break;
        }
    }

    // Closure property (the defining invariant): every excluded option's
    // lower bound exceeds every selected option's upper bound. The order is
    // sorted by lower, so checking the first excluded candidate checks all.
    debug_assert!(!out.is_empty(), "non-empty input must select an option");
    debug_assert!(
        order
            .get(out.len())
            .is_none_or(|&c| scored[c].lower > max_upper),
        "top-k closure violated: excluded lower {} ≤ selected max upper {}",
        order.get(out.len()).map_or(f64::NAN, |&c| scored[c].lower),
        max_upper
    );

    out.sort_by(|a, b| a.mean.total_cmp(&b.mean));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use via_model::ids::RelayId;

    fn opt(i: u32) -> RelayOption {
        RelayOption::Bounce(RelayId(i))
    }

    fn top_k(scored: &[ScoredOption]) -> Vec<ScoredOption> {
        let mut out = Vec::new();
        top_k_into(scored, &mut Vec::new(), &mut out);
        out
    }

    fn so(i: u32, lower: f64, upper: f64) -> ScoredOption {
        ScoredOption {
            option: opt(i),
            mean: (lower + upper) / 2.0,
            lower,
            upper,
        }
    }

    #[test]
    fn empty_input() {
        assert!(top_k(&[]).is_empty());
    }

    #[test]
    fn disjoint_intervals_select_single_best() {
        let scored = [so(0, 10.0, 20.0), so(1, 30.0, 40.0), so(2, 50.0, 60.0)];
        let sel = top_k(&scored);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].option, opt(0));
    }

    #[test]
    fn overlapping_intervals_are_pulled_in() {
        // 0: [10,25], 1: [20,35], 2: [35,50], 3: [60,70]
        // Seed upper = 25. 1 overlaps (20 ≤ 25) → max_upper 35. 2 overlaps
        // (35 ≤ 35) → max_upper 50. 3 does not (60 > 50).
        let scored = [
            so(0, 10.0, 25.0),
            so(1, 20.0, 35.0),
            so(2, 35.0, 50.0),
            so(3, 60.0, 70.0),
        ];
        let sel = top_k(&scored);
        let picked: Vec<RelayOption> = sel.iter().map(|s| s.option).collect();
        assert_eq!(picked.len(), 3);
        assert!(picked.contains(&opt(0)) && picked.contains(&opt(1)) && picked.contains(&opt(2)));
    }

    #[test]
    fn identical_intervals_all_selected() {
        let scored = [so(0, 10.0, 20.0), so(1, 10.0, 20.0), so(2, 10.0, 20.0)];
        assert_eq!(top_k(&scored).len(), 3);
    }

    #[test]
    fn result_sorted_by_mean() {
        let scored = [so(1, 20.0, 35.0), so(0, 10.0, 25.0)];
        let sel = top_k(&scored);
        assert_eq!(sel[0].option, opt(0));
        assert!(sel[0].mean <= sel[1].mean);
    }

    #[test]
    fn wide_uncertainty_keeps_everything() {
        // A single very-uncertain option overlapping all others pulls in the
        // whole chain that overlaps transitively.
        let scored = [so(0, 5.0, 100.0), so(1, 50.0, 60.0), so(2, 90.0, 95.0)];
        assert_eq!(top_k(&scored).len(), 3);
    }

    #[test]
    fn ties_keep_input_order_and_scratch_does_not_leak() {
        // Tied lower bounds and tied means: the stable index sort must keep
        // the original relative order.
        let scored = [
            so(0, 10.0, 20.0),
            so(1, 10.0, 20.0),
            so(2, 10.0, 30.0),
            so(3, 25.0, 40.0),
        ];
        let (mut order, mut out) = (Vec::new(), Vec::new());
        top_k_into(&scored, &mut order, &mut out);
        let picked: Vec<RelayOption> = out.iter().map(|s| s.option).collect();
        assert_eq!(picked, [opt(0), opt(1), opt(2), opt(3)]);
        // Dirty scratch from a previous call must not leak into the next.
        top_k_into(&scored[..1], &mut order, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].option, opt(0));
    }

    proptest! {
        /// The defining invariant: every excluded option's lower bound must
        /// exceed every included option's upper bound.
        #[test]
        fn exclusion_invariant(bounds in prop::collection::vec((0f64..100.0, 0f64..50.0), 1..20)) {
            let scored: Vec<ScoredOption> = bounds
                .iter()
                .enumerate()
                .map(|(i, &(lo, width))| so(i as u32, lo, lo + width))
                .collect();
            let sel = top_k(&scored);
            prop_assert!(!sel.is_empty());
            let max_upper = sel.iter().map(|s| s.upper).fold(f64::NEG_INFINITY, f64::max);
            let selected_opts: Vec<RelayOption> = sel.iter().map(|s| s.option).collect();
            for s in &scored {
                if !selected_opts.contains(&s.option) {
                    prop_assert!(s.lower > max_upper,
                        "excluded option lower {} ≤ set max upper {}", s.lower, max_upper);
                }
            }
        }

        /// Minimality: dropping the member with the largest upper bound must
        /// break the invariant (unless it is the only member or shares its
        /// lower bound with the boundary).
        #[test]
        fn contains_min_upper_option(bounds in prop::collection::vec((0f64..100.0, 0f64..50.0), 1..20)) {
            let scored: Vec<ScoredOption> = bounds
                .iter()
                .enumerate()
                .map(|(i, &(lo, width))| so(i as u32, lo, lo + width))
                .collect();
            let sel = top_k(&scored);
            // The option with the globally smallest upper bound is always in.
            let min_upper = scored
                .iter()
                .min_by(|a, b| a.upper.total_cmp(&b.upper))
                .unwrap();
            prop_assert!(sel.iter().any(|s| s.option == min_upper.option));
        }
    }
}
