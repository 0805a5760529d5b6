//! Active measurement planning — the paper's §7 future-work item,
//! implemented: "Active measurements can be intelligently orchestrated to
//! fill 'holes' in the passively obtained measurements, thereby making our
//! prediction-guided exploration (both its aspects — tomography as well as
//! bandit solution) more effective."
//!
//! Given the demand (which pairs are expected to call), the candidate
//! options per pair, and the current predictor, the planner finds the
//! *holes* — candidate options whose prediction still falls back to the
//! geographic prior — and greedily selects a probe set under a budget,
//! preferring probes whose client-side segments appear in many holes
//! (one probe of `bounce(a, r)` helps every pair touching segment `(a, r)`
//! through tomography).

use std::collections::{HashMap, HashSet};
use via_model::options::RelayOption;

use crate::history::KeyPair;
use crate::predictor::{PredictionSource, Predictor};
use crate::tomography::{equations, SegmentKey};

/// One planned probe: make a mock call between the pair's keys over the
/// option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// The pair of spatial keys to probe between.
    pub pair: KeyPair,
    /// Option to exercise.
    pub option: RelayOption,
}

impl Probe {
    /// The client-side tomography segments this probe would measure: both
    /// ends of every equation the tomography fit would add for it.
    fn segments(&self) -> impl Iterator<Item = SegmentKey> {
        equations(self.pair, self.option).flat_map(|(s, t)| [s, t])
    }
}

/// Plans up to `budget` probes for the given demand set.
///
/// `demands` lists (pair of spatial keys, candidate options) for the pairs
/// expected to carry calls. A candidate is a *hole* when the
/// predictor's answer is prior-sourced. The planner scores each hole probe
/// by how many distinct holes share its segments (set-cover greedy) and
/// returns the best `budget` probes.
pub fn plan_probes(
    demands: &[(KeyPair, Vec<RelayOption>)],
    predictor: &Predictor,
    budget: usize,
) -> Vec<Probe> {
    if budget == 0 {
        return Vec::new();
    }

    // Collect holes and segment demand frequencies.
    let mut holes: Vec<Probe> = Vec::new();
    let mut seg_demand: HashMap<SegmentKey, u32> = HashMap::new();
    for &(pair, ref options) in demands {
        let view = predictor.pair(pair);
        for &option in options {
            if !option.is_relayed() {
                continue; // direct paths cannot be stitched (tomography is relay-based)
            }
            if view.predict(option).source == PredictionSource::Prior {
                let hole = Probe { pair, option };
                for seg in hole.segments() {
                    *seg_demand.entry(seg).or_default() += 1;
                }
                holes.push(hole);
            }
        }
    }
    if holes.is_empty() {
        return Vec::new();
    }

    // Greedy: repeatedly take the probe covering the most not-yet-covered
    // segment demand.
    let mut covered: HashSet<SegmentKey> = HashSet::new();
    let mut plan = Vec::with_capacity(budget.min(holes.len()));
    let mut remaining: Vec<Probe> = holes;
    while plan.len() < budget && !remaining.is_empty() {
        let Some((best_idx, best_score)) = remaining
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let score: u32 = p
                    .segments()
                    .filter(|seg| !covered.contains(seg))
                    .map(|seg| seg_demand.get(&seg).copied().unwrap_or(0))
                    .sum();
                (i, score)
            })
            .max_by_key(|&(_, s)| s)
        else {
            break; // unreachable: the loop condition keeps `remaining` non-empty
        };
        if best_score == 0 {
            break; // every remaining probe only re-measures covered segments
        }
        let probe = remaining.swap_remove(best_idx);
        covered.extend(probe.segments());
        plan.push(probe);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::CallHistory;
    use crate::online::BackboneFn;
    use crate::predictor::{GeoPrior, PredictorConfig};
    use std::sync::Arc;
    use via_model::ids::RelayId;
    use via_model::metrics::PathMetrics;
    use via_model::time::{SimTime, WindowLen};
    use via_netsim::GeoPoint;

    fn cold_predictor(n_keys: usize, n_relays: usize) -> Predictor {
        let prior = GeoPrior::new(
            (0..n_keys)
                .map(|i| GeoPoint::new(10.0 + i as f64, 10.0 + i as f64))
                .collect(),
            (0..n_relays)
                .map(|i| GeoPoint::new(-10.0 - i as f64, 20.0))
                .collect(),
        );
        let backbone: BackboneFn = Arc::new(|_, _| PathMetrics::new(50.0, 0.01, 0.4));
        Predictor::cold(prior, backbone)
    }

    fn demands(n_pairs: u32, relays: u32) -> Vec<(KeyPair, Vec<RelayOption>)> {
        (0..n_pairs)
            .map(|i| {
                let options = (0..relays)
                    .map(|r| RelayOption::Bounce(RelayId(r)))
                    .collect();
                (KeyPair::new(i, i + 1), options)
            })
            .collect()
    }

    #[test]
    fn zero_budget_plans_nothing() {
        let p = cold_predictor(5, 3);
        assert!(plan_probes(&demands(3, 2), &p, 0).is_empty());
    }

    #[test]
    fn cold_predictor_means_everything_is_a_hole() {
        let p = cold_predictor(5, 3);
        let plan = plan_probes(&demands(3, 2), &p, 100);
        // 3 pairs × 2 options = 6 holes, but greedy stops once segments are
        // covered; every planned probe must be a demanded one.
        assert!(!plan.is_empty());
        assert!(plan.len() <= 6);
        for probe in &plan {
            assert!(probe.option.is_relayed());
        }
    }

    #[test]
    fn budget_is_respected() {
        let p = cold_predictor(10, 4);
        let plan = plan_probes(&demands(8, 4), &p, 3);
        assert!(plan.len() <= 3);
    }

    #[test]
    fn shared_segments_are_prioritized() {
        // Pairs (0,1), (0,2), (0,3) all share key 0; probing a bounce for
        // key 0 covers the hot segment. The first chosen probe must involve
        // key 0.
        let p = cold_predictor(5, 1);
        let bounce = vec![RelayOption::Bounce(RelayId(0))];
        let d: Vec<_> = [(0, 1), (0, 2), (0, 3), (4, 3)]
            .map(|(a, b)| (KeyPair::new(a, b), bounce.clone()))
            .into();
        let plan = plan_probes(&d, &p, 1);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].pair.lo, 0, "should probe the hot key");
    }

    #[test]
    fn no_holes_when_history_is_dense() {
        // Train a predictor that has empirical data for every demanded cell.
        let window = WindowLen::DAY.window_of(SimTime::ZERO);
        let mut h = CallHistory::new();
        let d = demands(3, 2);
        for (pair, options) in &d {
            for &o in options {
                for _ in 0..5 {
                    h.record(window, *pair, o, &PathMetrics::new(120.0, 0.3, 4.0));
                }
            }
        }
        let prior = GeoPrior::new(
            (0..5).map(|i| GeoPoint::new(i as f64, i as f64)).collect(),
            (0..2).map(|i| GeoPoint::new(-(i as f64), 5.0)).collect(),
        );
        let backbone: BackboneFn = Arc::new(|_, _| PathMetrics::ZERO);
        let p = Predictor::fit(&h, window, prior, backbone, PredictorConfig::default());
        assert!(plan_probes(&d, &p, 10).is_empty());
    }

    #[test]
    fn direct_options_are_never_probed() {
        let p = cold_predictor(3, 1);
        let d = vec![(KeyPair::new(0, 1), vec![RelayOption::Direct])];
        assert!(plan_probes(&d, &p, 5).is_empty());
    }
}
