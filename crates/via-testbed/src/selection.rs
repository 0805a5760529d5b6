//! Offline evaluation of VIA's selection heuristic on testbed measurements —
//! the controlled experiment of §5.5 and Figure 18.
//!
//! Back-to-back sweeps give ground truth: in every round each pair measured
//! *every* relay option. VIA's heuristic — the same `via_core::selector`
//! pipeline the replay engine and the live server run, under the `Via` plan
//! with ε = 0 — is then evaluated per round: it sees only prior rounds' data
//! (means + SEMs → top-k pruning, prediction-warm-started arms) and its own
//! past picks (bandit feedback), chooses one relay, and is scored by the
//! *sub-optimality* of that relay's measured performance within the round:
//! `(perf_VIA − perf_best) / perf_best`.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use via_core::selector::{Plan, Selector};
use via_core::strategy::StrategyKind;
use via_core::Prediction;
use via_core::PredictionSource;
use via_model::ids::RelayId;
use via_model::metrics::Metric;
use via_model::options::RelayOption;
use via_model::stats::OnlineStats;

use crate::controller::ReportRecord;
use crate::protocol::RelayIndex;

/// Figure 18 statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig18Result {
    /// Per-(pair, round) sub-optimality of VIA's pick, `(via − best)/best`.
    pub suboptimality: Vec<f64>,
    /// Fraction of evaluated calls where VIA picked the round's best relay.
    pub best_pick_fraction: f64,
    /// Number of (pair, round) decisions evaluated.
    pub decisions: usize,
}

/// Evaluates VIA's selection on collected testbed reports, optimizing
/// `objective`. Rounds without full coverage or the first round of a pair
/// (no history yet) are skipped.
pub fn evaluate_via_selection(reports: &[ReportRecord], objective: Metric) -> Fig18Result {
    // (caller, callee) → round → relay → value; pairs and rounds in order.
    let mut table: BTreeMap<(usize, usize), BTreeMap<u32, HashMap<RelayIndex, f64>>> =
        BTreeMap::new();
    for r in reports {
        if r.degraded {
            // A degraded report measured the *direct fallback* path, not the
            // relay it names; folding it in would credit a dead relay with
            // the direct path's performance.
            continue;
        }
        table
            .entry((r.caller, r.callee))
            .or_default()
            .entry(r.round)
            .or_default()
            .insert(r.relay, r.metrics[objective]);
    }

    let mut suboptimality = Vec::new();
    let mut best_picks = 0usize;
    let mut decisions = 0usize;
    // ε = 0: the controlled experiment scores the exploit step, so no coin
    // is flipped and the seed is never read.
    let mut selector = Selector::new(Plan::from(StrategyKind::Via), objective, 0.0, 0);

    for rounds in table.into_values() {
        if rounds.len() < 2 {
            continue;
        }

        // Running per-relay history (mean, SEM) and VIA's own pick history.
        let mut stats: HashMap<RelayIndex, OnlineStats> = HashMap::new();
        let mut pick_history: Vec<(RelayOption, f64)> = Vec::new();

        for (round_idx, values) in rounds.values().enumerate() {
            if round_idx > 0 && values.len() >= 2 {
                // Build predictions from history.
                let mut known: Vec<_> = stats.iter().collect();
                known.sort_by_key(|(r, _)| **r);
                let (candidates, predicted): (Vec<RelayOption>, Vec<Prediction>) = known
                    .into_iter()
                    .filter_map(|(&relay, s)| {
                        let mean = s.mean()?;
                        let sem = s.sem().unwrap_or(mean.abs() * 0.5).max(1e-9);
                        Some((
                            RelayOption::Bounce(RelayId(u32::from(relay))),
                            prediction_from(mean, sem, s.count()),
                        ))
                    })
                    .unzip();
                if !candidates.is_empty() {
                    // `arms` asks only about the candidates it is handed.
                    // Not lone: the arms learn the pair's past picks first.
                    let at = |o| candidates.iter().position(|&c| c == o).unwrap_or(0);
                    let mut arms = selector.arms(|o| predicted[at(o)], &candidates, false);
                    for &(opt, value) in &pick_history {
                        arms.learn(opt, value);
                    }
                    let decision = selector.decide(&arms, false, 0, || &candidates[..]);
                    if let RelayOption::Bounce(rid) = decision.option {
                        // An id that does not fit a `RelayIndex` was never
                        // measured: like a pick with no value, it is not scored.
                        let value = RelayIndex::try_from(rid.0)
                            .ok()
                            .and_then(|pick| values.get(&pick));
                        if let Some(&via_value) = value {
                            let best = values.values().fold(f64::INFINITY, |acc, &v| acc.min(v));
                            if best > 0.0 && best.is_finite() {
                                suboptimality.push((via_value - best) / best);
                                decisions += 1;
                                if (via_value - best).abs() < 1e-12 {
                                    best_picks += 1;
                                }
                                pick_history.push((decision.option, via_value));
                            }
                        }
                    }
                }
            }
            // Fold this round's full sweep into history (back-to-back calls
            // are all observed, as in the paper's controlled experiment).
            #[expect(
                clippy::iter_over_hash_type,
                reason = "each relay's value goes to that relay's own accumulator"
            )]
            for (&relay, &v) in values.iter() {
                stats.entry(relay).or_default().push(v);
            }
        }
    }

    Fig18Result {
        best_pick_fraction: if decisions > 0 {
            best_picks as f64 / decisions as f64
        } else {
            0.0
        },
        suboptimality,
        decisions,
    }
}

/// Builds a core [`Prediction`] from raw mean/SEM on one metric axis. The
/// other axes carry the same relative uncertainty (only the objective axis
/// is consumed by the scorer).
fn prediction_from(mean: f64, sem: f64, n: u64) -> Prediction {
    use via_core::tomography::{linearize, linearize_sem};
    let mut lin_mean = [0.0; 3];
    let mut lin_sem = [0.0; 3];
    for (i, &metric) in Metric::ALL.iter().enumerate() {
        lin_mean[i] = linearize(metric, mean.max(0.0));
        lin_sem[i] = linearize_sem(metric, mean.max(0.0), sem).max(1e-9);
    }
    Prediction::from_linear(lin_mean, lin_sem, PredictionSource::Empirical(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_model::metrics::PathMetrics;
    use via_model::seed::{fnv1a, FNV_BASIS};

    /// Synthesizes reports where relay 1 is clearly best.
    fn synthetic_reports(rounds: u32, jitter: f64) -> Vec<ReportRecord> {
        let mut out = Vec::new();
        for round in 0..rounds {
            for relay in 0..4u16 {
                let base = match relay {
                    1 => 50.0,
                    0 => 80.0,
                    2 => 120.0,
                    _ => 200.0,
                };
                let wobble = jitter * ((round as f64 * 7.3 + f64::from(relay) * 3.1).sin());
                out.push(ReportRecord {
                    caller: 0,
                    callee: 1,
                    relay,
                    round,
                    metrics: PathMetrics::new(base + wobble, 0.1, 1.0),
                    degraded: false,
                });
            }
        }
        out
    }

    #[test]
    fn finds_the_best_relay_with_clean_data() {
        let reports = synthetic_reports(6, 0.0);
        let res = evaluate_via_selection(&reports, Metric::Rtt);
        assert_eq!(res.decisions, 5, "rounds 1..6 evaluated");
        assert!(
            res.best_pick_fraction > 0.7,
            "best picked only {:.0}%",
            100.0 * res.best_pick_fraction
        );
        assert!(res.suboptimality.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn suboptimality_is_small_under_noise() {
        let reports = synthetic_reports(6, 15.0);
        let res = evaluate_via_selection(&reports, Metric::Rtt);
        let mean_sub: f64 =
            res.suboptimality.iter().sum::<f64>() / res.suboptimality.len().max(1) as f64;
        assert!(
            mean_sub < 0.6,
            "mean sub-optimality {mean_sub} too large under mild noise"
        );
    }

    /// 3 pairs × 10 rounds × 4 relays under ±15 ms jitter, each pair with
    /// its own RTT and loss ranking; pair `0→2` loses one report to
    /// degradation and pair `1→2` misses relay 2 in round 5.
    fn noisy_reports() -> Vec<ReportRecord> {
        let mut out = Vec::new();
        for (p, (caller, callee)) in [(0, 1), (0, 2), (1, 2)].into_iter().enumerate() {
            for round in 0..10u32 {
                for relay in 0..4u16 {
                    if (p, round, relay) == (2, 5, 2) {
                        continue;
                    }
                    let rank = (usize::from(relay) + p) % 4;
                    let phase = f64::from(round) * 7.3 + f64::from(relay) * 3.1 + p as f64;
                    let rtt = 60.0 + 25.0 * rank as f64 + 15.0 * phase.sin();
                    let loss = 0.2 + 0.4 * ((rank + 2) % 4) as f64 + 0.3 * phase.cos();
                    out.push(ReportRecord {
                        caller,
                        callee,
                        relay,
                        round,
                        metrics: PathMetrics::new(rtt, loss, 2.0),
                        degraded: (p, round, relay) == (1, 3, 1),
                    });
                }
            }
        }
        out
    }

    #[test]
    fn picks_on_a_noisy_report_set_are_pinned() {
        for (objective, decisions, best_bits, digest) in [
            (
                Metric::Rtt,
                26,
                0x3fe8_9d89_d89d_89d9,
                0xe72e_6ab6_b03f_9309,
            ),
            (
                Metric::Loss,
                19,
                0x3fe0_d794_35e5_0d79,
                0xc084_07ac_87b3_a825,
            ),
        ] {
            let res = evaluate_via_selection(&noisy_reports(), objective);
            let mut h = FNV_BASIS;
            for s in &res.suboptimality {
                h = fnv1a(h, &s.to_bits().to_le_bytes());
            }
            assert_eq!(res.decisions, decisions, "{objective:?}");
            assert_eq!(res.best_pick_fraction.to_bits(), best_bits, "{objective:?}");
            assert_eq!(h, digest, "{objective:?} sub-optimality bits moved");
        }
    }

    #[test]
    fn single_round_yields_no_decisions() {
        let reports = synthetic_reports(1, 0.0);
        let res = evaluate_via_selection(&reports, Metric::Rtt);
        assert_eq!(res.decisions, 0);
        assert!(res.suboptimality.is_empty());
    }

    #[test]
    fn empty_input_is_fine() {
        let res = evaluate_via_selection(&[], Metric::Rtt);
        assert_eq!(res.decisions, 0);
        assert_eq!(res.best_pick_fraction, 0.0);
    }

    #[test]
    fn degraded_reports_are_excluded() {
        let mut reports = synthetic_reports(6, 0.0);
        // Mark every report degraded: the evaluation must see nothing.
        for r in &mut reports {
            r.degraded = true;
        }
        let res = evaluate_via_selection(&reports, Metric::Rtt);
        assert_eq!(res.decisions, 0);
    }
}
