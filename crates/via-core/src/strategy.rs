//! Relay-selection strategies: VIA, its ablations, the oracle, and the
//! strawman baselines of §4.2 / §5.2 — as names. What each one *does* is its
//! row of [`crate::selector::Plan`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which selection policy a replay run uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Always take the BGP-derived direct path (the paper's "default
    /// strategy" baseline).
    Default,
    /// §3.2's oracle: per (AS pair, window) pick the option with the best
    /// ground-truth mean — foresight no real system has.
    Oracle,
    /// Strawman I: pure prediction. Pick the single option with the best
    /// predicted mean (k = 1), never explore.
    PredictionOnly,
    /// Strawman II: pure exploration. ε-greedy over *all* candidate options
    /// with no prediction-based pruning and no reward normalization.
    ExplorationOnly,
    /// Full VIA: prediction-guided exploration (Algorithm 1) — dynamic top-k
    /// pruning + modified UCB1 + ε general exploration.
    Via,
    /// VIA under a relaying budget (§4.6): relay only calls whose predicted
    /// benefit is in the top `budget` percentile, with a hard cap.
    ViaBudgeted {
        /// Maximum fraction of calls relayed.
        budget: f64,
    },
    /// Budget-*unaware* VIA under a hard cap: relays any call with positive
    /// predicted benefit until the cap is hit (first-come-first-served) —
    /// the strawman of Figure 16.
    ViaBudgetUnaware {
        /// Maximum fraction of calls relayed.
        budget: f64,
    },
    /// Ablation (Figure 15): fixed top-k instead of the confidence-interval
    /// closure.
    ViaFixedTopK {
        /// Number of candidates kept.
        k: usize,
    },
    /// Ablation (Figure 15): original UCB1 normalization (raw rewards)
    /// instead of dividing by the mean top-k upper bound.
    ViaRawReward,
    /// §7 "cost of centralized control": clients cache the controller's
    /// decision per pair and reuse it for `ttl_hours` before asking again.
    /// Cuts controller load at the cost of staleness.
    ViaCached {
        /// How long a cached decision stays valid, hours.
        ttl_hours: u64,
    },
    /// §7 "hybrid reactive decentralized approaches": at call setup the
    /// client races the top-`k` pruned options in parallel and keeps the
    /// best — prediction-guided pruning makes the race affordable.
    HybridRacing {
        /// Options raced per call.
        k: usize,
    },
    /// Multipath VIA: per call the combinatorial bandit commits to a *set*
    /// of up to `k` paths (shared per-path confidence intervals, top-k
    /// lower-bound subset). The receiver-side merge model in `via-media`
    /// turns the per-path draws into one played-out stream.
    Multipath {
        /// Maximum paths per call (k = 1 degenerates to `Via` exactly).
        k: usize,
        /// How the media stream uses the set.
        mode: MultipathMode,
        /// Maximum fraction of traffic relayed (1.0 = unbudgeted). Under
        /// `Duplicate` a relayed call charges `k×` against this budget.
        budget: f64,
    },
}

/// How a multipath call spreads its media over the selected path set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MultipathMode {
    /// Every packet is sent on every path; the receiver dedups. Loss
    /// requires *all* copies lost, at `k×` traffic cost.
    Duplicate,
    /// Packets round-robin across the set; per-packet cost stays 1× but a
    /// single dead path loses its share of the stream until failover.
    Stripe,
}

impl StrategyKind {
    /// Stable display name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            StrategyKind::Default => "default".into(),
            StrategyKind::Oracle => "oracle".into(),
            StrategyKind::PredictionOnly => "strawman-prediction".into(),
            StrategyKind::ExplorationOnly => "strawman-exploration".into(),
            StrategyKind::Via => "via".into(),
            StrategyKind::ViaBudgeted { budget } => format!("via-budget-{budget:.2}"),
            StrategyKind::ViaBudgetUnaware { budget } => {
                format!("via-budget-unaware-{budget:.2}")
            }
            StrategyKind::ViaFixedTopK { k } => format!("via-top{k}"),
            StrategyKind::ViaRawReward => "via-raw-reward".into(),
            StrategyKind::ViaCached { ttl_hours } => format!("via-cached-{ttl_hours}h"),
            StrategyKind::HybridRacing { k } => format!("hybrid-race-{k}"),
            StrategyKind::Multipath { k, mode, budget } => {
                let mode = match mode {
                    MultipathMode::Duplicate => "dup",
                    MultipathMode::Stripe => "stripe",
                };
                if *budget < 1.0 {
                    format!("multipath-{mode}-{k}-budget-{budget:.2}")
                } else {
                    format!("multipath-{mode}-{k}")
                }
            }
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let kinds = [
            StrategyKind::Default,
            StrategyKind::Oracle,
            StrategyKind::PredictionOnly,
            StrategyKind::ExplorationOnly,
            StrategyKind::Via,
            StrategyKind::ViaBudgeted { budget: 0.3 },
            StrategyKind::ViaBudgetUnaware { budget: 0.3 },
            StrategyKind::ViaFixedTopK { k: 2 },
            StrategyKind::ViaRawReward,
            StrategyKind::ViaCached { ttl_hours: 6 },
            StrategyKind::HybridRacing { k: 3 },
            StrategyKind::Multipath {
                k: 2,
                mode: MultipathMode::Duplicate,
                budget: 1.0,
            },
            StrategyKind::Multipath {
                k: 2,
                mode: MultipathMode::Stripe,
                budget: 1.0,
            },
            StrategyKind::Multipath {
                k: 2,
                mode: MultipathMode::Duplicate,
                budget: 0.3,
            },
        ];
        let mut names: Vec<String> = kinds.iter().map(StrategyKind::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn multipath_names_encode_mode_and_budget() {
        let dup = StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Duplicate,
            budget: 1.0,
        };
        assert_eq!(dup.name(), "multipath-dup-2");
        let budgeted = StrategyKind::Multipath {
            k: 3,
            mode: MultipathMode::Stripe,
            budget: 0.25,
        };
        assert_eq!(budgeted.name(), "multipath-stripe-3-budget-0.25");
    }
}
