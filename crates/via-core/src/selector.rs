//! The decision core of §4, written once: a resolved strategy [`Plan`], the
//! per-(pair, window) [`PairArms`] it parameterizes, the one runtime of its
//! budget gate ([`GateState`]) and the per-shard [`Selector`] that drives
//! them.
//!
//! The paper's algorithm is one short pipeline — score the candidates with
//! the predictor, prune them to the top-k closure (Algorithm 2), let a
//! modified UCB1 with an ε escape hatch pick among them (Algorithm 3), and
//! gate the result on a relaying budget (§4.6). Every [`StrategyKind`] but
//! `Default` and `Oracle` is a setting of that pipeline, so the variants
//! resolve to rows of one table ([`Plan`]). The replay engine, the live
//! server and the testbed evaluator all drive it through one [`Selector`]
//! per worker, shard or evaluation — [`Selector::arms`] builds a pair's
//! arms, [`Selector::decide`] plays them — learn through
//! [`PairArms::learn`] and admit through one [`GateState`].
//!
//! The table itself — one row per strategy, one column per field — is the
//! `From<StrategyKind>` impl below, rendered in DESIGN.md §3.
//!
//! `Multipath { k: 1, budget: 1.0, .. }` and `Via` resolve to *equal* plans:
//! a one-path set is the singlepath decision by construction.
//!
//! A call's ε coin is one rule for every driver: its stream is derived from
//! the run's seed and the call's id ([`Selector::decide`]), so a call flips
//! the same coin whichever plane decides it and whichever worker or shard
//! carries it.
//!
//! What stays with the caller: the per-pair [`PairArms`] store (replay keeps
//! a pair's arms in its window group, the server in a per-shard map), the
//! order calls reach the gate (replay walks a window in trace order, the
//! server locks the gate per select), the §7 decision cache and the setup
//! race (both need the driver's clock and realizations).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use via_model::metrics::Metric;
use via_model::options::RelayOption;
use via_model::seed;

use crate::bandit::UcbBandit;
use crate::budget::BudgetGate;
use crate::predictor::Prediction;
use crate::strategy::{MultipathMode, StrategyKind};
use crate::topk::{top_k_into, ScoredOption};

/// Where a call's decision comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// Always the direct path.
    Direct,
    /// Ground-truth best option per (pair, window).
    Oracle,
    /// The prune → bandit → ε pipeline over a [`PairArms`].
    Arms,
}

/// How the candidates become arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Prune {
    /// No prediction consulted: every candidate is an arm, started cold.
    All,
    /// Algorithm 2's confidence-interval closure, arms warm-started from
    /// their predicted means.
    CiClosure,
    /// The `k` best predicted means, warm-started likewise.
    FixedK(usize),
}

/// The ε general-exploration stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Explore {
    /// No ε stage: the prediction-only strawman and the §7 client-side
    /// wrappers (decision cache, setup race) consult the arms directly, and
    /// their consultations are not counted as bandit pulls.
    Off,
    /// The caller's configured ε; the explore pick is uniform over the call's
    /// full candidate set (Algorithm 3's escape hatch).
    Candidates,
    /// A fixed ε; the explore pick is uniform over the arm list.
    Arms {
        /// Exploration probability.
        epsilon: f64,
    },
}

/// The relaying-budget gate a run carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Gate {
    /// Ungated.
    None,
    /// §4.6: relay only benefits in the top `budget` percentile; an admitted
    /// call charges `cost` traffic units.
    Percentile {
        /// Maximum fraction of traffic relayed.
        budget: f64,
        /// Units one admitted call charges (k for duplicated multipath).
        cost: u64,
    },
    /// First come, first served under a hard cap (the Figure 16 strawman).
    Fcfs {
        /// Maximum fraction of calls relayed.
        budget: f64,
    },
}

/// A [`StrategyKind`] resolved into the settings of the one decision
/// pipeline. Built only by `From<StrategyKind>`, so the set of selectable
/// behaviours is exactly the set of strategy variants (DESIGN.md §3 tabulates
/// what each one sets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub(crate) source: Source,
    pub(crate) prune: Prune,
    pub(crate) normalize: bool,
    pub(crate) explore: Explore,
    /// Paths per call (`≥ 1`).
    pub(crate) paths: usize,
    /// How a multi-path set is merged at the receiver.
    pub(crate) merge: MultipathMode,
    pub(crate) gate: Gate,
    /// §7 decision cache: how long a client reuses a decision, seconds.
    pub(crate) cache_ttl_secs: Option<u64>,
    /// §7 hybrid racing: how many leading arms race at call setup.
    pub(crate) race: Option<usize>,
}

impl Plan {
    /// True for plans that learn from the calls they carry (and therefore
    /// feed the history store and need a predictor).
    pub(crate) fn learns(&self) -> bool {
        !matches!(self.source, Source::Direct | Source::Oracle)
    }

    /// True for plans that keep state per (pair, window) — arms, bandit,
    /// history cells, decision-cache entry or the oracle's memo — and so
    /// replay a window pair group by pair group. A plan without any has no
    /// decision key to group by.
    pub(crate) fn keeps_pair_state(&self) -> bool {
        self.source != Source::Direct
    }

    /// True for plans whose pair's only call of a window may decide on arms
    /// that build no bandit (`Selector::alone`): ungated, race-free,
    /// single-path, scored, and with no ε stage that draws over the arms it
    /// does not build.
    pub(crate) fn decides_alone(&self) -> bool {
        self.source == Source::Arms
            && matches!(self.gate, Gate::None)
            && self.race.is_none()
            && self.paths == 1
            && self.prune != Prune::All
            && !matches!(self.explore, Explore::Arms { .. })
    }
}

impl From<StrategyKind> for Plan {
    /// The table: every row is the `Via` row with the named fields changed.
    fn from(kind: StrategyKind) -> Plan {
        let mut p = Plan {
            source: Source::Arms,
            prune: Prune::CiClosure,
            normalize: true,
            explore: Explore::Candidates,
            paths: 1,
            merge: MultipathMode::Duplicate,
            gate: Gate::None,
            cache_ttl_secs: None,
            race: None,
        };
        match kind {
            StrategyKind::Via => {}
            StrategyKind::Default => p.source = Source::Direct,
            StrategyKind::Oracle => p.source = Source::Oracle,
            // One arm, the best predicted mean, and no ε stage: a one-arm
            // bandit always plays it.
            StrategyKind::PredictionOnly => {
                p.prune = Prune::FixedK(1);
                p.explore = Explore::Off;
            }
            StrategyKind::ExplorationOnly => {
                p.prune = Prune::All;
                p.normalize = false;
                p.explore = Explore::Arms { epsilon: 0.1 };
            }
            StrategyKind::ViaBudgeted { budget } => p.gate = Gate::Percentile { budget, cost: 1 },
            StrategyKind::ViaBudgetUnaware { budget } => p.gate = Gate::Fcfs { budget },
            StrategyKind::ViaFixedTopK { k } => p.prune = Prune::FixedK(k.max(1)),
            StrategyKind::ViaRawReward => p.normalize = false,
            StrategyKind::ViaCached { ttl_hours } => {
                p.explore = Explore::Off;
                p.cache_ttl_secs = Some(ttl_hours * 3_600);
            }
            StrategyKind::HybridRacing { k } => {
                p.explore = Explore::Off;
                p.race = Some(k.max(1));
            }
            StrategyKind::Multipath { k, mode, budget } => {
                p.paths = k.max(1);
                // A one-path set has nothing to merge.
                if p.paths > 1 {
                    p.merge = mode;
                }
                // Unbudgeted multipath carries no gate at all, so at k = 1
                // its window pass is plain Via's. Duplicated traffic is
                // charged honestly (§4.6 extended): every packet rides k
                // relay paths, so an admitted call costs k×; striping splits
                // one stream at 1×.
                if budget < 1.0 {
                    let cost = match mode {
                        MultipathMode::Duplicate => p.paths as u64,
                        MultipathMode::Stripe => 1,
                    };
                    p.gate = Gate::Percentile { budget, cost };
                }
            }
        }
        p
    }
}

/// The run-time state of a [`Plan`]'s relaying-budget gate, and the only
/// place it is admitted through: global sequential state, so each driver
/// owns one and decides the order its calls reach it (replay walks a window
/// in trace order, the live server locks it per select).
#[derive(Debug, Clone)]
pub struct GateState(Admission);

#[derive(Debug, Clone)]
#[expect(clippy::large_enum_variant, reason = "one per run, never moved")]
enum Admission {
    Open,
    Percentile {
        gate: BudgetGate,
        cost: u64,
    },
    /// First come, first served under a hard cap.
    Fcfs {
        budget: f64,
        relayed: u64,
        total: u64,
    },
}

impl GateState {
    /// A fresh gate for `plan`.
    pub fn new(plan: &Plan) -> GateState {
        GateState(match plan.gate {
            Gate::None => Admission::Open,
            Gate::Percentile { budget, cost } => Admission::Percentile {
                gate: BudgetGate::new(budget),
                cost,
            },
            Gate::Fcfs { budget } => Admission::Fcfs {
                budget,
                relayed: 0,
                total: 0,
            },
        })
    }

    /// True when every call is admitted without being counted.
    pub fn is_open(&self) -> bool {
        matches!(self.0, Admission::Open)
    }

    /// The verdict for the next call, given its predicted benefit. A
    /// non-finite benefit (no direct candidate, or a prior-only ∞ direct
    /// mean) is admitted and charges nothing: such a call must relay
    /// regardless, and must not poison the percentile estimator.
    pub fn admit(&mut self, benefit: f64) -> bool {
        if !benefit.is_finite() {
            return true;
        }
        match &mut self.0 {
            Admission::Open => true,
            Admission::Percentile { gate, cost } => {
                let admitted = gate.admit_cost(benefit, *cost);
                gate.validate();
                admitted
            }
            Admission::Fcfs {
                budget,
                relayed,
                total,
            } => {
                *total += 1;
                let admitted = benefit > 0.0 && (*relayed as f64 / *total as f64) < *budget;
                *relayed += u64::from(admitted);
                admitted
            }
        }
    }

    /// The percentile gate's estimator and counters: what a live
    /// controller's snapshot carries. None for an open or FCFS gate.
    pub fn percentile(&self) -> Option<&BudgetGate> {
        match &self.0 {
            Admission::Percentile { gate, .. } => Some(gate),
            _ => None,
        }
    }
}

impl From<Option<BudgetGate>> for GateState {
    /// A restored snapshot's gate: a unit-cost percentile gate, or open.
    fn from(gate: Option<BudgetGate>) -> GateState {
        GateState(gate.map_or(Admission::Open, |gate| Admission::Percentile {
            gate,
            cost: 1,
        }))
    }
}

/// Scores `candidates` into `scored`, in candidate order, and returns the
/// direct path's predicted mean (∞ when it is not a candidate).
fn score(
    predict: impl Fn(RelayOption) -> Prediction,
    candidates: &[RelayOption],
    objective: Metric,
    scored: &mut Vec<ScoredOption>,
) -> f64 {
    scored.clear();
    scored.extend(
        candidates
            .iter()
            .map(|&opt| ScoredOption::from_prediction(opt, &predict(opt), objective)),
    );
    scored
        .iter()
        .find(|s| s.option == RelayOption::Direct)
        .map_or(f64::INFINITY, |s| s.mean)
}

/// The `k` best predicted means, best first, ties in candidate order.
fn best_k(scored: &[ScoredOption], k: usize, selected: &mut Vec<ScoredOption>) {
    selected.extend_from_slice(scored);
    selected.sort_by(|a, b| a.mean.total_cmp(&b.mean));
    selected.truncate(k);
}

/// One decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The primary option (the whole decision for single-path plans).
    pub option: RelayOption,
    /// True when the ε stage picked a uniform random option.
    pub explored: bool,
    /// True when the caller's budget gate forced the direct path.
    pub gated: bool,
}

/// Per-(pair, window) selection state: the pruned candidates and their
/// bandit (stage 3–4 of Algorithm 1). Built by [`Selector::arms`], played
/// by [`Selector::decide`], taught by [`PairArms::learn`].
#[derive(Debug)]
pub struct PairArms {
    bandit: UcbBandit,
    /// What a call plays when the bandit was never built (a lone call's
    /// arms).
    first: Option<RelayOption>,
    /// Predicted mean of the best arm.
    best_mean: f64,
    /// Predicted mean of the direct path.
    direct_mean: f64,
}

impl PairArms {
    /// Predicted benefit of relaying this pair: direct cost minus best cost,
    /// in objective units (what the §4.6 gate ranks). Fixed per (pair,
    /// window) — it never depends on how the bandit evolves.
    pub fn benefit(&self) -> f64 {
        self.direct_mean - self.best_mean
    }

    /// Predicted mean of the best arm (zero for unscored arms).
    pub(crate) fn best_mean(&self) -> f64 {
        self.best_mean
    }

    /// The arms, best predicted mean first.
    pub(crate) fn options(&self) -> impl Iterator<Item = RelayOption> + '_ {
        self.bandit.options()
    }

    /// Feeds one played path's realized cost back to its arm. Costs for
    /// options outside the arm set (ε picks) are ignored here — they reach
    /// the next window through the history instead.
    pub fn learn(&mut self, option: RelayOption, cost: f64) {
        self.bandit.update(option, cost);
        self.bandit.validate();
    }
}

/// The label of every call's ε stream: the live controller's from before
/// the replay shared its rule, kept so the controller's coins are unchanged.
const COIN: &str = "server.select";

/// One shard's per-call pipeline: the plan, objective and ε it runs, the
/// root of its ε coins, the arm-building buffers and the decided path set.
/// One per replay worker, server shard and testbed evaluation; each driver
/// keeps its own per-pair [`PairArms`] store and hands the pair's arms in.
/// The buffers are reused, so building a pair's arms allocates nothing but
/// the arms.
#[derive(Debug)]
pub struct Selector {
    plan: Plan,
    objective: Metric,
    epsilon: f64,
    /// `seed::derive(seed, COIN)`, hoisted: a call's coin mixes only its id.
    coin: u64,
    /// Candidate scores, in candidate order.
    scored: Vec<ScoredOption>,
    /// The top-k sort permutation.
    order: Vec<usize>,
    /// The scores of the arms the last build kept, unless it decided alone
    /// under the CI closure (see `lone_closure`).
    selected: Vec<ScoredOption>,
    /// The last build decided alone under the CI closure and listed no kept
    /// arms: they are the closure of `scored`, which only
    /// [`Selector::ci_widths`] reads, so it computes them.
    lone_closure: bool,
    /// The path set the last decision left, primary first.
    set: Vec<RelayOption>,
}

impl Selector {
    /// A selector running `plan` for `objective` with the caller's ε, its
    /// coins drawn from the run's `seed`.
    pub fn new(plan: Plan, objective: Metric, epsilon: f64, seed: u64) -> Selector {
        Selector {
            plan,
            objective,
            epsilon,
            coin: seed::derive(seed, COIN),
            scored: Vec::new(),
            order: Vec::new(),
            selected: Vec::new(),
            lone_closure: false,
            set: Vec::new(),
        }
    }

    /// Stage 3 of Algorithm 1, once per (pair, window): score `candidates`
    /// with `predict`, prune them as the plan says, and build the bandit
    /// with the normalizer `w` (Algorithm 3 line 3: the mean of the kept
    /// upper bounds). Arms are warm-started from their predicted means (3
    /// virtual samples) so the bandit exploits predictions immediately
    /// instead of sweeping every arm once. Allocates the arm list, nothing
    /// else.
    ///
    /// `lone` says the pair has one call this window. Under a plan that
    /// decides alone — ungated, race-free, single-path, scored, with no ε
    /// stage over the arms — that call's arms build no bandit, and it
    /// decides as it would on built ones.
    pub fn arms(
        &mut self,
        predict: impl Fn(RelayOption) -> Prediction,
        candidates: &[RelayOption],
        lone: bool,
    ) -> PairArms {
        if lone && self.plan.decides_alone() {
            return self.alone(predict, candidates);
        }
        self.lone_closure = false;
        let Selector {
            plan,
            objective,
            scored,
            order,
            selected,
            ..
        } = self;
        selected.clear();
        if plan.prune == Prune::All {
            let mut bandit = UcbBandit::new(candidates.iter().copied(), 1.0);
            bandit.normalize = plan.normalize;
            return PairArms {
                bandit,
                first: None,
                best_mean: 0.0,
                direct_mean: 0.0,
            };
        }
        let direct_mean = score(predict, candidates, *objective, scored);
        if let Prune::FixedK(k) = plan.prune {
            best_k(scored, k, selected);
        } else {
            top_k_into(scored, order, selected);
        }
        let best_mean = selected.first().map_or(direct_mean, |s| s.mean);
        let w = selected.iter().map(|s| s.upper).sum::<f64>() / selected.len().max(1) as f64;
        let mut bandit = UcbBandit::with_priors(selected.iter().map(|s| (s.option, s.mean)), w, 3);
        bandit.normalize = plan.normalize;
        bandit.validate();
        PairArms {
            bandit,
            first: None,
            best_mean,
            direct_mean,
        }
    }

    /// The arms of a pair whose one call this window is the only one to
    /// [`Selector::decide`] on them. They build no bandit, and that call
    /// decides as it would on the built arms (the ε stage, the option, the
    /// kept CI widths, the means): every arm is warm-started at the same
    /// `n`, so every UCB bonus is equal, the index is monotone in the mean,
    /// and a fresh bandit plays its first arm. Under the CI closure that arm
    /// is the argmin by (mean, lower bound, candidate index) — `top_k_into`
    /// walks in lower-bound order, then sorts stably by mean — and the
    /// argmin over all candidates is in the closure: its lower bound is at
    /// most its mean, at most the seed's mean and so at most the seed's
    /// upper bound. The closure's members, which only the CI widths read,
    /// are left for [`Selector::ci_widths`] to find.
    fn alone(
        &mut self,
        predict: impl Fn(RelayOption) -> Prediction,
        candidates: &[RelayOption],
    ) -> PairArms {
        let (scored, selected) = (&mut self.scored, &mut self.selected);
        let direct_mean = score(predict, candidates, self.objective, scored);
        selected.clear();
        self.lone_closure = !matches!(self.plan.prune, Prune::FixedK(_));
        let first = if let Prune::FixedK(k) = self.plan.prune {
            best_k(scored, k, selected);
            selected.first().copied()
        } else {
            scored
                .iter()
                .min_by(|a, b| a.mean.total_cmp(&b.mean).then(a.lower.total_cmp(&b.lower)))
                .copied()
        };
        PairArms {
            bandit: UcbBandit::new([], 1.0),
            first: first.map(|s| s.option),
            best_mean: first.map_or(direct_mean, |s| s.mean),
            direct_mean,
        }
    }

    /// Confidence-interval widths (`upper − lower`) of the arms the last
    /// build kept, for the obs layer, in candidate order; none for unscored
    /// arms. After a lone build under the CI closure the kept arms are found
    /// here, for the one reader that wants them: Algorithm 2's closure bound,
    /// raised to an upper bound above it of an option within it until there
    /// is none — the least such fixpoint, which `top_k_into`'s sorted walk
    /// also ends on — keeps every option whose lower bound is within it.
    pub(crate) fn ci_widths(&self) -> impl Iterator<Item = f64> + '_ {
        let scored = &self.scored;
        let bound = self.lone_closure.then(|| {
            let mut bound = scored.iter().map(|s| s.upper).fold(f64::INFINITY, f64::min);
            while let Some(s) = scored.iter().find(|s| s.lower <= bound && s.upper > bound) {
                bound = s.upper;
            }
            bound
        });
        let kept = bound.map_or(&self.selected, |_| scored);
        let in_closure = move |s: &&ScoredOption| bound.is_none_or(|b| s.lower <= b);
        kept.iter().filter(in_closure).map(|s| s.upper - s.lower)
    }

    /// Stage 4 of Algorithm 1 for one call of the pair `arms` serves: fills
    /// [`Selector::set`] with the path set, primary first, and returns the
    /// decision. A `gated` call goes direct with an empty set. Otherwise one
    /// ε draw decides between general exploration (a uniform pick as the
    /// plan says; redundancy still comes from the bandit so the draw count
    /// never depends on `k`) and the bandit's `choose_set(k)` — `Via` is
    /// the `k = 1` row of the same code.
    ///
    /// The ε draw is the coin of `call`: a stream seeded from the run's
    /// seed and the call's id alone, built only for admitted calls of plans
    /// with an ε stage. `candidates` is lazy: the candidate set is
    /// enumerated only when the explore fires.
    pub fn decide<'c>(
        &mut self,
        arms: &PairArms,
        gated: bool,
        call: u64,
        candidates: impl FnOnce() -> &'c [RelayOption],
    ) -> Decision {
        let (plan, out) = (&self.plan, &mut self.set);
        out.clear();
        if gated {
            return Decision {
                option: RelayOption::Direct,
                explored: false,
                gated: true,
            };
        }
        let (epsilon, over_candidates) = match plan.explore {
            Explore::Off => (0.0, false),
            Explore::Candidates => (self.epsilon, true),
            Explore::Arms { epsilon } => (epsilon, false),
        };
        let mut explore = None;
        if epsilon > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed::derive_indexed_from(self.coin, call));
            if rng.random::<f64>() < epsilon {
                explore = Some(if over_candidates {
                    let pool = candidates();
                    pool[rng.random_range(0..pool.len())]
                } else {
                    let at = rng.random_range(0..arms.bandit.len());
                    arms.bandit.options().nth(at).unwrap_or(RelayOption::Direct)
                });
            }
        }
        arms.bandit.choose_set(plan.paths, out);
        if out.is_empty() {
            out.extend(arms.first);
        }
        if let Some(pick) = explore {
            out.retain(|&o| o != pick);
            out.insert(0, pick);
            out.truncate(plan.paths);
        }
        Decision {
            option: out.first().copied().unwrap_or(RelayOption::Direct),
            explored: explore.is_some(),
            gated: false,
        }
    }

    /// The path set the last [`Selector::decide`] left, primary first.
    pub fn set(&self) -> &[RelayOption] {
        &self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use via_model::ids::RelayId;

    #[test]
    fn every_strategy_resolves_to_its_documented_row() {
        let via = Plan::from(StrategyKind::Via);
        assert_eq!(
            via,
            Plan {
                source: Source::Arms,
                prune: Prune::CiClosure,
                normalize: true,
                explore: Explore::Candidates,
                paths: 1,
                merge: MultipathMode::Duplicate,
                gate: Gate::None,
                cache_ttl_secs: None,
                race: None,
            }
        );
        let dup = MultipathMode::Duplicate;
        let stripe = MultipathMode::Stripe;
        let multipath = |k, mode, budget| Plan::from(StrategyKind::Multipath { k, mode, budget });
        // (strategy, the Via row with exactly these fields changed).
        let table = [
            (
                StrategyKind::Default,
                Plan {
                    source: Source::Direct,
                    ..via
                },
            ),
            (
                StrategyKind::Oracle,
                Plan {
                    source: Source::Oracle,
                    ..via
                },
            ),
            (
                StrategyKind::PredictionOnly,
                Plan {
                    prune: Prune::FixedK(1),
                    explore: Explore::Off,
                    ..via
                },
            ),
            (
                StrategyKind::ExplorationOnly,
                Plan {
                    prune: Prune::All,
                    normalize: false,
                    explore: Explore::Arms { epsilon: 0.1 },
                    ..via
                },
            ),
            (
                StrategyKind::ViaBudgeted { budget: 0.3 },
                Plan {
                    gate: Gate::Percentile {
                        budget: 0.3,
                        cost: 1,
                    },
                    ..via
                },
            ),
            (
                StrategyKind::ViaBudgetUnaware { budget: 0.3 },
                Plan {
                    gate: Gate::Fcfs { budget: 0.3 },
                    ..via
                },
            ),
            (
                StrategyKind::ViaFixedTopK { k: 2 },
                Plan {
                    prune: Prune::FixedK(2),
                    ..via
                },
            ),
            (
                StrategyKind::ViaRawReward,
                Plan {
                    normalize: false,
                    ..via
                },
            ),
            (
                StrategyKind::ViaCached { ttl_hours: 6 },
                Plan {
                    explore: Explore::Off,
                    cache_ttl_secs: Some(6 * 3_600),
                    ..via
                },
            ),
            (
                StrategyKind::HybridRacing { k: 3 },
                Plan {
                    explore: Explore::Off,
                    race: Some(3),
                    ..via
                },
            ),
            (
                StrategyKind::Multipath {
                    k: 2,
                    mode: stripe,
                    budget: 1.0,
                },
                Plan {
                    paths: 2,
                    merge: stripe,
                    ..via
                },
            ),
            (
                StrategyKind::Multipath {
                    k: 3,
                    mode: dup,
                    budget: 0.3,
                },
                Plan {
                    paths: 3,
                    gate: Gate::Percentile {
                        budget: 0.3,
                        cost: 3,
                    },
                    ..via
                },
            ),
            (
                StrategyKind::Multipath {
                    k: 3,
                    mode: stripe,
                    budget: 0.3,
                },
                Plan {
                    paths: 3,
                    merge: stripe,
                    gate: Gate::Percentile {
                        budget: 0.3,
                        cost: 1,
                    },
                    ..via
                },
            ),
        ];
        for (kind, row) in table {
            assert_eq!(Plan::from(kind), row, "{kind}");
            // Only the two fixed sources never learn (and so never feed the
            // history store).
            let fixed = matches!(kind, StrategyKind::Default | StrategyKind::Oracle);
            assert_eq!(row.learns(), !fixed, "{kind}");
        }
        // k = 1 ≡ Via by construction: an unbudgeted one-path set, in either
        // mode (and the degenerate k = 0), *is* the Via plan.
        for mode in [dup, stripe] {
            assert_eq!(multipath(1, mode, 1.0), via);
            assert_eq!(multipath(0, mode, 1.0), via);
        }
        assert_eq!(
            Plan::from(StrategyKind::ViaFixedTopK { k: 0 }).prune,
            Prune::FixedK(1)
        );
    }

    fn gates(budget: f64) -> [GateState; 2] {
        [
            StrategyKind::ViaBudgeted { budget },
            StrategyKind::ViaBudgetUnaware { budget },
        ]
        .map(|kind| GateState::new(&Plan::from(kind)))
    }

    /// `(relayed, total)` of a gate that counts.
    fn counts(gate: &GateState) -> (f64, u64) {
        match &gate.0 {
            Admission::Open => (0.0, 0),
            Admission::Percentile { gate, .. } => {
                (gate.relayed_fraction() * gate.total() as f64, gate.total())
            }
            Admission::Fcfs { relayed, total, .. } => (*relayed as f64, *total),
        }
    }

    #[test]
    fn a_non_positive_benefit_is_never_admitted() {
        for mut gate in gates(0.5) {
            for benefit in [0.0, -0.0, -1.0, -1e9] {
                assert!(!gate.admit(benefit), "{gate:?} admitted {benefit}");
            }
            assert_eq!(counts(&gate), (0.0, 4));
        }
    }

    #[test]
    fn a_non_finite_benefit_is_admitted_and_charges_nothing() {
        let mut open = GateState::new(&Plan::from(StrategyKind::Via));
        assert!(open.is_open() && open.admit(f64::INFINITY));
        for mut gate in gates(0.3) {
            assert!(!gate.is_open());
            gate.admit(5.0);
            let before = counts(&gate);
            for benefit in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                assert!(gate.admit(benefit), "{gate:?} refused {benefit}");
            }
            assert_eq!(counts(&gate), before, "{gate:?}");
        }
    }

    #[test]
    fn the_percentile_gate_is_budget_gate_admit_cost() {
        for (k, budget) in [(1, 0.3), (2, 0.3), (3, 0.6)] {
            let plan = Plan::from(StrategyKind::Multipath {
                k,
                mode: MultipathMode::Duplicate,
                budget,
            });
            let mut gate = GateState::new(&plan);
            let mut oracle = BudgetGate::new(budget);
            let mut rng = StdRng::seed_from_u64(17);
            for _ in 0..5_000 {
                let benefit = rng.random::<f64>() * 120.0 - 20.0;
                assert_eq!(gate.admit(benefit), oracle.admit_cost(benefit, k as u64));
            }
            let state = gate.percentile().expect("a percentile gate");
            assert_eq!(state.total(), oracle.total());
            assert_eq!(state.relayed_fraction(), oracle.relayed_fraction());
        }
    }

    #[test]
    fn fcfs_relays_under_its_cap_after_every_call() {
        let [_, mut fcfs] = gates(0.3);
        assert!(fcfs.percentile().is_none());
        let mut rng = StdRng::seed_from_u64(19);
        for n in 1..=4_000u64 {
            fcfs.admit(rng.random::<f64>() * 100.0 - 10.0);
            let (relayed, total) = counts(&fcfs);
            assert_eq!(total, n);
            assert!(relayed < 0.3 * n as f64 + 1.0, "{relayed} relayed of {n}");
        }
    }

    fn bounce(i: u32) -> RelayOption {
        RelayOption::Bounce(RelayId(i))
    }

    /// Relay `i` predicted at `60 + 20·i` ms with a CI wide enough that
    /// neighbours overlap; the direct path at 400 ms.
    fn predict(o: RelayOption) -> Prediction {
        use crate::tomography::{linearize, linearize_sem};
        let mean = match o {
            RelayOption::Bounce(r) => 60.0 + 20.0 * f64::from(r.0),
            _ => 400.0,
        };
        let mut lin_mean = [0.0; 3];
        let mut lin_sem = [0.0; 3];
        for (i, &m) in Metric::ALL.iter().enumerate() {
            lin_mean[i] = linearize(m, mean);
            lin_sem[i] = linearize_sem(m, mean, 8.0);
        }
        Prediction::from_linear(
            lin_mean,
            lin_sem,
            crate::predictor::PredictionSource::Empirical(10),
        )
    }

    fn candidates() -> Vec<RelayOption> {
        let mut c = vec![RelayOption::Direct];
        c.extend((0..4).map(bounce));
        c
    }

    /// A selector running `kind` at ε, and the arms it builds over
    /// [`candidates`] for a pair with more than one call.
    fn build(kind: StrategyKind, epsilon: f64) -> (Selector, PairArms) {
        let mut selector = Selector::new(Plan::from(kind), Metric::Rtt, epsilon, 5);
        let arms = selector.arms(predict, &candidates(), false);
        (selector, arms)
    }

    #[test]
    fn arms_prune_as_the_plan_says() {
        let (mut selector, via) = build(StrategyKind::Via, 0.0);
        let kept: Vec<_> = via.options().collect();
        assert_eq!(kept.first(), Some(&bounce(0)), "best predicted mean leads");
        assert!(!kept.contains(&RelayOption::Direct), "400 ms is pruned");
        assert_eq!(selector.ci_widths().count(), kept.len());
        assert!(selector
            .ci_widths()
            .all(|w| (w - 2.0 * 1.96 * 8.0).abs() < 1e-9));
        assert!((via.benefit() - 340.0).abs() < 1e-6);

        let (_, top2) = build(StrategyKind::ViaFixedTopK { k: 2 }, 0.0);
        assert_eq!(top2.options().collect::<Vec<_>>(), [bounce(0), bounce(1)]);

        // Unscored arms leave no widths behind, not the last build's.
        selector.plan = Plan::from(StrategyKind::ExplorationOnly);
        let all = selector.arms(predict, &candidates(), false);
        assert_eq!(all.options().collect::<Vec<_>>(), candidates());
        assert_eq!(all.best_mean(), 0.0);
        assert_eq!(selector.ci_widths().count(), 0);
    }

    #[test]
    fn decide_gates_explores_and_fills_the_set() {
        let cands = candidates();

        let (mut selector, arms) = build(StrategyKind::Via, 1.0);
        let d = selector.decide(&arms, true, 0, || &cands[..]);
        assert!(d.gated && !d.explored && d.option == RelayOption::Direct);
        assert!(selector.set().is_empty());

        // ε = 1 always explores over the full candidate set.
        let d = selector.decide(&arms, false, 0, || &cands[..]);
        assert!(d.explored && cands.contains(&d.option));
        assert_eq!(selector.set(), [d.option]);

        // ε = 0 never touches the candidates.
        selector.epsilon = 0.0;
        let d = selector.decide(&arms, false, 0, || unreachable!("no explore at ε = 0"));
        assert_eq!((d.option, d.explored, d.gated), (bounce(0), false, false));
        assert_eq!(selector.set(), [bounce(0)]);

        // A k-path plan keeps the explore pick as primary and fills the rest
        // of the set from the bandit, without duplicates.
        let (mut selector, arms) = build(
            StrategyKind::Multipath {
                k: 2,
                mode: MultipathMode::Duplicate,
                budget: 1.0,
            },
            1.0,
        );
        let d = selector.decide(&arms, false, 0, || &cands[..]);
        assert!(d.explored);
        let set = selector.set();
        assert_eq!(set.len(), 2);
        assert_eq!(set[0], d.option);
        assert_ne!(set[0], set[1]);
        selector.epsilon = 0.0;
        let d = selector.decide(&arms, false, 0, || &cands[..]);
        assert_eq!(selector.set(), [bounce(0), bounce(1)]);
        assert_eq!(d.option, bounce(0));

        // The §7 wrappers carry no ε stage at all.
        let (mut selector, arms) = build(StrategyKind::ViaCached { ttl_hours: 1 }, 1.0);
        let d = selector.decide(&arms, false, 0, || {
            unreachable!("cached plans never explore")
        });
        assert_eq!((d.option, d.explored), (bounce(0), false));

        // The ε-greedy strawman ignores the caller's ε and explores over its
        // own arms.
        let (mut selector, arms) = build(StrategyKind::ExplorationOnly, 0.0);
        let explored = (0..200u64)
            .filter(|&i| {
                selector
                    .decide(&arms, false, i, || {
                        unreachable!("the explore pool is the arm list")
                    })
                    .explored
            })
            .count();
        assert!((5..=40).contains(&explored), "ε = 0.1 fired {explored}/200");
    }

    #[test]
    fn only_ungated_race_free_single_path_scored_rows_decide_alone() {
        let dup = MultipathMode::Duplicate;
        for (kind, alone) in [
            (StrategyKind::Via, true),
            (StrategyKind::ViaRawReward, true),
            (StrategyKind::ViaFixedTopK { k: 2 }, true),
            (StrategyKind::PredictionOnly, true),
            (StrategyKind::ViaCached { ttl_hours: 6 }, true),
            (StrategyKind::Default, false),
            (StrategyKind::Oracle, false),
            (StrategyKind::ExplorationOnly, false),
            (StrategyKind::ViaBudgeted { budget: 0.3 }, false),
            (StrategyKind::ViaBudgetUnaware { budget: 0.3 }, false),
            (StrategyKind::HybridRacing { k: 3 }, false),
            (
                StrategyKind::Multipath {
                    k: 2,
                    mode: dup,
                    budget: 1.0,
                },
                false,
            ),
            (
                StrategyKind::Multipath {
                    k: 1,
                    mode: dup,
                    budget: 0.3,
                },
                false,
            ),
        ] {
            assert_eq!(Plan::from(kind).decides_alone(), alone, "{kind}");
        }
    }

    /// Linearized means and SEMs the scored sets draw from: few enough that
    /// means and lower bounds tie, signed zeros, a huge mean and an SEM whose
    /// upper bound overflows to ∞. (An ∞ mean is no arm: a build asserts
    /// that every warm start is finite.)
    const LIN_MEANS: [f64; 7] = [-0.0, 0.0, 40.0, 40.0, 95.5, 200.0, 1e300];
    const LIN_SEMS: [f64; 5] = [0.0, 0.0, 10.0, 60.0, 1e308];

    /// A generated scored set: the candidates (the direct path at
    /// `direct_at`, when in range) and their predictions.
    fn scored_set(
        slots: &[(usize, usize)],
        direct_at: usize,
    ) -> (Vec<RelayOption>, Vec<Prediction>) {
        slots
            .iter()
            .enumerate()
            .map(|(i, &(m, s))| {
                let option = if i == direct_at {
                    RelayOption::Direct
                } else {
                    bounce(i as u32)
                };
                let source = crate::predictor::PredictionSource::Empirical(5);
                (
                    option,
                    Prediction::from_linear([LIN_MEANS[m]; 3], [LIN_SEMS[s]; 3], source),
                )
            })
            .unzip()
    }

    proptest::proptest! {
        // For every row that decides alone, ε fired or not: the lone-call
        // decision is the build and first decide of a fresh pair. Each of
        // the two selectors has first built and played another set, lone
        // and not in opposite orders, so a buffer one build leaves behind
        // would reach the compared decision, set, means or CI widths.
        #[test]
        fn a_lone_call_decides_as_the_first_play_of_fresh_arms(
            slots in proptest::collection::vec((0usize..LIN_MEANS.len(), 0usize..LIN_SEMS.len()), 1..12),
            direct_at in 0usize..16,
            before in proptest::collection::vec((0usize..LIN_MEANS.len(), 0usize..LIN_SEMS.len()), 1..12),
            before_direct_at in 0usize..16,
            metric in 0usize..3,
            seed in proptest::any::<u64>(),
            call in proptest::any::<u64>(),
        ) {
            let (cands, preds) = scored_set(&slots, direct_at);
            let (before_cands, before_preds) = scored_set(&before, before_direct_at);
            let at = |cands: &[RelayOption], o| cands.iter().position(|&c| c == o).unwrap_or(0);
            let predict = |o| preds[at(&cands, o)];
            let predict_before = |o| before_preds[at(&before_cands, o)];
            let objective = Metric::ALL[metric];
            let sorted_bits = |widths: &mut dyn Iterator<Item = f64>| {
                let mut bits: Vec<u64> = widths.map(f64::to_bits).collect();
                bits.sort_unstable();
                bits
            };
            for kind in [
                StrategyKind::Via,
                StrategyKind::ViaRawReward,
                StrategyKind::ViaFixedTopK { k: 1 },
                StrategyKind::ViaFixedTopK { k: 3 },
                StrategyKind::PredictionOnly,
                StrategyKind::ViaCached { ttl_hours: 1 },
            ] {
                for epsilon in [0.0, 0.3, 1.0] {
                    let mut full = Selector::new(Plan::from(kind), objective, epsilon, seed);
                    let mut lone = Selector::new(Plan::from(kind), objective, epsilon, seed);
                    for (selector, order) in [(&mut full, [false, true]), (&mut lone, [true, false])] {
                        for lone_before in order {
                            let arms = selector.arms(predict_before, &before_cands, lone_before);
                            selector.decide(&arms, false, call, || &before_cands[..]);
                        }
                    }
                    let arms = full.arms(predict, &cands, false);
                    let want = full.decide(&arms, false, call, || &cands[..]);
                    let alone = lone.arms(predict, &cands, true);
                    let got = lone.decide(&alone, false, call, || &cands[..]);
                    let case = format!("{kind} ε {epsilon} {slots:?} direct at {direct_at}, after {before:?}");
                    proptest::prop_assert_eq!(got, want, "{}", case);
                    proptest::prop_assert_eq!(lone.set(), full.set(), "{}", case);
                    proptest::prop_assert_eq!(alone.best_mean().to_bits(), arms.best_mean().to_bits(), "{}", case);
                    proptest::prop_assert_eq!(alone.benefit().to_bits(), arms.benefit().to_bits(), "{}", case);
                    proptest::prop_assert_eq!(
                        sorted_bits(&mut lone.ci_widths()),
                        sorted_bits(&mut full.ci_widths()),
                        "{}",
                        case
                    );
                }
            }
        }
    }

    #[test]
    fn learn_moves_the_bandit_off_a_bad_arm() {
        let (mut selector, mut arms) = build(StrategyKind::Via, 0.0);
        let mut pick = |arms: &PairArms| selector.decide(arms, false, 0, || &[]).option;
        assert_eq!(pick(&arms), bounce(0));
        for _ in 0..20 {
            arms.learn(bounce(0), 400.0);
        }
        assert_ne!(pick(&arms), bounce(0));
        // ε picks outside the arm set are ignored.
        arms.learn(RelayOption::Direct, 1.0);
    }
}
