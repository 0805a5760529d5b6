//! The VIA contribution: prediction-guided exploration for relay selection.
//!
//! This crate implements §4 of the paper end to end, plus the evaluation
//! machinery of §5.1:
//!
//! * [`history`] — the controller's measurement store: per (pair, option,
//!   window) Welford aggregates fed by completed calls.
//! * [`tomography`] — relay-based network tomography (§4.4, Figure 11):
//!   linearizes loss (log-survival) and jitter (variance), solves client-side
//!   segments by weighted least squares, and stitches predictions for paths
//!   never observed.
//! * [`predictor`] — `Pred` of Algorithm 1: empirical → tomography →
//!   geographic prior, each with mean and 95 % confidence bounds.
//! * [`online`] — the window roll: [`Trained`], the closed window behind a
//!   predictor and the one refit rule replay's barrier and the live
//!   controller's rollover both call, plus its snapshot image for graceful
//!   restarts.
//! * [`topk`] — Algorithm 2: the minimal confidence-interval closure that
//!   provably contains every plausibly-best option.
//! * [`bandit`] — Algorithm 3: UCB1 modified with outlier-robust
//!   normalization, in cost-minimization form.
//! * [`selector`] — the decision core: a [`StrategyKind`] resolved into a
//!   `Plan`, the per-shard `Selector` that replay, the live server and the
//!   testbed evaluator all drive (`arms` builds a pair's arms, `decide` plays
//!   them), the per-(pair, window) `PairArms` it builds (`learn`), and the one
//!   runtime budget gate `GateState`.
//! * [`budget`] — §4.6: streaming-percentile budget gate, with weighted
//!   costs so duplicated multipath traffic is charged honestly.
//! * [`active`] — §7 future work, implemented: greedy set-cover planning of
//!   active probes that fill tomography holes.
//! * [`placement`] — Figure 17c's follow-up: submodular greedy relay-fleet
//!   placement over a demand matrix.
//! * [`coords`] — Vivaldi network coordinates (the paper's related-work
//!   reference 18), for the
//!   prediction-accuracy comparison in `ext_vivaldi`.
//! * [`strategy`] / [`replay`] — the strategy names, and their chronological
//!   replay with common random numbers.
//!
//! ```
//! use via_core::replay::{ReplayConfig, ReplaySim};
//! use via_core::strategy::StrategyKind;
//! use via_netsim::{World, WorldConfig};
//! use via_trace::{TraceConfig, TraceGenerator};
//!
//! let world = World::generate(&WorldConfig::tiny(), 42);
//! let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 42).generate();
//! let cfg = ReplayConfig::default();
//! let default = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Default);
//! let via = ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Via);
//! // Population figures (PNR, option mix, relayed fraction) are read from
//! // the aggregate, which every run fills.
//! assert!(via.aggregate.pnr().any <= default.aggregate.pnr().any + 0.05);
//! ```

#![warn(missing_docs)]
// A narrowing `as` cast truncates silently; library code says how it rounds.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod active;
pub mod bandit;
pub mod budget;
pub mod coords;
pub mod history;
pub mod online;
pub mod par;
pub mod placement;
pub mod predictor;
pub mod replay;
pub mod selector;
pub mod strategy;
pub mod tomography;
pub mod topk;

pub use active::{plan_probes, Probe};
pub use bandit::UcbBandit;
pub use budget::BudgetGate;
pub use coords::{Coord, Vivaldi};
pub use history::{CallHistory, KeyPair, MetricStats};
pub use online::{BackboneFn, CellSnapshot, RefitSnapshot, Trained};
pub use placement::{plan_placement, Demand, Placement};
pub use predictor::{GeoPrior, PairView, Prediction, PredictionSource, Predictor, PredictorConfig};
pub use replay::{CallOutcome, Outcome, ReplayConfig, ReplaySim, ReplayStats, SpatialGranularity};
pub use selector::{Decision, GateState, PairArms, Plan, Selector};
pub use strategy::{MultipathMode, StrategyKind};
pub use topk::{top_k_into, ScoredOption};
