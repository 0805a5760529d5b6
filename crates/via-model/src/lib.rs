//! Shared vocabulary for the VIA reproduction.
//!
//! This crate defines the small, dependency-light types that every other crate
//! in the workspace speaks:
//!
//! * [`ids`] — newtype identifiers for countries, autonomous systems, clients,
//!   relays, and calls, plus the [`ids::AsPair`] key used for source–destination
//!   aggregation throughout the paper.
//! * [`metrics`] — [`metrics::PathMetrics`] (RTT, loss rate, jitter), the
//!   [`metrics::Metric`] axis enum, and the poor-performance
//!   [`metrics::Thresholds`] from §2.2 of the paper (RTT ≥ 320 ms, loss ≥ 1.2 %,
//!   jitter ≥ 12 ms).
//! * [`time`] — deterministic simulated time ([`time::SimTime`]) and the
//!   fixed-width aggregation [`time::Window`]s (24 h by default) that both the
//!   oracle and VIA's predictor operate on.
//! * [`options`] — the relaying alternatives of §3.1: the default path, a
//!   single bouncing relay, or a transit relay pair.
//! * [`stats`] — the statistics toolbox used by the analysis pipeline and the
//!   relay-selection algorithm: online mean/variance (Welford), percentiles,
//!   CDFs, Pearson correlation, equal-width binning, and the P² streaming
//!   quantile estimator that backs budget-aware relaying.
//! * [`table`] — a dense row-major [`table::Table`] that carries its stride,
//!   for static geometry and backbone tables read on the per-call path.
//! * [`seed`] — deterministic sub-seed derivation so that every component of
//!   the simulation draws from an independent, reproducible random stream.
//!
//! Everything in this crate is pure data and arithmetic: no I/O, no wall-clock
//! time, no global state. That keeps the full simulation deterministic given a
//! single top-level seed, in the spirit of event-driven network simulators.

#![warn(missing_docs)]

pub mod ids;
pub mod metrics;
pub mod options;
pub mod seed;
pub mod stats;
pub mod table;
pub mod time;

pub use ids::{AsId, AsPair, CallId, ClientId, CountryId, RelayId};
pub use metrics::{Metric, PathMetrics, Thresholds};
pub use options::RelayOption;
pub use table::Table;
pub use time::{SimTime, Window, WindowLen};
