//! Statistics utilities shared by the analysis pipeline and the selector.
//!
//! * [`welford`] — numerically stable online mean / variance / SEM
//!   ([`welford::OnlineStats`]), the backbone of the per-(pair, option,
//!   window) aggregates the predictor consumes.
//! * [`mod@percentile`] — percentile and quantile extraction from samples.
//! * [`cdf`] — empirical CDF construction for the paper's distribution plots.
//! * [`binning`] — fixed-width binning with a minimum-samples-per-bin rule
//!   (the paper requires ≥ 1000 samples per bin in Figure 1).
//! * [`mod@pearson`] — Pearson correlation coefficient, used to reproduce the
//!   0.97 / 0.95 / 0.91 PCR–metric correlations of Figure 1.
//! * [`p2`] — the P² (Jain–Chlamtac) streaming quantile estimator that the
//!   budget-aware gate (§4.6) uses to track the B-th percentile of predicted
//!   relaying benefit without storing history.

pub mod binning;
pub mod cdf;
pub mod p2;
pub mod pearson;
pub mod percentile;
pub mod welford;

pub use binning::{bin_means, Bin};
pub use cdf::Cdf;
pub use p2::P2Quantile;
pub use pearson::pearson;
pub use percentile::{percentile, percentiles};
pub use welford::OnlineStats;
