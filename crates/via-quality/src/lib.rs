//! Call-quality models for the VIA reproduction.
//!
//! Maps network path metrics to user-perceived quality:
//!
//! * [`emodel`] — the ITU-T E-model / Cole–Rosenbluth MOS calculator the
//!   paper uses in §2.2 (its reference 17): delay and loss impairments with a
//!   jitter-buffer mapping for jitter.
//! * [`rating`] — the 1–5 star user-rating model (MOS + user noise); ratings
//!   ≤ 2 are "poor" and their rate is the Poor Call Rate (PCR).
//! * [`pnr`] — Poor Network Rate aggregation over call populations and the
//!   paper's relative-improvement arithmetic (`100·(b−a)/b`).
//!
//! ```
//! use via_model::PathMetrics;
//! use via_quality::emodel;
//!
//! let good = PathMetrics::new(60.0, 0.1, 2.0);
//! let bad = PathMetrics::new(500.0, 5.0, 30.0);
//! assert!(emodel::mos(&good) > 4.0);
//! assert!(emodel::mos(&bad) < 2.5);
//! ```

#![warn(missing_docs)]

pub mod emodel;
pub mod pnr;
pub mod rating;

pub use emodel::mos;
pub use pnr::{relative_improvement, PnrImprovement, PnrReport, PoorAxes};
pub use rating::RatingModel;
