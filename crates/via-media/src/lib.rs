//! RTP-layer packet simulation for the VIA reproduction.
//!
//! The paper's dataset stores only per-call *average* metrics; §2.2 validates
//! those averages against full packet traces of 70 K calls scored by a MOS
//! calculator. This crate provides the equivalent machinery:
//!
//! * [`packet`] — RFC 3550 RTP fixed headers, wire encode/decode (also used
//!   by the `via-testbed` probe streams).
//! * [`loss`] — Gilbert–Elliott bursty loss whose stationary rate matches a
//!   per-call average.
//! * [`delay`] — correlated (AR(1)) per-packet delay with transient spikes.
//! * [`jitter`] — the RFC 3550 interarrival-jitter estimator and an adaptive
//!   playout buffer with late-discard accounting.
//! * [`call_sim`] — ties it together: average metrics → packet trace →
//!   receive pipeline → trace-based MOS.
//!
//! ```
//! use via_media::call_sim::simulate_call;
//! use via_model::PathMetrics;
//!
//! let good = simulate_call(&PathMetrics::new(80.0, 0.2, 3.0), 30.0, 1);
//! let bad = simulate_call(&PathMetrics::new(600.0, 8.0, 40.0), 30.0, 1);
//! assert!(good.mos > bad.mos);
//! ```

#![warn(missing_docs)]

pub mod call_sim;
pub mod delay;
pub mod jitter;
pub mod loss;
pub mod merge;
pub mod packet;

pub use call_sim::{simulate_call, PacketTraceReport};
pub use jitter::{JitterBuffer, JitterEstimator};
pub use loss::GilbertElliott;
pub use merge::{
    receive, simulate_set, MergeConfig, MergeFailure, MergeMode, MergeReport, MergeScratch,
    PathArrivals, PathSpec,
};
pub use packet::{RtpPacket, RtpParseError, RTP_HEADER_LEN};
