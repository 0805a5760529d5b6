//! # VIA — predictive relay selection for Internet telephony
//!
//! A full reproduction of *"Via: Improving Internet Telephony Call Quality
//! Using Predictive Relay Selection"* (Jiang et al., SIGCOMM 2016) as a Rust
//! workspace. This facade crate re-exports every sub-crate under one roof so
//! examples and downstream users can depend on a single `via` crate.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`]   | `via-model`   | identifiers, metrics, simulated time, relay options, statistics |
//! | [`netsim`]  | `via-netsim`  | synthetic Internet: geography, ASes, relays, backbone, path performance |
//! | [`media`]   | `via-media`   | RTP packet-level simulation, jitter buffer, packet-trace MOS |
//! | [`quality`] | `via-quality` | E-model MOS, user ratings, PCR, PNR |
//! | [`trace`]   | `via-trace`   | call workload generation, trace records, §2 dataset analysis |
//! | [`core`]    | `via-core`    | tomography predictor, top-k pruning, modified UCB1, budget gate, strategies, replay |
//! | [`obs`]     | `via-obs`     | deterministic metrics/tracing: counters, fixed-bucket histograms, span events |
//! | [`testbed`] | `via-testbed` | real TCP/UDP deployment prototype (§5.5) |
//! | [`server`]  | `via-server`  | live controller: select/report plane, one refit per window |
//!
//! ## Quickstart
//!
//! ```
//! use via::core::replay::{ReplayConfig, ReplaySim};
//! use via::core::strategy::StrategyKind;
//! use via::netsim::{World, WorldConfig};
//! use via::trace::workload::{TraceConfig, TraceGenerator};
//!
//! // A miniature world: fast enough for doc tests, same code path as the
//! // paper-scale experiments.
//! let world = World::generate(&WorldConfig::tiny(), 42);
//! let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 42).generate();
//! let mut sim = ReplaySim::new(&world, &trace, ReplayConfig::default());
//! let outcome = sim.run(StrategyKind::Via);
//! // Population figures live in the run's aggregate.
//! println!("PNR(any poor) = {:.3}", outcome.aggregate.pnr().any);
//! ```

pub use via_core as core;
pub use via_media as media;
pub use via_model as model;
pub use via_netsim as netsim;
pub use via_obs as obs;
pub use via_quality as quality;
pub use via_server as server;
pub use via_testbed as testbed;
pub use via_trace as trace;
