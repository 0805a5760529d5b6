//! Synthetic Internet substrate for the VIA reproduction.
//!
//! The paper evaluates on 430 million real Skype calls; that trace is
//! proprietary, so this crate builds a *generative world* that reproduces the
//! statistical structure the paper measures:
//!
//! * **Geography** ([`geo`], [`catalog`]) — countries and datacenter sites at
//!   real coordinates, so propagation delays, time zones and the
//!   international/domestic mix are plausible.
//! * **Topology** ([`topology`]) — eyeball ASes per country with quality
//!   tiers and market-share weights, plus a relay fleet in one provider AS.
//!   Each AS pair's candidate relaying options are ranked on the pair's
//!   first query and read from the world's candidate table ever after.
//! * **Performance** ([`perf`], [`segments`]) — every end-to-end path
//!   decomposes into access, public-WAN, and backbone segments. Segments
//!   carry static latents (RTT inflation over the fiber bound, base loss and
//!   jitter), day-scale congestion episodes with skewed
//!   persistence/prevalence (§2.4 of the paper), a diurnal load cycle, and
//!   heavy-tailed per-call noise.
//!
//! The model exposes both the latent mean (for the oracle of §3.2) and
//! realized samples (all any practical strategy observes), and is a
//! deterministic pure function of `(config, seed)`.
//!
//! ```
//! use via_netsim::{World, WorldConfig};
//! use via_model::{RelayOption, SimTime};
//!
//! let world = World::generate(&WorldConfig::tiny(), 7);
//! let src = world.ases[0].id;
//! let dst = world.ases.last().unwrap().id;
//! let options = world.candidate_options(src, dst);
//! assert_eq!(options[0], RelayOption::Direct);
//! let mean = world.perf().option_mean(src, dst, options[1], SimTime::from_days(1));
//! assert!(mean.rtt_ms > 0.0);
//! ```

#![warn(missing_docs)]
// A narrowing `as` cast truncates silently; library code says how it rounds.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod catalog;
pub mod config;
pub mod geo;
pub mod perf;
pub mod segments;
pub mod topology;

pub use config::WorldConfig;
pub use geo::GeoPoint;
pub use perf::{PerfModel, SampleScratch};
pub use segments::{SegMetrics, Segment, SegmentPath, Stability};
pub use topology::{AsInfo, CandidateScratch, Country, Relay, World};
