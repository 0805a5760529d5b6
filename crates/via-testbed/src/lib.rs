//! Small-scale real deployment prototype of VIA (§5.5 of the paper).
//!
//! The paper deployed modified Skype clients on 14 machines across five
//! countries, a controller on Azure, and used Skype's production relays.
//! This crate rebuilds that system on loopback with real sockets: a
//! controller on TCP, session-based UDP relay forwarders with netem-like
//! per-leg impairment (parameterized from a `via-netsim` world so the
//! emulated geography matches the simulation experiments), and instrumented
//! clients that send RTP-carrying probe streams, echo them, and report
//! RTT / loss / jitter, falling back to the direct path when a relay leg is
//! dead.
//!
//! One door leads in: [`run_testbed`] assembles and runs the whole testbed
//! from a [`TestbedConfig`] (with its [`ControlTiming`] deadlines and a
//! seeded [`FaultPlan`]) and returns a [`TestbedResult`] of
//! [`ReportRecord`]s and typed [`PairFailure`]s; [`evaluate_via_selection`]
//! scores VIA's heuristic on those reports (Figure 18). A client is its
//! index in the harness (`0..n_clients`) and a pair its index in the plan,
//! from the config to the result; the text `client-{i}` is made only where a
//! person reads it, in [`TestbedResult::summary`]. The [`protocol`] module's
//! framing half ([`protocol::FrameConn`] and its helpers) is public because
//! `via-server` frames its own sockets with it.
//!
//! Everything binds to 127.0.0.1 with ephemeral ports; the only "network"
//! is the loopback device plus emulated impairment.
//!
//! Despite driving real sockets, this crate is held to the workspace's
//! panic-safety rules: no `unwrap`/`expect` outside `#[cfg(test)]` code and
//! no slice index in `protocol.rs`, where frames are read (both clippy
//! denies), and no unbounded socket wait (clippy's `disallowed_methods`,
//! through this crate's `clippy.toml`). Every
//! failure surfaces as a typed [`TestbedError`] or a per-pair
//! [`PairFailure`] record.

#![warn(missing_docs)]
// A narrowing `as` cast truncates silently; library code says how it rounds.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

mod client;
mod controller;
mod error;
mod fault;
mod harness;
mod impair;
mod probe;
pub mod protocol;
mod relay;
mod selection;

pub use controller::{ControlTiming, FailureCause, PairFailure, ReportRecord};
pub use error::TestbedError;
pub use fault::{FaultPlan, RelayKill};
pub use harness::{run_testbed, TestbedConfig, TestbedResult};
pub use selection::{evaluate_via_selection, Fig18Result};
