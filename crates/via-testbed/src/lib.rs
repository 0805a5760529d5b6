//! Small-scale real deployment prototype of VIA (§5.5 of the paper).
//!
//! The paper deployed modified Skype clients on 14 machines across five
//! countries, a controller on Azure, and used Skype's production relays.
//! This crate rebuilds that system on loopback with real sockets:
//!
//! * [`protocol`] — length-prefixed JSON control plane over TCP.
//! * [`probe`] — RTP-carrying probe/echo packets on UDP.
//! * [`relay`] — session-based UDP forwarders (the dumb data plane).
//! * [`impair`] — netem-like per-leg impairment (delay / jitter / loss)
//!   applied at the relay, parameterized from a `via-netsim` world so the
//!   emulated geography matches the simulation experiments.
//! * [`client`] — instrumented clients: probe sender, echo responder,
//!   RTT/loss/jitter measurement, reporting, direct-path fallback.
//! * [`controller`] — registration, session setup, back-to-back call
//!   orchestration with deadlines/retries, partial-result collection.
//! * [`fault`] — seeded fault injection: relay kills, control-frame
//!   drop/duplicate/delay, probe-leg blackholes, client partitions.
//! * [`harness`] — one-call assembly of the whole testbed.
//! * [`selection`] — the Figure 18 controlled experiment: VIA's heuristic
//!   evaluated against per-round ground truth (sub-optimality CDF).
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

pub mod client;
pub mod controller;
pub mod error;
pub mod fault;
pub mod harness;
pub mod impair;
pub mod probe;
pub mod protocol;
pub mod relay;
pub mod selection;

pub use client::ClientConfig;
pub use controller::{
    ControlHooks, ControlTiming, ControllerConfig, ControllerOutcome, FailureCause, PairFailure,
    PairSpec, ReportRecord,
};
pub use error::TestbedError;
pub use fault::{FaultPlan, FrameFate, FrameFaults, RelayKill};
pub use harness::{run_testbed, TestbedConfig, TestbedResult};
pub use impair::ImpairParams;
pub use relay::{RelayHandle, Session};
pub use selection::{evaluate_via_selection, Fig18Result};
