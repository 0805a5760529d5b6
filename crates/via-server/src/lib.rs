//! Live VIA controller: an online select/report plane refitted once per
//! window.
//!
//! Everything else in this workspace evaluates VIA by *replaying* traces —
//! the batch engine stops the world at every window barrier to refit. This
//! crate is the deployable shape of the same algorithms: a long-running
//! controller that answers "which relay option should this call take" RPCs
//! continuously, accumulates call reports beside them, and refits at each
//! window rollover with the function the batch barrier calls.
//!
//! * [`controller`] — sharded selection state: a published
//!   [`Predictor`](via_core::Predictor), per-pair-shard histories and
//!   bandits, the §4.6 budget gate as a live control loop, and
//!   snapshot/restore for graceful restarts. Selections are bit-identical
//!   to the batch replay predictor over the same report stream.
//! * [`epoch`] — the read-mostly publish slot (the value and its publish
//!   count behind one `RwLock`; `std`-only, no `unsafe`).
//! * [`session`] — non-zero `u64` session ids from a wrapping, collision-
//!   skipping allocator with typed exhaustion.
//! * [`wire`] / [`server`] / [`client`] — the framed-TCP RPC plane: a
//!   fixed-layout binary body per message inside `via-testbed`'s length
//!   prefix, read and written through its deadline-bounded `FrameConn`.
//!
//! Like `via-testbed`, this crate drives real sockets and wall clocks but
//! is held to the workspace's panic-safety and bounded-socket-wait rules
//! (via-audit's `panic` and `socket-wait` lints): no `unwrap`/`expect` in
//! library code, no socket wait without a deadline.

#![warn(missing_docs)]

pub mod client;
pub mod controller;
pub mod epoch;
mod lock;
pub mod server;
pub mod session;
pub mod wire;

pub use client::{Client, ClientError};
pub use controller::{Controller, Selection, SelectionSnapshot, ServerConfig};
pub use epoch::EpochPtr;
pub use server::{serve, serve_on, ServerHandle};
pub use session::{SessionExhausted, SessionTable};
pub use wire::{ErrorKind, Request, Response, WireError};
