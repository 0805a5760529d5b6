//! Wire messages for the live controller's select/report plane.
//!
//! Reuses `via-testbed`'s framing (length-prefixed JSON over TCP, the
//! deadline-bounded [`FrameConn`](via_testbed::protocol::FrameConn) reader)
//! with a message set of its own: the testbed protocol orchestrates probe
//! calls between named clients, while this plane answers *selection*
//! queries — "which relay option should this call take" — and ingests the
//! measured outcome afterwards.

use serde::{Deserialize, Serialize};
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::time::SimTime;

/// Client → controller requests. Every request after [`Request::Hello`]
/// carries the session id issued in [`Response::Welcome`]; a request with a
/// stale or foreign id is rejected with [`ErrorKind::UnknownSession`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Open a session. Must be the first frame on a connection.
    Hello,
    /// Ask for a relay selection for one call about to be placed.
    Select {
        /// Session id from the `Welcome`.
        session: u64,
        /// Caller-chosen call identifier; seeds the ε-exploration RNG, so
        /// re-running a trace re-derives the same explore/exploit coin flips.
        call_id: u64,
        /// Call start time on the controller's simulation clock.
        t: SimTime,
        /// Caller's spatial key (AS/prefix granularity bucket).
        src_key: u32,
        /// Callee's spatial key.
        dst_key: u32,
        /// Feasible options for this call, direct path included.
        candidates: Vec<RelayOption>,
    },
    /// Report the measured performance of one completed call.
    Report {
        /// Session id from the `Welcome`.
        session: u64,
        /// Call start time (decides which window absorbs the report).
        t: SimTime,
        /// Caller's spatial key.
        src_key: u32,
        /// Callee's spatial key.
        dst_key: u32,
        /// Option the call actually took.
        option: RelayOption,
        /// Measured path metrics.
        metrics: PathMetrics,
    },
    /// Fetch the controller's deterministic state snapshot (JSON).
    Snapshot {
        /// Session id from the `Welcome`.
        session: u64,
    },
    /// Stop the server (drains connections and exits the accept loop).
    Shutdown {
        /// Session id from the `Welcome`.
        session: u64,
    },
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The session id is not live on this controller (stale id from a
    /// previous connection, or never issued).
    UnknownSession,
    /// No session id could be allocated.
    SessionExhausted,
    /// The request was invalid: structurally (e.g. `Hello` on an open
    /// session, or a non-`Hello` first frame) or in content (report metrics
    /// that are non-finite, negative or out of range; an option naming a
    /// relay outside the fleet).
    BadRequest,
}

/// Controller → client responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Session opened.
    Welcome {
        /// The issued session id.
        session: u64,
    },
    /// Selection decided.
    Selected {
        /// The chosen option.
        option: RelayOption,
        /// False when the budget gate forced the direct path.
        admitted: bool,
        /// True when ε general exploration picked a uniform random option.
        explored: bool,
        /// Control-window index the decision was made in.
        window: u64,
    },
    /// Report absorbed.
    Reported {
        /// Window index the report was filed under.
        window: u64,
    },
    /// Deterministic controller snapshot.
    Snapshot {
        /// The snapshot, as a JSON document (see
        /// [`SelectionSnapshot`](crate::SelectionSnapshot)).
        json: String,
    },
    /// Shutdown acknowledged; the server is draining.
    Bye,
    /// Request rejected.
    Error {
        /// Rejection class.
        kind: ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_model::ids::RelayId;
    use via_testbed::protocol::{read_frame, write_frame};

    #[test]
    fn requests_roundtrip_through_the_frame_codec() {
        let msgs = vec![
            Request::Hello,
            Request::Select {
                session: 7,
                call_id: 42,
                t: SimTime(3600),
                src_key: 1,
                dst_key: 9,
                candidates: vec![
                    RelayOption::Direct,
                    RelayOption::Bounce(RelayId(3)),
                    RelayOption::Transit(RelayId(0), RelayId(1)),
                ],
            },
            Request::Report {
                session: 7,
                t: SimTime(3601),
                src_key: 1,
                dst_key: 9,
                option: RelayOption::Bounce(RelayId(3)),
                metrics: PathMetrics::new(120.0, 0.5, 4.0),
            },
            Request::Snapshot { session: 7 },
            Request::Shutdown { session: 7 },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &msgs {
            let decoded: Request = read_frame(&mut cursor).unwrap();
            assert_eq!(&decoded, m);
        }
    }

    #[test]
    fn responses_roundtrip_through_the_frame_codec() {
        let msgs = vec![
            Response::Welcome { session: 1 },
            Response::Selected {
                option: RelayOption::Direct,
                admitted: false,
                explored: false,
                window: 4,
            },
            Response::Reported { window: 4 },
            Response::Snapshot {
                json: "{\"window\":4}".into(),
            },
            Response::Bye,
            Response::Error {
                kind: ErrorKind::UnknownSession,
                detail: "session 9 is not live".into(),
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &msgs {
            let decoded: Response = read_frame(&mut cursor).unwrap();
            assert_eq!(&decoded, m);
        }
    }
}
