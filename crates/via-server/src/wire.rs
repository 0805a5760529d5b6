//! Wire messages for the live controller's select/report plane, and the
//! binary body each one travels as.
//!
//! The plane rides `via-testbed`'s framing (a length prefix, `MAX_FRAME`, the
//! deadline-bounded [`FrameConn`](via_testbed::protocol::FrameConn)) with a
//! message set of its own: the testbed protocol orchestrates probe calls
//! between named clients, while this plane answers *selection* queries —
//! "which relay option should this call take" — and ingests the measured
//! outcome afterwards. Every call pays that round trip, so its bodies are not
//! JSON but one fixed-order little-endian layout, written in the idiom of
//! `via-trace`'s `.vbt` codec: version byte first, every count and length
//! checked against the bytes that actually arrived before anything is
//! reserved or indexed, a typed [`WireError`], no `unsafe`.
//!
//! ```text
//! body      [version u8 = 1][kind u8][fields, in declaration order]
//! integers  little-endian; a session, call id, time or window is a u64,
//!           a spatial key a u32, a flag one byte that must be 0 or 1
//! option    9 bytes [tag u8][a u32][b u32]: 0 Direct, 1 Bounce(a),
//!           2 Transit(a, b); a slot the tag does not use must be zero
//! metrics   24 bytes: rtt_ms, loss_pct, jitter_ms as f64 bit patterns
//! text      [len u32][len bytes of UTF-8]
//!
//! request   0x01 Hello     -                                           2 bytes
//!           0x02 Select    session call_id t src_key dst_key
//!                          [n u32][n options]                     38 + 9n
//!           0x03 Report    session t src_key dst_key option metrics    59
//!           0x04 Snapshot  session                                     10
//!           0x05 Shutdown  session                                     10
//! response  0x81 Welcome   session                                     10
//!           0x82 Selected  option admitted explored window             21
//!           0x83 Reported  window                                      10
//!           0x84 Snapshot  text (the JSON document)                 6 + len
//!           0x85 Bye       -                                            2
//!           0x86 Error     [kind u8: 0 UnknownSession, 1 retired,
//!                          2 BadRequest, 3 ReplyTooLarge] text      7 + len
//! ```
//!
//! Every value has exactly one encoding and a body must end where its last
//! field ends, so a decoder that accepts a body re-encodes it to the same
//! bytes. The codec carries any `f64` bit pattern — ±∞ and NaN payloads that
//! JSON could not — and judges none of them: range checks on metrics, relay
//! ids and sessions are the server's (`check_metrics`, `check_option`,
//! `check_session`). The snapshot *document* inside a `Snapshot` reply stays
//! JSON: it is also a file format, and it is cold.

// Bytes and ids from outside the program enter here: no index may panic.
#![deny(clippy::indexing_slicing)]

use serde::{Deserialize, Serialize};
use via_model::ids::RelayId;
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::time::SimTime;
use via_testbed::protocol::FrameError;

/// Client → controller requests. Every request after [`Request::Hello`]
/// carries the session id issued in [`Response::Welcome`]; a request with a
/// stale or foreign id is rejected with [`ErrorKind::UnknownSession`].
///
/// The serde derives on this and on [`Response`] no longer serve the socket:
/// they are for `benchmark/src/layers.rs`, whose `protocol.*` rows still price
/// these messages as JSON frames.
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
    /// The session id is not this connection's (stale id from a previous
    /// connection, another connection's, or never issued).
    UnknownSession,
    /// The request was invalid: structurally (e.g. `Hello` on an open
    /// session, or a non-`Hello` first frame) or in content (report metrics
    /// that are non-finite, negative or out of range; an option naming a
    /// relay outside the fleet).
    BadRequest,
    /// The request was served but its reply does not fit one frame (a
    /// `Snapshot` document beyond `MAX_FRAME`); nothing of it was sent.
    ReplyTooLarge,
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

/// Version byte every body opens with. A constant, not a negotiation: both
/// ends of this socket are built from this file.
pub const WIRE_VERSION: u8 = 1;

const REQ_HELLO: u8 = 0x01;
const REQ_SELECT: u8 = 0x02;
const REQ_REPORT: u8 = 0x03;
const REQ_SNAPSHOT: u8 = 0x04;
const REQ_SHUTDOWN: u8 = 0x05;

const RESP_WELCOME: u8 = 0x81;
const RESP_SELECTED: u8 = 0x82;
const RESP_REPORTED: u8 = 0x83;
const RESP_SNAPSHOT: u8 = 0x84;
const RESP_BYE: u8 = 0x85;
const RESP_ERROR: u8 = 0x86;

const OPT_DIRECT: u8 = 0;
const OPT_BOUNCE: u8 = 1;
const OPT_TRANSIT: u8 = 2;

// Kind 1 is retired, not reused: it decodes as `BadErrorKind(1)`.
const ERR_UNKNOWN_SESSION: u8 = 0;
const ERR_BAD_REQUEST: u8 = 2;
const ERR_REPLY_TOO_LARGE: u8 = 3;

/// Encoded size of one [`RelayOption`].
const OPTION_BYTES: usize = 9;

/// Why a well-framed body is not a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The body ended inside the named field.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// Bytes left over behind the message's last field.
    Trailing(usize),
    /// A version byte other than [`WIRE_VERSION`].
    BadVersion(u8),
    /// A kind byte that names no request (or no response).
    BadKind(u8),
    /// An option tag other than Direct / Bounce / Transit.
    BadOptionTag(u8),
    /// An error-kind byte that names no [`ErrorKind`].
    BadErrorKind(u8),
    /// A field holding a value its layout has no meaning for: a flag byte
    /// other than 0 or 1, a relay slot its option tag leaves unused but not
    /// zero, text that is not UTF-8.
    BadField(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { context } => write!(f, "body ends inside {context}"),
            WireError::Trailing(n) => write!(f, "{n} bytes behind the last field"),
            WireError::BadVersion(v) => {
                write!(f, "wire version {v} (this build speaks {WIRE_VERSION})")
            }
            WireError::BadKind(k) => write!(f, "unknown message kind {k:#04x}"),
            WireError::BadOptionTag(t) => write!(f, "unknown relay option tag {t}"),
            WireError::BadErrorKind(k) => write!(f, "unknown error kind {k}"),
            WireError::BadField(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A count or length as its `u32` field, or the frame error an over-long
/// body would have met at the length prefix anyway.
fn len_field(n: usize) -> Result<[u8; 4], FrameError> {
    u32::try_from(n)
        .map(u32::to_le_bytes)
        .map_err(|_| FrameError::Oversized(u32::MAX))
}

fn put_option(out: &mut Vec<u8>, option: RelayOption) {
    let (tag, a, b) = match option {
        RelayOption::Direct => (OPT_DIRECT, 0, 0),
        RelayOption::Bounce(r) => (OPT_BOUNCE, r.0, 0),
        RelayOption::Transit(a, b) => (OPT_TRANSIT, a.0, b.0),
    };
    out.push(tag);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
}

fn put_text(out: &mut Vec<u8>, text: &str) -> Result<(), FrameError> {
    out.extend_from_slice(&len_field(text.len())?);
    out.extend_from_slice(text.as_bytes());
    Ok(())
}

/// Appends a `Select` body to `out` straight from the caller's candidate
/// slice — what [`Request::encode`] does for an owned `Select`, without
/// first owning one.
///
/// # Errors
/// [`FrameError::Oversized`] when the candidate count does not fit its field.
pub fn encode_select(
    out: &mut Vec<u8>,
    session: u64,
    call_id: u64,
    t: SimTime,
    src_key: u32,
    dst_key: u32,
    candidates: &[RelayOption],
) -> Result<(), FrameError> {
    out.extend_from_slice(&[WIRE_VERSION, REQ_SELECT]);
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&call_id.to_le_bytes());
    out.extend_from_slice(&t.0.to_le_bytes());
    out.extend_from_slice(&src_key.to_le_bytes());
    out.extend_from_slice(&dst_key.to_le_bytes());
    out.extend_from_slice(&len_field(candidates.len())?);
    for &option in candidates {
        put_option(out, option);
    }
    Ok(())
}

impl Request {
    /// Appends this request's body to `out`.
    ///
    /// # Errors
    /// [`FrameError::Oversized`] when a count does not fit its field.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        match self {
            Request::Hello => out.extend_from_slice(&[WIRE_VERSION, REQ_HELLO]),
            Request::Select {
                session,
                call_id,
                t,
                src_key,
                dst_key,
                candidates,
            } => encode_select(out, *session, *call_id, *t, *src_key, *dst_key, candidates)?,
            Request::Report {
                session,
                t,
                src_key,
                dst_key,
                option,
                metrics,
            } => {
                out.extend_from_slice(&[WIRE_VERSION, REQ_REPORT]);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&t.0.to_le_bytes());
                out.extend_from_slice(&src_key.to_le_bytes());
                out.extend_from_slice(&dst_key.to_le_bytes());
                put_option(out, *option);
                for v in [metrics.rtt_ms, metrics.loss_pct, metrics.jitter_ms] {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Request::Snapshot { session } => {
                out.extend_from_slice(&[WIRE_VERSION, REQ_SNAPSHOT]);
                out.extend_from_slice(&session.to_le_bytes());
            }
            Request::Shutdown { session } => {
                out.extend_from_slice(&[WIRE_VERSION, REQ_SHUTDOWN]);
                out.extend_from_slice(&session.to_le_bytes());
            }
        }
        Ok(())
    }

    /// Decodes one request body.
    ///
    /// A `Select`'s candidates are decoded into `scratch`'s allocation —
    /// cleared first, and grown only after the count has been found to match
    /// the bytes that arrived — which then leaves inside the returned
    /// request. A serving loop moves it back into `scratch` once the request
    /// is answered, so one allocation serves the whole connection.
    ///
    /// # Errors
    /// A [`WireError`] for any body [`Request::encode`] could not have
    /// written; `scratch` keeps its allocation.
    pub fn decode(body: &[u8], scratch: &mut Vec<RelayOption>) -> Result<Request, WireError> {
        let (kind, mut r) = Reader::open(body)?;
        let req = match kind {
            REQ_HELLO => Request::Hello,
            REQ_SELECT => {
                let session = r.u64("session")?;
                let call_id = r.u64("call id")?;
                let t = SimTime(r.u64("call time")?);
                let src_key = r.u32("source key")?;
                let dst_key = r.u32("destination key")?;
                let n = r.u32("candidate count")? as usize;
                // The count is a claim; the bytes behind it are the fact, and
                // nothing is reserved until the two agree.
                match n.checked_mul(OPTION_BYTES) {
                    Some(need) if need == r.rest.len() => {}
                    Some(need) if need < r.rest.len() => {
                        return Err(WireError::Trailing(r.rest.len() - need))
                    }
                    _ => {
                        return Err(WireError::Truncated {
                            context: "candidates",
                        })
                    }
                }
                scratch.clear();
                scratch.reserve(n);
                for _ in 0..n {
                    scratch.push(r.option()?);
                }
                Request::Select {
                    session,
                    call_id,
                    t,
                    src_key,
                    dst_key,
                    candidates: std::mem::take(scratch),
                }
            }
            REQ_REPORT => Request::Report {
                session: r.u64("session")?,
                t: SimTime(r.u64("call time")?),
                src_key: r.u32("source key")?,
                dst_key: r.u32("destination key")?,
                option: r.option()?,
                // Field by field, not `PathMetrics::new`: its clamping would
                // turn a NaN into 0.0 before `check_metrics` could refuse it.
                metrics: PathMetrics {
                    rtt_ms: r.f64("rtt")?,
                    loss_pct: r.f64("loss")?,
                    jitter_ms: r.f64("jitter")?,
                },
            },
            REQ_SNAPSHOT => Request::Snapshot {
                session: r.u64("session")?,
            },
            REQ_SHUTDOWN => Request::Shutdown {
                session: r.u64("session")?,
            },
            other => return Err(WireError::BadKind(other)),
        };
        r.end()?;
        Ok(req)
    }
}

impl Response {
    /// Appends this response's body to `out`.
    ///
    /// # Errors
    /// [`FrameError::Oversized`] when a text length does not fit its field.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        match self {
            Response::Welcome { session } => {
                out.extend_from_slice(&[WIRE_VERSION, RESP_WELCOME]);
                out.extend_from_slice(&session.to_le_bytes());
            }
            Response::Selected {
                option,
                admitted,
                explored,
                window,
            } => {
                out.extend_from_slice(&[WIRE_VERSION, RESP_SELECTED]);
                put_option(out, *option);
                out.extend_from_slice(&[u8::from(*admitted), u8::from(*explored)]);
                out.extend_from_slice(&window.to_le_bytes());
            }
            Response::Reported { window } => {
                out.extend_from_slice(&[WIRE_VERSION, RESP_REPORTED]);
                out.extend_from_slice(&window.to_le_bytes());
            }
            Response::Snapshot { json } => {
                out.extend_from_slice(&[WIRE_VERSION, RESP_SNAPSHOT]);
                put_text(out, json)?;
            }
            Response::Bye => out.extend_from_slice(&[WIRE_VERSION, RESP_BYE]),
            Response::Error { kind, detail } => {
                let kind = match kind {
                    ErrorKind::UnknownSession => ERR_UNKNOWN_SESSION,
                    ErrorKind::BadRequest => ERR_BAD_REQUEST,
                    ErrorKind::ReplyTooLarge => ERR_REPLY_TOO_LARGE,
                };
                out.extend_from_slice(&[WIRE_VERSION, RESP_ERROR, kind]);
                put_text(out, detail)?;
            }
        }
        Ok(())
    }

    /// Decodes one response body.
    ///
    /// # Errors
    /// A [`WireError`] for any body [`Response::encode`] could not have
    /// written.
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        let (kind, mut r) = Reader::open(body)?;
        let resp = match kind {
            RESP_WELCOME => Response::Welcome {
                session: r.u64("session")?,
            },
            RESP_SELECTED => Response::Selected {
                option: r.option()?,
                admitted: r.flag("admitted flag")?,
                explored: r.flag("explored flag")?,
                window: r.u64("window")?,
            },
            RESP_REPORTED => Response::Reported {
                window: r.u64("window")?,
            },
            RESP_SNAPSHOT => Response::Snapshot {
                json: r.text("snapshot document")?.to_owned(),
            },
            RESP_BYE => Response::Bye,
            RESP_ERROR => Response::Error {
                kind: match r.u8("error kind")? {
                    ERR_UNKNOWN_SESSION => ErrorKind::UnknownSession,
                    ERR_BAD_REQUEST => ErrorKind::BadRequest,
                    ERR_REPLY_TOO_LARGE => ErrorKind::ReplyTooLarge,
                    other => return Err(WireError::BadErrorKind(other)),
                },
                detail: r.text("error detail")?.to_owned(),
            },
            other => return Err(WireError::BadKind(other)),
        };
        r.end()?;
        Ok(resp)
    }
}

/// The unread rest of a body. Every read is a checked split: a field is
/// taken whole or the body is [`WireError::Truncated`].
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Checks the version byte and hands back the kind byte with a reader
    /// over the fields behind it.
    fn open(body: &'a [u8]) -> Result<(u8, Reader<'a>), WireError> {
        let mut r = Reader { rest: body };
        match r.u8("version")? {
            WIRE_VERSION => Ok((r.u8("kind")?, r)),
            other => Err(WireError::BadVersion(other)),
        }
    }

    fn bytes<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated { context })?;
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        self.bytes(context).map(u8::from_le_bytes)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        self.bytes(context).map(u32::from_le_bytes)
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        self.bytes(context).map(u64::from_le_bytes)
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        self.u64(context).map(f64::from_bits)
    }

    fn flag(&mut self, context: &'static str) -> Result<bool, WireError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadField(context)),
        }
    }

    fn option(&mut self) -> Result<RelayOption, WireError> {
        let tag = self.u8("relay option")?;
        let a = self.u32("relay option")?;
        let b = self.u32("relay option")?;
        match (tag, a, b) {
            (OPT_DIRECT, 0, 0) => Ok(RelayOption::Direct),
            (OPT_BOUNCE, a, 0) => Ok(RelayOption::Bounce(RelayId(a))),
            (OPT_TRANSIT, a, b) => Ok(RelayOption::Transit(RelayId(a), RelayId(b))),
            (OPT_DIRECT | OPT_BOUNCE, _, _) => Err(WireError::BadField("unused relay slot")),
            (other, _, _) => Err(WireError::BadOptionTag(other)),
        }
    }

    fn text(&mut self, context: &'static str) -> Result<&'a str, WireError> {
        let len = self.u32(context)? as usize;
        let (text, rest) = self
            .rest
            .split_at_checked(len)
            .ok_or(WireError::Truncated { context })?;
        self.rest = rest;
        std::str::from_utf8(text).map_err(|_| WireError::BadField(context))
    }

    /// A message ends where its last field ends.
    fn end(self) -> Result<(), WireError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "frames are read back from an in-memory buffer"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use via_testbed::protocol::{read_frame, write_frame};

    fn requests() -> Vec<Request> {
        vec![
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
                    RelayOption::Transit(RelayId(0), RelayId(u32::MAX)),
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
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Welcome { session: 1 },
            Response::Selected {
                option: RelayOption::Direct,
                admitted: false,
                explored: true,
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
        ]
    }

    fn body_of(req: &Request) -> Vec<u8> {
        let mut body = Vec::new();
        req.encode(&mut body).unwrap();
        body
    }

    fn reply_body_of(resp: &Response) -> Vec<u8> {
        let mut body = Vec::new();
        resp.encode(&mut body).unwrap();
        body
    }

    fn decode(body: &[u8]) -> Result<Request, WireError> {
        Request::decode(body, &mut Vec::new())
    }

    fn option_of((tag, a, b): (u8, u32, u32)) -> RelayOption {
        match tag {
            0 => RelayOption::Direct,
            1 => RelayOption::Bounce(RelayId(a)),
            _ => RelayOption::Transit(RelayId(a), RelayId(b)),
        }
    }

    /// The derives `benchmark/src/layers.rs` prices: they go when it does.
    #[test]
    fn messages_still_roundtrip_as_json_frames() {
        let mut buf = Vec::new();
        for m in &requests() {
            write_frame(&mut buf, m).unwrap();
        }
        for m in &responses() {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &requests() {
            assert_eq!(&read_frame::<Request>(&mut cursor).unwrap(), m);
        }
        for m in &responses() {
            assert_eq!(&read_frame::<Response>(&mut cursor).unwrap(), m);
        }
    }

    #[test]
    fn every_kind_roundtrips_at_its_documented_size() {
        let sizes: Vec<usize> = requests().iter().map(|m| body_of(m).len()).collect();
        assert_eq!(sizes, [2, 38 + 9 * 3, 59, 10, 10]);
        for m in &requests() {
            assert_eq!(&decode(&body_of(m)).unwrap(), m);
        }
        let sizes: Vec<usize> = responses().iter().map(|m| reply_body_of(m).len()).collect();
        assert_eq!(sizes, [10, 21, 10, 6 + 12, 2, 7 + 21]);
        for m in &responses() {
            assert_eq!(&Response::decode(&reply_body_of(m)).unwrap(), m);
        }
    }

    proptest! {
        #[test]
        fn select_roundtrips_any_ids_and_any_candidate_count(
            (session, call_id, t) in (any::<u64>(), any::<u64>(), any::<u64>()),
            (src_key, dst_key) in (any::<u32>(), any::<u32>()),
            raw in prop::collection::vec((0u8..3, any::<u32>(), any::<u32>()), 0..200),
        ) {
            let req = Request::Select {
                session,
                call_id,
                t: SimTime(t),
                src_key,
                dst_key,
                candidates: raw.into_iter().map(option_of).collect(),
            };
            let body = body_of(&req);
            let Request::Select { candidates, .. } = &req else { unreachable!() };
            prop_assert_eq!(body.len(), 38 + 9 * candidates.len());
            let mut borrowed = Vec::new();
            encode_select(&mut borrowed, session, call_id, SimTime(t), src_key, dst_key, candidates)
                .unwrap();
            prop_assert_eq!(&borrowed, &body);
            prop_assert_eq!(decode(&body).unwrap(), req);
        }

        #[test]
        fn report_carries_every_f64_bit_pattern(
            (session, t, src_key, dst_key) in (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
            option in (0u8..3, any::<u32>(), any::<u32>()),
            bits in (any::<u64>(), any::<u64>(), any::<u64>()),
        ) {
            let metrics = PathMetrics {
                rtt_ms: f64::from_bits(bits.0),
                loss_pct: f64::from_bits(bits.1),
                jitter_ms: f64::from_bits(bits.2),
            };
            let req = Request::Report {
                session,
                t: SimTime(t),
                src_key,
                dst_key,
                option: option_of(option),
                metrics,
            };
            let body = body_of(&req);
            prop_assert_eq!(body.len(), 59);
            // NaN != NaN, so the metrics are compared as the bits they are.
            let Request::Report { session: s, t: at, src_key: a, dst_key: b, option: o, metrics: m } =
                decode(&body).unwrap()
            else {
                panic!("a Report decoded as another kind");
            };
            prop_assert_eq!((s, at, a, b, o), (session, SimTime(t), src_key, dst_key, option_of(option)));
            prop_assert_eq!(
                (m.rtt_ms.to_bits(), m.loss_pct.to_bits(), m.jitter_ms.to_bits()),
                bits
            );
        }

        #[test]
        fn responses_roundtrip(
            (session, window) in (any::<u64>(), any::<u64>()),
            option in (0u8..3, any::<u32>(), any::<u32>()),
            (admitted, explored) in (any::<bool>(), any::<bool>()),
            (kind, text) in (0u8..3, prop::collection::vec(any::<u32>(), 0..40)),
        ) {
            // Any scalar values at all, surrogates aside: multi-byte UTF-8.
            let text: String = text.into_iter().filter_map(char::from_u32).collect();
            let kind = [
                ErrorKind::UnknownSession,
                ErrorKind::BadRequest,
                ErrorKind::ReplyTooLarge,
            ][usize::from(kind)];
            for resp in [
                Response::Welcome { session },
                Response::Selected { option: option_of(option), admitted, explored, window },
                Response::Reported { window },
                Response::Snapshot { json: text.clone() },
                Response::Bye,
                Response::Error { kind, detail: text.clone() },
            ] {
                prop_assert_eq!(Response::decode(&reply_body_of(&resp)).unwrap(), resp);
            }
        }
    }

    #[test]
    fn every_strict_prefix_of_a_valid_body_is_truncated() {
        let truncated = |body: &[u8], decode: &dyn Fn(&[u8]) -> Option<WireError>| {
            for cut in 0..body.len() {
                let err = decode(&body[..cut]);
                assert!(
                    matches!(err, Some(WireError::Truncated { .. })),
                    "{cut} of {} bytes: {err:?}",
                    body.len()
                );
            }
        };
        for req in &requests() {
            truncated(&body_of(req), &|b| decode(b).err());
        }
        for resp in &responses() {
            truncated(&reply_body_of(resp), &|b| Response::decode(b).err());
        }
    }

    /// Flipped bits land on versions, kinds, tags, counts and lengths. None
    /// may panic, and since every value has one encoding, whatever still
    /// decodes must encode back to exactly the flipped bytes — no byte of a
    /// body is ignored.
    #[test]
    fn every_single_bit_flip_is_ok_or_a_typed_error() {
        let mut scratch = Vec::new();
        for req in &requests()[1..3] {
            let body = body_of(req);
            let (mut accepted, mut refused) = (0, 0);
            for bit in 0..body.len() * 8 {
                let mut flipped = body.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                match Request::decode(&flipped, &mut scratch) {
                    Ok(other) => {
                        accepted += 1;
                        assert_eq!(body_of(&other), flipped, "bit {bit}");
                    }
                    Err(_) => refused += 1,
                }
            }
            assert!(accepted > 0 && refused > 0, "{accepted} / {refused}");
        }
    }

    #[test]
    fn a_hostile_candidate_count_reserves_nothing() {
        let mut body = body_of(&Request::Select {
            session: 1,
            call_id: 2,
            t: SimTime(3),
            src_key: 4,
            dst_key: 5,
            candidates: Vec::new(),
        });
        body[34..38].copy_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&[0, 0]);
        assert_eq!(body.len(), 40);
        let mut scratch: Vec<RelayOption> = Vec::with_capacity(4);
        let capacity = scratch.capacity();
        assert_eq!(
            Request::decode(&body, &mut scratch),
            Err(WireError::Truncated {
                context: "candidates"
            })
        );
        assert_eq!(scratch.capacity(), capacity);
        // One option short is the same refusal, at any count.
        body[34..38].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            Request::decode(&body, &mut scratch),
            Err(WireError::Truncated { .. })
        ));
        assert_eq!(scratch.capacity(), capacity);
    }

    #[test]
    fn the_scratch_allocation_travels_through_a_select_and_back() {
        let body = body_of(&requests()[1]);
        let mut scratch: Vec<RelayOption> = Vec::with_capacity(64);
        let at = scratch.as_ptr();
        let Request::Select { candidates, .. } = Request::decode(&body, &mut scratch).unwrap()
        else {
            panic!("a Select decoded as another kind");
        };
        assert_eq!((candidates.as_ptr(), candidates.len()), (at, 3));
        assert_eq!(scratch.capacity(), 0);
    }

    #[test]
    fn malformed_bodies_get_their_own_errors() {
        let select = body_of(&requests()[1]);
        let report = body_of(&requests()[2]);
        let with = |body: &[u8], at: usize, byte: u8| {
            let mut body = body.to_vec();
            body[at] = byte;
            body
        };

        for body in [&select, &report] {
            let mut longer = body.clone();
            longer.push(0);
            assert_eq!(decode(&longer), Err(WireError::Trailing(1)));
            assert_eq!(decode(&with(body, 0, 2)), Err(WireError::BadVersion(2)));
            assert_eq!(decode(&with(body, 0, 0)), Err(WireError::BadVersion(0)));
        }
        // A reply's kind is not a request's, and the other way round.
        assert_eq!(
            decode(&with(&select, 1, 0x82)),
            Err(WireError::BadKind(0x82))
        );
        assert_eq!(decode(&with(&select, 1, 0)), Err(WireError::BadKind(0)));
        assert_eq!(
            Response::decode(&select),
            Err(WireError::BadKind(REQ_SELECT))
        );

        // The report's option sits behind session, time and the two keys.
        assert_eq!(
            decode(&with(&report, 26, 3)),
            Err(WireError::BadOptionTag(3))
        );
        assert_eq!(
            decode(&with(&report, 26, OPT_DIRECT)),
            Err(WireError::BadField("unused relay slot")),
            "Direct with a relay id behind it"
        );
        assert_eq!(
            decode(&with(&report, 31, 1)),
            Err(WireError::BadField("unused relay slot")),
            "Bounce with a second relay id"
        );

        let selected = reply_body_of(&responses()[1]);
        assert_eq!(
            Response::decode(&with(&selected, 11, 2)),
            Err(WireError::BadField("admitted flag"))
        );
        let error = reply_body_of(&responses()[5]);
        assert_eq!(
            Response::decode(&with(&error, 2, 4)),
            Err(WireError::BadErrorKind(4))
        );
        // Kind 1 was `SessionExhausted`: retired, and not reused.
        assert_eq!(
            Response::decode(&with(&error, 2, 1)),
            Err(WireError::BadErrorKind(1))
        );
        assert_eq!(
            Response::decode(&with(&error, 7, 0xFF)),
            Err(WireError::BadField("error detail")),
            "text that is not UTF-8"
        );
        // A text length is checked against the bytes behind it like a count.
        let mut hostile = error.clone();
        hostile[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Response::decode(&hostile),
            Err(WireError::Truncated {
                context: "error detail"
            })
        );
    }
}
