//! The socket plane: accept loop and per-connection request handlers.
//!
//! One thread accepts connections (deadline-polled so shutdown is always
//! observed within a poll slice); each connection gets a handler thread
//! reading frames through [`FrameConn::next_body`] — never an unbounded
//! socket wait, per this crate's `clippy.toml` socket rule — and decoding them
//! with the binary codec in [`crate::wire`]. A connection owns one candidate
//! `Vec` and, inside its `FrameConn`, one receive and one send buffer; a
//! steady-state `Select` or `Report` allocates nothing here. A session is its
//! connection: the handler holds the id it was issued, a request claiming
//! any other id — stale, another connection's, or never issued — gets a
//! typed [`ErrorKind::UnknownSession`], and the session ends with the
//! connection, whatever the reason. Checking a request's session takes no
//! lock.

// Bytes and ids from outside the program enter here: no index may panic.
#![deny(clippy::indexing_slicing)]

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_testbed::protocol::{accept_deadline, FrameConn, FrameError, MAX_FRAME};

use crate::controller::Controller;
use crate::wire::{ErrorKind, Request, Response, WireError};

/// How long the accept loop and handler reads block before re-checking the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(100);

/// Sanity ceiling on a reported RTT or jitter, milliseconds: a minute is far
/// beyond anything a call can measure, and small enough that no stream of
/// reports can overflow an accumulator.
const MAX_REPORTED_MS: f64 = 60_000.0;

/// A running server: accept-loop thread plus shutdown plumbing.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    controller: Arc<Controller>,
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The controller this server fronts.
    pub fn controller(&self) -> &Arc<Controller> {
        &self.controller
    }

    /// True once a `Shutdown` request (or [`ServerHandle::stop`]) was seen.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown and joins the accept loop (which joins every
    /// handler). Idempotent with a client-initiated `Shutdown`.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Blocks until the accept loop exits (a client sent `Shutdown`).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Binds a loopback listener on an ephemeral port and starts serving
/// `controller`. Returns immediately; use the handle to reach the address
/// and to stop or wait.
///
/// # Errors
/// Propagates bind failures.
pub fn serve(controller: Arc<Controller>) -> io::Result<ServerHandle> {
    serve_on(controller, "127.0.0.1:0".parse().map_err(io::Error::other)?)
}

/// [`serve`] on an explicit address.
///
/// # Errors
/// Propagates bind failures.
pub fn serve_on(controller: Arc<Controller>, addr: SocketAddr) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept = {
        let controller = Arc::clone(&controller);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || accept_loop(&listener, &controller, &shutdown))
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        accept: Some(accept),
        controller,
    })
}

fn accept_loop(listener: &TcpListener, controller: &Arc<Controller>, shutdown: &Arc<AtomicBool>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        match accept_deadline(listener, Instant::now() + POLL) {
            Ok(Some((stream, _peer))) => {
                let controller = Arc::clone(controller);
                let shutdown = Arc::clone(shutdown);
                handlers.push(std::thread::spawn(move || {
                    handle_conn(stream, &controller, &shutdown);
                }));
            }
            Ok(None) => {} // poll slice elapsed; re-check shutdown
            Err(_) => break,
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Runs one connection: `Hello` handshake, then a request loop until the
/// peer disconnects, errors, or the server shuts down. The session opened
/// here is closed on every exit path.
fn handle_conn(stream: std::net::TcpStream, controller: &Controller, shutdown: &AtomicBool) {
    let Ok(mut conn) = FrameConn::new(stream) else {
        return;
    };
    // Every `Select` of this connection decodes its candidates into this one
    // allocation.
    let mut candidates = Vec::new();
    let Some(session) = handshake(&mut conn, &mut candidates, controller, shutdown) else {
        return;
    };
    while let Some(req) = next_request(&mut conn, &mut candidates, shutdown) {
        let resp = match &req {
            Ok(req) => dispatch(controller, session, req, shutdown),
            Err(e) => bad_request(e.to_string()),
        };
        if let Ok(Request::Select { candidates: c, .. }) = req {
            candidates = c; // the decoder moved the allocation out; keep it
        }
        if send(&mut conn, &resp).is_err() || matches!(resp, Response::Bye) {
            break;
        }
    }
    controller.end_session();
}

/// The next well-framed request, or `None` when the connection is over: the
/// peer is gone, the stream can no longer be trusted (an I/O error, an
/// oversized length prefix), or the server is shutting down. `Some(Err(_))`
/// is a frame whose boundary held but whose body is not a request: the
/// stream is still in step, so the caller answers it and carries on.
fn next_request(
    conn: &mut FrameConn,
    candidates: &mut Vec<RelayOption>,
    shutdown: &AtomicBool,
) -> Option<Result<Request, WireError>> {
    loop {
        match conn.next_body(Instant::now() + POLL) {
            Ok(body) => return Some(Request::decode(body, candidates)),
            Err(FrameError::Timeout) if !shutdown.load(Ordering::Acquire) => {}
            Err(_) => return None,
        }
    }
}

fn send(conn: &mut FrameConn, resp: &Response) -> Result<(), FrameError> {
    let sent = conn.write_body(|out| resp.encode(out));
    let Err(FrameError::Oversized(n)) = sent else {
        return sent;
    };
    // Refused before a byte went out, so the stream is in step: the peer gets
    // a typed error in the reply's place and the connection serves on.
    let kind = ErrorKind::ReplyTooLarge;
    let detail = format!("reply of {n} bytes exceeds the {MAX_FRAME}-byte frame limit");
    conn.write_body(|out| Response::Error { kind, detail }.encode(out))
}

fn bad_request(detail: String) -> Response {
    Response::Error {
        kind: ErrorKind::BadRequest,
        detail,
    }
}

/// Reads the opening `Hello` and issues the connection its session; any
/// other first frame is a `BadRequest`. The id is the connection's own from
/// here on: it is checked against nothing but the id each request claims,
/// and ended only when the connection ends.
fn handshake(
    conn: &mut FrameConn,
    candidates: &mut Vec<RelayOption>,
    controller: &Controller,
    shutdown: &AtomicBool,
) -> Option<u64> {
    let refusal = match next_request(conn, candidates, shutdown)? {
        Ok(Request::Hello) => {
            let session = controller.open_session();
            if send(conn, &Response::Welcome { session }).is_err() {
                controller.end_session();
                return None;
            }
            return Some(session);
        }
        Ok(_) => bad_request("first frame must be Hello".to_string()),
        Err(e) => bad_request(e.to_string()),
    };
    let _ = send(conn, &refusal);
    None
}

/// A connection's session is live for as long as the connection runs, and
/// nothing else can end it, so the claimed id needs only to be this one.
fn check_session(mine: u64, claimed: u64) -> Result<(), Response> {
    if claimed == mine {
        Ok(())
    } else {
        Err(Response::Error {
            kind: ErrorKind::UnknownSession,
            detail: format!("session {claimed} is not live on this connection"),
        })
    }
}

/// A remote report's metrics are unvalidated network input (the codec hands
/// over whatever three bit patterns arrived — NaNs and infinities included):
/// anything non-finite, negative or beyond physical range is refused before
/// it can reach a Welford cell or a bandit arm, and counted.
fn check_metrics(controller: &Controller, m: &PathMetrics) -> Result<(), Response> {
    let in_range = (0.0..=MAX_REPORTED_MS).contains(&m.rtt_ms)
        && (0.0..=100.0).contains(&m.loss_pct)
        && (0.0..=MAX_REPORTED_MS).contains(&m.jitter_ms);
    if in_range {
        Ok(())
    } else {
        controller.count_rejected_report();
        Err(bad_request(format!(
            "report metrics out of range: rtt {} ms, loss {} %, jitter {} ms",
            m.rtt_ms, m.loss_pct, m.jitter_ms
        )))
    }
}

/// Relay ids are unvalidated network input too: an option naming a relay
/// outside the fleet ([`Controller::in_fleet`]) is refused with a typed
/// error, whether reported or offered as a candidate.
fn check_option(controller: &Controller, option: RelayOption) -> Result<(), Response> {
    if controller.in_fleet(option) {
        Ok(())
    } else {
        Err(bad_request(format!(
            "{option} names a relay outside the {}-relay fleet",
            controller.n_relays()
        )))
    }
}

fn dispatch(
    controller: &Controller,
    my_session: u64,
    req: &Request,
    shutdown: &AtomicBool,
) -> Response {
    match *req {
        Request::Hello => bad_request("session already open".to_string()),
        Request::Select {
            session,
            call_id,
            t,
            src_key,
            dst_key,
            ref candidates,
        } => match check_session(my_session, session).and_then(|()| {
            candidates
                .iter()
                .try_for_each(|&o| check_option(controller, o))
        }) {
            Err(e) => e,
            Ok(()) => {
                let sel = controller.select(call_id, t, src_key, dst_key, candidates);
                Response::Selected {
                    option: sel.option,
                    admitted: sel.admitted,
                    explored: sel.explored,
                    window: sel.window,
                }
            }
        },
        Request::Report {
            session,
            t,
            src_key,
            dst_key,
            option,
            ref metrics,
        } => match check_session(my_session, session)
            .and_then(|()| check_metrics(controller, metrics))
            .and_then(|()| {
                check_option(controller, option).inspect_err(|_| controller.count_rejected_report())
            }) {
            Err(e) => e,
            Ok(()) => Response::Reported {
                window: controller.report(t, src_key, dst_key, option, metrics),
            },
        },
        Request::Snapshot { session } => match check_session(my_session, session) {
            Err(e) => e,
            Ok(()) => Response::Snapshot {
                json: controller.selection_snapshot_json(),
            },
        },
        Request::Shutdown { session } => match check_session(my_session, session) {
            Err(e) => e,
            Ok(()) => {
                shutdown.store(true, Ordering::Release);
                Response::Bye
            }
        },
    }
}
