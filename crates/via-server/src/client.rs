//! Blocking client for the select/report plane — the load generator, the
//! CLI soak driver, and the integration tests all speak through this.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::time::SimTime;
use via_testbed::protocol::{connect_deadline, FrameConn, FrameError};

use crate::controller::Selection;
use crate::wire::{encode_select, ErrorKind, Request, Response};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket, framing, decode or deadline failure (a failed connect is
    /// `FrameError::Io`).
    Frame(FrameError),
    /// The controller rejected the request.
    Remote {
        /// Rejection class.
        kind: ErrorKind,
        /// Controller-supplied detail.
        detail: String,
    },
    /// The controller answered with a response of the wrong shape.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "client frame error: {e}"),
            ClientError::Remote { kind, detail } => {
                write!(f, "controller rejected request ({kind:?}): {detail}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One control connection with an open session.
#[derive(Debug)]
pub struct Client {
    conn: FrameConn,
    session: u64,
    timeout: Duration,
}

impl Client {
    /// Connects, performs the `Hello` handshake, and returns a client with
    /// an open session. `timeout` bounds the connect and every RPC.
    ///
    /// # Errors
    /// Connect/frame failures, or a `Remote` error when the controller
    /// refuses the session.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Client, ClientError> {
        let stream = connect_deadline(addr, timeout).map_err(FrameError::Io)?;
        let conn = FrameConn::new(stream).map_err(FrameError::Io)?;
        let mut client = Client {
            conn,
            session: 0,
            timeout,
        };
        match client.request(&Request::Hello)? {
            Response::Welcome { session } => {
                client.session = session;
                Ok(client)
            }
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The session id issued at connect time.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Overrides the session id echoed on subsequent requests. Test hook:
    /// lets a connection impersonate a stale id to exercise the
    /// [`ErrorKind::UnknownSession`] rejection path.
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    /// Asks the controller to select a relay option for one call.
    ///
    /// # Errors
    /// Frame failures or a controller-side rejection.
    pub fn select(
        &mut self,
        call_id: u64,
        t: SimTime,
        src_key: u32,
        dst_key: u32,
        candidates: &[RelayOption],
    ) -> Result<Selection, ClientError> {
        let session = self.session;
        // Encoded straight from the caller's slice: no owned `Request`.
        let fill = |out: &mut Vec<u8>| {
            encode_select(out, session, call_id, t, src_key, dst_key, candidates)
        };
        match self.rpc(fill)? {
            Response::Selected {
                option,
                admitted,
                explored,
                window,
            } => Ok(Selection {
                option,
                admitted,
                explored,
                window,
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Reports the measured outcome of one call. Returns the window index
    /// the report was filed under.
    ///
    /// # Errors
    /// Frame failures or a controller-side rejection.
    pub fn report(
        &mut self,
        t: SimTime,
        src_key: u32,
        dst_key: u32,
        option: RelayOption,
        metrics: PathMetrics,
    ) -> Result<u64, ClientError> {
        let req = Request::Report {
            session: self.session,
            t,
            src_key,
            dst_key,
            option,
            metrics,
        };
        match self.request(&req)? {
            Response::Reported { window } => Ok(window),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the controller's deterministic selection snapshot as JSON.
    ///
    /// # Errors
    /// Frame failures or a controller-side rejection.
    pub fn snapshot(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Snapshot {
            session: self.session,
        })? {
            Response::Snapshot { json } => Ok(json),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Asks the server to shut down, consuming the client.
    ///
    /// # Errors
    /// Frame failures or a controller-side rejection.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown {
            session: self.session,
        })? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.rpc(|out| req.encode(out))
    }

    /// One round trip: the body `fill` writes goes out as one frame from the
    /// connection's reused buffer, and the reply is decoded where it landed.
    fn rpc(
        &mut self,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<(), FrameError>,
    ) -> Result<Response, ClientError> {
        self.conn.write_body(fill)?;
        let body = self.conn.next_body(Instant::now() + self.timeout)?;
        match Response::decode(body).map_err(|e| FrameError::Decode(e.to_string()))? {
            Response::Error { kind, detail } => Err(ClientError::Remote { kind, detail }),
            resp => Ok(resp),
        }
    }
}
