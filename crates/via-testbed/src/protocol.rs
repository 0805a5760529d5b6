//! Control-plane protocol between testbed clients and the controller.
//!
//! The prototype of §5.5 runs a central controller (the paper deployed it on
//! Azure) that instrumented clients contact over TCP. Messages are JSON
//! objects framed with a 4-byte big-endian length prefix — simple, debuggable
//! with standard tooling, and sufficient for a control plane that exchanges
//! one round-trip per call.
//!
//! Two things live here, and only the first is JSON:
//!
//! * the testbed's message set ([`ClientMsg`] / [`ControllerMsg`]): one cold
//!   round trip per probe call, carrying names and addresses as strings;
//! * the framing itself — the length prefix, [`MAX_FRAME`], and
//!   [`FrameConn`], the deadline-bounded connection every framed socket in the
//!   workspace reads and writes through. [`FrameConn::next_body`] and
//!   [`FrameConn::write_body`] move opaque bodies (`via-server` puts its
//!   binary select/report encoding in them); [`FrameConn::read_deadline`] and
//!   [`FrameConn::write`] are the JSON wrappers over those two that the
//!   testbed uses. A frame's prefix is checked against [`MAX_FRAME`] in one
//!   place on the read side (`body_len`) and one on the write side
//!   (`build_frame`).

// Bytes and ids from outside the program enter here: no index may panic.
#![deny(clippy::indexing_slicing)]

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};
use via_model::metrics::PathMetrics;

/// Maximum accepted control frame, bytes (a Report is < 1 KiB; anything
/// larger indicates a corrupt or hostile stream).
pub const MAX_FRAME: u32 = 256 * 1024;

/// One relay option in the testbed: an index into the harness's relay list.
/// (The testbed omits the direct path, as the paper's §5.5 experiment does.)
pub type RelayIndex = u16;

/// Client → controller messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Announce this client and the UDP port it receives probes on.
    Register {
        /// Client name (unique per testbed).
        name: String,
        /// UDP port the client's media socket is bound to.
        udp_port: u16,
    },
    /// Measured metrics of one probe call.
    Report {
        /// Caller name.
        caller: String,
        /// Callee name.
        callee: String,
        /// Relay used.
        relay: RelayIndex,
        /// Round number (back-to-back sweep index).
        round: u32,
        /// Measured metrics (RTT/loss/jitter over the probe stream).
        metrics: PathMetrics,
        /// True when the relay leg produced no echoes and the metrics were
        /// measured over the direct fallback path instead.
        degraded: bool,
    },
    /// The client is done with its assignments.
    Done {
        /// Client name.
        name: String,
    },
}

/// Controller → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerMsg {
    /// Registration accepted.
    Welcome,
    /// Make one probe call.
    Call {
        /// Callee's UDP address (as string, e.g. "127.0.0.1:4000").
        callee_addr: String,
        /// Relay UDP address to send through.
        relay_addr: String,
        /// Relay index (for reporting).
        relay: RelayIndex,
        /// Session id pre-registered at the relay.
        session: u16,
        /// Round number.
        round: u32,
        /// Number of probe packets.
        probes: u16,
        /// Inter-probe gap in milliseconds.
        gap_ms: u64,
        /// Callee name (for reporting).
        callee: String,
    },
    /// No more work; disconnect.
    Finished,
}

/// Errors from frame I/O.
#[derive(Debug)]
pub enum FrameError {
    /// Socket failure.
    Io(io::Error),
    /// Frame exceeded [`MAX_FRAME`].
    Oversized(u32),
    /// JSON decode failure.
    Decode(String),
    /// A read deadline elapsed before a complete frame arrived. Partial
    /// bytes stay buffered in the [`FrameConn`]; the stream is not desynced.
    Timeout,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::Decode(e) => write!(f, "frame decode error: {e}"),
            FrameError::Timeout => write!(f, "frame read deadline elapsed"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Bytes of length prefix in front of every frame body.
const PREFIX: usize = 4;

/// Builds one frame in `frame` (cleared first, capacity kept): the prefix,
/// then whatever body `fill` appends. The write-side [`MAX_FRAME`] check.
///
/// The result goes out in one `write_all`: two separate writes let Nagle
/// hold the body segment behind the prefix's delayed ACK, turning every RPC
/// round trip into tens of milliseconds on an otherwise-idle connection.
fn build_frame(
    frame: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<(), FrameError>,
) -> Result<(), FrameError> {
    frame.clear();
    frame.extend_from_slice(&[0; PREFIX]);
    fill(frame)?;
    let len = u32::try_from(frame.len().saturating_sub(PREFIX))
        .map_err(|_| FrameError::Oversized(u32::MAX))?;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    // `fill` only appends, so the prefix it was given is still there.
    if let Some(prefix) = frame.first_chunk_mut() {
        *prefix = len.to_be_bytes();
    }
    Ok(())
}

/// The one read-side length check: a frame's prefix bytes to the length of
/// the body behind them. The prefix is untrusted input, so nothing is
/// reserved, indexed or waited for on its say-so before it has passed here.
fn body_len(prefix: [u8; PREFIX]) -> Result<usize, FrameError> {
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    Ok(len as usize)
}

fn json_err(e: serde_json::Error) -> FrameError {
    FrameError::Decode(e.to_string())
}

/// Writes one length-prefixed JSON frame.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), FrameError> {
    let body = serde_json::to_vec(msg).map_err(json_err)?;
    let mut frame = Vec::with_capacity(PREFIX + body.len());
    build_frame(&mut frame, |out| {
        out.extend_from_slice(&body);
        Ok(())
    })?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read granularity for frame bodies: the buffer grows by at most this much
/// per successful read, so allocation tracks bytes actually received.
const BODY_CHUNK: usize = 4096;

/// Reads one length-prefixed JSON frame, with no deadline: for in-memory
/// readers and tests. Sockets read through [`FrameConn`].
pub fn read_frame<T: for<'de> Deserialize<'de>>(r: &mut impl Read) -> Result<T, FrameError> {
    let mut body = Vec::new();
    read_body(r, &mut body)?;
    serde_json::from_slice(&body).map_err(json_err)
}

/// Reads one frame body into `body` (cleared first, capacity kept).
///
/// The length prefix is untrusted input: a peer that writes 4 bytes claiming
/// a 256 KiB frame must not be able to force that allocation before sending
/// a single body byte. The buffer therefore grows incrementally — at most
/// [`BODY_CHUNK`] per read that actually delivered data — so memory held is
/// always proportional to bytes received, never to the claimed length.
///
/// # Errors
/// [`FrameError::Oversized`] when the prefix exceeds [`MAX_FRAME`]; an
/// `UnexpectedEof` I/O error when the peer closes mid-frame.
fn read_body(r: &mut impl Read, body: &mut Vec<u8>) -> Result<(), FrameError> {
    let mut prefix = [0u8; PREFIX];
    r.read_exact(&mut prefix)?;
    let len = body_len(prefix)?;
    body.clear();
    let mut chunk = [0u8; BODY_CHUNK];
    while body.len() < len {
        let want = (len - body.len()).min(BODY_CHUNK);
        let n = r.read(chunk.get_mut(..want).unwrap_or_default())?;
        if n == 0 {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the stream mid-frame",
            )));
        }
        body.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
    Ok(())
}

/// How long a write may block before the connection is declared dead.
/// Control frames are < 1 KiB against loopback-sized socket buffers, so any
/// write that stalls this long means the peer is gone.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Poll interval for [`accept_deadline`], and the cap on one blocking read
/// inside [`FrameConn::next_body`] so the stop conditions stay live.
const POLL_SLICE: Duration = Duration::from_millis(50);

/// Connects to `addr` with a bounded timeout instead of the OS default
/// (which can be minutes).
///
/// # Errors
/// Propagates the connect failure, including `TimedOut`.
pub fn connect_deadline(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    TcpStream::connect_timeout(&addr, timeout)
}

/// Accepts one connection before `deadline`, or returns `Ok(None)` when the
/// deadline passes first. The listener is polled in non-blocking mode: a
/// plain `accept` has no timeout and can wedge the harness forever on a
/// client that never arrives.
///
/// # Errors
/// Propagates listener I/O failures.
#[expect(
    clippy::disallowed_methods,
    reason = "the listener is non-blocking, so `accept` returns `WouldBlock` at once and the loop checks the deadline"
)]
pub fn accept_deadline(
    listener: &TcpListener,
    deadline: Instant,
) -> io::Result<Option<(TcpStream, SocketAddr)>> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                stream.set_nonblocking(false)?;
                return Ok(Some((stream, peer)));
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

/// A control connection with deadline-bounded, desync-safe frame reads: the
/// one framing path under the testbed's JSON messages and `via-server`'s
/// binary ones.
///
/// Plain `read_exact` with a socket timeout loses any partially read frame
/// when the timeout fires, desynchronizing the length-prefixed stream.
/// `FrameConn` instead accumulates bytes in an internal buffer and hands a
/// frame out only once it is complete, so a deadline can fire mid-frame and
/// the next call resumes exactly where the stream left off. A frame is
/// consumed when it is handed out, whether or not its body then decodes:
/// the boundary held, so the stream stays in step.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    /// Bytes received; `buf[consumed..]` has not been handed out yet.
    buf: Vec<u8>,
    /// Cursor past the last frame handed out. Frames are not shifted out of
    /// `buf` one by one: the consumed part is dropped once, before the next
    /// socket read.
    consumed: usize,
    /// The outgoing frame, rebuilt in place for every write.
    out: Vec<u8>,
    /// The read timeout currently installed on the socket.
    read_timeout: Option<Duration>,
}

impl FrameConn {
    /// Wraps a connected stream, installing a bounded write timeout.
    ///
    /// # Errors
    /// Propagates socket-option failures.
    pub fn new(stream: TcpStream) -> io::Result<FrameConn> {
        // Control frames are small request/response pairs; Nagle coalescing
        // only adds delayed-ACK latency to them.
        stream.set_nodelay(true)?;
        #[expect(clippy::disallowed_methods, reason = "a bounded write timeout")]
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(FrameConn {
            stream,
            buf: Vec::new(),
            consumed: 0,
            out: Vec::new(),
            read_timeout: None,
        })
    }

    /// Writes one frame whose body `fill` appends to the buffer it is given —
    /// append only: the frame's prefix is already in it (bounded by the
    /// connection's write timeout).
    ///
    /// # Errors
    /// Whatever `fill` returns, [`FrameError::Oversized`] for a body beyond
    /// [`MAX_FRAME`], and socket failures.
    pub fn write_body(
        &mut self,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<(), FrameError>,
    ) -> Result<(), FrameError> {
        build_frame(&mut self.out, fill)?;
        self.stream.write_all(&self.out)?;
        Ok(())
    }

    /// Writes one JSON frame.
    ///
    /// # Errors
    /// As [`FrameConn::write_body`].
    pub fn write<T: Serialize>(&mut self, msg: &T) -> Result<(), FrameError> {
        self.write_body(|body| serde_json::to_writer(body, msg).map_err(json_err))
    }

    /// The body of the next frame, waiting at most until `deadline`. The
    /// slice borrows the connection's buffer and is good until the next
    /// call.
    ///
    /// # Errors
    /// [`FrameError::Timeout`] when the deadline elapses first (any partial
    /// frame stays buffered for the next call); [`FrameError::Oversized`]
    /// for a prefix beyond [`MAX_FRAME`], after which the stream cannot be
    /// trusted; otherwise I/O failures.
    pub fn next_body(&mut self, deadline: Instant) -> Result<&[u8], FrameError> {
        loop {
            if let Some(end) = self.frame_end()? {
                let start = self.consumed + PREFIX;
                self.consumed = end;
                return Ok(self.buf.get(start..end).unwrap_or_default());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(FrameError::Timeout);
            }
            let wait = deadline
                .saturating_duration_since(now)
                .min(POLL_SLICE)
                .max(Duration::from_millis(1));
            // Far from its deadline every read waits one `POLL_SLICE`, so the
            // option is set once per connection, not once per read.
            if self.read_timeout != Some(wait) {
                #[expect(clippy::disallowed_methods, reason = "`wait` is at most `POLL_SLICE`")]
                self.stream.set_read_timeout(Some(wait))?;
                self.read_timeout = Some(wait);
            }
            self.buf.drain(..self.consumed);
            self.consumed = 0;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the control connection",
                    )))
                }
                Ok(n) => self
                    .buf
                    .extend_from_slice(chunk.get(..n).unwrap_or_default()),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Reads one JSON frame, waiting at most until `deadline`.
    ///
    /// # Errors
    /// As [`FrameConn::next_body`], plus [`FrameError::Decode`].
    pub fn read_deadline<T: for<'de> Deserialize<'de>>(
        &mut self,
        deadline: Instant,
    ) -> Result<T, FrameError> {
        serde_json::from_slice(self.next_body(deadline)?).map_err(json_err)
    }

    /// Where in `buf` the first frame not yet handed out ends, once all of
    /// it has arrived.
    fn frame_end(&self) -> Result<Option<usize>, FrameError> {
        let Some((prefix, rest)) = self
            .buf
            .get(self.consumed..)
            .and_then(|pending| pending.split_first_chunk::<PREFIX>())
        else {
            return Ok(None);
        };
        let len = body_len(*prefix)?;
        Ok((rest.len() >= len).then_some(self.consumed + PREFIX + len))
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test peers block on loopback or in-memory buffers; the test runner is the deadline"
)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_client_messages() {
        let msgs = vec![
            ClientMsg::Register {
                name: "sg-1".into(),
                udp_port: 4001,
            },
            ClientMsg::Report {
                caller: "sg-1".into(),
                callee: "uk-1".into(),
                relay: 3,
                round: 2,
                metrics: PathMetrics::new(123.0, 0.5, 4.2),
                degraded: false,
            },
            ClientMsg::Done {
                name: "sg-1".into(),
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for m in &msgs {
            let back: ClientMsg = read_frame(&mut cur).unwrap();
            assert_eq!(&back, m);
        }
    }

    #[test]
    fn roundtrip_controller_messages() {
        let m = ControllerMsg::Call {
            callee_addr: "127.0.0.1:4002".into(),
            relay_addr: "127.0.0.1:5001".into(),
            relay: 1,
            session: 9,
            round: 0,
            probes: 50,
            gap_ms: 20,
            callee: "uk-1".into(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &m).unwrap();
        let back: ControllerMsg = read_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn oversized_frame_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let err = read_frame::<ClientMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(_)));
    }

    /// A reader that hands out one byte per `read` call: the worst case for
    /// the incremental body path (maximum number of grow steps).
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn body_buffer_grows_with_received_bytes_not_the_claimed_length() {
        // A hostile 4-byte prefix claiming MAX_FRAME with no body: the
        // buffer must not balloon to the claimed size before body bytes
        // arrive. The EOF surfaces as an I/O error and the allocation stays
        // bounded by what was actually received (zero bytes here).
        let mut r = Cursor::new(MAX_FRAME.to_be_bytes().to_vec());
        let mut body = Vec::new();
        let err = read_body(&mut r, &mut body).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)));
        assert_eq!(body.len(), 0);
        assert!(
            body.capacity() < MAX_FRAME as usize / 2,
            "claimed length must not drive allocation (capacity {})",
            body.capacity()
        );
    }

    #[test]
    fn read_body_reassembles_trickled_frames_and_reuses_the_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &ControllerMsg::Welcome).unwrap();
        write_frame(&mut wire, &ControllerMsg::Finished).unwrap();
        let mut r = Trickle { data: wire, pos: 0 };
        let mut body = Vec::new();
        read_body(&mut r, &mut body).unwrap();
        let a: ControllerMsg = serde_json::from_slice(&body).unwrap();
        assert_eq!(a, ControllerMsg::Welcome);
        let cap_after_first = body.capacity();
        read_body(&mut r, &mut body).unwrap();
        let b: ControllerMsg = serde_json::from_slice(&body).unwrap();
        assert_eq!(b, ControllerMsg::Finished);
        assert!(
            body.capacity() >= cap_after_first.min(body.len()),
            "the body buffer is reused across frames"
        );
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ControllerMsg::Welcome).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame::<ControllerMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)));
    }

    #[test]
    fn garbage_is_decode_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"{{{");
        let err = read_frame::<ControllerMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Decode(_)));
    }

    #[test]
    fn accept_deadline_expires_without_a_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let t0 = Instant::now();
        let got = accept_deadline(&listener, t0 + Duration::from_millis(30)).unwrap();
        assert!(got.is_none());
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn connect_deadline_fails_fast_on_dead_port() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let t0 = Instant::now();
        let err = connect_deadline(addr, Duration::from_millis(500));
        assert!(err.is_err());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    /// The core desync-safety property: a deadline firing mid-frame must not
    /// lose the partial bytes; the completed frame decodes on a later call.
    #[test]
    fn frame_conn_survives_mid_frame_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut wire = Vec::new();
            write_frame(&mut wire, &ControllerMsg::Welcome).unwrap();
            // First half now, second half after the reader's deadline fires.
            let half = wire.len() / 2;
            s.write_all(&wire[..half]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(150));
            s.write_all(&wire[half..]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(200));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream).unwrap();
        let err = conn
            .read_deadline::<ControllerMsg>(Instant::now() + Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, FrameError::Timeout));
        let msg: ControllerMsg = conn
            .read_deadline(Instant::now() + Duration::from_secs(2))
            .unwrap();
        assert_eq!(msg, ControllerMsg::Welcome);
        // The first call ended on a shortened slice; the second, far from its
        // deadline, must have put the full one back — on the socket, not just
        // in the remembered copy (the kernel rounds it up to its tick).
        assert_eq!(conn.read_timeout, Some(POLL_SLICE));
        assert!(conn.stream.read_timeout().unwrap() >= Some(POLL_SLICE));
        writer.join().unwrap();
    }

    #[test]
    fn frame_conn_decodes_back_to_back_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(&mut s, &ControllerMsg::Welcome).unwrap();
            write_frame(&mut s, &ControllerMsg::Finished).unwrap();
            std::thread::sleep(Duration::from_millis(100));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        let a: ControllerMsg = conn.read_deadline(deadline).unwrap();
        let b: ControllerMsg = conn.read_deadline(deadline).unwrap();
        assert_eq!(a, ControllerMsg::Welcome);
        assert_eq!(b, ControllerMsg::Finished);
        writer.join().unwrap();
    }

    fn framed(bodies: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for body in bodies {
            wire.extend_from_slice(&u32::try_from(body.len()).unwrap().to_be_bytes());
            wire.extend_from_slice(body);
        }
        wire
    }

    /// The cursor path: frames that arrived in one read are handed out one
    /// by one without touching the socket, and a frame split across two
    /// writes *behind* consumed frames is reassembled from the right offset.
    #[test]
    fn frame_conn_hands_out_batched_frames_then_a_split_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (consumed_tx, consumed_rx) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let wire = framed(&[b"one", b"", b"three", b"the split frame"]);
            let cut = wire.len() - 6;
            s.write_all(&wire[..cut]).unwrap();
            // The rest only once the reader has consumed what is complete.
            consumed_rx.recv().unwrap();
            s.write_all(&wire[cut..]).unwrap();
            s
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        assert_eq!(conn.next_body(deadline).unwrap(), b"one");
        assert_eq!(conn.next_body(deadline).unwrap(), b"");
        assert_eq!(conn.next_body(deadline).unwrap(), b"three");
        assert!(conn.consumed > 0, "consumed frames stay put until a read");
        let short = Instant::now() + Duration::from_millis(20);
        assert!(matches!(conn.next_body(short), Err(FrameError::Timeout)));
        consumed_tx.send(()).unwrap();
        assert_eq!(conn.next_body(deadline).unwrap(), b"the split frame");
        assert!(conn.buf.len() <= 4 + b"the split frame".len());
        drop(writer.join().unwrap());
    }

    /// A frame is consumed when it is handed out: a body that is not a
    /// message costs that frame, and the next one is read from its own
    /// boundary. Only a bad *prefix* ends the stream.
    #[test]
    fn frame_conn_steps_past_an_undecodable_body_but_not_an_oversized_prefix() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&framed(&[b"{{{"])).unwrap();
            write_frame(&mut s, &ControllerMsg::Finished).unwrap();
            s.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
            s
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = conn.read_deadline::<ControllerMsg>(deadline).unwrap_err();
        assert!(matches!(err, FrameError::Decode(_)), "{err}");
        let next: ControllerMsg = conn.read_deadline(deadline).unwrap();
        assert_eq!(next, ControllerMsg::Finished);
        for _ in 0..2 {
            let err = conn.next_body(deadline).unwrap_err();
            assert!(matches!(err, FrameError::Oversized(n) if n == MAX_FRAME + 1));
        }
        drop(writer.join().unwrap());
    }

    #[test]
    fn write_body_refuses_a_body_beyond_max_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || listener.accept().unwrap().0);
        let mut conn = FrameConn::new(TcpStream::connect(addr).unwrap()).unwrap();
        let fill = |body: &mut Vec<u8>| {
            body.extend(std::iter::repeat_n(0, MAX_FRAME as usize + 1));
            Ok(())
        };
        let err = conn.write_body(fill).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(n) if n == MAX_FRAME + 1));
        // Nothing of it went out: the next frame is the first the peer sees.
        conn.write(&ControllerMsg::Welcome).unwrap();
        let mut peer = FrameConn::new(peer.join().unwrap()).unwrap();
        let got: ControllerMsg = peer
            .read_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert_eq!(got, ControllerMsg::Welcome);
    }
}
