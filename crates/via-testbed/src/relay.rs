//! The relay forwarder: the testbed's data plane.
//!
//! Each relay is a UDP socket plus a session table. A probe packet carries a
//! session id; the relay looks up the session, determines direction from the
//! source address, applies the leg's emulated impairment (drop or delay) and
//! forwards to the other endpoint through a [`DelayLine`]. This mirrors the
//! paper's production relays, which "were only designed to forward traffic"
//! — all intelligence lives in the controller and clients.

use parking_lot::{Mutex, RwLock};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::impair::{DelayLine, ImpairParams};
use crate::probe;

/// One registered forwarding session between two endpoints.
#[derive(Debug, Clone)]
pub struct Session {
    /// Endpoint A address.
    pub a: SocketAddr,
    /// Endpoint B address.
    pub b: SocketAddr,
    /// Impairment for packets travelling A → B (both legs combined).
    pub a_to_b: ImpairParams,
    /// Impairment for packets travelling B → A.
    pub b_to_a: ImpairParams,
    /// Slow temporal sway: the effective delay/jitter of this session
    /// oscillates by ±`sway_amp` with the given period — the "temporal
    /// fluctuations" that make back-to-back rounds disagree about the best
    /// relay (§5.5). Zero amplitude disables it.
    pub sway_amp: f64,
    /// Sway period, seconds.
    pub sway_period_s: f64,
    /// Sway phase offset, radians.
    pub sway_phase: f64,
}

impl Session {
    /// The sway multiplier at `elapsed_s` seconds since relay start.
    fn sway_factor(&self, elapsed_s: f64) -> f64 {
        if self.sway_amp == 0.0 {
            return 1.0;
        }
        1.0 + self.sway_amp
            * (std::f64::consts::TAU * elapsed_s / self.sway_period_s.max(0.001) + self.sway_phase)
                .sin()
    }
}

/// Handle to a running relay.
pub struct RelayHandle {
    addr: SocketAddr,
    sessions: Arc<RwLock<HashMap<u16, Session>>>,
    stop: Arc<AtomicBool>,
    forwarded: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    /// Behind a mutex so [`RelayHandle::kill`] works from `&self` (the fault
    /// injector holds shared references only).
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl RelayHandle {
    /// Spawns a relay bound to an ephemeral loopback port.
    pub fn spawn(seed: u64) -> std::io::Result<RelayHandle> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        #[expect(clippy::disallowed_methods, reason = "a bounded 50 ms read timeout")]
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let addr = socket.local_addr()?;
        let out = socket.try_clone()?;
        let line = DelayLine::new(out)?;

        let sessions: Arc<RwLock<HashMap<u16, Session>>> = Arc::new(RwLock::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let forwarded = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));

        let t_sessions = Arc::clone(&sessions);
        let t_stop = Arc::clone(&stop);
        let t_forwarded = Arc::clone(&forwarded);
        let t_dropped = Arc::clone(&dropped);

        let thread = std::thread::Builder::new()
            .name(format!("via-relay-{}", addr.port()))
            .spawn(move || {
                let started = std::time::Instant::now();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut buf = [0u8; 2048];
                loop {
                    if t_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let (len, src) = match socket.recv_from(&mut buf) {
                        Ok(x) => x,
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            continue
                        }
                        Err(_) => return,
                    };
                    let Some(session_id) = probe::peek_session(&buf[..len]) else {
                        continue; // not a probe packet; ignore
                    };
                    let session = {
                        let table = t_sessions.read();
                        match table.get(&session_id) {
                            Some(s) => s.clone(),
                            None => continue,
                        }
                    };
                    let (dest, mut leg) = if src == session.a {
                        (session.b, session.a_to_b)
                    } else if src == session.b {
                        (session.a, session.b_to_a)
                    } else {
                        continue; // unknown sender for this session
                    };
                    let sway = session.sway_factor(started.elapsed().as_secs_f64());
                    leg.delay_ms *= sway;
                    leg.jitter_ms *= sway;
                    match leg.sample(&mut rng) {
                        Some(delay) => {
                            let mut payload = buf[..len].to_vec();
                            if let Some((idx, mask)) = leg.sample_corruption(len, &mut rng) {
                                payload[idx] ^= mask;
                            }
                            t_forwarded.fetch_add(1, Ordering::Relaxed);
                            line.send_after(delay, payload, dest);
                        }
                        None => {
                            t_dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })?;

        Ok(RelayHandle {
            addr,
            sessions,
            stop,
            forwarded,
            dropped,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The relay's UDP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers (or replaces) a forwarding session.
    pub fn register_session(&self, id: u16, session: Session) {
        self.sessions.write().insert(id, session);
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Packets dropped by impairment so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Kills the relay: stops and joins the forwarder thread, closing its
    /// socket. In-flight and future probes through this relay vanish — the
    /// fault injector uses this to emulate a relay dying mid-session.
    /// Idempotent; blocks at most one socket-timeout slice (~50 ms).
    pub fn kill(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for RelayHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test sockets set bounded read timeouts"
)]
pub(crate) mod tests {
    use super::*;
    use crate::probe::ProbePacket;

    /// A session with no temporal sway.
    pub(crate) fn steady(
        a: SocketAddr,
        b: SocketAddr,
        a_to_b: ImpairParams,
        b_to_a: ImpairParams,
    ) -> Session {
        Session {
            a,
            b,
            a_to_b,
            b_to_a,
            sway_amp: 0.0,
            sway_period_s: 1.0,
            sway_phase: 0.0,
        }
    }

    fn bind() -> UdpSocket {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s
    }

    #[test]
    fn forwards_between_registered_endpoints() {
        let relay = RelayHandle::spawn(1).unwrap();
        let a = bind();
        let b = bind();
        relay.register_session(
            7,
            steady(
                a.local_addr().unwrap(),
                b.local_addr().unwrap(),
                ImpairParams::CLEAN,
                ImpairParams::CLEAN,
            ),
        );

        let pkt = ProbePacket::probe(7, 3, 42).encode();
        a.send_to(&pkt, relay.addr()).unwrap();

        let mut buf = [0u8; 2048];
        let (n, _) = b.recv_from(&mut buf).unwrap();
        let got = ProbePacket::decode(&buf[..n]).unwrap();
        assert_eq!(got.session, 7);
        assert_eq!(got.rtp.seq, 3);
        assert_eq!(relay.forwarded(), 1);
    }

    #[test]
    fn reverse_direction_reaches_a() {
        let relay = RelayHandle::spawn(2).unwrap();
        let a = bind();
        let b = bind();
        relay.register_session(
            1,
            steady(
                a.local_addr().unwrap(),
                b.local_addr().unwrap(),
                ImpairParams::CLEAN,
                ImpairParams::CLEAN,
            ),
        );
        let pkt = ProbePacket::probe(1, 9, 42).to_echo().encode();
        b.send_to(&pkt, relay.addr()).unwrap();
        let mut buf = [0u8; 2048];
        let (n, _) = a.recv_from(&mut buf).unwrap();
        assert_eq!(ProbePacket::decode(&buf[..n]).unwrap().rtp.seq, 9);
    }

    #[test]
    fn unknown_session_is_dropped_silently() {
        let relay = RelayHandle::spawn(3).unwrap();
        let a = bind();
        let pkt = ProbePacket::probe(99, 0, 1).encode();
        a.send_to(&pkt, relay.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(relay.forwarded(), 0);
        assert_eq!(relay.dropped(), 0);
    }

    #[test]
    fn lossy_session_drops_packets() {
        let relay = RelayHandle::spawn(4).unwrap();
        let a = bind();
        let b = bind();
        relay.register_session(
            5,
            steady(
                a.local_addr().unwrap(),
                b.local_addr().unwrap(),
                ImpairParams {
                    delay_ms: 0.0,
                    jitter_ms: 0.0,
                    loss_pct: 100.0,
                    corrupt_pct: 0.0,
                },
                ImpairParams::CLEAN,
            ),
        );
        for seq in 0..20 {
            let pkt = ProbePacket::probe(5, seq, 1).encode();
            a.send_to(&pkt, relay.addr()).unwrap();
        }
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(relay.forwarded(), 0);
        assert_eq!(relay.dropped(), 20);
    }

    #[test]
    fn corrupting_session_mangles_packets_but_still_delivers() {
        let relay = RelayHandle::spawn(7).unwrap();
        let a = bind();
        let b = bind();
        relay.register_session(
            3,
            steady(
                a.local_addr().unwrap(),
                b.local_addr().unwrap(),
                ImpairParams {
                    delay_ms: 0.0,
                    jitter_ms: 0.0,
                    loss_pct: 0.0,
                    corrupt_pct: 100.0,
                },
                ImpairParams::CLEAN,
            ),
        );
        let mut mangled = 0;
        for seq in 0..30u16 {
            let pkt = ProbePacket::probe(3, seq, 9);
            let wire = pkt.encode();
            a.send_to(&wire, relay.addr()).unwrap();
            let mut buf = [0u8; 2048];
            let (n, _) = b.recv_from(&mut buf).unwrap();
            assert_eq!(n, wire.len(), "corruption must not change length");
            if buf[..n] != wire[..] {
                mangled += 1;
            }
        }
        assert_eq!(mangled, 30, "every packet should differ at 100% corruption");
    }

    #[test]
    fn kill_stops_forwarding_and_is_idempotent() {
        let relay = RelayHandle::spawn(6).unwrap();
        let a = bind();
        let b = bind();
        relay.register_session(
            4,
            steady(
                a.local_addr().unwrap(),
                b.local_addr().unwrap(),
                ImpairParams::CLEAN,
                ImpairParams::CLEAN,
            ),
        );
        a.send_to(&ProbePacket::probe(4, 0, 1).encode(), relay.addr())
            .unwrap();
        let mut buf = [0u8; 2048];
        b.recv_from(&mut buf).unwrap();
        assert!(relay.thread.lock().is_some(), "the forwarder runs");

        relay.kill();
        relay.kill(); // second kill is a no-op
        assert!(relay.thread.lock().is_none(), "kill reaped the forwarder");
        let forwarded_at_death = relay.forwarded();
        // Packets sent after death go nowhere.
        a.send_to(&ProbePacket::probe(4, 1, 1).encode(), relay.addr())
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(relay.forwarded(), forwarded_at_death);
    }
}
