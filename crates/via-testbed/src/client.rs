//! The instrumented client: probe sender, echo responder, and measurement
//! reporting.
//!
//! Mirrors the paper's modified Skype clients (§5.5): each client registers
//! with the controller over TCP, answers probe streams addressed to it (the
//! callee side echoes every probe back through the same relay), and — when
//! instructed to place a call — sends a short RTP probe stream through the
//! designated relay, measures RTT / loss / jitter from the echoes, and
//! reports the triple to the controller.
//!
//! Robustness: every control read carries a deadline, the controller
//! connection is established with a bounded connect timeout, and a call
//! whose relay leg yields *no* echoes (dead or blackholed relay) falls back
//! to probing the callee's direct UDP address — the measurement is then
//! reported with `degraded: true`, mirroring how a production client would
//! salvage a call when its assigned relay disappears.

use crossbeam::channel::{bounded, Receiver, Sender};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use via_media::JitterEstimator;
use via_model::metrics::PathMetrics;

use crate::error::TestbedError;
use crate::fault::{FrameFate, FrameFaults};
use crate::probe::{ProbeKind, ProbePacket};
use crate::protocol::{connect_deadline, ClientMsg, ControllerMsg, FrameConn, FrameError};

/// Echo-collection ceiling per call, ms: even intercontinental emulated
/// paths (~600 ms echo RTT) finish inside this window. Public so the
/// controller can budget its per-call deadline from the same number.
pub const COLLECT_CEILING_MS: u64 = 1_200;

/// Bounded timeout for the initial TCP connect to the controller.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Client-side robustness knobs.
#[derive(Debug)]
pub struct ClientConfig {
    /// Longest the client waits for the next controller frame before
    /// declaring the controller dead. Callees idle for entire runs, so the
    /// harness sets this to the run's global deadline.
    pub idle_timeout: Duration,
    /// Seeded faults applied to this client's outgoing `Report` frames.
    pub faults: Option<FrameFaults>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            idle_timeout: Duration::from_secs(120),
            faults: None,
        }
    }
}

/// An echo received by the media socket, forwarded to the measurement loop.
#[derive(Debug, Clone)]
struct EchoEvent {
    at: Instant,
    session: u16,
    seq: u16,
    ssrc: u32,
    rtp_timestamp: u32,
}

/// Which leg a probe stream traverses; encoded into the stream's SSRC so
/// relay-path stragglers can never be mistaken for direct-path echoes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathLeg {
    Relay,
    Direct,
}

/// One measured probe stream plus how many echoes actually arrived (the
/// degradation detector: zero echoes means the path is dead, not just bad).
struct CallSample {
    metrics: PathMetrics,
    echoes: usize,
}

/// Runs one testbed client to completion (until the controller sends
/// `Finished` or a deadline fires). Blocks the calling thread.
///
/// # Errors
/// Any control-plane or data-plane failure the client cannot absorb,
/// including [`TestbedError::Timeout`] when the controller goes silent past
/// `cfg.idle_timeout`.
pub fn run_client_with(
    name: &str,
    controller: SocketAddr,
    mut cfg: ClientConfig,
) -> Result<(), TestbedError> {
    let udp = UdpSocket::bind("127.0.0.1:0")?;
    #[expect(clippy::disallowed_methods, reason = "a bounded 50 ms read timeout")]
    udp.set_read_timeout(Some(Duration::from_millis(50)))?;

    let (echo_tx, echo_rx) = bounded::<EchoEvent>(4_096);
    let stop = Arc::new(AtomicBool::new(false));
    let responder = spawn_responder(udp.try_clone()?, echo_tx, Arc::clone(&stop))?;

    // Run the control loop, then stop the responder on *every* exit path so
    // an error return can never leak the media thread.
    let result = control_loop(name, controller, &mut cfg, &udp, &echo_rx);
    stop.store(true, Ordering::Relaxed);
    let _ = responder.join();
    result
}

/// The client's control-plane loop: register, serve calls, disconnect.
fn control_loop(
    name: &str,
    controller: SocketAddr,
    cfg: &mut ClientConfig,
    udp: &UdpSocket,
    echo_rx: &Receiver<EchoEvent>,
) -> Result<(), TestbedError> {
    let stream = connect_deadline(controller, CONNECT_TIMEOUT)?;
    let mut conn = FrameConn::new(stream)?;
    conn.write(&ClientMsg::Register {
        name: name.to_string(),
        udp_port: udp.local_addr()?.port(),
    })?;
    let welcome: ControllerMsg = conn.read_deadline(Instant::now() + cfg.idle_timeout)?;
    if welcome != ControllerMsg::Welcome {
        return Err(TestbedError::Protocol(format!(
            "expected Welcome, got {welcome:?}"
        )));
    }

    loop {
        let msg = match conn.read_deadline::<ControllerMsg>(Instant::now() + cfg.idle_timeout) {
            Ok(m) => m,
            Err(FrameError::Timeout) => {
                return Err(TestbedError::Timeout(format!(
                    "client {name}: no controller frame within {:?}",
                    cfg.idle_timeout
                )))
            }
            Err(e) => return Err(e.into()),
        };
        match msg {
            ControllerMsg::Welcome => {
                return Err(TestbedError::Protocol("unexpected second Welcome".into()))
            }
            ControllerMsg::Finished => break,
            ControllerMsg::Call {
                callee_addr,
                relay_addr,
                relay,
                session,
                round,
                probes,
                gap_ms,
                callee,
            } => {
                let relay_sock: SocketAddr = relay_addr.parse().map_err(|e| {
                    TestbedError::Protocol(format!("bad relay addr {relay_addr}: {e}"))
                })?;
                let sample = measure_call(
                    udp,
                    echo_rx,
                    relay_sock,
                    session,
                    round,
                    probes,
                    gap_ms,
                    PathLeg::Relay,
                )?;
                // Graceful degradation: a relay leg that produced *zero*
                // echoes is dead (killed or blackholed), not merely lossy.
                // Re-measure over the direct path and flag the report.
                let (metrics, degraded) = if sample.echoes == 0 {
                    let direct_sock: SocketAddr = callee_addr.parse().map_err(|e| {
                        TestbedError::Protocol(format!("bad callee addr {callee_addr}: {e}"))
                    })?;
                    let direct = measure_call(
                        udp,
                        echo_rx,
                        direct_sock,
                        session,
                        round,
                        probes,
                        gap_ms,
                        PathLeg::Direct,
                    )?;
                    (direct.metrics, true)
                } else {
                    (sample.metrics, false)
                };
                let report = ClientMsg::Report {
                    caller: name.to_string(),
                    callee,
                    relay,
                    round,
                    metrics,
                    degraded,
                };
                match cfg.faults.as_mut().map_or(
                    FrameFate::Deliver { duplicate: false },
                    FrameFaults::next_fate,
                ) {
                    // A dropped Report is recovered by the controller's
                    // retry: it re-sends the Call after its deadline.
                    FrameFate::Drop => {}
                    FrameFate::Deliver { duplicate } => {
                        if let Some(f) = &cfg.faults {
                            let d = f.delay();
                            if !d.is_zero() {
                                std::thread::sleep(d);
                            }
                        }
                        conn.write(&report)?;
                        if duplicate {
                            conn.write(&report)?;
                        }
                    }
                }
            }
        }
    }

    // Best-effort: the controller may already have torn the stream down.
    let _ = conn.write(&ClientMsg::Done {
        name: name.to_string(),
    });
    Ok(())
}

/// Spawns the media-socket thread: echoes probes, channels echoes.
fn spawn_responder(
    udp: UdpSocket,
    echo_tx: Sender<EchoEvent>,
    stop: Arc<AtomicBool>,
) -> Result<std::thread::JoinHandle<()>, TestbedError> {
    let handle = std::thread::Builder::new()
        .name("via-client-media".into())
        .spawn(move || {
            let mut buf = [0u8; 2048];
            loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let (len, src) = match udp.recv_from(&mut buf) {
                    Ok(x) => x,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(_) => return,
                };
                let Ok(pkt) = ProbePacket::decode(&buf[..len]) else {
                    continue;
                };
                match pkt.kind {
                    ProbeKind::Probe => {
                        // Callee role: reflect through the relay it came from.
                        let _ = udp.send_to(&pkt.to_echo().encode(), src);
                    }
                    ProbeKind::Echo => {
                        let _ = echo_tx.try_send(EchoEvent {
                            at: Instant::now(),
                            session: pkt.session,
                            seq: pkt.rtp.seq,
                            ssrc: pkt.rtp.ssrc,
                            rtp_timestamp: pkt.rtp.timestamp,
                        });
                    }
                }
            }
        })
        .map_err(TestbedError::Io)?;
    Ok(handle)
}

/// The probe stream's SSRC: session, round, and leg are all encoded so an
/// echo straggling in from a *previous* round (or from the abandoned relay
/// attempt of the same call) can never be counted into the current stream.
fn probe_ssrc(session: u16, round: u32, leg: PathLeg) -> u32 {
    let leg_bit = match leg {
        PathLeg::Relay => 0,
        PathLeg::Direct => 1,
    };
    u32::from(session) << 16 | (round & 0x7F) << 9 | leg_bit << 8 | 0x5A
}

/// Sends one probe stream and reduces the echoes to a metric triple.
///
/// Send errors on individual probes are tolerated: unsent probes count as
/// lost, and arrival timestamps are measured from the earliest probe that
/// actually went out (falling back to the call start). Only a call where
/// *no* probe could be sent is an error.
#[allow(clippy::too_many_arguments)]
fn measure_call(
    udp: &UdpSocket,
    echo_rx: &Receiver<EchoEvent>,
    target: SocketAddr,
    session: u16,
    round: u32,
    probes: u16,
    gap_ms: u64,
    leg: PathLeg,
) -> Result<CallSample, TestbedError> {
    // Drain stragglers from previous calls.
    while echo_rx.try_recv().is_ok() {}

    // A zero-probe call would divide by zero below; treat it as one probe
    // (the controller never asks for zero, but the CLI can).
    let probes = probes.max(1);
    let ssrc = probe_ssrc(session, round, leg);
    let call_start = Instant::now();
    let mut send_times = vec![None::<Instant>; usize::from(probes)];
    let mut last_send_err: Option<std::io::Error> = None;

    for seq in 0..probes {
        let pkt = ProbePacket::probe(session, seq, ssrc);
        match udp.send_to(&pkt.encode(), target) {
            Ok(_) => send_times[usize::from(seq)] = Some(Instant::now()),
            Err(e) => last_send_err = Some(e),
        }
        std::thread::sleep(Duration::from_millis(gap_ms));
    }
    // Timestamp base: the earliest probe that actually left the socket.
    let t0 = send_times
        .iter()
        .copied()
        .flatten()
        .min()
        .unwrap_or(call_start);
    if send_times.iter().all(Option::is_none) {
        let detail =
            last_send_err.map_or_else(|| "unknown send failure".to_string(), |e| e.to_string());
        return Err(TestbedError::Probe(format!(
            "no probe of {probes} could be sent to {target}: {detail}"
        )));
    }

    // Collection window: a generous ceiling so even intercontinental
    // emulated paths (~600 ms echo RTT) are counted, with an idle early-exit
    // so clean fast paths don't pay for it: once at least one echo arrived,
    // 250 ms of silence ends the call.
    let deadline = Instant::now() + Duration::from_millis(COLLECT_CEILING_MS);
    let idle_exit = Duration::from_millis(250);
    let mut rtts: Vec<f64> = Vec::with_capacity(usize::from(probes));
    let mut estimator = JitterEstimator::new();
    let mut received = vec![false; usize::from(probes)];

    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let mut wait = deadline.saturating_duration_since(now);
        if rtts.is_empty() {
            // Nothing yet: wait out the full window.
        } else {
            wait = wait.min(idle_exit);
        }
        let Ok(ev) = echo_rx.recv_timeout(wait) else {
            if !rtts.is_empty() {
                break; // idle after at least one echo: the stream is done
            }
            continue;
        };
        if ev.session != session || ev.ssrc != ssrc {
            continue; // an old call's echo
        }
        let idx = usize::from(ev.seq);
        if idx >= send_times.len() || received[idx] {
            continue;
        }
        received[idx] = true;
        if let Some(sent) = send_times[idx] {
            rtts.push(ev.at.duration_since(sent).as_secs_f64() * 1_000.0);
        }
        let arrival_ms = ev.at.duration_since(t0).as_secs_f64() * 1_000.0;
        estimator.on_packet(arrival_ms, ev.rtp_timestamp);
        if received.iter().all(|&r| r) {
            break;
        }
    }

    let got = received.iter().filter(|&&r| r).count();
    let loss_pct = 100.0 * (f64::from(probes) - got as f64) / f64::from(probes);
    let rtt_ms = if rtts.is_empty() {
        // Total loss: report the collection ceiling, like a timed-out call.
        1_000.0
    } else {
        rtts.iter().sum::<f64>() / rtts.len() as f64
    };
    Ok(CallSample {
        metrics: PathMetrics::new(rtt_ms, loss_pct, estimator.jitter_ms()),
        echoes: got,
    })
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test sockets set bounded read timeouts"
)]
mod tests {
    use super::*;
    use crate::impair::ImpairParams;
    use crate::relay::{RelayHandle, Session};

    /// End-to-end measurement through a real relay with known impairment.
    #[test]
    fn measures_known_impairment() {
        let relay = RelayHandle::spawn(11).unwrap();

        // Callee: a raw echo socket using the same responder logic.
        let callee = UdpSocket::bind("127.0.0.1:0").unwrap();
        callee
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let (tx, _rx) = bounded(16);
        let stop = Arc::new(AtomicBool::new(false));
        let responder =
            spawn_responder(callee.try_clone().unwrap(), tx, Arc::clone(&stop)).unwrap();

        // Caller media socket + echo channel.
        let caller = UdpSocket::bind("127.0.0.1:0").unwrap();
        caller
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let (ctx, crx) = bounded(1024);
        let cstop = Arc::new(AtomicBool::new(false));
        let cresp = spawn_responder(caller.try_clone().unwrap(), ctx, Arc::clone(&cstop)).unwrap();

        relay.register_session(
            1,
            Session::steady(
                caller.local_addr().unwrap(),
                callee.local_addr().unwrap(),
                ImpairParams {
                    delay_ms: 15.0,
                    jitter_ms: 0.5,
                    loss_pct: 0.0,
                    corrupt_pct: 0.0,
                },
                ImpairParams {
                    delay_ms: 15.0,
                    jitter_ms: 0.5,
                    loss_pct: 0.0,
                    corrupt_pct: 0.0,
                },
            ),
        );

        let sample =
            measure_call(&caller, &crx, relay.addr(), 1, 0, 30, 2, PathLeg::Relay).unwrap();
        let metrics = sample.metrics;
        // Expected RTT ≈ 30 ms of impairment (+ loopback overhead).
        assert!(
            metrics.rtt_ms > 25.0 && metrics.rtt_ms < 80.0,
            "measured RTT {}",
            metrics.rtt_ms
        );
        assert!(metrics.loss_pct < 10.0, "loss {}", metrics.loss_pct);
        assert!(sample.echoes > 25, "echoes {}", sample.echoes);

        stop.store(true, Ordering::Relaxed);
        cstop.store(true, Ordering::Relaxed);
        let _ = responder.join();
        let _ = cresp.join();
    }

    #[test]
    fn total_loss_reports_ceiling() {
        // No relay at all: every probe vanishes.
        let caller = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (_tx, rx) = bounded(4);
        let dead: SocketAddr = "127.0.0.1:9".parse().unwrap(); // discard port
        let sample = measure_call(&caller, &rx, dead, 2, 0, 5, 1, PathLeg::Relay).unwrap();
        assert_eq!(sample.metrics.loss_pct, 100.0);
        assert!(sample.metrics.rtt_ms >= 500.0);
        assert_eq!(sample.echoes, 0, "a dead path must report zero echoes");
    }

    #[test]
    fn ssrc_separates_rounds_and_legs() {
        let relay_r0 = probe_ssrc(7, 0, PathLeg::Relay);
        let relay_r1 = probe_ssrc(7, 1, PathLeg::Relay);
        let direct_r0 = probe_ssrc(7, 0, PathLeg::Direct);
        assert_ne!(relay_r0, relay_r1);
        assert_ne!(relay_r0, direct_r0);
        // Different sessions never collide regardless of round/leg.
        assert_ne!(probe_ssrc(8, 0, PathLeg::Relay), relay_r0);
    }
}
