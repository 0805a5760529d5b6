//! Network impairment emulation for the testbed data plane.
//!
//! The paper's testbed spanned five countries, so probe streams experienced
//! real WAN delay, jitter and loss. Our testbed runs on loopback; the relay
//! applies a netem-like impairment to every forwarded packet instead:
//! configurable base delay, Gaussian jitter, and random loss, with delivery
//! scheduled by a [`DelayLine`] worker thread (a timing wheel would be
//! overkill at probe rates; a binary heap + condvar is exact and simple).

use rand::prelude::*;
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Impairment parameters of one emulated path leg (one direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairParams {
    /// Base one-way delay, ms.
    pub delay_ms: f64,
    /// Jitter magnitude (std-dev of the delay noise), ms.
    pub jitter_ms: f64,
    /// Packet loss probability, percent.
    pub loss_pct: f64,
    /// Probability that one byte of the packet is corrupted in flight,
    /// percent. Receivers must parse defensively; a corrupted probe is
    /// dropped at the parser and shows up as loss.
    pub corrupt_pct: f64,
}

impl ImpairParams {
    /// A clean leg: no delay, jitter, loss, or corruption.
    pub const CLEAN: ImpairParams = ImpairParams {
        delay_ms: 0.0,
        jitter_ms: 0.0,
        loss_pct: 0.0,
        corrupt_pct: 0.0,
    };

    /// A dead leg: every packet is dropped. Used by the fault injector to
    /// blackhole a probe path while the relay itself stays up.
    pub const BLACKHOLE: ImpairParams = ImpairParams {
        delay_ms: 0.0,
        jitter_ms: 0.0,
        loss_pct: 100.0,
        corrupt_pct: 0.0,
    };

    /// Decides whether to corrupt this packet, and if so which byte to
    /// flip and with what XOR mask (never zero, so the byte always changes).
    pub fn sample_corruption(&self, len: usize, rng: &mut StdRng) -> Option<(usize, u8)> {
        if len == 0 || rng.random::<f64>() * 100.0 >= self.corrupt_pct {
            return None;
        }
        let idx = rng.random_range(0..len);
        let mask = rng.random_range(1..=u8::MAX);
        Some((idx, mask))
    }

    /// Samples this leg's fate for one packet: `None` if dropped, otherwise
    /// the delay to apply.
    pub fn sample(&self, rng: &mut StdRng) -> Option<Duration> {
        if rng.random::<f64>() * 100.0 < self.loss_pct {
            return None;
        }
        // Truncated Gaussian jitter (Box–Muller; no extra deps needed here).
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let delay = (self.delay_ms + self.jitter_ms * gauss).max(0.0);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "truncates toward zero to whole microseconds; `delay` is non-negative and `as` saturates"
        )]
        let micros = (delay * 1_000.0) as u64;
        Some(Duration::from_micros(micros))
    }

    /// Series composition of two legs: delays add, jitter adds in
    /// quadrature, loss combines through complements.
    pub fn chain(&self, other: &ImpairParams) -> ImpairParams {
        let p1 = self.loss_pct / 100.0;
        let p2 = other.loss_pct / 100.0;
        let c1 = self.corrupt_pct / 100.0;
        let c2 = other.corrupt_pct / 100.0;
        ImpairParams {
            delay_ms: self.delay_ms + other.delay_ms,
            jitter_ms: (self.jitter_ms.powi(2) + other.jitter_ms.powi(2)).sqrt(),
            loss_pct: 100.0 * (1.0 - (1.0 - p1) * (1.0 - p2)),
            corrupt_pct: 100.0 * (1.0 - (1.0 - c1) * (1.0 - c2)),
        }
    }
}

/// A scheduled outgoing packet.
struct Pending {
    release: Instant,
    payload: Vec<u8>,
    dest: SocketAddr,
    /// Tie-break so the heap never compares payloads.
    seq: u64,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.release == other.release && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.release
            .cmp(&other.release)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Delayed UDP sender: packets handed to [`DelayLine::send_after`] are
/// transmitted on the given socket once their delay elapses.
pub struct DelayLine {
    inner: Arc<DelayLineInner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

struct DelayLineInner {
    queue: Mutex<BinaryHeap<Reverse<Pending>>>,
    cv: Condvar,
    stop: AtomicBool,
    counter: std::sync::atomic::AtomicU64,
}

impl DelayLine {
    /// Spawns the worker thread over a cloned handle of `socket`.
    pub fn new(socket: UdpSocket) -> std::io::Result<DelayLine> {
        let inner = Arc::new(DelayLineInner {
            queue: Mutex::new(BinaryHeap::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            counter: std::sync::atomic::AtomicU64::new(0),
        });
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("via-delayline".into())
            .spawn(move || Self::worker_loop(&worker_inner, &socket))?;
        Ok(DelayLine {
            inner,
            worker: Some(worker),
        })
    }

    fn worker_loop(inner: &DelayLineInner, socket: &UdpSocket) {
        // A panicking queue user would poison this std mutex; the heap of
        // pending packets is still structurally valid (pushes are a single
        // `BinaryHeap::push`), so recover the guard rather than crash the
        // data plane mid-measurement.
        let mut guard = inner
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if inner.stop.load(Ordering::Relaxed) {
                return;
            }
            let now = Instant::now();
            // Send everything due.
            while let Some(Reverse(head)) = guard.peek() {
                if head.release <= now {
                    let Some(Reverse(p)) = guard.pop() else { break };
                    // Best-effort: a vanished receiver must not kill the line.
                    let _ = socket.send_to(&p.payload, p.dest);
                } else {
                    break;
                }
            }
            // Sleep until the next release or a new packet arrives.
            let wait = match guard.peek() {
                Some(Reverse(head)) => head.release.saturating_duration_since(Instant::now()),
                None => Duration::from_millis(50),
            };
            guard = inner
                .cv
                .wait_timeout(guard, wait)
                .map(|(g, _)| g)
                .unwrap_or_else(|p| p.into_inner().0);
        }
    }

    /// Schedules `payload` for transmission to `dest` after `delay`.
    pub fn send_after(&self, delay: Duration, payload: Vec<u8>, dest: SocketAddr) {
        let p = Pending {
            release: Instant::now() + delay,
            payload,
            dest,
            seq: self
                .inner
                .counter
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        };
        self.inner
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Reverse(p));
        self.inner.cv.notify_one();
    }
}

impl Drop for DelayLine {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.cv.notify_all();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test sockets set bounded read timeouts"
)]
mod tests {
    use super::*;

    #[test]
    fn clean_leg_never_drops_or_delays() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let d = ImpairParams::CLEAN.sample(&mut rng).unwrap();
            assert_eq!(d, Duration::ZERO);
        }
    }

    #[test]
    fn loss_rate_is_respected() {
        let p = ImpairParams {
            delay_ms: 1.0,
            jitter_ms: 0.0,
            loss_pct: 25.0,
            corrupt_pct: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let dropped = (0..20_000).filter(|_| p.sample(&mut rng).is_none()).count();
        let rate = dropped as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn chain_composes_legs() {
        let a = ImpairParams {
            delay_ms: 10.0,
            jitter_ms: 3.0,
            loss_pct: 1.0,
            corrupt_pct: 1.0,
        };
        let b = ImpairParams {
            delay_ms: 20.0,
            jitter_ms: 4.0,
            loss_pct: 2.0,
            corrupt_pct: 2.0,
        };
        let c = a.chain(&b);
        assert_eq!(c.delay_ms, 30.0);
        assert!((c.jitter_ms - 5.0).abs() < 1e-9);
        assert!((c.loss_pct - 2.98).abs() < 1e-9);
        assert!((c.corrupt_pct - 2.98).abs() < 1e-9);
    }

    #[test]
    fn corruption_sampling_respects_rate_and_never_nops() {
        let p = ImpairParams {
            corrupt_pct: 30.0,
            ..ImpairParams::CLEAN
        };
        let mut rng = StdRng::seed_from_u64(8);
        let mut hits = 0;
        for _ in 0..10_000 {
            if let Some((idx, mask)) = p.sample_corruption(64, &mut rng) {
                hits += 1;
                assert!(idx < 64);
                assert_ne!(mask, 0, "mask must actually change the byte");
            }
        }
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "corruption rate {rate}");
        assert!(ImpairParams::CLEAN
            .sample_corruption(64, &mut rng)
            .is_none());
        assert!(p.sample_corruption(0, &mut rng).is_none());
    }

    #[test]
    fn delay_line_delivers_in_order_with_delay() {
        let recv = UdpSocket::bind("127.0.0.1:0").unwrap();
        recv.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let dest = recv.local_addr().unwrap();
        let send_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let line = DelayLine::new(send_sock).unwrap();

        let t0 = Instant::now();
        // Scheduled out of order: the 5 ms packet must arrive first.
        line.send_after(Duration::from_millis(40), vec![2], dest);
        line.send_after(Duration::from_millis(5), vec![1], dest);

        let mut buf = [0u8; 16];
        let (n, _) = recv.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], &[1]);
        let first_at = t0.elapsed();
        let (n, _) = recv.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], &[2]);
        let second_at = t0.elapsed();

        assert!(first_at >= Duration::from_millis(4), "{first_at:?}");
        assert!(second_at >= Duration::from_millis(38), "{second_at:?}");
    }

    #[test]
    fn delay_line_shuts_down_cleanly() {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let line = DelayLine::new(sock).unwrap();
        drop(line); // must not hang
    }
}
