//! The central controller: registration, session setup, call orchestration,
//! and measurement collection.
//!
//! Mirrors the Azure-hosted controller of §5.5: it "orchestrated each client
//! to make calls to the other clients … back-to-back calls using 9–20
//! different relaying options, 4–5 times each". Pairs with distinct callers
//! are driven in parallel (one orchestration thread per caller connection);
//! a caller's own calls run strictly back-to-back.
//!
//! Robustness: every phase is deadline-bounded. Registration waits a bounded
//! time and proceeds with whoever showed up (pairs naming an absent client
//! fail with a per-pair cause instead of aborting the run). Each call is a
//! request–response exchange with a per-attempt deadline and bounded,
//! seeded-jitter retries; a call that exhausts its retries becomes a
//! [`PairFailure`], not a dead run. A hard global deadline caps the whole
//! orchestration. The controller therefore returns *partial* results — every
//! report it did collect plus a typed cause for every call it could not.

use parking_lot::Mutex;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use via_model::metrics::PathMetrics;
use via_model::seed;
use via_obs::{MetricSink, LATENCY_MS};

use crate::client::COLLECT_CEILING_MS;
use crate::error::TestbedError;
use crate::fault::{backoff, FrameFate, FrameFaults};
use crate::protocol::{
    accept_deadline, ClientMsg, ControllerMsg, FrameConn, FrameError, RelayIndex,
};

/// The relay-session id of a run's `n`th allocation (1-based). A run
/// allocates one id per (pair, relay) and never frees one, so ids run 1, 2,
/// … and the 65 536th allocation is refused, never wrapped onto a live
/// session (0 is what relays treat as unset).
///
/// # Errors
/// [`TestbedError::SessionExhausted`] past the 65 535 non-zero `u16` ids.
fn session_id(n: usize) -> Result<u16, TestbedError> {
    u16::try_from(n).map_err(|_| TestbedError::SessionExhausted {
        live: usize::from(u16::MAX),
    })
}

/// One caller–callee pair and its relaying options.
#[derive(Debug, Clone)]
pub struct PairSpec {
    /// Caller client name.
    pub caller: String,
    /// Callee client name.
    pub callee: String,
    /// Relay options: (index for reporting, relay UDP address).
    pub relays: Vec<(RelayIndex, SocketAddr)>,
}

/// Deadlines and backoff seeding for the control plane.
#[derive(Debug, Clone)]
pub struct ControlTiming {
    /// Longest the controller waits for client registrations before
    /// proceeding with whoever arrived.
    pub registration: Duration,
    /// Hard wall-clock ceiling on the whole orchestration.
    pub global: Duration,
    /// Seed for backoff jitter (per-caller streams are derived from it).
    pub seed: u64,
}

impl Default for ControlTiming {
    fn default() -> Self {
        ControlTiming {
            registration: Duration::from_secs(10),
            global: Duration::from_secs(180),
            seed: 0,
        }
    }
}

/// Orchestration parameters.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Back-to-back sweeps per pair (paper: 4–5).
    pub rounds: u32,
    /// Probe packets per call.
    pub probes: u16,
    /// Gap between probes, ms.
    pub gap_ms: u64,
    /// The pair plan.
    pub pairs: Vec<PairSpec>,
    /// Deadlines and backoff seeding.
    pub timing: ControlTiming,
}

/// One collected measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportRecord {
    /// Caller name.
    pub caller: String,
    /// Callee name.
    pub callee: String,
    /// Relay used.
    pub relay: RelayIndex,
    /// Sweep index.
    pub round: u32,
    /// Measured metrics.
    pub metrics: PathMetrics,
    /// True when the relay leg was dead and the metrics were measured over
    /// the direct fallback path instead (see `client`).
    pub degraded: bool,
}

/// Why a planned call (or a whole pair) produced no report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureCause {
    /// A participant never registered within the registration deadline.
    Unregistered {
        /// The missing client's name.
        name: String,
    },
    /// Every retry of the call exhausted its deadline without a report.
    CallTimeout,
    /// The caller's control stream failed; detail carries the I/O context.
    Stream {
        /// Human-readable failure detail (not stable across platforms).
        detail: String,
    },
    /// The run's global deadline fired before this call could be placed.
    GlobalDeadline,
}

impl FailureCause {
    /// A stable, platform-independent label for this cause — what
    /// deterministic summaries should use (the `Stream` detail string may
    /// embed OS error text).
    pub fn kind(&self) -> &'static str {
        match self {
            FailureCause::Unregistered { .. } => "unregistered",
            FailureCause::CallTimeout => "call-timeout",
            FailureCause::Stream { .. } => "stream",
            FailureCause::GlobalDeadline => "global-deadline",
        }
    }
}

/// One planned call (or pair) that produced no report, with its cause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairFailure {
    /// Caller name.
    pub caller: String,
    /// Callee name.
    pub callee: String,
    /// Relay of the failed call; `None` when the whole pair failed.
    pub relay: Option<RelayIndex>,
    /// Round of the failed call; `None` when the whole pair failed.
    pub round: Option<u32>,
    /// Why it failed.
    pub cause: FailureCause,
}

/// Everything the controller returns: partial results plus typed failures.
#[derive(Debug)]
pub struct ControllerOutcome {
    /// Every report collected, sorted by (caller, callee, relay, round).
    pub reports: Vec<ReportRecord>,
    /// Every call that produced no report, sorted like the reports.
    pub failures: Vec<PairFailure>,
    /// Control-plane observability: per-caller sinks merged after the
    /// orchestration threads join (retries, per-attempt deadline hits,
    /// injected frame fates) plus outcome counters derived from the final
    /// report/failure lists. Unlike the replay engine's snapshots, these
    /// counters describe real socket behavior — retry and deadline counts
    /// may vary with wall-clock noise, which is why the determinism
    /// contract lives in [`TestbedResult::summary`], not here.
    ///
    /// [`TestbedResult::summary`]: crate::harness::TestbedResult::summary
    pub obs: MetricSink,
}

/// Per-caller factory for the fault stream applied to outgoing `Call`
/// frames (`None` means no faults for that caller).
pub type CallerFaultsFn<'a> = dyn Fn(&str) -> Option<FrameFaults> + Sync + 'a;

/// Hook invoked just before each call is placed, with
/// `(caller, pair_idx, relay, round)` — the kill-switch trigger point.
pub type BeforeCallFn<'a> = dyn Fn(&str, usize, RelayIndex, u32) + Sync + 'a;

/// Fault-injection hooks threaded into the controller by the harness.
#[derive(Default)]
pub struct ControlHooks<'a> {
    /// Per-caller fault-stream factory (`None` hook means no faults).
    pub caller_faults: Option<&'a CallerFaultsFn<'a>>,
    /// Pre-call kill-switch trigger point.
    pub before_call: Option<&'a BeforeCallFn<'a>>,
}

/// Slack added on top of the analytic per-call-attempt budget to absorb
/// scheduler noise.
const CALL_MARGIN: Duration = Duration::from_secs(3);

/// Worst-case wall-clock for one call attempt: the probe send phase plus the
/// echo-collection ceiling, doubled because a degraded call measures twice
/// (the dead relay attempt, then the direct fallback), plus [`CALL_MARGIN`].
fn call_attempt_budget(probes: u16, gap_ms: u64) -> Duration {
    let send_ms = u64::from(probes.max(1)) * gap_ms;
    Duration::from_millis(2 * (send_ms + COLLECT_CEILING_MS)) + CALL_MARGIN
}

/// Attempts per call exchange, the first included: a lost `Call` frame is
/// re-sent after a seeded, jittered [`backoff`].
const CALL_ATTEMPTS: u32 = 3;

/// Shared, read-only context for the per-caller orchestration threads.
struct CallerCtx<'a> {
    rounds: u32,
    probes: u16,
    gap_ms: u64,
    budget: Duration,
    seed: u64,
    global_deadline: Instant,
    sessions: &'a HashMap<(usize, RelayIndex), u16>,
    udp_addr_of: &'a HashMap<String, SocketAddr>,
    before_call: Option<&'a BeforeCallFn<'a>>,
    reports: &'a Mutex<Vec<ReportRecord>>,
    failures: &'a Mutex<Vec<PairFailure>>,
}

/// Runs the controller: waits (bounded) for up to `expected_clients`
/// registrations on `listener`, installs sessions via `registrar` — a
/// callback invoked as `(pair_idx, relay, session_id, caller_addr,
/// callee_addr)` before any calls are placed — orchestrates all calls with
/// deadlines and retries, releases the clients, and returns the partial
/// results.
///
/// # Errors
/// Only *setup* failures (listener I/O, a protocol violation during
/// registration, or a plan naming a client that does not exist even though
/// every expected client registered) abort the run. Per-call and per-pair
/// failures are returned in [`ControllerOutcome::failures`] instead.
pub fn run_controller(
    listener: TcpListener,
    cfg: ControllerConfig,
    expected_clients: usize,
    registrar: impl Fn(usize, RelayIndex, u16, SocketAddr, SocketAddr),
    hooks: &ControlHooks<'_>,
) -> Result<ControllerOutcome, TestbedError> {
    let start = Instant::now();
    let global_deadline = start + cfg.timing.global;
    let reg_deadline = (start + cfg.timing.registration).min(global_deadline);
    let mut obs = MetricSink::with_timing();
    let t_registration = obs.start();

    // Phase 1: registration, bounded by the registration deadline.
    let mut conns: HashMap<String, FrameConn> = HashMap::new();
    let mut udp_addr_of: HashMap<String, SocketAddr> = HashMap::new();
    while conns.len() < expected_clients {
        let Some((stream, peer)) = accept_deadline(&listener, reg_deadline)? else {
            break; // deadline passed: proceed with whoever arrived
        };
        let mut conn = FrameConn::new(stream)?;
        let msg: ClientMsg = match conn.read_deadline(reg_deadline) {
            Ok(m) => m,
            Err(FrameError::Timeout) => break, // connected but silent
            Err(e) => return Err(e.into()),
        };
        match msg {
            ClientMsg::Register { name, udp_port } => {
                let udp_addr = SocketAddr::new(peer.ip(), udp_port);
                conn.write(&ControllerMsg::Welcome)?;
                udp_addr_of.insert(name.clone(), udp_addr);
                conns.insert(name, conn);
            }
            other => {
                return Err(TestbedError::Protocol(format!(
                    "expected Register, got {other:?}"
                )))
            }
        }
    }
    let all_registered = conns.len() >= expected_clients;
    obs.time("testbed.registration", t_registration);
    obs.inc("testbed_clients_registered_total", conns.len() as u64);

    // Partition the plan into runnable pairs and pre-failed ones. A plan
    // that names a client *nobody has ever heard of* while every expected
    // client registered is a configuration bug and fails loudly (the old
    // silent `127.0.0.1:0` fallback measured nothing); a merely absent
    // client degrades into per-pair `Unregistered` failures.
    let mut failures: Vec<PairFailure> = Vec::new();
    let mut runnable: Vec<(usize, PairSpec)> = Vec::new();
    for (idx, pair) in cfg.pairs.iter().enumerate() {
        let missing = [&pair.caller, &pair.callee]
            .into_iter()
            .find(|name| !udp_addr_of.contains_key(*name));
        match missing {
            Some(name) if all_registered => {
                return Err(TestbedError::Protocol(format!(
                    "pair plan names unknown client {name}"
                )));
            }
            Some(name) => failures.push(PairFailure {
                caller: pair.caller.clone(),
                callee: pair.callee.clone(),
                relay: None,
                round: None,
                cause: FailureCause::Unregistered { name: name.clone() },
            }),
            None => runnable.push((idx, pair.clone())),
        }
    }

    // Phase 2: session installation. One session id per (pair, relay),
    // numbered by a count of allocations, not by `session_of.len()`: a plan
    // that lists a relay twice for one pair would repeat that length.
    let mut session_of: HashMap<(usize, RelayIndex), u16> = HashMap::new();
    let mut allocated = 0;
    for (pair_idx, pair) in &runnable {
        let caller_addr = *udp_addr_of
            .get(&pair.caller)
            .ok_or_else(|| TestbedError::Protocol(format!("unknown caller {}", pair.caller)))?;
        let callee_addr = *udp_addr_of
            .get(&pair.callee)
            .ok_or_else(|| TestbedError::Protocol(format!("unknown callee {}", pair.callee)))?;
        for &(relay, _) in &pair.relays {
            allocated += 1;
            let id = session_id(allocated)?;
            registrar(*pair_idx, relay, id, caller_addr, callee_addr);
            session_of.insert((*pair_idx, relay), id);
        }
    }

    // Phase 3: orchestration, one scoped thread per caller. Callers are
    // sorted so thread start order (and thus failure attribution on join)
    // is deterministic.
    let reports: Mutex<Vec<ReportRecord>> = Mutex::new(Vec::new());
    let failures_sink: Mutex<Vec<PairFailure>> = Mutex::new(Vec::new());
    let mut by_caller: Vec<(String, Vec<(usize, PairSpec)>)> = Vec::new();
    for (idx, pair) in runnable {
        match by_caller.iter_mut().find(|(c, _)| *c == pair.caller) {
            Some((_, list)) => list.push((idx, pair)),
            None => by_caller.push((pair.caller.clone(), vec![(idx, pair)])),
        }
    }
    by_caller.sort_by(|a, b| a.0.cmp(&b.0));

    let ctx = CallerCtx {
        rounds: cfg.rounds,
        probes: cfg.probes,
        gap_ms: cfg.gap_ms,
        budget: call_attempt_budget(cfg.probes, cfg.gap_ms),
        seed: cfg.timing.seed,
        global_deadline,
        sessions: &session_of,
        udp_addr_of: &udp_addr_of,
        before_call: hooks.before_call,
        reports: &reports,
        failures: &failures_sink,
    };

    let t_calls = obs.start();
    let mut finished_conns: Vec<FrameConn> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (caller, pairs) in by_caller {
            let Some(conn) = conns.remove(&caller) else {
                continue; // unreachable: runnable pairs have registered callers
            };
            let faults = hooks.caller_faults.and_then(|f| f(&caller));
            let ctx = &ctx;
            handles.push((
                caller.clone(),
                s.spawn(move || {
                    let mut conn = conn;
                    let sink = drive_caller(ctx, &caller, &pairs, &mut conn, faults);
                    (conn, sink)
                }),
            ));
        }
        // Join in caller-name order (handles were spawned sorted), so the
        // per-caller sinks merge in a fixed order — and the merge algebra is
        // order-independent anyway, mirroring the replay engine's
        // per-worker sinks folding at the window barrier.
        for (caller, handle) in handles {
            match handle.join() {
                Ok((conn, sink)) => {
                    obs.merge(&sink);
                    finished_conns.push(conn);
                }
                Err(_) => failures_sink.lock().push(PairFailure {
                    caller,
                    callee: String::new(),
                    relay: None,
                    round: None,
                    cause: FailureCause::Stream {
                        detail: "orchestration thread panicked".into(),
                    },
                }),
            }
        }
    });
    obs.time("testbed.calls", t_calls);

    // Release every client (callers and idle callees), best-effort: a
    // client that already vanished must not wedge teardown.
    let teardown_deadline = Instant::now() + Duration::from_millis(500);
    for conn in finished_conns.iter_mut().chain(conns.values_mut()) {
        let _ = conn.write(&ControllerMsg::Finished);
        let _ = conn.read_deadline::<ClientMsg>(teardown_deadline);
    }

    let mut reports = reports.into_inner();
    reports.sort_by(|a, b| {
        (&a.caller, &a.callee, a.relay, a.round).cmp(&(&b.caller, &b.callee, b.relay, b.round))
    });
    failures.extend(failures_sink.into_inner());
    failures.sort_by(|a, b| {
        (&a.caller, &a.callee, a.relay, a.round, a.cause.kind()).cmp(&(
            &b.caller,
            &b.callee,
            b.relay,
            b.round,
            b.cause.kind(),
        ))
    });

    // Outcome counters derive from the final sorted lists, so every report
    // and every typed failure — including pre-run `Unregistered` pairs and
    // the post-join panic fallback — is counted exactly once.
    obs.inc("testbed_reports_total", reports.len() as u64);
    obs.inc(
        "testbed_reports_degraded_total",
        reports.iter().filter(|r| r.degraded).count() as u64,
    );
    for r in &reports {
        obs.observe("testbed_report_rtt_ms", LATENCY_MS, r.metrics.rtt_ms);
    }
    for f in &failures {
        let name = format!(
            "testbed_failures_{}_total",
            f.cause.kind().replace('-', "_")
        );
        obs.inc(&name, 1);
    }
    Ok(ControllerOutcome {
        reports,
        failures,
        obs,
    })
}

/// Drives all of one caller's calls back-to-back, recording reports and
/// failures; never returns an error — a broken stream fails the caller's
/// remaining pairs and returns. The returned sink carries this caller's
/// control-plane counters, merged by the controller after join.
fn drive_caller(
    ctx: &CallerCtx<'_>,
    caller: &str,
    pairs: &[(usize, PairSpec)],
    conn: &mut FrameConn,
    mut faults: Option<FrameFaults>,
) -> MetricSink {
    let mut obs = MetricSink::new();
    let mut rng = StdRng::seed_from_u64(seed::derive(ctx.seed, caller));
    for round in 0..ctx.rounds {
        for (pair_idx, pair) in pairs {
            for &(relay, relay_addr) in &pair.relays {
                if Instant::now() >= ctx.global_deadline {
                    obs.inc("testbed_global_deadline_skips_total", 1);
                    ctx.failures.lock().push(PairFailure {
                        caller: caller.to_string(),
                        callee: pair.callee.clone(),
                        relay: Some(relay),
                        round: Some(round),
                        cause: FailureCause::GlobalDeadline,
                    });
                    continue; // keep recording (cheap: no I/O past this point)
                }
                if let Some(hook) = ctx.before_call {
                    hook(caller, *pair_idx, relay, round);
                }
                let (Some(&session), Some(callee_addr)) = (
                    ctx.sessions.get(&(*pair_idx, relay)),
                    ctx.udp_addr_of.get(&pair.callee),
                ) else {
                    ctx.failures.lock().push(PairFailure {
                        caller: caller.to_string(),
                        callee: pair.callee.clone(),
                        relay: Some(relay),
                        round: Some(round),
                        cause: FailureCause::Stream {
                            detail: "missing session or callee address".into(),
                        },
                    });
                    continue;
                };
                let call = ControllerMsg::Call {
                    callee_addr: callee_addr.to_string(),
                    relay_addr: relay_addr.to_string(),
                    relay,
                    session,
                    round,
                    probes: ctx.probes,
                    gap_ms: ctx.gap_ms,
                    callee: pair.callee.clone(),
                };
                obs.inc("testbed_calls_placed_total", 1);
                match place_call(ctx, conn, &call, &mut faults, &mut rng, &mut obs) {
                    Ok(Some((metrics, degraded))) => ctx.reports.lock().push(ReportRecord {
                        caller: caller.to_string(),
                        callee: pair.callee.clone(),
                        relay,
                        round,
                        metrics,
                        degraded,
                    }),
                    Ok(None) => ctx.failures.lock().push(PairFailure {
                        caller: caller.to_string(),
                        callee: pair.callee.clone(),
                        relay: Some(relay),
                        round: Some(round),
                        cause: FailureCause::CallTimeout,
                    }),
                    Err(e) => {
                        // The stream is unusable: fail this call, mark every
                        // pair of this caller as cut off, and stop.
                        let mut sink = ctx.failures.lock();
                        sink.push(PairFailure {
                            caller: caller.to_string(),
                            callee: pair.callee.clone(),
                            relay: Some(relay),
                            round: Some(round),
                            cause: FailureCause::Stream {
                                detail: e.to_string(),
                            },
                        });
                        for (_, p) in pairs {
                            sink.push(PairFailure {
                                caller: caller.to_string(),
                                callee: p.callee.clone(),
                                relay: None,
                                round: None,
                                cause: FailureCause::Stream {
                                    detail: "caller control stream lost".into(),
                                },
                            });
                        }
                        return obs;
                    }
                }
            }
        }
    }
    obs
}

/// One request–response call exchange with bounded retries.
///
/// Returns `Ok(Some((metrics, degraded)))` on success, `Ok(None)` when every
/// attempt timed out (the caller records a `CallTimeout`), and `Err` only
/// when the stream itself is broken.
fn place_call(
    ctx: &CallerCtx<'_>,
    conn: &mut FrameConn,
    call: &ControllerMsg,
    faults: &mut Option<FrameFaults>,
    rng: &mut StdRng,
    obs: &mut MetricSink,
) -> Result<Option<(PathMetrics, bool)>, TestbedError> {
    let ControllerMsg::Call { relay, round, .. } = call else {
        return Err(TestbedError::Protocol("place_call needs a Call".into()));
    };
    let (want_relay, want_round) = (*relay, *round);
    for attempt in 0..CALL_ATTEMPTS {
        if attempt > 0 {
            obs.inc("testbed_call_retries_total", 1);
            std::thread::sleep(backoff(attempt - 1, rng));
        }
        match faults.as_mut().map_or(
            FrameFate::Deliver { duplicate: false },
            FrameFaults::next_fate,
        ) {
            // The Call frame is "lost": skip the write and let the read
            // deadline drive the retry, exactly as a real drop would.
            FrameFate::Drop => obs.inc("testbed_ctrl_frames_dropped_total", 1),
            FrameFate::Deliver { duplicate } => {
                if let Some(f) = faults {
                    let d = f.delay();
                    if !d.is_zero() {
                        obs.inc("testbed_ctrl_frames_delayed_total", 1);
                        std::thread::sleep(d);
                    }
                }
                conn.write(call)?;
                if duplicate {
                    obs.inc("testbed_ctrl_frames_duplicated_total", 1);
                    conn.write(call)?;
                }
            }
        }
        let deadline = (Instant::now() + ctx.budget).min(ctx.global_deadline);
        loop {
            match conn.read_deadline::<ClientMsg>(deadline) {
                Ok(ClientMsg::Report {
                    relay,
                    round,
                    metrics,
                    degraded,
                    ..
                }) => {
                    if relay == want_relay && round == want_round {
                        return Ok(Some((metrics, degraded)));
                    }
                    // A stale or duplicated report from an earlier retried
                    // call: skip it and keep waiting for ours.
                }
                Ok(other) => {
                    return Err(TestbedError::Protocol(format!(
                        "expected Report, got {other:?}"
                    )))
                }
                Err(FrameError::Timeout) => {
                    obs.inc("testbed_attempt_deadlines_total", 1);
                    break; // next attempt
                }
                Err(e) => return Err(e.into()),
            }
        }
        if Instant::now() >= ctx.global_deadline {
            break; // no budget left for another attempt
        }
    }
    Ok(None)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test peers block on loopback; the test runner is the deadline"
)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame};
    use std::net::TcpStream;

    #[test]
    fn pair_spec_and_config_are_cloneable() {
        let p = PairSpec {
            caller: "a".into(),
            callee: "b".into(),
            relays: vec![(0, "127.0.0.1:5000".parse().unwrap())],
        };
        let cfg = ControllerConfig {
            rounds: 2,
            probes: 10,
            gap_ms: 5,
            pairs: vec![p.clone()],
            timing: ControlTiming::default(),
        };
        assert_eq!(cfg.pairs[0].caller, p.caller);
    }

    /// Ids run 1, 2, … and the 65 536th allocation is a typed error, never
    /// a wrap onto a live id or onto 0.
    #[test]
    fn session_ids_count_up_and_refuse_the_65536th() {
        assert_eq!(session_id(1).unwrap(), 1);
        assert_eq!(session_id(2).unwrap(), 2);
        assert_eq!(session_id(65_535).unwrap(), u16::MAX);
        assert!(matches!(
            session_id(65_536),
            Err(TestbedError::SessionExhausted { live: 65_535 })
        ));
    }

    #[test]
    fn failure_causes_have_stable_kinds() {
        assert_eq!(
            FailureCause::Unregistered { name: "x".into() }.kind(),
            "unregistered"
        );
        assert_eq!(FailureCause::CallTimeout.kind(), "call-timeout");
        assert_eq!(
            FailureCause::Stream {
                detail: "io".into()
            }
            .kind(),
            "stream"
        );
        assert_eq!(FailureCause::GlobalDeadline.kind(), "global-deadline");
    }

    #[test]
    fn call_budget_covers_the_degraded_double_measurement() {
        let b = call_attempt_budget(10, 2);
        assert!(b >= Duration::from_millis(2 * (20 + COLLECT_CEILING_MS)) + CALL_MARGIN);
    }

    #[test]
    fn rejects_unknown_caller_in_plan() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One registering client named "real".
        let joiner = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(
                &mut s,
                &ClientMsg::Register {
                    name: "real".into(),
                    udp_port: 1,
                },
            )
            .unwrap();
            let _: ControllerMsg = read_frame(&mut s).unwrap();
            // Keep the connection open until the controller errors out.
            std::thread::sleep(std::time::Duration::from_millis(200));
        });
        let cfg = ControllerConfig {
            rounds: 1,
            probes: 1,
            gap_ms: 1,
            pairs: vec![PairSpec {
                caller: "ghost".into(),
                callee: "real".into(),
                relays: vec![(0, "127.0.0.1:5000".parse().unwrap())],
            }],
            timing: ControlTiming::default(),
        };
        let err = run_controller(
            listener,
            cfg,
            1,
            |_, _, _, _, _| {},
            &ControlHooks::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TestbedError::Protocol(_)));
        joiner.join().unwrap();
    }

    /// A client that never registers degrades into per-pair failures rather
    /// than aborting the run (partial-results contract).
    #[test]
    fn missing_client_yields_partial_failures_not_abort() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let joiner = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(
                &mut s,
                &ClientMsg::Register {
                    name: "real".into(),
                    udp_port: 1,
                },
            )
            .unwrap();
            let _: ControllerMsg = read_frame(&mut s).unwrap();
            // Wait for Finished so the controller's teardown write succeeds.
            let _: Result<ControllerMsg, _> = read_frame(&mut s);
        });
        let cfg = ControllerConfig {
            rounds: 1,
            probes: 1,
            gap_ms: 1,
            pairs: vec![PairSpec {
                caller: "real".into(),
                callee: "absent".into(),
                relays: vec![(0, "127.0.0.1:5000".parse().unwrap())],
            }],
            timing: ControlTiming {
                registration: Duration::from_millis(300),
                ..ControlTiming::default()
            },
        };
        // Expect two clients; only one arrives before the deadline.
        let outcome = run_controller(
            listener,
            cfg,
            2,
            |_, _, _, _, _| {},
            &ControlHooks::default(),
        )
        .unwrap();
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(
            outcome.failures[0].cause,
            FailureCause::Unregistered {
                name: "absent".into()
            }
        );
        joiner.join().unwrap();
    }
}
