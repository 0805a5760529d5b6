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
//!
//! The controller injects its share of the [`FaultPlan`] itself: each
//! caller's `ctrl-call` frame stream and the [`RelayKill`], on the relay
//! handles it holds.

use parking_lot::Mutex;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use via_model::metrics::PathMetrics;
use via_model::seed;
use via_obs::{MetricSink, LATENCY_MS};

use crate::client::COLLECT_CEILING_MS;
use crate::error::TestbedError;
use crate::fault::{backoff, FaultPlan, FrameFate, FrameFaults, RelayKill};
use crate::protocol::{
    accept_deadline, ClientMsg, ControllerMsg, FrameConn, FrameError, RelayIndex,
};
use crate::relay::RelayHandle;

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
    /// Caller client index.
    pub caller: usize,
    /// Callee client index.
    pub callee: usize,
    /// Relay options: (index for reporting, relay UDP address).
    pub relays: Vec<(RelayIndex, SocketAddr)>,
}

/// Deadlines for the control plane.
#[derive(Debug, Clone)]
pub struct ControlTiming {
    /// Longest the controller waits for client registrations before
    /// proceeding with whoever arrived.
    pub registration: Duration,
    /// Hard wall-clock ceiling on the whole orchestration.
    pub global: Duration,
}

impl Default for ControlTiming {
    fn default() -> Self {
        ControlTiming {
            registration: Duration::from_secs(10),
            global: Duration::from_secs(180),
        }
    }
}

/// Orchestration parameters.
pub struct ControllerConfig<'a> {
    /// Back-to-back sweeps per pair (paper: 4–5).
    pub rounds: u32,
    /// Probe packets per call.
    pub probes: u16,
    /// Gap between probes, ms.
    pub gap_ms: u64,
    /// The pair plan; a pair is its index in it.
    pub pairs: Vec<PairSpec>,
    /// Deadlines.
    pub timing: ControlTiming,
    /// Read for each caller's `ctrl-call` frame stream, the relay kill and
    /// the backoff seed.
    pub fault: &'a FaultPlan,
    /// The relays by index, for the kill.
    pub relays: &'a [RelayHandle],
}

/// One collected measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportRecord {
    /// Caller client index.
    pub caller: usize,
    /// Callee client index.
    pub callee: usize,
    /// Relay used.
    pub relay: RelayIndex,
    /// Sweep index.
    pub round: u32,
    /// Measured metrics.
    pub metrics: PathMetrics,
    /// True when the relay leg was dead and the metrics were measured over
    /// the direct fallback path instead.
    pub degraded: bool,
}

/// Why a planned call (or a whole pair) produced no report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureCause {
    /// A participant never registered within the registration deadline.
    Unregistered {
        /// The missing client's index.
        client: usize,
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
    /// Caller client index.
    pub caller: usize,
    /// Callee client index.
    pub callee: usize,
    /// Relay of the failed call; `None` when the whole pair failed.
    pub relay: Option<RelayIndex>,
    /// Round of the failed call; `None` when the whole pair failed.
    pub round: Option<u32>,
    /// Why it failed.
    pub cause: FailureCause,
}

impl PairFailure {
    /// The whole pair `caller → callee` failed.
    fn whole(caller: usize, callee: usize, cause: FailureCause) -> PairFailure {
        PairFailure {
            caller,
            callee,
            relay: None,
            round: None,
            cause,
        }
    }
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

/// A runnable pair as its caller's thread drives it.
struct Planned {
    /// Index in the plan: what a [`RelayKill`] names.
    idx: usize,
    callee: usize,
    callee_addr: SocketAddr,
    /// Each relay option with the session id installed for it.
    relays: Vec<(RelayIndex, SocketAddr, u16)>,
}

/// Shared, read-only context for the per-caller orchestration threads.
struct CallerCtx<'a> {
    rounds: u32,
    probes: u16,
    gap_ms: u64,
    budget: Duration,
    /// Parent of every caller's backoff stream.
    backoff_seed: u64,
    global_deadline: Instant,
    kill: Option<RelayKill>,
    relays: &'a [RelayHandle],
    reports: &'a Mutex<Vec<ReportRecord>>,
    failures: &'a Mutex<Vec<PairFailure>>,
}

/// Runs the controller: waits (bounded) for the `n_clients` clients to
/// register on `listener`, installs sessions via `registrar` — a callback
/// invoked as `(pair_idx, relay, session_id, caller_addr, callee_addr)`
/// before any calls are placed — orchestrates all calls with deadlines and
/// retries, releases the clients, and returns the partial results.
///
/// # Errors
/// Only *setup* failures (listener I/O, a protocol violation during
/// registration — a client index out of range or registered twice — or a
/// plan naming a client that does not exist even though every expected
/// client registered) abort the run. Per-call and per-pair failures are
/// returned in [`ControllerOutcome::failures`] instead.
pub fn run_controller(
    listener: TcpListener,
    cfg: ControllerConfig<'_>,
    n_clients: usize,
    registrar: impl Fn(usize, RelayIndex, u16, SocketAddr, SocketAddr),
) -> Result<ControllerOutcome, TestbedError> {
    let start = Instant::now();
    let global_deadline = start + cfg.timing.global;
    let reg_deadline = (start + cfg.timing.registration).min(global_deadline);
    let mut obs = MetricSink::with_timing();
    let t_registration = obs.start();

    // Phase 1: registration, bounded by the registration deadline. A client
    // is its index: one slot each.
    let mut clients: Vec<Option<(FrameConn, SocketAddr)>> = (0..n_clients).map(|_| None).collect();
    let mut registered = 0;
    while registered < n_clients {
        let Some((stream, peer)) = accept_deadline(&listener, reg_deadline)? else {
            break; // deadline passed: proceed with whoever arrived
        };
        let mut conn = FrameConn::new(stream)?;
        let msg: ClientMsg = match conn.read_deadline(reg_deadline) {
            Ok(m) => m,
            Err(FrameError::Timeout) => break, // connected but silent
            Err(e) => return Err(e.into()),
        };
        let ClientMsg::Register { client, udp_port } = msg else {
            return Err(TestbedError::Protocol(format!(
                "expected Register, got {msg:?}"
            )));
        };
        match clients.get_mut(client) {
            None => {
                return Err(TestbedError::Protocol(format!(
                    "Register for client {client}, but the run has {n_clients} clients"
                )))
            }
            Some(Some(_)) => {
                return Err(TestbedError::Protocol(format!(
                    "a second Register for client {client}"
                )))
            }
            Some(slot) => {
                conn.write(&ControllerMsg::Welcome)?;
                *slot = Some((conn, SocketAddr::new(peer.ip(), udp_port)));
                registered += 1;
            }
        }
    }
    let all_registered = registered == n_clients;
    obs.time("testbed.registration", t_registration);
    obs.inc("testbed_clients_registered_total", registered as u64);
    let udp_addr_of: Vec<Option<SocketAddr>> = clients
        .iter()
        .map(|c| c.as_ref().map(|&(_, addr)| addr))
        .collect();
    let mut conns: Vec<Option<FrameConn>> = clients
        .into_iter()
        .map(|c| c.map(|(conn, _)| conn))
        .collect();
    let addr_of = |client: usize| udp_addr_of.get(client).copied().flatten();

    // Phase 2: split the plan into runnable pairs and pre-failed ones, and
    // install sessions for the runnable ones. A plan that names a client
    // *nobody has ever heard of* while every expected client registered is
    // a configuration bug and fails loudly; a merely absent client degrades
    // into a per-pair `Unregistered` failure. Session ids count allocations
    // — runnable pairs in plan order, each pair's relays in order — so a
    // plan that lists a relay twice for one pair gets two ids.
    let mut failures: Vec<PairFailure> = Vec::new();
    let mut by_caller: Vec<Vec<Planned>> = (0..n_clients).map(|_| Vec::new()).collect();
    let mut allocated = 0;
    for (idx, pair) in cfg.pairs.iter().enumerate() {
        let (caller_addr, callee_addr) = match (addr_of(pair.caller), addr_of(pair.callee)) {
            (Some(a), Some(b)) => (a, b),
            (a, _) => {
                let client = if a.is_none() {
                    pair.caller
                } else {
                    pair.callee
                };
                if all_registered {
                    return Err(TestbedError::Protocol(format!(
                        "pair plan names unknown client {client}"
                    )));
                }
                let cause = FailureCause::Unregistered { client };
                failures.push(PairFailure::whole(pair.caller, pair.callee, cause));
                continue;
            }
        };
        let mut relays = Vec::with_capacity(pair.relays.len());
        for &(relay, relay_addr) in &pair.relays {
            allocated += 1;
            let id = session_id(allocated)?;
            registrar(idx, relay, id, caller_addr, callee_addr);
            relays.push((relay, relay_addr, id));
        }
        if let Some(calls) = by_caller.get_mut(pair.caller) {
            calls.push(Planned {
                idx,
                callee: pair.callee,
                callee_addr,
                relays,
            });
        }
    }

    // Phase 3: orchestration, one scoped thread per caller, started and
    // joined in caller order.
    let reports: Mutex<Vec<ReportRecord>> = Mutex::new(Vec::new());
    let failures_sink: Mutex<Vec<PairFailure>> = Mutex::new(Vec::new());
    let ctx = CallerCtx {
        rounds: cfg.rounds,
        probes: cfg.probes,
        gap_ms: cfg.gap_ms,
        budget: call_attempt_budget(cfg.probes, cfg.gap_ms),
        backoff_seed: seed::derive(cfg.fault.seed, "backoff"),
        global_deadline,
        kill: cfg.fault.kill_relay,
        relays: cfg.relays,
        reports: &reports,
        failures: &failures_sink,
    };

    let t_calls = obs.start();
    let mut finished_conns: Vec<FrameConn> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (caller, pairs) in by_caller.iter().enumerate() {
            if pairs.is_empty() {
                continue;
            }
            let Some(mut conn) = conns.get_mut(caller).and_then(Option::take) else {
                continue; // unreachable: runnable pairs have registered callers
            };
            let faults = cfg.fault.frame_faults("ctrl-call", caller as u64);
            let ctx = &ctx;
            handles.push((
                caller,
                pairs,
                s.spawn(move || {
                    let sink = drive_caller(ctx, caller, pairs, &mut conn, faults);
                    (conn, sink)
                }),
            ));
        }
        // The per-caller sinks merge in caller order — and the merge
        // algebra is order-independent anyway, mirroring the replay
        // engine's per-worker sinks folding at the window barrier.
        for (caller, pairs, handle) in handles {
            match handle.join() {
                Ok((conn, sink)) => {
                    obs.merge(&sink);
                    finished_conns.push(conn);
                }
                // The thread's reports went with it: each of its pairs fails
                // whole, as when its stream is lost.
                Err(_) => failures_sink.lock().extend(pairs.iter().map(|p| {
                    let detail = "orchestration thread panicked".into();
                    PairFailure::whole(caller, p.callee, FailureCause::Stream { detail })
                })),
            }
        }
    });
    obs.time("testbed.calls", t_calls);

    // Release every client (callers and idle callees), best-effort: a
    // client that already vanished must not wedge teardown.
    let teardown_deadline = Instant::now() + Duration::from_millis(500);
    for conn in finished_conns.iter_mut().chain(conns.iter_mut().flatten()) {
        let _ = conn.write(&ControllerMsg::Finished);
        let _ = conn.read_deadline::<ClientMsg>(teardown_deadline);
    }

    let mut reports = reports.into_inner();
    reports.sort_by_key(|r| (r.caller, r.callee, r.relay, r.round));
    failures.extend(failures_sink.into_inner());
    failures.sort_by_key(|f| (f.caller, f.callee, f.relay, f.round, f.cause.kind()));

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
    caller: usize,
    pairs: &[Planned],
    conn: &mut FrameConn,
    mut faults: Option<FrameFaults>,
) -> MetricSink {
    let mut obs = MetricSink::new();
    // The label is the seed's, fixed since clients had names.
    let mut rng =
        StdRng::seed_from_u64(seed::derive(ctx.backoff_seed, &format!("client-{caller}")));
    for round in 0..ctx.rounds {
        for pair in pairs {
            for &(relay, relay_addr, session) in &pair.relays {
                let failure = |cause| PairFailure {
                    caller,
                    callee: pair.callee,
                    relay: Some(relay),
                    round: Some(round),
                    cause,
                };
                if Instant::now() >= ctx.global_deadline {
                    obs.inc("testbed_global_deadline_skips_total", 1);
                    ctx.failures
                        .lock()
                        .push(failure(FailureCause::GlobalDeadline));
                    continue; // keep recording (cheap: no I/O past this point)
                }
                if ctx.kill
                    == Some(RelayKill {
                        relay,
                        pair_idx: pair.idx,
                        round,
                    })
                {
                    if let Some(r) = ctx.relays.get(usize::from(relay)) {
                        r.kill();
                    }
                }
                let call = ControllerMsg::Call {
                    callee_addr: pair.callee_addr.to_string(),
                    relay_addr: relay_addr.to_string(),
                    relay,
                    session,
                    round,
                    probes: ctx.probes,
                    gap_ms: ctx.gap_ms,
                };
                obs.inc("testbed_calls_placed_total", 1);
                match place_call(ctx, conn, &call, &mut faults, &mut rng, &mut obs) {
                    Ok(Some((metrics, degraded))) => ctx.reports.lock().push(ReportRecord {
                        caller,
                        callee: pair.callee,
                        relay,
                        round,
                        metrics,
                        degraded,
                    }),
                    Ok(None) => ctx.failures.lock().push(failure(FailureCause::CallTimeout)),
                    Err(e) => {
                        // The stream is unusable: fail this call, mark every
                        // pair of this caller as cut off, and stop.
                        let mut sink = ctx.failures.lock();
                        sink.push(failure(FailureCause::Stream {
                            detail: e.to_string(),
                        }));
                        sink.extend(pairs.iter().map(|p| {
                            let detail = "caller control stream lost".into();
                            PairFailure::whole(caller, p.callee, FailureCause::Stream { detail })
                        }));
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
    use std::thread::JoinHandle;

    /// A peer that registers as `client`, then reads until `Finished` or
    /// until the controller drops the stream.
    fn peer(addr: SocketAddr, client: usize) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let register = ClientMsg::Register {
                client,
                udp_port: 1,
            };
            write_frame(&mut s, &register).unwrap();
            while let Ok(msg) = read_frame::<ControllerMsg>(&mut s) {
                if msg == ControllerMsg::Finished {
                    break;
                }
            }
        })
    }

    /// One round of one 1-ms probe per call, no faults and no relays to kill.
    fn config(
        fault: &FaultPlan,
        pairs: Vec<PairSpec>,
        timing: ControlTiming,
    ) -> ControllerConfig<'_> {
        ControllerConfig {
            rounds: 1,
            probes: 1,
            gap_ms: 1,
            pairs,
            timing,
            fault,
            relays: &[],
        }
    }

    fn pair(caller: usize, callee: usize) -> PairSpec {
        PairSpec {
            caller,
            callee,
            relays: vec![(0, "127.0.0.1:5000".parse().unwrap())],
        }
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
            FailureCause::Unregistered { client: 0 }.kind(),
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
        // The run's one client registers; the plan's caller 5 does not exist.
        let joiner = peer(listener.local_addr().unwrap(), 0);
        let fault = FaultPlan::none();
        let cfg = config(&fault, vec![pair(5, 0)], ControlTiming::default());
        let err = run_controller(listener, cfg, 1, |_, _, _, _, _| {}).unwrap_err();
        assert!(matches!(err, TestbedError::Protocol(_)));
        joiner.join().unwrap();
    }

    /// A second `Register` for a client already registered is a protocol
    /// violation, like every other bad registration: it must not silently
    /// replace the first registrant's connection. So is an index past the
    /// run's client count.
    #[test]
    fn rejects_a_second_register_for_one_client() {
        for (row, clients) in [("twice", [0, 0]), ("out of range", [0, 2])] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let joiners = clients.map(|client| peer(addr, client));
            let fault = FaultPlan::none();
            let timing = ControlTiming {
                registration: Duration::from_millis(500),
                ..ControlTiming::default()
            };
            let got = run_controller(
                listener,
                config(&fault, Vec::new(), timing),
                2,
                |_, _, _, _, _| {},
            );
            assert!(
                matches!(got, Err(TestbedError::Protocol(_))),
                "{row}: {:?}",
                got.map(|o| o.failures)
            );
            for j in joiners {
                j.join().unwrap();
            }
        }
    }

    /// Session ids go to runnable pairs in plan order and to each pair's
    /// relays in order, from 1; a pair naming an absent client gets none.
    /// The relay's per-session sway is seeded by this id, so the allocation
    /// is part of every testbed measurement.
    #[test]
    fn session_ids_follow_runnable_pairs_then_relays() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Clients 0, 1 and 2 register and wait for `Finished`; 3 never comes.
        let joiners = [0, 1, 2].map(|client| peer(addr, client));
        let relay: SocketAddr = "127.0.0.1:5000".parse().unwrap();
        let pair = |callee| PairSpec {
            caller: 0,
            callee,
            relays: vec![(0, relay), (1, relay)],
        };
        let fault = FaultPlan::none();
        // No call is answered: the global deadline ends the run early.
        let timing = ControlTiming {
            registration: Duration::from_millis(300),
            global: Duration::from_millis(600),
        };
        let cfg = config(&fault, vec![pair(1), pair(2), pair(3)], timing);
        let granted = std::cell::RefCell::new(Vec::new());
        run_controller(listener, cfg, 4, |pair_idx, relay, session, _, _| {
            granted.borrow_mut().push((pair_idx, relay, session));
        })
        .unwrap();
        assert_eq!(
            granted.into_inner(),
            [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]
        );
        for j in joiners {
            j.join().unwrap();
        }
    }

    /// A client that never registers degrades into per-pair failures rather
    /// than aborting the run (partial-results contract).
    #[test]
    fn missing_client_yields_partial_failures_not_abort() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let joiner = peer(listener.local_addr().unwrap(), 0);
        let fault = FaultPlan::none();
        let timing = ControlTiming {
            registration: Duration::from_millis(300),
            ..ControlTiming::default()
        };
        // Expect two clients; only client 0 arrives before the deadline.
        let cfg = config(&fault, vec![pair(0, 1)], timing);
        let outcome = run_controller(listener, cfg, 2, |_, _, _, _, _| {}).unwrap();
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(
            outcome.failures[0].cause,
            FailureCause::Unregistered { client: 1 }
        );
        joiner.join().unwrap();
    }
}
