//! In-process testbed assembly: relays + clients + controller on loopback.
//!
//! Reproduces the shape of the paper's deployment (§5.5): a handful of
//! clients "in different countries" (each assigned an AS of a `via-netsim`
//! world, whose segment model supplies the emulated impairments), a fleet of
//! relay forwarders, and the controller orchestrating back-to-back probe
//! calls over every relaying option.
//!
//! A [`FaultPlan`] in the config can partition a client (never started),
//! blackhole a probe leg (sessions installed with 100% loss), kill a relay
//! at a schedule point, and drop/duplicate/delay call-plane control frames
//! on both ends; the harness applies the first two, the controller reads the
//! rest from the plan itself. Runs complete with partial results — see
//! [`TestbedResult::failures`] — and [`TestbedResult::summary`] renders a
//! deterministic, metrics-free digest that two same-seed runs reproduce
//! byte-identically even under injected chaos.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use via_model::ids::{AsId, RelayId};
use via_model::metrics::PathMetrics;
use via_model::time::SimTime;
use via_netsim::{World, WorldConfig};

use crate::client::{run_client_with, ClientConfig};
use crate::controller::{
    run_controller, ControlTiming, ControllerConfig, PairFailure, PairSpec, ReportRecord,
};
use crate::error::TestbedError;
use crate::fault::FaultPlan;
use crate::impair::ImpairParams;
use crate::protocol::RelayIndex;
use crate::relay::{RelayHandle, Session};

/// Testbed parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of clients (paper: 14 machines).
    pub n_clients: usize,
    /// Number of relays (the paper's pairs saw 9–20 options).
    pub n_relays: usize,
    /// Number of caller–callee pairs (paper: 18).
    pub n_pairs: usize,
    /// Back-to-back sweeps per pair (paper: 4–5).
    pub rounds: u32,
    /// Probes per call.
    pub probes: u16,
    /// Inter-probe gap, ms.
    pub gap_ms: u64,
    /// Seed for everything.
    pub seed: u64,
    /// Failures to inject (default: none).
    pub fault: FaultPlan,
    /// Control-plane deadlines.
    pub timing: ControlTiming,
}

impl TestbedConfig {
    /// A fast configuration for tests: completes in a few seconds.
    pub fn fast() -> Self {
        Self {
            n_clients: 4,
            n_relays: 4,
            n_pairs: 3,
            rounds: 3,
            probes: 15,
            gap_ms: 2,
            seed: 18,
            fault: FaultPlan::none(),
            timing: ControlTiming::default(),
        }
    }

    /// The paper-shaped configuration: 18 pairs, 4–5 rounds, more relays.
    /// Takes a minute or two of wall-clock (real delays are emulated).
    pub fn paper_shaped() -> Self {
        Self {
            n_clients: 14,
            n_relays: 6,
            n_pairs: 18,
            rounds: 4,
            probes: 25,
            gap_ms: 4,
            seed: 55,
            fault: FaultPlan::none(),
            timing: ControlTiming {
                global: std::time::Duration::from_secs(600),
                ..ControlTiming::default()
            },
        }
    }
}

/// Everything a testbed run produces.
#[derive(Debug)]
pub struct TestbedResult {
    /// All measurements collected by the controller (possibly partial under
    /// injected faults), sorted by (caller, callee, relay, round) index.
    pub reports: Vec<ReportRecord>,
    /// Every planned call or pair that produced no report, with its cause.
    pub failures: Vec<PairFailure>,
    /// Errors returned by client threads, by client index (e.g. an idle
    /// timeout after the controller cut a stream). Text may embed OS error
    /// strings, so this is excluded from [`TestbedResult::summary`].
    pub client_errors: Vec<(usize, String)>,
    /// The impairment-derived expected metrics per (caller, callee, relay)
    /// index: ground truth for validating measurements.
    pub expected: HashMap<(usize, usize, RelayIndex), PathMetrics>,
    /// Total packets forwarded by all relays.
    pub forwarded: u64,
    /// Total packets dropped by impairment.
    pub dropped: u64,
    /// Observability snapshot: control-plane counters (retries, deadline
    /// hits, injected frame fates, typed failure kinds), report outcomes,
    /// and relay data-plane totals. Testbed metrics describe real socket
    /// behavior and are *not* covered by the byte-identical determinism
    /// contract — that contract is [`TestbedResult::summary`]'s.
    pub obs: via_obs::MetricsSnapshot,
}

impl TestbedResult {
    /// Number of reports measured over the direct fallback path.
    pub fn degraded_count(&self) -> usize {
        self.reports.iter().filter(|r| r.degraded).count()
    }

    /// A deterministic digest of the run: one sorted line per call outcome
    /// and per failure. Deliberately excludes metrics, timings, and error
    /// detail strings so that two same-seed runs — even chaotic ones —
    /// produce identical summaries.
    pub fn summary(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .reports
            .iter()
            .map(|r| {
                let status = if r.degraded { "degraded" } else { "ok" };
                format!(
                    "call client-{}->client-{} relay {} round {}: {status}",
                    r.caller, r.callee, r.relay, r.round
                )
            })
            .collect();
        lines.extend(self.failures.iter().map(|f| {
            let relay = f.relay.map_or_else(|| "-".to_string(), |r| r.to_string());
            let round = f.round.map_or_else(|| "-".to_string(), |r| r.to_string());
            format!(
                "fail client-{}->client-{} relay {relay} round {round}: {}",
                f.caller,
                f.callee,
                f.cause.kind()
            )
        }));
        lines.sort();
        lines
    }
}

/// Emulated one-way leg between a client (by AS) and a relay, derived from
/// the world's segment model. Delay is half the segment RTT; jitter and loss
/// split evenly between directions.
fn leg_params(world: &World, as_id: AsId, relay: RelayId) -> ImpairParams {
    let seg = world.perf().segment_mean(
        via_netsim::Segment::RelayWan(as_id, relay),
        SimTime::from_days(1),
    );
    ImpairParams {
        delay_ms: seg.rtt_ms / 2.0,
        jitter_ms: seg.jitter_ms / std::f64::consts::SQRT_2,
        loss_pct: seg.loss_pct / 2.0,
        // A light corruption rate exercises the defensive parsers; corrupted
        // probes surface as loss, like bit errors on a real path.
        corrupt_pct: 0.05,
    }
}

/// Validates a config, returning a typed error instead of panicking so a
/// bad CLI invocation fails gracefully.
fn validate(cfg: &TestbedConfig, world: &World) -> Result<(), TestbedError> {
    if cfg.n_clients < 2 {
        return Err(TestbedError::Config("need at least two clients".into()));
    }
    if cfg.n_relays == 0 {
        return Err(TestbedError::Config("need at least one relay".into()));
    }
    if world.ases.len() < cfg.n_clients {
        return Err(TestbedError::Config(format!(
            "world has {} ASes but {} clients were requested",
            world.ases.len(),
            cfg.n_clients
        )));
    }
    if world.relays.len() < cfg.n_relays {
        return Err(TestbedError::Config(format!(
            "world has {} relays but {} were requested",
            world.relays.len(),
            cfg.n_relays
        )));
    }
    if let Some(i) = cfg.fault.partition_client {
        if i >= cfg.n_clients {
            return Err(TestbedError::Config(format!(
                "partition_client {i} out of range (n_clients {})",
                cfg.n_clients
            )));
        }
    }
    Ok(())
}

/// Runs a complete testbed experiment and returns the (possibly partial)
/// measurements.
///
/// # Errors
/// Setup failures only (bad config, listener I/O, registration protocol
/// violations). Injected faults and mid-run failures surface as
/// [`TestbedResult::failures`] / [`TestbedResult::client_errors`] instead.
pub fn run_testbed(cfg: &TestbedConfig) -> Result<TestbedResult, TestbedError> {
    // Geography and impairments come from the tiny world: it holds enough
    // ASes and relays for every testbed preset (`validate` checks).
    let world = World::generate(&WorldConfig::tiny(), cfg.seed);
    validate(cfg, &world)?;

    // Spread clients across ASes (and hence countries). A client is its
    // index in this list.
    let client_as: Vec<AsId> = (0..cfg.n_clients)
        .map(|i| world.ases[(i * world.ases.len()) / cfg.n_clients].id)
        .collect();

    // Relays, and every pair's options over them.
    let relays: Vec<RelayHandle> = (0..cfg.n_relays)
        .map(|i| RelayHandle::spawn(cfg.seed + i as u64))
        .collect::<Result<_, _>>()?;
    let options: Vec<(RelayIndex, SocketAddr)> = relays
        .iter()
        .enumerate()
        .map(|(r, relay)| {
            let idx = RelayIndex::try_from(r).map_err(|_| {
                TestbedError::Config(format!("relay index {r} exceeds the u16 wire range"))
            })?;
            Ok((idx, relay.addr()))
        })
        .collect::<Result<_, TestbedError>>()?;

    // Pair plan: round-robin over distinct (caller, callee) combinations.
    let mut pairs = Vec::new();
    'outer: for caller in 0..cfg.n_clients {
        for callee in (caller + 1)..cfg.n_clients {
            pairs.push(PairSpec {
                caller,
                callee,
                relays: options.clone(),
            });
            if pairs.len() >= cfg.n_pairs {
                break 'outer;
            }
        }
    }

    // Each (pair, relay) session's impairment, caller → callee and back:
    // the two client–relay legs chained.
    let legs: Vec<Vec<(ImpairParams, ImpairParams)>> = pairs
        .iter()
        .map(|pair| {
            let relay_id = |r: RelayIndex| RelayId(u32::from(r));
            let (ca, cb) = (client_as[pair.caller], client_as[pair.callee]);
            pair.relays
                .iter()
                .map(|&(r, _)| {
                    let leg_a = leg_params(&world, ca, relay_id(r));
                    let leg_b = leg_params(&world, cb, relay_id(r));
                    (leg_a.chain(&leg_b), leg_b.chain(&leg_a))
                })
                .collect()
        })
        .collect();

    // Expected (ground-truth) per-(pair, relay) metrics from the impairment
    // parameters: caller→relay→callee and back.
    let mut expected = HashMap::new();
    for (pair, pair_legs) in pairs.iter().zip(&legs) {
        for (&(r, _), (one_way, _)) in pair.relays.iter().zip(pair_legs) {
            // Echo path doubles delay; loss applies on both crossings.
            let rt = one_way.chain(one_way);
            expected.insert(
                (pair.caller, pair.callee, r),
                PathMetrics::new(rt.delay_ms, rt.loss_pct, rt.jitter_ms),
            );
        }
    }

    // The session registrar wires controller-assigned sessions into relays
    // with the impairments of the two legs; the controller hands it the pair
    // index explicitly, so skipped (failed) pairs cannot shift the mapping.
    // Per-session temporal sway (deterministic in the seed + session order):
    // effective delay oscillates ±25% with a period comparable to a sweep,
    // so consecutive rounds can disagree about the best relay.
    let registrar = |pair_idx: usize,
                     relay: RelayIndex,
                     session: u16,
                     caller_addr: SocketAddr,
                     callee_addr: SocketAddr| {
        let (a_to_b, b_to_a) = if cfg.fault.blackhole == Some((pair_idx, relay)) {
            (ImpairParams::BLACKHOLE, ImpairParams::BLACKHOLE)
        } else {
            // A pair's options are every relay, in index order.
            legs.get(pair_idx)
                .and_then(|l| l.get(usize::from(relay)))
                .copied()
                .unwrap_or((ImpairParams::CLEAN, ImpairParams::CLEAN))
        };
        let mix = via_model::seed::derive_indexed(cfg.seed, "sway", u64::from(session));
        relays[usize::from(relay)].register_session(
            session,
            Session {
                a: caller_addr,
                b: callee_addr,
                a_to_b,
                b_to_a,
                sway_amp: 0.10 + (mix % 1000) as f64 / 1000.0 * 0.25,
                sway_period_s: 6.0 + (mix >> 10 & 0x3FF) as f64 / 1024.0 * 18.0,
                sway_phase: (mix >> 20 & 0x3FF) as f64 / 1024.0 * std::f64::consts::TAU,
            },
        );
    };

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let controller_addr = listener.local_addr()?;

    // Clients run on their own threads; a partitioned client is simply
    // never started, so it never registers.
    let mut client_threads = Vec::new();
    for i in 0..cfg.n_clients {
        if cfg.fault.partition_client == Some(i) {
            continue;
        }
        let client_cfg = ClientConfig {
            // Callees idle for the entire run; only a controller death
            // should time them out.
            idle_timeout: cfg.timing.global + std::time::Duration::from_secs(5),
            faults: cfg.fault.frame_faults("client-report", i as u64),
        };
        let handle = std::thread::Builder::new()
            .name(format!("via-client-{i}"))
            .spawn(move || run_client_with(i, controller_addr, client_cfg))
            .map_err(TestbedError::Io)?;
        client_threads.push((i, handle));
    }

    let t_run = via_obs::Stopwatch::started();
    let controller_cfg = ControllerConfig {
        rounds: cfg.rounds,
        probes: cfg.probes,
        gap_ms: cfg.gap_ms,
        pairs,
        timing: cfg.timing.clone(),
        fault: &cfg.fault,
        relays: &relays,
    };
    let outcome = run_controller(listener, controller_cfg, cfg.n_clients, registrar)?;

    let mut client_errors = Vec::new();
    for (i, t) in client_threads {
        match t.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => client_errors.push((i, e.to_string())),
            Err(_) => client_errors.push((i, "client thread panicked".into())),
        }
    }

    let forwarded = relays.iter().map(RelayHandle::forwarded).sum();
    let dropped = relays.iter().map(RelayHandle::dropped).sum();

    let mut sink = outcome.obs;
    sink.inc("testbed_relay_forwarded_total", forwarded);
    sink.inc("testbed_relay_dropped_total", dropped);
    sink.inc("testbed_client_errors_total", client_errors.len() as u64);
    sink.time("testbed.run", t_run);

    Ok(TestbedResult {
        reports: outcome.reports,
        failures: outcome.failures,
        client_errors,
        expected,
        forwarded,
        dropped,
        obs: sink.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_testbed_completes_and_measures() {
        let cfg = TestbedConfig::fast();
        let result = run_testbed(&cfg).expect("testbed run");
        let expected_reports = cfg.n_pairs * cfg.n_relays * cfg.rounds as usize;
        assert_eq!(result.reports.len(), expected_reports);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert!(
            result.client_errors.is_empty(),
            "{:?}",
            result.client_errors
        );
        assert_eq!(result.degraded_count(), 0);
        assert!(result.forwarded > 0, "relays forwarded nothing");

        // Measurements should land in the ballpark of the emulated paths.
        let mut checked = 0;
        for rec in &result.reports {
            let key = (rec.caller, rec.callee, rec.relay);
            let exp = &result.expected[&key];
            if rec.metrics.loss_pct < 50.0 {
                // RTT within a loose factor (loopback scheduling noise).
                assert!(
                    rec.metrics.rtt_ms > exp.rtt_ms * 0.5
                        && rec.metrics.rtt_ms < exp.rtt_ms * 3.0 + 100.0,
                    "pair {key:?}: measured {} vs expected {}",
                    rec.metrics.rtt_ms,
                    exp.rtt_ms
                );
                checked += 1;
            }
        }
        assert!(
            checked > expected_reports / 2,
            "too few usable measurements"
        );
    }

    #[test]
    fn bad_configs_error_instead_of_panicking() {
        let mut cfg = TestbedConfig::fast();
        cfg.n_clients = 1;
        assert!(matches!(run_testbed(&cfg), Err(TestbedError::Config(_))));
        let mut cfg = TestbedConfig::fast();
        cfg.n_relays = 0;
        assert!(matches!(run_testbed(&cfg), Err(TestbedError::Config(_))));
        let mut cfg = TestbedConfig::fast();
        cfg.fault.partition_client = Some(99);
        assert!(matches!(run_testbed(&cfg), Err(TestbedError::Config(_))));
    }

    #[test]
    fn summary_is_sorted_and_metrics_free() {
        let result = TestbedResult {
            reports: vec![ReportRecord {
                caller: 0,
                callee: 1,
                relay: 1,
                round: 0,
                metrics: PathMetrics::new(10.0, 0.0, 1.0),
                degraded: true,
            }],
            failures: vec![PairFailure {
                caller: 0,
                callee: 2,
                relay: None,
                round: None,
                cause: crate::controller::FailureCause::Unregistered { client: 2 },
            }],
            client_errors: vec![],
            expected: HashMap::new(),
            forwarded: 0,
            dropped: 0,
            obs: via_obs::MetricsSnapshot::default(),
        };
        let summary = result.summary();
        assert_eq!(summary.len(), 2);
        assert!(summary[0].starts_with("call client-0->client-1 relay 1 round 0: degraded"));
        assert!(summary[1].starts_with("fail client-0->client-2 relay - round -: unregistered"));
        // Metrics must not leak into the summary (determinism contract).
        assert!(summary.iter().all(|l| !l.contains("10")));
    }
}
