//! In-process testbed assembly: relays + clients + controller on loopback.
//!
//! Reproduces the shape of the paper's deployment (§5.5): a handful of
//! clients "in different countries" (each assigned an AS of a `via-netsim`
//! world, whose segment model supplies the emulated impairments), a fleet of
//! relay forwarders, and the controller orchestrating back-to-back probe
//! calls over every relaying option.
//!
//! The harness also owns fault injection: a [`FaultPlan`] in the config can
//! partition a client (never started), blackhole a probe leg (sessions
//! installed with 100% loss), kill a relay at a schedule point (via the
//! controller's `before_call` hook), and drop/duplicate/delay call-plane
//! control frames on both ends. Runs complete with partial results — see
//! [`TestbedResult::failures`] — and [`TestbedResult::summary`] renders a
//! deterministic, metrics-free digest that two same-seed runs reproduce
//! byte-identically even under injected chaos.

use std::collections::HashMap;
use std::net::TcpListener;
use via_model::ids::{AsId, RelayId};
use via_model::metrics::PathMetrics;
use via_model::time::SimTime;
use via_netsim::{World, WorldConfig};

use crate::client::{run_client_with, ClientConfig};
use crate::controller::{
    run_controller, ControlHooks, ControlTiming, ControllerConfig, PairFailure, PairSpec,
    ReportRecord,
};
use crate::error::TestbedError;
use crate::fault::FaultPlan;
use crate::impair::ImpairParams;
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
    /// Control-plane deadlines and backoff seeding.
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
    /// injected faults), sorted by (caller, callee, relay, round).
    pub reports: Vec<ReportRecord>,
    /// Every planned call or pair that produced no report, with its cause.
    pub failures: Vec<PairFailure>,
    /// Errors returned by client threads (e.g. an idle timeout after the
    /// controller cut a stream). Text may embed OS error strings, so this is
    /// excluded from [`TestbedResult::summary`].
    pub client_errors: Vec<String>,
    /// The impairment-derived expected metrics per (caller, callee, relay):
    /// ground truth for validating measurements.
    pub expected: HashMap<(String, String, u16), PathMetrics>,
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
                    "call {}->{} relay {} round {}: {status}",
                    r.caller, r.callee, r.relay, r.round
                )
            })
            .collect();
        lines.extend(self.failures.iter().map(|f| {
            let relay = f.relay.map_or_else(|| "-".to_string(), |r| r.to_string());
            let round = f.round.map_or_else(|| "-".to_string(), |r| r.to_string());
            format!(
                "fail {}->{} relay {relay} round {round}: {}",
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

    // Spread clients across ASes (and hence countries).
    let client_as: Vec<AsId> = (0..cfg.n_clients)
        .map(|i| world.ases[(i * world.ases.len()) / cfg.n_clients].id)
        .collect();
    let client_names: Vec<String> = (0..cfg.n_clients).map(|i| format!("client-{i}")).collect();

    // Relays.
    let relays: Vec<RelayHandle> = (0..cfg.n_relays)
        .map(|i| RelayHandle::spawn(cfg.seed + i as u64))
        .collect::<Result<_, _>>()?;

    // Pair plan: round-robin over distinct (caller, callee) combinations.
    let mut pairs = Vec::new();
    let mut k = 0usize;
    'outer: for i in 0..cfg.n_clients {
        for j in (i + 1)..cfg.n_clients {
            pairs.push(PairSpec {
                caller: client_names[i].clone(),
                callee: client_names[j].clone(),
                relays: (0..cfg.n_relays)
                    .map(|r| {
                        let idx = u16::try_from(r).map_err(|_| {
                            TestbedError::Config(format!(
                                "relay index {r} exceeds the u16 wire range"
                            ))
                        })?;
                        Ok((idx, relays[r].addr()))
                    })
                    .collect::<Result<_, TestbedError>>()?,
            });
            k += 1;
            if k >= cfg.n_pairs {
                break 'outer;
            }
        }
    }

    // Expected (ground-truth) per-(pair, relay) metrics from the impairment
    // parameters: caller→relay→callee and back.
    let as_of: HashMap<&str, AsId> = client_names
        .iter()
        .map(String::as_str)
        .zip(client_as.iter().copied())
        .collect();
    let mut expected = HashMap::new();
    for pair in &pairs {
        let ca = as_of[pair.caller.as_str()];
        let cb = as_of[pair.callee.as_str()];
        for &(r, _) in &pair.relays {
            let leg_a = leg_params(&world, ca, RelayId(u32::from(r)));
            let leg_b = leg_params(&world, cb, RelayId(u32::from(r)));
            let one_way = leg_a.chain(&leg_b);
            // Echo path doubles delay; loss applies on both crossings.
            let rt = one_way.chain(&one_way);
            expected.insert(
                (pair.caller.clone(), pair.callee.clone(), r),
                PathMetrics::new(rt.delay_ms, rt.loss_pct, rt.jitter_ms),
            );
        }
    }

    // The session registrar wires controller-assigned sessions into relays
    // with the impairments of the two legs; the controller hands it the pair
    // index explicitly, so skipped (failed) pairs cannot shift the mapping.
    // Pair participants are resolved by name from this parallel list.
    let pair_names: Vec<(String, String)> = pairs
        .iter()
        .map(|p| (p.caller.clone(), p.callee.clone()))
        .collect();
    let registrar_world = &world;
    let registrar_relays = &relays;
    let registrar_as_of = &as_of;
    let blackhole = cfg.fault.blackhole;
    // Per-session temporal sway (deterministic in the seed + session order):
    // effective delay oscillates ±25% with a period comparable to a sweep,
    // so consecutive rounds can disagree about the best relay.
    let sway_seed = cfg.seed;
    let registrar = move |pair_idx: usize,
                          relay: crate::protocol::RelayIndex,
                          session: u16,
                          caller_addr: std::net::SocketAddr,
                          callee_addr: std::net::SocketAddr| {
        let (a_to_b, b_to_a) = if blackhole == Some((pair_idx, relay)) {
            (ImpairParams::BLACKHOLE, ImpairParams::BLACKHOLE)
        } else {
            match pair_names.get(pair_idx) {
                Some((caller, callee)) => {
                    let ca = registrar_as_of[caller.as_str()];
                    let cb = registrar_as_of[callee.as_str()];
                    let leg_a = leg_params(registrar_world, ca, RelayId(u32::from(relay)));
                    let leg_b = leg_params(registrar_world, cb, RelayId(u32::from(relay)));
                    (leg_a.chain(&leg_b), leg_b.chain(&leg_a))
                }
                None => (ImpairParams::CLEAN, ImpairParams::CLEAN),
            }
        };
        let mix = via_model::seed::derive_indexed(sway_seed, "sway", u64::from(session));
        registrar_relays[usize::from(relay)].register_session(
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

    // Fault hooks: the relay kill-switch fires deterministically just before
    // the targeted (pair, relay, round) call is placed; control-frame fault
    // streams are derived per connection from the plan seed.
    let kill = cfg.fault.kill_relay;
    let hook_relays = &relays;
    let before_call =
        move |_caller: &str, pair_idx: usize, relay: crate::protocol::RelayIndex, round: u32| {
            if let Some(k) = kill {
                if k.pair_idx == pair_idx && k.relay == relay && k.round == round {
                    if let Some(r) = hook_relays.get(usize::from(relay)) {
                        r.kill();
                    }
                }
            }
        };
    let client_index: HashMap<String, u64> = client_names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), i as u64))
        .collect();
    let fault_plan = cfg.fault.clone();
    let caller_faults = move |caller: &str| {
        client_index
            .get(caller)
            .and_then(|&i| fault_plan.frame_faults("ctrl-call", i))
    };
    let hooks = ControlHooks {
        caller_faults: Some(&caller_faults),
        before_call: Some(&before_call),
    };

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let controller_addr = listener.local_addr()?;
    let mut timing = cfg.timing.clone();
    timing.seed = via_model::seed::derive(cfg.fault.seed, "backoff");
    let controller_cfg = ControllerConfig {
        rounds: cfg.rounds,
        probes: cfg.probes,
        gap_ms: cfg.gap_ms,
        pairs,
        timing: timing.clone(),
    };

    // Clients run on their own threads; a partitioned client is simply
    // never started, so it never registers.
    let mut client_threads = Vec::new();
    for (i, name) in client_names.iter().enumerate() {
        if cfg.fault.partition_client == Some(i) {
            continue;
        }
        let name = name.clone();
        let client_cfg = ClientConfig {
            // Callees idle for the entire run; only a controller death
            // should time them out.
            idle_timeout: timing.global + std::time::Duration::from_secs(5),
            faults: cfg.fault.frame_faults("client-report", i as u64),
        };
        let handle = std::thread::Builder::new()
            .name(format!("via-{name}"))
            .spawn({
                let name = name.clone();
                move || run_client_with(&name, controller_addr, client_cfg)
            })
            .map_err(TestbedError::Io)?;
        client_threads.push((name, handle));
    }

    let t_run = via_obs::Stopwatch::started();
    let outcome = run_controller(listener, controller_cfg, cfg.n_clients, registrar, &hooks)?;

    let mut client_errors = Vec::new();
    for (name, t) in client_threads {
        match t.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => client_errors.push(format!("{name}: {e}")),
            Err(_) => client_errors.push(format!("{name}: client thread panicked")),
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
            let key = (rec.caller.clone(), rec.callee.clone(), rec.relay);
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
                caller: "client-0".into(),
                callee: "client-1".into(),
                relay: 1,
                round: 0,
                metrics: PathMetrics::new(10.0, 0.0, 1.0),
                degraded: true,
            }],
            failures: vec![PairFailure {
                caller: "client-0".into(),
                callee: "client-2".into(),
                relay: None,
                round: None,
                cause: crate::controller::FailureCause::Unregistered {
                    name: "client-2".into(),
                },
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
