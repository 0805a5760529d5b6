//! Chaos soak for the §5.5 testbed: a seeded [`FaultPlan`] kills a relay
//! mid-run, blackholes a probe leg, partitions a client, and drops/duplicates
//! control frames — and the harness must still complete with partial,
//! deterministic results: no panic, no hang past the global deadline,
//! degraded calls falling back to the direct path, and two same-seed runs
//! producing byte-identical summaries.

use std::time::{Duration, Instant};
use via_testbed::{run_testbed, ControlTiming, FaultPlan, RelayKill, TestbedConfig, TestbedResult};

/// The chaos scenario. All three pairs share caller `client-0`, so the
/// controller runs a single orchestration thread and the call schedule —
/// which the relay kill is anchored to — is strictly sequential:
/// per round, (pair 0, relay 0), (pair 0, relay 1), (pair 1, relay 0),
/// (pair 1, relay 1).
fn chaos_config() -> TestbedConfig {
    let mut cfg = TestbedConfig::fast();
    cfg.n_clients = 4;
    cfg.n_relays = 2;
    cfg.n_pairs = 3; // (client-0→1), (client-0→2), (client-0→3)
    cfg.rounds = 2;
    cfg.probes = 8;
    cfg.gap_ms = 1;
    cfg.seed = 77;
    cfg.fault = FaultPlan {
        seed: 9001,
        frame_drop_pct: 10.0,
        frame_dup_pct: 5.0,
        frame_delay_ms: 0,
        // Relay 1 dies just before the (pair 1, round 0) call.
        kill_relay: Some(RelayKill {
            relay: 1,
            pair_idx: 1,
            round: 0,
        }),
        // The (pair 0, relay 0) probe leg forwards nothing.
        blackhole: Some((0, 0)),
        // client-3 never starts: its pair must fail typed, not hang.
        partition_client: Some(3),
    };
    cfg.timing = ControlTiming {
        registration: Duration::from_secs(2),
        global: Duration::from_secs(60),
    };
    cfg
}

fn run(cfg: &TestbedConfig) -> (TestbedResult, Duration) {
    let start = Instant::now();
    let result =
        run_testbed(cfg).unwrap_or_else(|e| panic!("chaos run must complete, not abort: {e}"));
    (result, start.elapsed())
}

#[test]
fn chaos_soak_degrades_gracefully_and_is_deterministic() {
    let cfg = chaos_config();
    let (result, elapsed) = run(&cfg);

    // No hang: the run finishes inside the global deadline (plus teardown
    // slack), even with a dead relay, a blackhole, and dropped frames.
    assert!(
        elapsed < cfg.timing.global + Duration::from_secs(10),
        "run took {elapsed:?}, past the global deadline {:?}",
        cfg.timing.global
    );

    // The partitioned client's pair fails with a typed cause.
    assert!(
        result
            .failures
            .iter()
            .any(|f| f.callee == 3 && f.cause.kind() == "unregistered"),
        "partitioned client-3 should yield an unregistered failure: {:?}",
        result.failures
    );

    // Every planned call on the two runnable pairs is accounted for: either
    // a report or a typed per-call failure — nothing silently vanishes.
    let planned = 2 /* pairs */ * 2 /* relays */ * 2 /* rounds */;
    let call_failures = result.failures.iter().filter(|f| f.relay.is_some()).count();
    assert_eq!(
        result.reports.len() + call_failures,
        planned,
        "reports {:?} + failures {:?} must cover the schedule",
        result.reports.len(),
        result.failures
    );

    // The blackholed leg (pair client-0→client-1, relay 0) produces zero
    // echoes, so every report for it must be a degraded direct-path
    // measurement carrying plausible metrics.
    let blackholed: Vec<_> = result
        .reports
        .iter()
        .filter(|r| r.callee == 1 && r.relay == 0)
        .collect();
    assert!(
        !blackholed.is_empty(),
        "blackholed pair produced no reports"
    );
    for r in &blackholed {
        assert!(r.degraded, "blackholed call not degraded: {r:?}");
        assert!(
            r.metrics.loss_pct < 100.0,
            "direct fallback measured nothing: {r:?}"
        );
    }

    // Relay 1 was killed just before the (pair 1, round 0) call. The one
    // call scheduled before the kill point — (pair 0, relay 1, round 0) —
    // is healthy; every relay-1 call from the kill point on is degraded.
    for r in result.reports.iter().filter(|r| r.relay == 1) {
        let before_kill = r.callee == 1 && r.round == 0;
        assert_eq!(
            r.degraded, !before_kill,
            "relay-1 call on the wrong side of the kill point: {r:?}"
        );
    }

    // The healthy pair leg (client-0→client-2 over relay 0) stays clean.
    for r in result
        .reports
        .iter()
        .filter(|r| r.callee == 2 && r.relay == 0)
    {
        assert!(!r.degraded, "healthy leg reported degraded: {r:?}");
    }

    assert!(
        result.degraded_count() >= 3,
        "expected several degraded fallbacks, got {}",
        result.degraded_count()
    );

    // Determinism: a second run with the same seeds reproduces the summary
    // byte-for-byte, chaos and all.
    let (again, _) = run(&cfg);
    assert_eq!(
        result.summary(),
        again.summary(),
        "same-seed chaos runs diverged"
    );
    assert!(!result.summary().is_empty());
}
