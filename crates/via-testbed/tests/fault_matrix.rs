//! Fault-knob matrix for the §5.5 testbed: each [`FaultPlan`] knob is
//! exercised *in isolation* and must produce exactly its own signature —
//! the expected typed [`FailureCause`] kinds, degraded-report counts, and
//! observability counters — with no cross-talk from the other knobs.
//!
//! All configs use a single caller (`client-0`), so the call schedule is
//! strictly sequential and schedule-anchored faults (the relay kill) land
//! at a known position.

use std::time::Duration;
use via_testbed::{run_testbed, ControlTiming, FaultPlan, RelayKill, TestbedConfig, TestbedResult};

/// Two pairs (client-0→1, client-0→2) over two relays, two rounds:
/// 8 planned calls, all placed by the single orchestration thread of
/// client-0 in a fixed order.
fn base_config() -> TestbedConfig {
    let mut cfg = TestbedConfig::fast();
    cfg.n_clients = 3;
    cfg.n_relays = 2;
    cfg.n_pairs = 2;
    cfg.rounds = 2;
    cfg.probes = 6;
    cfg.gap_ms = 1;
    cfg.seed = 21;
    cfg.timing = ControlTiming {
        registration: Duration::from_secs(2),
        global: Duration::from_secs(60),
        seed: 0, // the harness derives the backoff seed from fault.seed
    };
    cfg
}

/// Planned calls in [`base_config`]: pairs × relays × rounds.
const PLANNED: usize = 2 * 2 * 2;

fn run(cfg: &TestbedConfig) -> TestbedResult {
    run_testbed(cfg).unwrap_or_else(|e| panic!("testbed run must complete: {e}"))
}

/// Every planned call is a report or a typed per-call failure.
fn assert_all_calls_accounted(r: &TestbedResult) {
    let call_failures = r.failures.iter().filter(|f| f.relay.is_some()).count();
    assert_eq!(
        r.reports.len() + call_failures,
        PLANNED,
        "reports {} + call failures {call_failures} must cover the {PLANNED}-call schedule: {:?}",
        r.reports.len(),
        r.failures
    );
}

#[test]
fn drop_knob_forces_retries_and_only_timeout_failures() {
    let mut cfg = base_config();
    cfg.fault = FaultPlan {
        seed: 5,
        frame_drop_pct: 25.0,
        ..FaultPlan::none()
    };
    let r = run(&cfg);

    assert!(
        r.obs.counter("testbed_ctrl_frames_dropped_total") > 0,
        "a 25% drop plan over {PLANNED}+ frames must drop something"
    );
    assert!(
        r.obs.counter("testbed_call_retries_total") > 0,
        "each dropped Call frame must drive a retry"
    );
    // Dropped frames either recover via retry or exhaust into a
    // call-timeout — never any other cause, never a degraded measurement.
    assert_all_calls_accounted(&r);
    assert!(
        r.failures.iter().all(|f| f.cause.kind() == "call-timeout"),
        "only retry exhaustion may fail a call under pure frame drop: {:?}",
        r.failures
    );
    assert_eq!(r.degraded_count(), 0, "drop faults must not degrade calls");
    assert_eq!(r.obs.counter("testbed_ctrl_frames_duplicated_total"), 0);
}

#[test]
fn dup_knob_is_absorbed_by_stale_report_filtering() {
    let mut cfg = base_config();
    cfg.fault = FaultPlan {
        seed: 5,
        frame_dup_pct: 60.0,
        ..FaultPlan::none()
    };
    let r = run(&cfg);

    assert!(
        r.obs.counter("testbed_ctrl_frames_duplicated_total") > 0,
        "a 60% duplication plan must duplicate something"
    );
    assert_eq!(r.obs.counter("testbed_ctrl_frames_dropped_total"), 0);
    // Duplicate Call frames produce duplicate Reports; the controller skips
    // stale ones, so every call still completes exactly once.
    assert_eq!(r.reports.len(), PLANNED, "{:?}", r.failures);
    assert!(r.failures.is_empty(), "{:?}", r.failures);
    assert_eq!(r.degraded_count(), 0);
}

#[test]
fn delay_knob_slows_every_frame_without_losing_any() {
    let mut cfg = base_config();
    cfg.fault = FaultPlan {
        seed: 5,
        frame_delay_ms: 40,
        ..FaultPlan::none()
    };
    let r = run(&cfg);

    // No drops, so each planned call delivers (at least) its first attempt,
    // each behind the injected delay.
    assert!(
        r.obs.counter("testbed_ctrl_frames_delayed_total") >= PLANNED as u64,
        "every delivered Call frame must be delayed: {:?}",
        r.obs.counters
    );
    assert_eq!(r.reports.len(), PLANNED, "{:?}", r.failures);
    assert!(r.failures.is_empty(), "{:?}", r.failures);
    assert_eq!(r.degraded_count(), 0);
}

#[test]
fn relay_kill_degrades_exactly_the_calls_after_the_kill_point() {
    let mut cfg = base_config();
    // Relay 1 dies just before the (pair 0, round 1) call: both round-0
    // relay-1 calls are healthy, both round-1 relay-1 calls fall back to
    // the degraded direct path.
    cfg.fault = FaultPlan {
        seed: 5,
        kill_relay: Some(RelayKill {
            relay: 1,
            pair_idx: 0,
            round: 1,
        }),
        ..FaultPlan::none()
    };
    let r = run(&cfg);

    assert_eq!(r.reports.len(), PLANNED, "{:?}", r.failures);
    assert!(r.failures.is_empty(), "{:?}", r.failures);
    for rec in &r.reports {
        let expect_degraded = rec.relay == 1 && rec.round == 1;
        assert_eq!(
            rec.degraded, expect_degraded,
            "report on the wrong side of the kill point: {rec:?}"
        );
    }
    assert_eq!(r.degraded_count(), 2);
    assert_eq!(r.obs.counter("testbed_reports_degraded_total"), 2);
}

#[test]
fn blackhole_degrades_exactly_the_targeted_leg() {
    let mut cfg = base_config();
    // The (pair 0, relay 0) probe leg forwards nothing; the relay is up,
    // so the client measures the direct fallback instead.
    cfg.fault = FaultPlan {
        seed: 5,
        blackhole: Some((0, 0)),
        ..FaultPlan::none()
    };
    let r = run(&cfg);

    assert_eq!(r.reports.len(), PLANNED, "{:?}", r.failures);
    assert!(r.failures.is_empty(), "{:?}", r.failures);
    for rec in &r.reports {
        let expect_degraded = rec.callee == "client-1" && rec.relay == 0;
        assert_eq!(
            rec.degraded, expect_degraded,
            "degradation must hit exactly the blackholed leg: {rec:?}"
        );
        if rec.degraded {
            assert!(
                rec.metrics.loss_pct < 100.0,
                "direct fallback measured nothing: {rec:?}"
            );
        }
    }
    assert_eq!(r.degraded_count(), 2, "one blackholed call per round");
    assert_eq!(r.obs.counter("testbed_reports_degraded_total"), 2);
}

#[test]
fn partition_fails_exactly_the_pairs_naming_the_absent_client() {
    let mut cfg = base_config();
    // client-2 never starts: the (client-0 → client-2) pair must fail with
    // a typed `unregistered` cause; the other pair is untouched.
    cfg.fault = FaultPlan {
        seed: 5,
        partition_client: Some(2),
        ..FaultPlan::none()
    };
    let r = run(&cfg);

    assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
    let f = &r.failures[0];
    assert_eq!(f.cause.kind(), "unregistered");
    assert_eq!(
        (f.caller.as_str(), f.callee.as_str()),
        ("client-0", "client-2")
    );
    assert_eq!(f.relay, None, "the whole pair fails, not individual calls");

    // The healthy pair still produces its full schedule, clean.
    assert_eq!(r.reports.len(), 2 /* relays */ * 2 /* rounds */);
    assert!(r.reports.iter().all(|rec| rec.callee == "client-1"));
    assert_eq!(r.degraded_count(), 0);

    assert_eq!(r.obs.counter("testbed_clients_registered_total"), 2);
    assert_eq!(r.obs.counter("testbed_failures_unregistered_total"), 1);
}
