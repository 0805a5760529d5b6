//! Fault matrix for the multipath merge model: each way a path set can
//! lose members mid-call is exercised in isolation and must produce exactly
//! its own signature — failover counters, the degraded flag, and the typed
//! [`MergeFailure`] cause — with no cross-talk between the cases.
//!
//! The grid mirrors `via-testbed/tests/fault_matrix.rs`: kill one path of a
//! two-path set and the call completes degraded with one counted failover;
//! kill both and the set fails with the *same* typed cause as a singlepath
//! relay death, so upstream failure handling never needs a multipath case.

#![allow(clippy::expect_used, reason = "test code: a broken fixture panics")]

use via_media::merge::{
    simulate_set, MergeConfig, MergeFailure, MergeMode, MergeReport, MergeScratch, PathSpec,
};
use via_model::metrics::PathMetrics;

/// Deterministic config: drawn deaths disabled so only the explicit
/// `dies_at_ms` knobs fire, exactly like the testbed's isolated fault knobs.
fn cfg() -> MergeConfig {
    MergeConfig {
        frames: 32,
        death_prob: 0.0,
        ..MergeConfig::default()
    }
}

fn path(key: u64) -> PathSpec {
    PathSpec::alive(PathMetrics::new(120.0, 1.0, 4.0), key)
}

fn dying(key: u64, at_ms: f64) -> PathSpec {
    PathSpec {
        dies_at_ms: at_ms,
        ..path(key)
    }
}

fn run(specs: &[PathSpec], mode: MergeMode) -> MergeReport {
    simulate_set(specs, mode, &cfg(), 77, &mut MergeScratch::default())
}

/// Mid-call: strictly inside the 32-frame (640 ms) call.
const MID_CALL_MS: f64 = 300.0;

#[test]
fn healthy_set_has_no_fault_signature() {
    for mode in [MergeMode::Duplicate, MergeMode::Stripe] {
        let r = run(&[path(1), path(2)], mode);
        assert_eq!(r.failovers, 0, "healthy {mode:?} set counted a failover");
        assert!(!r.degraded, "healthy {mode:?} set reported degraded");
        assert!(r.failure.is_none(), "healthy {mode:?} set reported failure");
        assert!(r.unique_received > 0);
    }
}

#[test]
fn kill_one_path_mid_call_is_a_failover_not_a_failure() {
    for mode in [MergeMode::Duplicate, MergeMode::Stripe] {
        let r = run(&[dying(1, MID_CALL_MS), path(2)], mode);
        assert_eq!(
            r.failovers, 1,
            "one mid-call death with a survivor must count exactly one failover ({mode:?})"
        );
        assert!(
            r.degraded,
            "the surviving call must be flagged degraded ({mode:?})"
        );
        assert!(
            r.failure.is_none(),
            "a survivor means the call completes — no typed failure ({mode:?})"
        );
        // The survivor keeps delivering after the death instant.
        assert!(
            r.unique_received > 0,
            "survivor carried no packets ({mode:?})"
        );
    }
}

#[test]
fn kill_both_paths_is_the_singlepath_death_failure() {
    // Both members die mid-call → the set is down, and the typed cause is
    // byte-for-byte the one a singlepath relay death produces.
    let both = run(
        &[dying(1, MID_CALL_MS), dying(2, MID_CALL_MS + 40.0)],
        MergeMode::Duplicate,
    );
    let single = run(&[dying(1, MID_CALL_MS)], MergeMode::Duplicate);

    let both_cause = both.failure.expect("dual death must fail the call");
    let single_cause = single.failure.expect("singlepath death must fail the call");
    assert_eq!(both_cause, MergeFailure::AllPathsDown);
    assert_eq!(
        both_cause, single_cause,
        "dual-death cause must match singlepath"
    );
    assert_eq!(both_cause.kind(), "all-paths-down");
    assert_eq!(single_cause.kind(), "all-paths-down");

    // The second death has no survivor to fail over to: only the first
    // counts as a failover. A fully-failed call is failed, not degraded.
    assert_eq!(both.failovers, 1);
    assert!(!both.degraded);
    // A lone path has nothing to fail over to at all.
    assert_eq!(single.failovers, 0);
}

#[test]
fn death_at_call_start_still_types_as_all_paths_down() {
    // Degenerate edge of the matrix: the only path is dead from the first
    // frame. No failover, no survivors, same typed cause.
    let r = run(&[dying(1, 0.0)], MergeMode::Duplicate);
    assert_eq!(
        r.failure.expect("dead-on-arrival path must fail").kind(),
        "all-paths-down"
    );
    assert_eq!(r.failovers, 0);
    assert_eq!(r.unique_received, 0, "a dead path must deliver nothing");
}

#[test]
fn death_after_call_end_is_not_a_fault() {
    // A death scheduled beyond the call window never fires: 32 frames end
    // at 640 ms, the knob is set to 10 s.
    for mode in [MergeMode::Duplicate, MergeMode::Stripe] {
        let r = run(&[dying(1, 10_000.0), path(2)], mode);
        assert_eq!(r.failovers, 0, "post-call death must not count ({mode:?})");
        assert!(!r.degraded, "post-call death must not degrade ({mode:?})");
        assert!(r.failure.is_none());
    }
}
