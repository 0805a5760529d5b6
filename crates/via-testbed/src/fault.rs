//! Seeded fault injection for the §5.5 testbed.
//!
//! A production relay-selection service must absorb relays dying mid-call,
//! clients that never register, and a lossy control plane. This module
//! describes those failures as data — a [`FaultPlan`] — so the harness can
//! inject them deterministically: every random decision draws from an RNG
//! derived from the plan seed and a stable per-connection label, so two runs
//! with the same plan inject byte-identical fault schedules.
//!
//! Faults are scoped to the *steady-state call plane* (`Call` and `Report`
//! frames). The registration handshake (`Register`/`Welcome`) and teardown
//! (`Finished`/`Done`) are exempt by design: the request–response retry
//! protocol that recovers a lost frame only exists once a client is enrolled,
//! and losing a `Register` would simply look like the already-covered
//! "client never registers" partition fault.

use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Duration;
use via_model::seed;

use crate::protocol::RelayIndex;

/// Kill one relay at a deterministic point in the call schedule: immediately
/// before the caller of pair `pair_idx` places its round-`round` call through
/// `relay`. Anchoring the kill to a schedule position (rather than a timer)
/// keeps same-seed runs identical regardless of wall-clock noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayKill {
    /// Relay to kill.
    pub relay: RelayIndex,
    /// Pair index (plan order) whose call triggers the kill.
    pub pair_idx: usize,
    /// Round whose call triggers the kill.
    pub round: u32,
}

/// A complete, seeded description of the failures to inject into one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault RNG stream (frame fates, backoff jitter).
    pub seed: u64,
    /// Percentage of call-plane control frames silently dropped.
    pub frame_drop_pct: f64,
    /// Percentage of call-plane control frames delivered twice.
    pub frame_dup_pct: f64,
    /// Fixed delay applied before each delivered call-plane frame, ms.
    pub frame_delay_ms: u64,
    /// Kill a relay mid-session at a schedule point.
    pub kill_relay: Option<RelayKill>,
    /// Blackhole the probe leg of `(pair_idx, relay)`: the relay session is
    /// installed with 100% loss in both directions, so the relay path is
    /// up but carries nothing.
    pub blackhole: Option<(usize, RelayIndex)>,
    /// Partition the client with this index: it is never started, so it
    /// never registers and every pair naming it fails with a per-pair cause.
    pub partition_client: Option<usize>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default for ordinary runs).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            frame_drop_pct: 0.0,
            frame_dup_pct: 0.0,
            frame_delay_ms: 0,
            kill_relay: None,
            blackhole: None,
            partition_client: None,
        }
    }

    /// A ready-made chaos plan sized to a testbed of `n_pairs` pairs and
    /// `n_relays` relays: 10% control-frame drop, 5% duplication, the last
    /// relay killed at the round-1 call of pair 0, and the probe leg of
    /// (last pair, relay 0) blackholed. No client is partitioned, so every
    /// pair still produces (possibly degraded) reports.
    pub fn chaos(seed: u64, n_pairs: usize, n_relays: usize) -> FaultPlan {
        FaultPlan {
            seed,
            frame_drop_pct: 10.0,
            frame_dup_pct: 5.0,
            frame_delay_ms: 0,
            kill_relay: (n_relays > 1).then(|| RelayKill {
                relay: RelayIndex::try_from(n_relays - 1).unwrap_or(RelayIndex::MAX),
                pair_idx: 0,
                round: 1,
            }),
            blackhole: (n_pairs > 0 && n_relays > 0).then(|| (n_pairs - 1, 0)),
            partition_client: None,
        }
    }

    /// True when the plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.frame_drop_pct <= 0.0
            && self.frame_dup_pct <= 0.0
            && self.frame_delay_ms == 0
            && self.kill_relay.is_none()
            && self.blackhole.is_none()
            && self.partition_client.is_none()
    }

    /// True when any call-plane frame fault (drop / duplicate / delay) is
    /// enabled.
    pub fn has_frame_faults(&self) -> bool {
        self.frame_drop_pct > 0.0 || self.frame_dup_pct > 0.0 || self.frame_delay_ms > 0
    }

    /// The frame-fault stream for one connection, identified by a stable
    /// `role` label and `index` (e.g. `("client-report", 2)`). Returns `None`
    /// when the plan has no frame faults, so the fault-free path costs
    /// nothing.
    pub fn frame_faults(&self, role: &str, index: u64) -> Option<FrameFaults> {
        self.has_frame_faults()
            .then(|| FrameFaults::new(self, role, index))
    }
}

/// The fate the fault injector assigns to one outgoing call-plane frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// The frame is silently discarded (the peer's deadline recovers it).
    Drop,
    /// The frame is delivered, optionally twice back-to-back.
    Deliver {
        /// Deliver a second, identical copy immediately after the first.
        duplicate: bool,
    },
}

/// Per-connection seeded stream of frame fates.
#[derive(Debug)]
pub struct FrameFaults {
    rng: StdRng,
    drop_pct: f64,
    dup_pct: f64,
    delay: Duration,
}

impl FrameFaults {
    fn new(plan: &FaultPlan, role: &str, index: u64) -> FrameFaults {
        FrameFaults {
            rng: StdRng::seed_from_u64(seed::derive_indexed(plan.seed, role, index)),
            drop_pct: plan.frame_drop_pct,
            dup_pct: plan.frame_dup_pct,
            delay: Duration::from_millis(plan.frame_delay_ms),
        }
    }

    /// Draws the fate of the next outgoing frame.
    pub fn next_fate(&mut self) -> FrameFate {
        if self.rng.random::<f64>() * 100.0 < self.drop_pct {
            return FrameFate::Drop;
        }
        let duplicate = self.dup_pct > 0.0 && self.rng.random::<f64>() * 100.0 < self.dup_pct;
        FrameFate::Deliver { duplicate }
    }

    /// Fixed pre-delivery delay for frames this stream delivers.
    pub fn delay(&self) -> Duration {
        self.delay
    }
}

/// Backoff before the second call attempt, ms.
const BACKOFF_BASE_MS: u64 = 100;
/// Backoff ceiling, ms.
const BACKOFF_MAX_MS: u64 = 2_000;

/// The backoff to sleep after failed call attempt number `attempt`
/// (0-based): `BACKOFF_BASE_MS · 2^attempt`, capped at `BACKOFF_MAX_MS`,
/// jittered into `[0.5, 1.0]×` by the seeded RNG — deterministic per
/// connection, decorrelated across connections.
pub(crate) fn backoff(attempt: u32, rng: &mut StdRng) -> Duration {
    let exp = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.min(16))
        .min(BACKOFF_MAX_MS);
    let jitter = 0.5 + 0.5 * rng.random::<f64>();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "rounds to the nearest millisecond; `exp · jitter` is at most `BACKOFF_MAX_MS`"
    )]
    let ms = ((exp as f64) * jitter).round() as u64;
    Duration::from_millis(ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert!(!plan.has_frame_faults());
        assert!(plan.frame_faults("x", 0).is_none());
    }

    #[test]
    fn frame_fates_are_deterministic_per_label() {
        let plan = FaultPlan {
            seed: 9,
            frame_drop_pct: 30.0,
            frame_dup_pct: 20.0,
            ..FaultPlan::none()
        };
        let draw = |role: &str, index: u64| -> Vec<FrameFate> {
            let mut f = plan.frame_faults(role, index).expect("faults enabled");
            (0..64).map(|_| f.next_fate()).collect()
        };
        assert_eq!(draw("ctrl", 0), draw("ctrl", 0));
        assert_ne!(draw("ctrl", 0), draw("ctrl", 1), "streams must differ");
        assert_ne!(draw("ctrl", 0), draw("client", 0));
    }

    #[test]
    fn fate_rates_match_the_plan() {
        let plan = FaultPlan {
            seed: 4,
            frame_drop_pct: 25.0,
            frame_dup_pct: 10.0,
            ..FaultPlan::none()
        };
        let mut f = plan.frame_faults("rate", 0).expect("faults enabled");
        let n = 20_000;
        let mut drops = 0;
        let mut dups = 0;
        for _ in 0..n {
            match f.next_fate() {
                FrameFate::Drop => drops += 1,
                FrameFate::Deliver { duplicate: true } => dups += 1,
                FrameFate::Deliver { duplicate: false } => {}
            }
        }
        let drop_rate = f64::from(drops) / f64::from(n);
        assert!((drop_rate - 0.25).abs() < 0.02, "drop rate {drop_rate}");
        // Duplication is drawn only for delivered frames: 0.75 × 0.10.
        let dup_rate = f64::from(dups) / f64::from(n);
        assert!((dup_rate - 0.075).abs() < 0.02, "dup rate {dup_rate}");
    }

    #[test]
    fn backoff_grows_and_caps() {
        // Attempts 0–4 double from the base; 5 and 6 sit at the cap.
        const { assert!(BACKOFF_BASE_MS << 5 > BACKOFF_MAX_MS) };
        let mut rng = StdRng::seed_from_u64(3);
        for attempt in 0..7 {
            let b = backoff(attempt, &mut rng);
            let exp = (BACKOFF_BASE_MS << attempt).min(BACKOFF_MAX_MS);
            assert!(
                b >= Duration::from_millis(exp / 2),
                "attempt {attempt}: {b:?}"
            );
            assert!(b <= Duration::from_millis(exp), "attempt {attempt}: {b:?}");
        }
        // Huge attempt numbers must not overflow the shift.
        let b = backoff(u32::MAX, &mut rng);
        assert!(b <= Duration::from_millis(BACKOFF_MAX_MS), "{b:?}");
    }

    #[test]
    fn chaos_plan_targets_are_in_range() {
        let plan = FaultPlan::chaos(7, 3, 4);
        assert!(plan.has_frame_faults());
        let kill = plan.kill_relay.expect("kill configured");
        assert_eq!(kill.relay, 3);
        assert_eq!(plan.blackhole, Some((2, 0)));
        // Degenerate sizes fall back to fewer faults rather than panicking.
        let tiny = FaultPlan::chaos(7, 0, 1);
        assert!(tiny.kill_relay.is_none());
        assert!(tiny.blackhole.is_none());
    }
}
