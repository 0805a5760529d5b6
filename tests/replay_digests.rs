//! Pinned outcome digests for the replay engine on a `small` world.
//!
//! The goldens under `tests/golden/` all run the 6-relay `tiny` world, where
//! candidate enumeration is nearly trivial (every relay is a bounce
//! candidate). This test replays a `small`-world trace — 12 relays, 6 bounce
//! and 6 transit candidates, so the detour ranking, the transit prefixes and
//! the geographic prior all discriminate — and compares each run's
//! order-sensitive [`ReplayAggregate`] digest with a constant.
//!
//! Each constant was captured from the commit *before* the change it guards
//! (precomputed geometry tables for the first four rows, the shared decision
//! core for the rest); any later change to the selection pipeline's cost or
//! structure must keep them.
//! A digest covers every call's index, option and realized metric bits in
//! trace order, so one flipped tie-break anywhere in the run changes it.
//!
//! [`ReplayAggregate`]: via::core::replay::ReplayAggregate

#![allow(clippy::expect_used, reason = "test code: a broken fixture panics")]

use via::core::replay::{ReplayConfig, ReplaySim};
use via::core::strategy::{MultipathMode, StrategyKind};
use via::model::seed::{fnv1a, FNV_BASIS};
use via::netsim::{World, WorldConfig};
use via::trace::stream::TraceRecords;
use via::trace::{TraceConfig, TraceGenerator};

const SEED: u64 = 1313;

/// One pinned run: the strategy, its outcome digest, and the two overhead
/// counters the §7 wrappers move (`controller_contacts` equals the call count
/// and `race_probes` is zero for every other strategy).
struct Pin {
    kind: StrategyKind,
    digest: u64,
    controller_contacts: u64,
    race_probes: u64,
}

const CALLS: u64 = 6_000;

const fn pin(kind: StrategyKind, digest: u64) -> Pin {
    Pin {
        kind,
        digest,
        controller_contacts: CALLS,
        race_probes: 0,
    }
}

const VIA_DIGEST: u64 = 0x3bb3_5473_2074_b5dc;
const DEFAULT_DIGEST: u64 = 0x0561_64be_68f9_c2c8;

/// Every `StrategyKind` variant, with the values read at the parent commit.
/// The first four rows predate the decision-core refactor; the rest were
/// captured at the commit before it, which is what licenses deleting the
/// per-strategy arms.
const PINNED: [Pin; 14] = [
    pin(StrategyKind::Via, VIA_DIGEST),
    pin(
        StrategyKind::ViaBudgeted { budget: 0.3 },
        0x23f5_22b0_2a1f_5680,
    ),
    pin(
        StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Duplicate,
            budget: 0.3,
        },
        0xa372_128e_e43d_0428,
    ),
    pin(StrategyKind::PredictionOnly, 0x1f52_3542_0a9e_4ad8),
    pin(StrategyKind::Default, DEFAULT_DIGEST),
    pin(StrategyKind::Oracle, 0x3c45_a7be_3b13_3c97),
    pin(StrategyKind::ExplorationOnly, 0x331e_b043_a158_38c3),
    pin(
        StrategyKind::ViaBudgetUnaware { budget: 0.3 },
        0x43af_5f45_a728_0e09,
    ),
    pin(StrategyKind::ViaFixedTopK { k: 2 }, 0x5e8b_94a9_5479_716c),
    pin(StrategyKind::ViaRawReward, 0x941b_c7af_5205_f8df),
    Pin {
        kind: StrategyKind::ViaCached { ttl_hours: 6 },
        digest: 0xc886_4119_1af2_5d96,
        controller_contacts: 3_327,
        race_probes: 0,
    },
    Pin {
        kind: StrategyKind::HybridRacing { k: 3 },
        digest: 0xad5f_2acc_b42d_8932,
        controller_contacts: CALLS,
        race_probes: 17_874,
    },
    // A one-path duplicate set at budget 1.0 is Via.
    pin(
        StrategyKind::Multipath {
            k: 1,
            mode: MultipathMode::Duplicate,
            budget: 1.0,
        },
        VIA_DIGEST,
    ),
    pin(
        StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Stripe,
            budget: 1.0,
        },
        0xe6ef_d846_3688_fbed,
    ),
];

#[test]
fn small_world_digests_match_pinned_constants() {
    let world = World::generate(&WorldConfig::small(), SEED);
    assert!(world.relays.len() >= 12, "enumeration must be non-trivial");
    let trace_cfg = TraceConfig {
        calls_per_day: 1_500,
        days: 4,
    };
    let trace = TraceGenerator::new(&world, trace_cfg, SEED).generate();
    assert_eq!(trace.len() as u64, CALLS);

    for Pin {
        kind,
        digest: pinned,
        controller_contacts,
        race_probes,
    } in PINNED
    {
        for workers in [1usize, 2] {
            let cfg = ReplayConfig {
                workers,
                ..ReplayConfig::default()
            };
            let materialized = ReplaySim::new(&world, &trace, cfg.clone()).run(kind);
            // The streamed leg keeps no per-call outcomes, as `via replay
            // --stream` does: everything checked below lives outside `calls`.
            let streamed_cfg = ReplayConfig {
                collect_calls: false,
                ..cfg
            };
            let streamed = ReplaySim::streaming(&world, streamed_cfg)
                .run_stream(TraceRecords::new(&trace), kind)
                .expect("in-memory stream");
            assert!(streamed.calls.is_empty());
            assert_eq!(
                (streamed.aggregate.option_mix(), streamed.aggregate.relayed_fraction()),
                (materialized.aggregate.option_mix(), materialized.aggregate.relayed_fraction()),
                "{kind} at {workers} workers: option mix / relayed fraction without collected calls"
            );
            for (driver, out) in [("materialized", &materialized), ("streamed", &streamed)] {
                assert_eq!(out.aggregate.calls, CALLS);
                assert_eq!(
                    (out.controller_contacts, out.race_probes),
                    (controller_contacts, race_probes),
                    "{kind} {driver} at {workers} workers: contacts / race probes"
                );
                assert_eq!(
                    out.aggregate.digest, pinned,
                    "{kind} {driver} at {workers} workers: digest {:#018x}",
                    out.aggregate.digest
                );
            }
        }
    }
}

/// The §7 active-probe path is the only writer into the *trained* window
/// after a barrier (mock calls are folded into the window the refit reads,
/// then it refits), and none of the rows above turns it on. Captured at the
/// commit before the engine stopped keeping a `CallHistory`.
const ACTIVE_PROBES_DIGEST: u64 = 0x6edb_2fe1_0223_a56b;

#[test]
fn active_probe_digest_matches_pinned_constant() {
    let world = World::generate(&WorldConfig::small(), SEED);
    let trace_cfg = TraceConfig {
        calls_per_day: 1_500,
        days: 4,
    };
    let trace = TraceGenerator::new(&world, trace_cfg, SEED).generate();
    for workers in [1usize, 2] {
        let cfg = ReplayConfig {
            workers,
            active_probes_per_window: 20,
            ..ReplayConfig::default()
        };
        let materialized = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Via);
        let streamed = ReplaySim::streaming(&world, cfg)
            .run_stream(TraceRecords::new(&trace), StrategyKind::Via)
            .expect("in-memory stream");
        for (driver, out) in [("materialized", &materialized), ("streamed", &streamed)] {
            // A window whose probe plan is not empty refits twice: without
            // one the pin would cover no probe at all.
            assert!(
                out.stats.predictor_fits > out.stats.windows,
                "{driver} at {workers} workers: {} fits over {} windows, no probe was planned",
                out.stats.predictor_fits,
                out.stats.windows
            );
            assert_eq!(
                out.aggregate.digest, ACTIVE_PROBES_DIGEST,
                "{driver} at {workers} workers: digest {:#018x}",
                out.aggregate.digest
            );
        }
    }
    assert_ne!(
        ACTIVE_PROBES_DIGEST, VIA_DIGEST,
        "the probes changed no call"
    );
}

/// `Default`'s metrics snapshot: the one plan that keeps no per-pair state,
/// whose window walk is free to differ from the learning plans'. Its pair
/// groups are still counted (`replay_pair_groups_total`, the `replay.window`
/// span's `pairs`), so the snapshot must not depend on how the walk split
/// the window. Captured at the commit before `Default` stopped walking its
/// windows pair group by pair group.
const DEFAULT_SNAPSHOT_FNV: u64 = 0xc37b_013a_2fc0_30e1;

#[test]
fn default_metrics_snapshot_matches_pinned_constant() {
    let world = World::generate(&WorldConfig::small(), SEED);
    let trace_cfg = TraceConfig {
        calls_per_day: 1_500,
        days: 4,
    };
    let trace = TraceGenerator::new(&world, trace_cfg, SEED).generate();
    let kind = StrategyKind::Default;
    for workers in [1usize, 2, 8] {
        let cfg = ReplayConfig {
            workers,
            metrics: true,
            ..ReplayConfig::default()
        };
        let materialized = ReplaySim::new(&world, &trace, cfg.clone()).run(kind);
        let streamed = ReplaySim::streaming(&world, cfg)
            .run_stream(TraceRecords::new(&trace), kind)
            .expect("in-memory stream");
        for (driver, out) in [("materialized", &materialized), ("streamed", &streamed)] {
            let bytes = serde_json::to_string(out.obs.as_ref().expect("metrics on"))
                .expect("snapshot serializes");
            assert_eq!(
                fnv1a(FNV_BASIS, bytes.as_bytes()),
                DEFAULT_SNAPSHOT_FNV,
                "{driver} at {workers} workers: snapshot {:#018x}",
                fnv1a(FNV_BASIS, bytes.as_bytes())
            );
            assert_eq!(
                out.aggregate.digest, DEFAULT_DIGEST,
                "{driver} at {workers} workers: digest {:#018x}",
                out.aggregate.digest
            );
        }
    }
}
