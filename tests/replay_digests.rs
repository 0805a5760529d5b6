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
//! structure must keep them. Every row that predicts or flips an ε coin was
//! re-captured when the replay took the live controller's decision rules —
//! one view of an unordered pair and one ε coin per call id — which is what
//! `plane_agreement.rs` checks; `Default` and `Oracle` did not move.
//! A digest covers every call's index, option and realized metric bits in
//! trace order, so one flipped tie-break anywhere in the run changes it.
//!
//! [`ReplayAggregate`]: via::core::replay::ReplayAggregate

#![allow(clippy::expect_used, reason = "test code: a broken fixture panics")]

use via::core::replay::{ReplayConfig, ReplaySim, SpatialGranularity};
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

const VIA_DIGEST: u64 = 0xff4c_fb53_5ea3_2e65;
const DEFAULT_DIGEST: u64 = 0x0561_64be_68f9_c2c8;

/// Every `StrategyKind` variant, with the values read at the parent commit.
/// The first four rows predate the decision-core refactor; the rest were
/// captured at the commit before it, which is what licenses deleting the
/// per-strategy arms.
const PINNED: [Pin; 14] = [
    pin(StrategyKind::Via, VIA_DIGEST),
    pin(
        StrategyKind::ViaBudgeted { budget: 0.3 },
        0x8fc9_0d2e_0fd1_faaa,
    ),
    pin(
        StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Duplicate,
            budget: 0.3,
        },
        0x0829_fe55_2591_f3e4,
    ),
    pin(StrategyKind::PredictionOnly, 0xaf7a_89d2_529a_2820),
    pin(StrategyKind::Default, DEFAULT_DIGEST),
    pin(StrategyKind::Oracle, 0x3c45_a7be_3b13_3c97),
    pin(StrategyKind::ExplorationOnly, 0x5842_6412_b549_f9ab),
    pin(
        StrategyKind::ViaBudgetUnaware { budget: 0.3 },
        0x55d0_1a6f_831a_c1ce,
    ),
    pin(StrategyKind::ViaFixedTopK { k: 2 }, 0xa6f5_fd2d_b411_92a0),
    pin(StrategyKind::ViaRawReward, 0xe4e5_9334_d493_a1a3),
    Pin {
        kind: StrategyKind::ViaCached { ttl_hours: 6 },
        digest: 0xf6fe_30a8_3ee7_60bf,
        controller_contacts: 3_327,
        race_probes: 0,
    },
    Pin {
        kind: StrategyKind::HybridRacing { k: 3 },
        digest: 0x052d_4bf3_e5a6_d9f8,
        controller_contacts: CALLS,
        race_probes: 17_761,
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
        0x06f8_be4b_eda7_ae65,
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
/// commit before the engine stopped keeping a `CallHistory`, re-captured
/// with the rows above.
const ACTIVE_PROBES_DIGEST: u64 = 0xcbd3_3889_db2c_4209;

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

/// `Via` keyed finer than an AS: 16 client buckets per AS, so the spatial
/// keys run past 255 and every ordering the refit does on them crosses an
/// 8-bit digit, which the AS-keyed rows above never do. Captured at the
/// commit before the refit ordered its cells and segments by digits.
const SUB_AS_VIA_DIGEST: u64 = 0x7cad_bb30_2965_4f8a;

#[test]
fn sub_as_via_digest_matches_pinned_constant() {
    let world = World::generate(&WorldConfig::small(), SEED);
    let trace_cfg = TraceConfig {
        calls_per_day: 1_500,
        days: 4,
    };
    let trace = TraceGenerator::new(&world, trace_cfg, SEED).generate();
    let granularity = SpatialGranularity::SubAs { buckets: 16 };
    assert!(
        granularity.key_positions(&world).len() > 256,
        "the keys must cross an 8-bit digit"
    );
    let kind = StrategyKind::Via;
    for workers in [1usize, 2] {
        let cfg = ReplayConfig {
            workers,
            granularity,
            ..ReplayConfig::default()
        };
        let materialized = ReplaySim::new(&world, &trace, cfg.clone()).run(kind);
        let streamed = ReplaySim::streaming(&world, cfg)
            .run_stream(TraceRecords::new(&trace), kind)
            .expect("in-memory stream");
        for (driver, out) in [("materialized", &materialized), ("streamed", &streamed)] {
            assert_eq!(out.aggregate.calls, CALLS);
            assert_eq!(
                out.aggregate.digest, SUB_AS_VIA_DIGEST,
                "{driver} at {workers} workers: digest {:#018x}",
                out.aggregate.digest
            );
        }
    }
}
