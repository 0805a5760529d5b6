//! Pinned outcome digests for the replay engine on a `small` world.
//!
//! The goldens under `tests/golden/` all run the 6-relay `tiny` world, where
//! candidate enumeration is nearly trivial (every relay is a bounce
//! candidate). This test replays a `small`-world trace — 12 relays, 6 bounce
//! and 6 transit candidates, so the detour ranking, the transit prefixes and
//! the geographic prior all discriminate — and compares each run's
//! order-sensitive [`ReplayAggregate`] digest with a constant.
//!
//! The constants were captured from the commit *before* candidate enumeration
//! and the geographic prior moved onto precomputed geometry tables; that
//! change, and any later one to the selection pipeline's cost, must keep them.
//! A digest covers every call's index, option and realized metric bits in
//! trace order, so one flipped tie-break anywhere in the run changes it.
//!
//! [`ReplayAggregate`]: via::core::replay::ReplayAggregate

#![allow(clippy::expect_used)]

use via::core::replay::{ReplayConfig, ReplaySim};
use via::core::strategy::{MultipathMode, StrategyKind};
use via::netsim::{World, WorldConfig};
use via::trace::stream::TraceRecords;
use via::trace::{TraceConfig, TraceGenerator};

const SEED: u64 = 1313;

/// `(strategy, digest at the parent commit)`.
const PINNED: [(StrategyKind, u64); 4] = [
    (StrategyKind::Via, 0x3bb3_5473_2074_b5dc),
    (
        StrategyKind::ViaBudgeted { budget: 0.3 },
        0x23f5_22b0_2a1f_5680,
    ),
    (
        StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Duplicate,
            budget: 0.3,
        },
        0xa372_128e_e43d_0428,
    ),
    (StrategyKind::PredictionOnly, 0x1f52_3542_0a9e_4ad8),
];

#[test]
fn small_world_digests_match_pinned_constants() {
    let world = World::generate(&WorldConfig::small(), SEED);
    assert!(world.relays.len() >= 12, "enumeration must be non-trivial");
    let trace_cfg = TraceConfig {
        calls_per_day: 1_500,
        days: 4,
        ..TraceConfig::default()
    };
    let trace = TraceGenerator::new(&world, trace_cfg, SEED).generate();

    for (kind, pinned) in PINNED {
        for workers in [1usize, 2] {
            let cfg = ReplayConfig {
                workers,
                ..ReplayConfig::default()
            };
            let materialized = ReplaySim::new(&world, &trace, cfg.clone()).run(kind);
            let streamed = ReplaySim::streaming(&world, cfg)
                .run_stream(TraceRecords::new(&trace), kind)
                .expect("in-memory stream");
            for (driver, out) in [("materialized", &materialized), ("streamed", &streamed)] {
                assert_eq!(out.aggregate.calls, trace.len() as u64);
                assert_eq!(
                    out.aggregate.digest, pinned,
                    "{kind} {driver} at {workers} workers: digest {:#018x}",
                    out.aggregate.digest
                );
            }
        }
    }
}
