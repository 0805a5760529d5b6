//! The replay engine's determinism contract over the gated rows, at tiny
//! scale: `Via`, the percentile gate (`ViaBudgeted`), the first-come gate
//! (`ViaBudgetUnaware`) and duplicated multipath charged k× by its gate each
//! serialize to one byte string at 1 and 2 workers, materialized or
//! streamed.
//!
//! A reduced copy of via-core's `stream_equivalence.rs` matrix: the budget
//! gate walks each window in trace order while the shards run in parallel,
//! so this is where a gate or shard-loop change that depends on the worker
//! count or the record source shows first.

#![allow(clippy::expect_used, reason = "test code: a broken fixture panics")]

use via::core::replay::{Outcome, ReplayConfig, ReplaySim};
use via::core::strategy::{MultipathMode, StrategyKind};
use via::netsim::{World, WorldConfig};
use via::trace::stream::TraceRecords;
use via::trace::{TraceConfig, TraceGenerator};

fn outcome_json(outcome: &Outcome) -> String {
    serde_json::to_string(outcome).expect("serialize outcome")
}

#[test]
fn gated_rows_are_byte_identical_across_workers_and_sources() {
    let seed = 16;
    let world = World::generate(&WorldConfig::tiny(), seed);
    let trace = TraceGenerator::new(&world, TraceConfig::tiny(), seed).generate();
    let cfg = |workers| ReplayConfig {
        workers,
        ..ReplayConfig::default()
    };
    for kind in [
        StrategyKind::Via,
        StrategyKind::ViaBudgeted { budget: 0.3 },
        StrategyKind::ViaBudgetUnaware { budget: 0.3 },
        StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Duplicate,
            budget: 0.3,
        },
    ] {
        let baseline = ReplaySim::new(&world, &trace, cfg(1)).run(kind);
        assert!(
            baseline.aggregate.relayed_fraction() > 0.0,
            "{kind}: relays something"
        );
        let baseline = outcome_json(&baseline);
        for workers in [1, 2] {
            let materialized = ReplaySim::new(&world, &trace, cfg(workers)).run(kind);
            assert_eq!(
                outcome_json(&materialized),
                baseline,
                "{kind}: materialized diverged at workers={workers}"
            );
            let streamed = ReplaySim::streaming(&world, cfg(workers))
                .run_stream(TraceRecords::new(&trace), kind)
                .expect("streamed run");
            assert_eq!(
                outcome_json(&streamed),
                baseline,
                "{kind}: streamed diverged at workers={workers}"
            );
        }
    }
}
