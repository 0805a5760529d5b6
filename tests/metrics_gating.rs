//! Metrics are a property of the sink a shard records into, not of the call
//! sites: a replay with `metrics: true` gives every worker a slotted hot sink
//! and must serialize to the same snapshot bytes however the window was
//! sharded or sourced, and the same replay with `metrics: false` — workers
//! holding sinks with no slots — must change nothing but `obs`.

#![allow(clippy::expect_used, reason = "test code: a broken fixture panics")]

use via::core::replay::{Outcome, ReplayConfig, ReplaySim};
use via::core::strategy::{MultipathMode, StrategyKind};
use via::netsim::{World, WorldConfig};
use via::trace::stream::TraceRecords;
use via::trace::{TraceConfig, TraceGenerator};

#[test]
fn metrics_on_is_partition_invariant_and_metrics_off_changes_only_obs() {
    let world = World::generate(&WorldConfig::tiny(), 2024);
    let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 2024).generate();
    let run = |kind: StrategyKind, workers: usize, metrics: bool, streamed: bool| -> Outcome {
        let cfg = ReplayConfig {
            workers,
            metrics,
            ..ReplayConfig::default()
        };
        if streamed {
            ReplaySim::streaming(&world, cfg)
                .run_stream(TraceRecords::new(&trace), kind)
                .expect("in-memory stream")
        } else {
            ReplaySim::new(&world, &trace, cfg).run(kind)
        }
    };
    let snapshot = |out: &Outcome| {
        serde_json::to_string(out.obs.as_ref().expect("metrics on")).expect("snapshot serializes")
    };
    for kind in [
        StrategyKind::Via,
        StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Duplicate,
            budget: 0.3,
        },
    ] {
        let reference = run(kind, 1, true, false);
        let bytes = snapshot(&reference);
        let obs = reference.obs.as_ref().expect("metrics on");
        assert_eq!(obs.counter("replay_calls_total"), trace.len() as u64);
        // One CI-width sample per kept arm per (pair, window): recorded where
        // the arms are built, by the gate pass or by a shard's first miss.
        let widths = obs
            .histogram("replay_predictor_ci_width")
            .expect("ci-width histogram");
        assert!(widths.count >= obs.counter("replay_pair_groups_total"));
        for workers in [1usize, 2] {
            for streamed in [false, true] {
                let on = run(kind, workers, true, streamed);
                assert_eq!(
                    snapshot(&on),
                    bytes,
                    "{kind} at {workers} workers, streamed {streamed}: snapshot bytes"
                );
                let off = run(kind, workers, false, streamed);
                assert!(off.obs.is_none(), "metrics off must yield no snapshot");
                assert_eq!(
                    off.aggregate, reference.aggregate,
                    "{kind} at {workers} workers, streamed {streamed}: metrics changed an outcome"
                );
                assert_eq!(off.controller_contacts, reference.controller_contacts);
            }
        }
    }
}
