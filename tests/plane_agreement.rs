//! The two planes decide alike: the live controller, sent the calls of a
//! trace and the outcomes the replay engine realized for them, selects what
//! the replay selected, call for call.
//!
//! Both planes run the same pipeline (`Selector`, `online::Trained`,
//! `GateState`), but each drives it with its own loop: the replay groups a
//! window's calls by pair and runs them on a worker pool, the controller
//! answers one `select` at a time on hashed shards. This test runs the real
//! engine and the real controller on generated tiny AS-granularity worlds
//! and traces, at two window lengths, {1, 2, 8} replay workers, {1, 4}
//! controller shards, ε ∈ {0, 0.03}, ungated and under the 0.3 budget gate,
//! and names the first call of each case where they part.
//!
//! The controller sees each call as a client would present it: its id, its
//! time, its AS keys and its own candidate list (`World::candidate_options`).
//! After each select it is sent a report of the option and metrics the
//! replay realized for that call, so both planes learn from the same
//! feedback.

#![allow(clippy::expect_used, reason = "test code: a broken fixture panics")]

use via::core::replay::{ReplayConfig, ReplaySim, SpatialGranularity};
use via::core::strategy::StrategyKind;
use via::model::metrics::Metric;
use via::model::options::RelayOption;
use via::model::time::WindowLen;
use via::netsim::{World, WorldConfig};
use via::server::{Controller, ServerConfig};
use via::trace::{CallRecord, TraceConfig, TraceGenerator};

/// World and trace seeds; each generates its own world and trace.
const SEEDS: [u64; 2] = [16, 2016];
const BUDGET: f64 = 0.3;

/// How one controller run went against its replay.
#[derive(Default)]
struct Tally {
    /// The first call where the planes chose differently, as a sentence.
    first: Option<String>,
    differing: usize,
    relayed: usize,
    explored: usize,
    gated: usize,
}

/// Sends `calls` to a fresh controller in trace order, each followed by the
/// report of what the replay realized for it, and compares every selection
/// with the replay's option.
fn drive(
    server: &Controller,
    calls: &[CallRecord],
    candidates: &[Vec<RelayOption>],
    replayed: &via::core::replay::Outcome,
) -> Tally {
    assert_eq!(replayed.calls.len(), calls.len(), "one outcome per call");
    let mut tally = Tally::default();
    for ((call, cands), outcome) in calls.iter().zip(candidates).zip(&replayed.calls) {
        assert_eq!(outcome.call_index, call.id.0, "outcomes in trace order");
        let (src, dst) = (call.src_as.0, call.dst_as.0);
        let selected = server.select(u64::from(call.id.0), call.t, src, dst, cands);
        if selected.option != outcome.option {
            tally.differing += 1;
            tally.first.get_or_insert_with(|| {
                format!(
                    "call {} (window {}, AS {src} -> AS {dst}): replay {}, controller {}",
                    call.id.0, selected.window, outcome.option, selected.option
                )
            });
        }
        tally.relayed += usize::from(outcome.option != RelayOption::Direct);
        tally.explored += usize::from(selected.explored);
        tally.gated += usize::from(!selected.admitted);
        server.report(call.t, src, dst, outcome.option, &outcome.metrics);
    }
    tally
}

#[test]
fn the_controller_selects_what_the_replay_selected() {
    let mut cases = 0;
    let mut failures = Vec::new();
    for seed in SEEDS {
        let world = World::generate(&WorldConfig::tiny(), seed);
        let trace_cfg = TraceConfig {
            calls_per_day: 500,
            days: 4,
        };
        let trace = TraceGenerator::new(&world, trace_cfg, seed).generate();
        let candidates: Vec<Vec<RelayOption>> = trace
            .records
            .iter()
            .map(|c| world.candidate_options(c.src_as, c.dst_as))
            .collect();
        let (prior, backbone) = SpatialGranularity::As.controller_inputs(&world);
        for window in [WindowLen::DAY, WindowLen::hours(6)] {
            for epsilon in [0.0, 0.03] {
                for (kind, budget) in [
                    (StrategyKind::Via, None),
                    (StrategyKind::ViaBudgeted { budget: BUDGET }, Some(BUDGET)),
                ] {
                    for workers in [1, 2, 8] {
                        let cfg = ReplayConfig {
                            window,
                            objective: Metric::Rtt,
                            epsilon,
                            granularity: SpatialGranularity::As,
                            workers,
                            seed,
                            ..ReplayConfig::default()
                        };
                        let replayed = ReplaySim::new(&world, &trace, cfg).run(kind);
                        for shards in [1, 4] {
                            let server = Controller::new(
                                ServerConfig {
                                    seed,
                                    objective: Metric::Rtt,
                                    window,
                                    epsilon,
                                    budget,
                                    shards,
                                },
                                prior.clone(),
                                backbone.clone(),
                            );
                            let tally = drive(&server, &trace.records, &candidates, &replayed);
                            let case = format!(
                                "seed {seed}, {}-hour windows, ε {epsilon}, {kind}, \
                                 {workers} worker(s), {shards} shard(s)",
                                window.secs() / 3_600
                            );
                            // The case must reach every stage it claims to
                            // compare, or its agreement says nothing.
                            assert!(tally.relayed > 100, "{case}: {} relayed", tally.relayed);
                            assert!(server.window_index() >= 3, "{case}: no refit");
                            assert_eq!(tally.explored > 0, epsilon > 0.0, "{case}: ε stage");
                            assert_eq!(tally.gated > 0, budget.is_some(), "{case}: gate");
                            if let Some(first) = tally.first {
                                failures.push(format!(
                                    "{case}: {} of {} calls differ, first {first}",
                                    tally.differing,
                                    trace.len()
                                ));
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(cases >= 64, "only {cases} cases");
    assert!(
        failures.is_empty(),
        "{} of {cases} cases disagree:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
