//! Edge-case and robustness tests for the replay simulator.

use via_core::replay::{ReplayConfig, ReplaySim, SpatialGranularity};
use via_core::strategy::StrategyKind;
use via_model::metrics::Metric;
use via_model::time::WindowLen;
use via_netsim::{World, WorldConfig};
use via_trace::{Trace, TraceConfig, TraceGenerator};

fn world() -> World {
    World::generate(&WorldConfig::tiny(), 99)
}

#[test]
fn empty_trace_produces_empty_outcome() {
    let w = world();
    let trace = Trace::new(0, 0, vec![]);
    for kind in [
        StrategyKind::Default,
        StrategyKind::Via,
        StrategyKind::Oracle,
    ] {
        let out = ReplaySim::new(&w, &trace, ReplayConfig::default()).run(kind);
        assert!(out.calls.is_empty());
        assert_eq!(out.aggregate.pnr().calls, 0);
        assert_eq!(out.aggregate.relayed_fraction(), 0.0);
    }
}

#[test]
fn single_call_trace_works() {
    let w = world();
    let mut cfg = TraceConfig::tiny();
    cfg.calls_per_day = 1;
    cfg.days = 1;
    let trace = TraceGenerator::new(&w, cfg, 1).generate();
    assert_eq!(trace.len(), 1);
    let out = ReplaySim::new(&w, &trace, ReplayConfig::default()).run(StrategyKind::Via);
    assert_eq!(out.calls.len(), 1);
    assert!(out.calls[0].metrics.is_finite());
}

#[test]
fn six_hour_windows_still_converge() {
    let w = world();
    let trace = TraceGenerator::new(&w, TraceConfig::tiny(), 5).generate();
    let cfg = ReplayConfig {
        window: WindowLen::hours(6),
        ..ReplayConfig::default()
    };
    let via = ReplaySim::new(&w, &trace, cfg.clone()).run(StrategyKind::Via);
    let default = ReplaySim::new(&w, &trace, cfg).run(StrategyKind::Default);
    assert!(via.aggregate.pnr().rtt <= default.aggregate.pnr().rtt);
}

#[test]
fn extreme_epsilon_values_are_safe() {
    let w = world();
    let trace = TraceGenerator::new(&w, TraceConfig::tiny(), 6).generate();
    for epsilon in [0.0, 1.0] {
        let cfg = ReplayConfig {
            epsilon,
            ..ReplayConfig::default()
        };
        let out = ReplaySim::new(&w, &trace, cfg).run(StrategyKind::Via);
        assert_eq!(out.calls.len(), trace.len());
        if epsilon == 1.0 {
            // Pure random over candidates: a healthy share must be relayed.
            assert!(out.aggregate.relayed_fraction() > 0.5);
        }
    }
}

#[test]
fn single_relay_world_works() {
    let w = world();
    let trace = TraceGenerator::new(&w, TraceConfig::tiny(), 7).generate();
    let cfg = ReplayConfig {
        allowed_relays: Some(vec![via_model::RelayId(0)]),
        ..ReplayConfig::default()
    };
    let out = ReplaySim::new(&w, &trace, cfg).run(StrategyKind::Via);
    for c in &out.calls {
        for r in c.option.relays() {
            assert_eq!(r, via_model::RelayId(0));
        }
    }
}

#[test]
fn all_objectives_run_all_strategies() {
    let w = world();
    let mut tc = TraceConfig::tiny();
    tc.calls_per_day = 200; // keep the 3×4 sweep quick
    let trace = TraceGenerator::new(&w, tc, 8).generate();
    for objective in Metric::ALL {
        for kind in [
            StrategyKind::PredictionOnly,
            StrategyKind::ExplorationOnly,
            StrategyKind::Via,
            StrategyKind::HybridRacing { k: 2 },
        ] {
            let cfg = ReplayConfig {
                objective,
                ..ReplayConfig::default()
            };
            let out = ReplaySim::new(&w, &trace, cfg).run(kind);
            assert_eq!(out.calls.len(), trace.len(), "{kind} on {objective}");
        }
    }
}

#[test]
fn country_granularity_shares_state_across_as_pairs() {
    // With country granularity on the tiny world, the run must still produce
    // valid outcomes even though multiple AS pairs share bandit state.
    let w = world();
    let trace = TraceGenerator::new(&w, TraceConfig::tiny(), 9).generate();
    let cfg = ReplayConfig {
        granularity: SpatialGranularity::Country,
        ..ReplayConfig::default()
    };
    let out = ReplaySim::new(&w, &trace, cfg).run(StrategyKind::Via);
    assert_eq!(out.calls.len(), trace.len());
    assert!(out.calls.iter().all(|c| c.metrics.is_finite()));
}

#[test]
fn budget_one_behaves_like_unbudgeted() {
    let w = world();
    let trace = TraceGenerator::new(&w, TraceConfig::tiny(), 10).generate();
    let budgeted = ReplaySim::new(&w, &trace, ReplayConfig::default())
        .run(StrategyKind::ViaBudgeted { budget: 1.0 });
    let plain = ReplaySim::new(&w, &trace, ReplayConfig::default()).run(StrategyKind::Via);
    // With budget = 1.0 only the benefit>0 precondition differs; PNR should
    // be close.
    let b = budgeted.aggregate.pnr().rtt;
    let p = plain.aggregate.pnr().rtt;
    assert!((b - p).abs() < 0.05, "budget=1 {b} vs plain {p}");
}
