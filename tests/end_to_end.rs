//! Cross-crate integration tests: the full pipeline from world generation
//! through trace synthesis, replay, and quality accounting.

use via::core::replay::{ReplayConfig, ReplaySim};
use via::core::strategy::StrategyKind;
use via::model::metrics::Metric;
use via::netsim::{World, WorldConfig};
use via::quality::PnrImprovement;
use via::trace::{TraceConfig, TraceGenerator};

fn env() -> (World, via::trace::Trace) {
    let world = World::generate(&WorldConfig::tiny(), 4242);
    let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 4242).generate();
    (world, trace)
}

#[test]
fn full_pipeline_orders_strategies_correctly() {
    let (world, trace) = env();
    let cfg = ReplayConfig::default();

    let default = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Default);
    let via = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Via);
    let oracle = ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Oracle);

    let d = default.aggregate.pnr();
    let v = via.aggregate.pnr();
    let o = oracle.aggregate.pnr();

    // On the optimized metric the ordering oracle ≤ via ≤ default must hold
    // (small tolerances for exploration overhead).
    assert!(o.rtt <= v.rtt + 0.02, "oracle {} vs via {}", o.rtt, v.rtt);
    assert!(v.rtt <= d.rtt + 0.01, "via {} vs default {}", v.rtt, d.rtt);

    let imp = PnrImprovement::between(&d, &o);
    assert!(
        imp.rtt > 20.0,
        "oracle should cut RTT PNR by >20%, got {}",
        imp.rtt
    );
}

#[test]
fn every_strategy_produces_one_outcome_per_call() {
    let (world, trace) = env();
    for kind in [
        StrategyKind::Default,
        StrategyKind::Oracle,
        StrategyKind::PredictionOnly,
        StrategyKind::ExplorationOnly,
        StrategyKind::Via,
        StrategyKind::ViaBudgeted { budget: 0.3 },
        StrategyKind::ViaBudgetUnaware { budget: 0.3 },
        StrategyKind::ViaFixedTopK { k: 2 },
        StrategyKind::ViaRawReward,
        StrategyKind::ViaCached { ttl_hours: 12 },
        StrategyKind::HybridRacing { k: 3 },
    ] {
        let out = ReplaySim::new(&world, &trace, ReplayConfig::default()).run(kind);
        assert_eq!(out.calls.len(), trace.len(), "strategy {kind}");
        // Outcomes reference calls in order.
        for (i, c) in out.calls.iter().enumerate() {
            assert_eq!(c.call_index as usize, i);
            assert!(c.metrics.is_finite());
        }
    }
}

#[test]
fn objectives_change_what_gets_optimized() {
    let (world, trace) = env();

    let mut per_objective = Vec::new();
    for metric in Metric::ALL {
        let cfg = ReplayConfig {
            objective: metric,
            ..ReplayConfig::default()
        };
        let out = ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Oracle);
        per_objective.push((metric, out.aggregate.pnr()));
    }
    // Optimizing a metric should do at least as well on that metric as the
    // runs optimizing the other two.
    for (metric, own) in &per_objective {
        for (other, theirs) in &per_objective {
            if metric == other {
                continue;
            }
            assert!(
                own.for_metric(*metric) <= theirs.for_metric(*metric) + 0.02,
                "optimizing {metric} should beat optimizing {other} on {metric}"
            );
        }
    }
}

#[test]
fn budgeted_via_relays_less_than_unbudgeted() {
    let (world, trace) = env();
    let tight = ReplaySim::new(&world, &trace, ReplayConfig::default())
        .run(StrategyKind::ViaBudgeted { budget: 0.1 });
    let loose = ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Via);
    assert!(
        tight.aggregate.relayed_fraction() < loose.aggregate.relayed_fraction(),
        "tight {} vs loose {}",
        tight.aggregate.relayed_fraction(),
        loose.aggregate.relayed_fraction()
    );
    assert!(
        tight.aggregate.relayed_fraction() <= 0.2,
        "budget overshoot"
    );
}

#[test]
fn trace_statistics_survive_serialization() {
    let (_, trace) = env();
    let dir = std::env::temp_dir().join("via-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let s1 = via::trace::analysis::dataset_summary(&trace);
    for name in ["trace.jsonl", "trace.vbt"] {
        let path = dir.join(name);
        via::trace::save_trace(&trace, &path).unwrap();
        let back = via::trace::load_trace(&path).unwrap();
        assert_eq!(via::trace::analysis::dataset_summary(&back), s1, "{name}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn quality_models_agree_on_ordering() {
    // The E-model MOS and the packet-level trace MOS must order calls the
    // same way for clearly-separated conditions.
    use via::media::call_sim::simulate_call;
    use via::model::PathMetrics;

    let good = PathMetrics::new(60.0, 0.1, 2.0);
    let bad = PathMetrics::new(450.0, 5.0, 25.0);
    let emodel_good = via::quality::mos(&good);
    let emodel_bad = via::quality::mos(&bad);
    let trace_good = simulate_call(&good, 60.0, 1).mos;
    let trace_bad = simulate_call(&bad, 60.0, 1).mos;

    assert!(emodel_good > emodel_bad);
    assert!(trace_good > trace_bad);
    // The two scores should roughly agree on the good call.
    assert!((emodel_good - trace_good).abs() < 1.0);
}

#[test]
fn cached_decisions_cut_controller_load() {
    let (world, trace) = env();
    let cached = ReplaySim::new(&world, &trace, ReplayConfig::default())
        .run(StrategyKind::ViaCached { ttl_hours: 12 });
    let plain = ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Via);
    assert!(
        cached.controller_contacts < plain.controller_contacts / 2,
        "cache saved too little: {} vs {}",
        cached.controller_contacts,
        plain.controller_contacts
    );
    // Staleness costs some quality but not catastrophically.
    let c = cached.aggregate.pnr().rtt;
    let p = plain.aggregate.pnr().rtt;
    assert!(c <= p * 2.0 + 0.05, "cached {c} vs plain {p}");
}

#[test]
fn hybrid_racing_beats_via_at_a_probe_cost() {
    let (world, trace) = env();
    let racing = ReplaySim::new(&world, &trace, ReplayConfig::default())
        .run(StrategyKind::HybridRacing { k: 3 });
    let via = ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Via);
    let oracle = ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Oracle);
    assert!(
        racing.aggregate.pnr().rtt <= via.aggregate.pnr().rtt + 0.01,
        "racing should not lose to plain VIA on the objective"
    );
    assert!(
        racing.aggregate.pnr().rtt + 0.02 >= oracle.aggregate.pnr().rtt,
        "racing cannot beat the oracle by much"
    );
    assert!(
        racing.race_probes > trace.len() as u64,
        "racing must cost extra probes"
    );
    assert_eq!(via.race_probes, 0);
}
