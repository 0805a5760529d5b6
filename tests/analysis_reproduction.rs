//! Integration tests asserting the paper's §2 measurement *shapes* hold on
//! synthetic traces — the observations that motivate VIA's design.

use via::model::metrics::{Metric, Thresholds};
use via::netsim::{World, WorldConfig};
use via::trace::analysis;
use via::trace::{TraceConfig, TraceGenerator};

fn trace() -> (World, via::trace::Trace) {
    let world = World::generate(&WorldConfig::small(), 77);
    let mut cfg = TraceConfig::small();
    cfg.calls_per_day = 4_000; // enough density, quick enough for CI
    let trace = TraceGenerator::new(&world, cfg, 77).generate();
    (world, trace)
}

#[test]
fn observation_1_network_performance_impacts_experience() {
    let (_, tr) = trace();
    // PCR grows with each metric (Figure 1 shape).
    for (metric, x_max) in [
        (Metric::Rtt, 800.0),
        (Metric::Loss, 8.0),
        (Metric::Jitter, 30.0),
    ] {
        let curve = analysis::pcr_vs_metric(&tr, metric, x_max, 12, 100);
        let corr = curve
            .correlation
            .unwrap_or_else(|| panic!("no correlation for {metric}"));
        assert!(corr > 0.7, "{metric}: PCR correlation too weak ({corr})");
        // First and last populated bins differ strongly.
        let first = curve.bins.first().unwrap().y_mean;
        let last = curve.bins.last().unwrap().y_mean;
        assert!(last > first + 0.05, "{metric}: PCR not increasing");
    }
}

#[test]
fn observation_2_wide_area_calls_suffer_more() {
    let (_, tr) = trace();
    let scope = analysis::pnr_by_scope(&tr);
    let ratio = scope.international.any / scope.domestic.any.max(1e-9);
    assert!(
        (1.5..=5.0).contains(&ratio),
        "international/domestic PNR ratio {ratio} outside the paper's 2-3x ballpark"
    );
    assert!(scope.inter_as.any > scope.intra_as.any);
}

#[test]
fn observation_3a_poor_calls_are_spatially_spread() {
    let (_, tr) = trace();
    let conc = analysis::worst_pair_concentration(&tr);
    // The single worst pair must hold only a small share of poor calls.
    assert!(
        conc[0].1 < 0.2,
        "one pair holds {:.0}% of poor calls — too concentrated",
        100.0 * conc[0].1
    );
    // And a majority of poor calls come from outside the top decile of pairs.
    let top_decile = (conc.len() / 10).max(1);
    assert!(
        conc[top_decile - 1].1 < 0.85,
        "top-decile pairs hold {:.0}%",
        100.0 * conc[top_decile - 1].1
    );
}

#[test]
fn observation_3b_poor_performance_is_temporally_skewed() {
    let (_, tr) = trace();
    let tp = analysis::temporal_patterns(&tr, 4);
    assert!(tp.prevalence.len() >= 20, "too few qualifying pairs");
    let chronic =
        tp.prevalence.iter().filter(|&&p| p > 0.9).count() as f64 / tp.prevalence.len() as f64;
    let rare =
        tp.prevalence.iter().filter(|&&p| p < 0.3).count() as f64 / tp.prevalence.len() as f64;
    // Figure 6's skew: a minority always bad, a majority rarely bad.
    assert!(chronic < 0.45, "chronic fraction {chronic}");
    assert!(rare > 0.35, "rare fraction {rare}");
}

#[test]
fn thresholds_capture_the_worst_tail() {
    let (_, tr) = trace();
    for metric in Metric::ALL {
        let cdf = analysis::metric_cdf(&tr, metric).unwrap();
        let beyond = cdf.fraction_at_or_above(Thresholds.for_metric(metric));
        assert!(
            (0.05..=0.40).contains(&beyond),
            "{metric}: {beyond:.2} of calls beyond threshold (paper: ~0.15)"
        );
    }
}

#[test]
fn dataset_composition_matches_paper() {
    let (_, tr) = trace();
    let s = analysis::dataset_summary(&tr);
    assert!((s.international_fraction - 0.466).abs() < 0.05);
    assert!((s.inter_as_fraction - 0.807).abs() < 0.05);
    assert!((s.wireless_fraction - 0.83).abs() < 0.03);
}
