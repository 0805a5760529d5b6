//! Figure 11 / §5.3: accuracy of relay-based tomography on unseen paths.
//!
//! Build one day of relayed call history with a random subset of each pair's
//! relaying options observed, fit the tomography predictor, and evaluate the
//! *held-out* options against the ground-truth model. The paper reports that
//! 71 % of predictions land within 20 % of the actual performance, while
//! 14 % err by ≥ 50 % — accurate enough to prune, not accurate enough to
//! pick a single winner (hence prediction-guided *exploration*).

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::Serialize;
use std::collections::HashSet;
use via_core::history::{CallHistory, KeyPair};
use via_core::predictor::{Predictor, PredictorConfig};
use via_core::{PredictionSource, SpatialGranularity};
use via_experiments::{build_env, header, pct, row, write_json, Args};
use via_model::metrics::Metric;
use via_model::time::{SimTime, WindowLen, SECS_PER_DAY};

#[derive(Serialize)]
struct Fig11 {
    evaluated: usize,
    covered_fraction: f64,
    within_20: f64,
    beyond_50: f64,
    median_rel_error: f64,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mut rng = StdRng::seed_from_u64(env.seed ^ 0xF1611);
    let window = WindowLen::DAY.window_of(SimTime::from_days(1));
    let t_mid = SimTime(SECS_PER_DAY + SECS_PER_DAY / 2);

    // Pairs observed in the trace (AS granularity, like the paper).
    let pairs: HashSet<(via_model::AsId, via_model::AsId)> = env
        .trace
        .records
        .iter()
        .filter(|r| r.src_as != r.dst_as)
        .map(|r| {
            let p = r.as_pair();
            (p.lo, p.hi)
        })
        .collect();
    let mut pairs: Vec<_> = pairs.into_iter().collect();
    pairs.sort();

    // Observe a random 60% of each pair's relayed options with 8 calls each.
    let mut history = CallHistory::new();
    let mut holdout = Vec::new();
    for &(a, b) in &pairs {
        for opt in env.world.candidate_options(a, b) {
            if !opt.is_relayed() {
                continue;
            }
            if rng.random::<f64>() < 0.6 {
                for _ in 0..8 {
                    let t = SimTime(SECS_PER_DAY + rng.random_range(0..SECS_PER_DAY));
                    let m = env.world.perf().sample_option(a, b, opt, t, &mut rng);
                    history.record(window, KeyPair::new(a.0, b.0), opt, &m);
                }
            } else {
                holdout.push((a, b, opt));
            }
        }
    }

    let (prior, backbone) = SpatialGranularity::As.controller_inputs(&env.world);
    let predictor = Predictor::fit(
        &history,
        window,
        prior,
        backbone,
        PredictorConfig::default(),
    );

    // Evaluate held-out options: only tomography-sourced predictions count
    // as "coverage expansion".
    let mut errors = Vec::new();
    let mut covered = 0usize;
    for &(a, b, opt) in &holdout {
        let pred = predictor.predict(a.0, b.0, opt);
        if pred.source != PredictionSource::Tomography {
            continue;
        }
        covered += 1;
        let truth = env.world.perf().option_mean(a, b, opt, t_mid);
        let rel = (pred.mean(Metric::Rtt) - truth.rtt_ms).abs() / truth.rtt_ms.max(1.0);
        errors.push(rel);
    }
    assert!(
        !errors.is_empty(),
        "tomography produced no stitched predictions"
    );

    let within_20 = errors.iter().filter(|&&e| e <= 0.2).count() as f64 / errors.len() as f64;
    let beyond_50 = errors.iter().filter(|&&e| e >= 0.5).count() as f64 / errors.len() as f64;
    let median = via_model::stats::percentile(&errors, 50.0).unwrap();

    println!("# Figure 11 / §5.3: tomography prediction accuracy on held-out paths\n");
    header(&["statistic", "synthetic", "paper"]);
    row(&[
        "held-out options".into(),
        holdout.len().to_string(),
        "-".into(),
    ]);
    row(&[
        "stitchable (coverage)".into(),
        pct(covered as f64 / holdout.len().max(1) as f64),
        "-".into(),
    ]);
    row(&["within 20% of truth".into(), pct(within_20), "71%".into()]);
    row(&["error >= 50%".into(), pct(beyond_50), "14%".into()]);
    row(&["median relative error".into(), pct(median), "-".into()]);

    let path = write_json(
        "fig11",
        &Fig11 {
            evaluated: errors.len(),
            covered_fraction: covered as f64 / holdout.len().max(1) as f64,
            within_20,
            beyond_50,
            median_rel_error: median,
        },
    );
    println!("\nWrote {}", path.display());
}
