//! A multinational call-center scenario: one busy international AS pair,
//! watched day by day.
//!
//! A support operator routes thousands of daily calls between its US and
//! India offices. The example shows why static configuration fails — the
//! best relaying option churns across days — and what VIA's predictor and
//! top-k pruning see for this pair.
//!
//! ```sh
//! cargo run --release --example call_center
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "example code: terse unwraps keep the walkthrough readable"
)]

use rand::prelude::*;
use rand::rngs::StdRng;
use via::core::history::{CallHistory, KeyPair};
use via::core::predictor::{Predictor, PredictorConfig};
use via::core::topk::{top_k_into, ScoredOption};
use via::core::SpatialGranularity;
use via::model::metrics::Metric;
use via::model::time::{SimTime, WindowLen, SECS_PER_DAY};
use via::netsim::{World, WorldConfig};

fn main() {
    let seed = 11;
    let world = World::generate(&WorldConfig::paper_scale(), seed);

    // Pick the first US and first India AS (catalog order puts them first).
    let us = world
        .ases
        .iter()
        .find(|a| world.countries[a.country.index()].name == "United States")
        .expect("US exists");
    let india = world
        .ases
        .iter()
        .find(|a| world.countries[a.country.index()].name == "India")
        .expect("India exists");
    println!(
        "call-center pair: {} ({}) <-> {} ({})\n",
        us.id,
        world.countries[us.country.index()].name,
        india.id,
        world.countries[india.country.index()].name
    );

    let options = world.candidate_options(us.id, india.id);
    println!("candidate options ({}):", options.len());
    for o in &options {
        let names: Vec<String> = o
            .relays()
            .iter()
            .map(|r| world.relays[r.index()].name.clone())
            .collect();
        println!(
            "  {o} {}",
            if names.is_empty() {
                String::new()
            } else {
                format!("[{}]", names.join(" -> "))
            }
        );
    }

    // Day-by-day: the ground-truth best option churns.
    println!("\nday-by-day ground truth (RTT of best option vs direct):");
    println!("| day | direct RTT | best option | best RTT |");
    println!("|---|---|---|---|");
    let mut last_best = None;
    let mut switches = 0;
    for day in 0..14 {
        let t = SimTime(day * SECS_PER_DAY + SECS_PER_DAY / 2);
        let direct = world
            .perf()
            .option_mean(us.id, india.id, via::model::RelayOption::Direct, t);
        let (best, best_m) = options
            .iter()
            .map(|&o| (o, world.perf().option_mean(us.id, india.id, o, t)))
            .min_by(|a, b| a.1.rtt_ms.total_cmp(&b.1.rtt_ms))
            .unwrap();
        if last_best.is_some() && last_best != Some(best) {
            switches += 1;
        }
        last_best = Some(best);
        println!(
            "| {day} | {:.0} ms | {best} | {:.0} ms |",
            direct.rtt_ms, best_m.rtt_ms
        );
    }
    println!(
        "\nbest option switched {switches} times in 14 days — static pinning would miss this."
    );

    // What VIA's controller would see: one day of measurements, then the
    // predictor + top-k pruning for the next day.
    let window = WindowLen::DAY.window_of(SimTime::ZERO);
    let mut history = CallHistory::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for opt in &options {
        for _ in 0..12 {
            let t = SimTime(rng.random_range(0..SECS_PER_DAY));
            let m = world
                .perf()
                .sample_option(us.id, india.id, *opt, t, &mut rng);
            history.record(window, KeyPair::new(us.id.0, india.id.0), *opt, &m);
        }
    }
    let (prior, backbone) = SpatialGranularity::As.controller_inputs(&world);
    let predictor = Predictor::fit(
        &history,
        window,
        prior,
        backbone,
        PredictorConfig::default(),
    );

    let scored: Vec<ScoredOption> = options
        .iter()
        .map(|&o| {
            ScoredOption::from_prediction(
                o,
                &predictor.predict(us.id.0, india.id.0, o),
                Metric::Rtt,
            )
        })
        .collect();
    let mut selected = Vec::new();
    top_k_into(&scored, &mut Vec::new(), &mut selected);
    println!(
        "\nVIA's top-k after one day of measurements ({} of {} candidates kept):",
        selected.len(),
        options.len()
    );
    println!("| option | predicted RTT | 95% CI |");
    println!("|---|---|---|");
    for s in &selected {
        println!(
            "| {} | {:.0} ms | [{:.0}, {:.0}] |",
            s.option, s.mean, s.lower, s.upper
        );
    }
    println!("\nThe bandit explores only these; everything else is confidently worse.");
}
