//! Extension (the paper's related-work reference 18): Vivaldi network
//! coordinates vs the
//! geographic prior for *direct-path* prediction.
//!
//! Relay-based tomography cannot predict direct (BGP) paths — they do not
//! decompose into client↔relay segments. VIA falls back to a geographic
//! prior for direct-path holes; this experiment asks whether a Vivaldi
//! embedding trained on *other pairs'* direct-path observations does better.
//! Train: one day of direct-path calls over a random 60 % of AS pairs.
//! Test: RTT prediction error on the held-out 40 %.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::Serialize;
use std::collections::HashSet;
use via_core::coords::Vivaldi;
use via_core::predictor::PRIOR_INFLATION;
use via_experiments::{build_env, header, pct, row, write_json, Args};
use via_model::options::RelayOption;
use via_model::time::{SimTime, SECS_PER_DAY};

#[derive(Serialize)]
struct ExtVivaldi {
    held_out_pairs: usize,
    geo_within_20: f64,
    vivaldi_within_20: f64,
    geo_median_err: f64,
    vivaldi_median_err: f64,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mut rng = StdRng::seed_from_u64(env.seed ^ 0x71A1D1);
    let n = env.world.ases.len();

    // Pairs that appear in the trace, split train/test.
    let pairs: HashSet<(u32, u32)> = env
        .trace
        .records
        .iter()
        .filter(|r| r.src_as != r.dst_as)
        .map(|r| {
            let p = r.as_pair();
            (p.lo.0, p.hi.0)
        })
        .collect();
    let mut pairs: Vec<_> = pairs.into_iter().collect();
    pairs.sort_unstable();

    let mut vivaldi = Vivaldi::new(n, env.seed);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for &(a, b) in &pairs {
        if rng.random::<f64>() < 0.6 {
            train.push((a, b));
        } else {
            test.push((a, b));
        }
    }

    // Train on noisy direct-path samples (several passes so coordinates
    // settle).
    for _pass in 0..6 {
        for &(a, b) in &train {
            let t = SimTime(SECS_PER_DAY + rng.random_range(0..SECS_PER_DAY));
            let m = env.world.perf().sample_option(
                via_model::AsId(a),
                via_model::AsId(b),
                RelayOption::Direct,
                t,
                &mut rng,
            );
            vivaldi.observe(a as usize, b as usize, m.rtt_ms);
        }
    }

    // Evaluate both predictors on held-out pairs against the latent mean.
    let t_mid = SimTime(SECS_PER_DAY + SECS_PER_DAY / 2);
    let mut geo_err = Vec::new();
    let mut viv_err = Vec::new();
    for &(a, b) in &test {
        let truth = env
            .world
            .perf()
            .option_mean(
                via_model::AsId(a),
                via_model::AsId(b),
                RelayOption::Direct,
                t_mid,
            )
            .rtt_ms;
        let geo = env.world.ases[a as usize]
            .pos
            .min_rtt_ms(&env.world.ases[b as usize].pos)
            * PRIOR_INFLATION
            + 20.0;
        let viv = vivaldi.predict(a as usize, b as usize);
        geo_err.push((geo - truth).abs() / truth.max(1.0));
        viv_err.push((viv - truth).abs() / truth.max(1.0));
    }
    assert!(!geo_err.is_empty(), "no held-out pairs");

    let within =
        |errs: &[f64]| errs.iter().filter(|&&e| e <= 0.2).count() as f64 / errs.len() as f64;
    let median = |errs: &[f64]| via_model::stats::percentile(errs, 50.0).unwrap();

    println!("# Extension: Vivaldi coordinates vs geographic prior (direct-path RTT)\n");
    header(&["predictor", "within 20% of truth", "median relative error"]);
    row(&[
        "geographic prior".into(),
        pct(within(&geo_err)),
        pct(median(&geo_err)),
    ]);
    row(&[
        "Vivaldi embedding".into(),
        pct(within(&viv_err)),
        pct(median(&viv_err)),
    ]);
    println!(
        "\n({} held-out pairs; Vivaldi trained on {} pairs' direct calls, {} observations)",
        test.len(),
        train.len(),
        vivaldi.samples()
    );

    let path = write_json(
        "ext_vivaldi",
        &ExtVivaldi {
            held_out_pairs: test.len(),
            geo_within_20: within(&geo_err),
            vivaldi_within_20: within(&viv_err),
            geo_median_err: median(&geo_err),
            vivaldi_median_err: median(&viv_err),
        },
    );
    println!("Wrote {}", path.display());
}
