//! Extension (§7 "Hybrid reactive decentralized approaches"): racing the
//! top-k pruned options at call setup.
//!
//! The paper proposes letting clients "try a list of relay options … in
//! parallel, and pick the best option", using prediction-guided pruning to
//! keep the list short. This experiment sweeps the race width k and reports
//! the PNR gain over plain VIA and the probe overhead the race costs.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use via_core::strategy::StrategyKind;
use via_experiments::{build_env, header, pnr_masked, row, write_json, Args};
use via_model::metrics::Metric;

#[derive(Serialize)]
struct Point {
    k: usize,
    pnr_any: f64,
    race_probes_per_call: f64,
}

#[derive(Serialize)]
struct ExtHybrid {
    via_pnr: f64,
    oracle_pnr: f64,
    points: Vec<Point>,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mask = env.eligible(args.scale);
    let objective = Metric::Rtt;

    let via_pnr = pnr_masked(&env.run(StrategyKind::Via, objective), &mask).any;
    let oracle_pnr = pnr_masked(&env.run(StrategyKind::Oracle, objective), &mask).any;

    println!("# §7 extension: hybrid racing over the pruned top-k\n");
    println!("plain VIA PNR = {via_pnr:.3}; oracle = {oracle_pnr:.3}\n");
    header(&["race width k", "PNR (any)", "setup probes per call"]);

    let mut points = Vec::new();
    for k in [1usize, 2, 3, 5] {
        let out = env.run(StrategyKind::HybridRacing { k }, objective);
        let pnr = pnr_masked(&out, &mask).any;
        let per_call = out.race_probes as f64 / out.aggregate.calls.max(1) as f64;
        row(&[k.to_string(), format!("{pnr:.3}"), format!("{per_call:.1}")]);
        points.push(Point {
            k,
            pnr_any: pnr,
            race_probes_per_call: per_call,
        });
    }

    println!(
        "\nRacing closes part of the VIA→oracle gap at k× setup cost; k beyond \
         3 pays almost nothing (the pruned set rarely holds more than a few \
         genuinely competitive options)."
    );
    let path = write_json(
        "ext_hybrid",
        &ExtHybrid {
            via_pnr,
            oracle_pnr,
            points,
        },
    );
    println!("Wrote {}", path.display());
}
