//! Figure 15: ablating VIA's two guided-exploration modifications (§5.3).
//!
//! 1. Dynamic confidence-closure top-k vs a fixed top-2.
//! 2. Outlier-robust reward normalization vs raw UCB1 rewards.
//!
//! Paper: with the "at least one bad" metric, full VIA reduces PNR by 24 %
//! vs 15 % for fixed top-2 (loss PNR: 44 % vs 26 %) — each modification
//! contributes.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use via_core::strategy::StrategyKind;
use via_experiments::{build_env, header, pnr_masked, row, write_json, Args};
use via_model::metrics::Metric;
use via_quality::relative_improvement;

#[derive(Serialize)]
struct Fig15 {
    /// variant → (rtt, loss, jitter, any) PNR reductions (%).
    rows: Vec<(String, [f64; 4])>,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mask = env.eligible(args.scale);

    let default_run = env.run(StrategyKind::Default, Metric::Rtt);
    let default_pnr = pnr_masked(&default_run, &mask);

    let variants = [
        ("via (dynamic top-k + normalized)", StrategyKind::Via),
        ("fixed top-2", StrategyKind::ViaFixedTopK { k: 2 }),
        ("fixed top-4", StrategyKind::ViaFixedTopK { k: 4 }),
        ("raw rewards (original UCB1)", StrategyKind::ViaRawReward),
    ];

    println!("# Figure 15: guided-exploration ablations (PNR reduction over default)\n");
    header(&["variant", "RTT", "loss", "jitter", "at least one bad"]);

    let mut rows = Vec::new();
    for (label, kind) in variants {
        let mut per = [0.0f64; 4];
        let mut worst_any = f64::MIN;
        for (i, metric) in Metric::ALL.into_iter().enumerate() {
            let out = env.run(kind, metric);
            let pnr = pnr_masked(&out, &mask);
            per[i] = relative_improvement(default_pnr.for_metric(metric), pnr.for_metric(metric));
            worst_any = worst_any.max(pnr.any);
        }
        per[3] = relative_improvement(default_pnr.any, worst_any);
        row(&[
            label.to_string(),
            format!("{:.0}%", per[0]),
            format!("{:.0}%", per[1]),
            format!("{:.0}%", per[2]),
            format!("{:.0}%", per[3]),
        ]);
        rows.push((label.to_string(), per));
    }

    println!("\nPaper: full VIA 24% on 'any' vs 15% with fixed top-2; loss 44% vs 26%.");
    let path = write_json("fig15", &Fig15 { rows });
    println!("Wrote {}", path.display());
}
