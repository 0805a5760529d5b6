//! Figure 8: the oracle's potential (§3.2).
//!
//! (a) Relative improvement of RTT / loss / jitter distribution percentiles
//!     when an oracle picks the best relaying option per (pair, day) —
//!     paper: 30–60 % at the median, 40–65 % at the tail.
//! (b) PNR reduction per metric (paper: up to 53 %) and on the combined
//!     "at least one bad" criterion, conservatively taking the worst of the
//!     three per-metric optimizations (paper: > 30 %).

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_core::strategy::StrategyKind;
use via_core::Outcome;
use via_experiments::{build_env, header, per_call, row, write_json, Args};
use via_model::metrics::Metric;
use via_model::stats::percentile;
use via_quality::relative_improvement;

#[derive(Serialize)]
struct Fig08 {
    percentile_improvements: Vec<(String, Vec<(f64, f64)>)>,
    pnr_reduction: Vec<(String, f64)>,
    pnr_reduction_any_conservative: f64,
}

/// Values of one metric over every call of a run.
fn metric_values(out: &Outcome, metric: Metric) -> Vec<f64> {
    per_call(out).iter().map(|c| c.metrics[metric]).collect()
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let ps = [25.0, 50.0, 75.0, 90.0, 95.0, 99.0];

    let default_run = env.run(StrategyKind::Default, Metric::Rtt);
    let default_pnr = default_run.aggregate.pnr();

    println!("# Figure 8a: oracle improvement on metric percentiles\n");
    header(&["metric", "p25", "p50", "p75", "p90", "p95", "p99"]);

    let mut pct_improvements = Vec::new();
    let mut pnr_reduction = Vec::new();
    let mut worst_any = f64::MIN;

    for metric in Metric::ALL {
        let oracle = env.run(StrategyKind::Oracle, metric);
        let base_vals = metric_values(&default_run, metric);
        let oracle_vals = metric_values(&oracle, metric);

        let mut per_p = Vec::new();
        let mut cells = vec![metric.to_string()];
        for &p in &ps {
            let b = percentile(&base_vals, p).unwrap();
            let a = percentile(&oracle_vals, p).unwrap();
            let imp = relative_improvement(b, a);
            cells.push(format!("{imp:.0}%"));
            per_p.push((p, imp));
        }
        row(&cells);
        pct_improvements.push((metric.to_string(), per_p));

        let o_pnr = oracle.aggregate.pnr();
        pnr_reduction.push((
            metric.to_string(),
            relative_improvement(default_pnr.for_metric(metric), o_pnr.for_metric(metric)),
        ));
        // Conservative "any": worst (largest) any-PNR across the three
        // single-metric optimizations.
        worst_any = worst_any.max(o_pnr.any);
    }

    let any_reduction = relative_improvement(default_pnr.any, worst_any);

    println!("\n# Figure 8b: oracle PNR reduction\n");
    header(&["metric", "default PNR", "oracle PNR reduction", "paper"]);
    for (m, r) in &pnr_reduction {
        let metric = Metric::ALL
            .iter()
            .find(|x| x.to_string() == *m)
            .copied()
            .unwrap();
        row(&[
            m.clone(),
            format!("{:.1}%", 100.0 * default_pnr.for_metric(metric)),
            format!("{r:.0}%"),
            "up to 53%".into(),
        ]);
    }
    row(&[
        "at least one bad".into(),
        format!("{:.1}%", 100.0 * default_pnr.any),
        format!("{any_reduction:.0}%"),
        ">30%".into(),
    ]);

    let path = write_json(
        "fig08",
        &Fig08 {
            percentile_improvements: pct_improvements,
            pnr_reduction,
            pnr_reduction_any_conservative: any_reduction,
        },
    );
    println!("\nWrote {}", path.display());
}
