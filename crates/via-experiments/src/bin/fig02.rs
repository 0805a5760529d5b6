//! Figure 2: CDFs of RTT, loss rate, and jitter over default-routed calls.
//!
//! The paper picks the poor-performance thresholds (320 ms, 1.2 %, 12 ms) so
//! that a bit over 15 % of calls cross each; the generative model is
//! calibrated to the same tail mass. Prints quantiles of each metric and the
//! fraction beyond each threshold.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_experiments::{build_env, header, pct, row, write_json, Args};
use via_model::metrics::{Metric, Thresholds};
use via_trace::analysis::metric_cdf;

#[derive(Serialize)]
struct Fig02 {
    metric: String,
    quantiles: Vec<(f64, f64)>,
    threshold: f64,
    fraction_beyond_threshold: f64,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);

    println!("# Figure 2: distribution of network metrics on default paths\n");
    header(&[
        "metric",
        "p10",
        "p25",
        "p50",
        "p75",
        "p90",
        "p95",
        "p99",
        "threshold",
        "beyond",
    ]);

    let mut results = Vec::new();
    for metric in Metric::ALL {
        let cdf = metric_cdf(&env.trace, metric).expect("non-empty trace");
        let qs = [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99];
        let quantiles: Vec<(f64, f64)> = qs.iter().map(|&q| (q, cdf.quantile(q))).collect();
        let threshold = Thresholds.for_metric(metric);
        let beyond = cdf.fraction_at_or_above(threshold);

        row(&[
            metric.to_string(),
            format!("{:.1}", quantiles[0].1),
            format!("{:.1}", quantiles[1].1),
            format!("{:.1}", quantiles[2].1),
            format!("{:.1}", quantiles[3].1),
            format!("{:.1}", quantiles[4].1),
            format!("{:.1}", quantiles[5].1),
            format!("{:.1}", quantiles[6].1),
            format!("{:.1}{}", threshold, metric.unit()),
            pct(beyond),
        ]);

        results.push(Fig02 {
            metric: metric.to_string(),
            quantiles,
            threshold,
            fraction_beyond_threshold: beyond,
        });
    }

    let path = write_json("fig02", &results);
    println!("\nPaper: ≥15% of calls beyond each threshold.");
    println!("Wrote {}", path.display());
}
