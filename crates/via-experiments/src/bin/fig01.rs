//! Figure 1: poor call rate (PCR) vs binned network metrics.
//!
//! The paper bins rated calls by RTT / loss / jitter (≥ 1000 samples per
//! bin) and reports PCR correlations of 0.97 / 0.95 / 0.91 with the three
//! metrics. This binary reproduces the curves (y normalized to the maximum
//! PCR, as in the paper's plot) and the correlation coefficients.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_experiments::{build_env, header, row, write_json, Args, Scale};
use via_model::metrics::Metric;
use via_trace::analysis::{pcr_vs_metric, PcrCurve};

#[derive(Serialize)]
struct Fig01 {
    curves: Vec<PcrCurve>,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let min_samples = match args.scale {
        Scale::Tiny => 30,
        Scale::Small => 200,
        Scale::Paper => 1000,
    };

    // Bin ranges chosen to span the observed distributions (Figure 2).
    let ranges = [
        (Metric::Rtt, 800.0, 16),
        (Metric::Loss, 8.0, 16),
        (Metric::Jitter, 30.0, 15),
    ];

    println!("# Figure 1: normalized PCR vs network metrics\n");
    let mut curves = Vec::new();
    for (metric, x_max, n_bins) in ranges {
        let curve = pcr_vs_metric(&env.trace, metric, x_max, n_bins, min_samples);
        let max_pcr = curve
            .bins
            .iter()
            .map(|b| b.y_mean)
            .fold(f64::MIN, f64::max)
            .max(1e-9);

        println!(
            "## {metric} (correlation {:.3}, paper: {})\n",
            curve.correlation.unwrap_or(f64::NAN),
            match metric {
                Metric::Rtt => "0.97",
                Metric::Loss => "0.95",
                Metric::Jitter => "0.91",
            }
        );
        header(&[
            &format!("{metric} ({})", metric.unit()),
            "calls",
            "PCR",
            "normalized PCR",
        ]);
        for b in &curve.bins {
            row(&[
                format!("{:.1}", b.x_center),
                b.count.to_string(),
                format!("{:.3}", b.y_mean),
                format!("{:.2}", b.y_mean / max_pcr),
            ]);
        }
        println!();
        curves.push(curve);
    }

    let path = write_json("fig01", &Fig01 { curves });
    println!("Wrote {}", path.display());
}
