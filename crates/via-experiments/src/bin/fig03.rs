//! Figure 3: pairwise correlation between the network metrics.
//!
//! For each ordered pair of metrics (x, y), calls are binned by x and the
//! 10th/50th/90th percentiles of y are reported per bin. The paper uses the
//! substantial spread to argue that improving one metric could worsen
//! another — motivating the combined "at least one bad" objective.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_experiments::{build_env, header, row, write_json, Args, Scale};
use via_model::metrics::Metric;
use via_trace::analysis::pairwise_metric_percentiles;

#[derive(Serialize)]
struct Panel {
    x: String,
    y: String,
    bins: Vec<via_model::stats::binning::PercentileBin>,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let min_samples = match args.scale {
        Scale::Tiny => 30,
        Scale::Small => 150,
        Scale::Paper => 1000,
    };
    let range_of = |m: Metric| match m {
        Metric::Rtt => 700.0,
        Metric::Loss => 6.0,
        Metric::Jitter => 25.0,
    };

    let pairs = [
        (Metric::Rtt, Metric::Loss),
        (Metric::Rtt, Metric::Jitter),
        (Metric::Loss, Metric::Jitter),
    ];

    println!("# Figure 3: pairwise metric correlations (p10/p50/p90 of y per x bin)\n");
    let mut panels = Vec::new();
    for (x, y) in pairs {
        let bins = pairwise_metric_percentiles(&env.trace, x, y, range_of(x), 10, min_samples);
        println!("## {y} vs {x}\n");
        header(&[
            &format!("{x} ({})", x.unit()),
            "calls",
            &format!("{y} p10"),
            &format!("{y} p50"),
            &format!("{y} p90"),
        ]);
        for b in &bins {
            row(&[
                format!("{:.1}", b.x_center),
                b.count.to_string(),
                format!("{:.2}", b.y_percentiles[0]),
                format!("{:.2}", b.y_percentiles[1]),
                format!("{:.2}", b.y_percentiles[2]),
            ]);
        }
        println!();
        panels.push(Panel {
            x: x.to_string(),
            y: y.to_string(),
            bins,
        });
    }

    let path = write_json("fig03", &panels);
    println!("Wrote {}", path.display());
}
