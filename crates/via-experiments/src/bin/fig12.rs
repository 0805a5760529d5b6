//! Figure 12: VIA vs the strawmen and the oracle.
//!
//! (a) PNR reduction over the default strategy for pure prediction
//!     (Strawman I), pure exploration (Strawman II), VIA, and the oracle —
//!     paper: VIA reduces per-metric PNR by 39–45 % (oracle 53 %) and the
//!     "at least one bad" PNR by 23 % (oracle 30 %), beating both strawmen.
//! (b) VIA's improvement on distribution percentiles — paper: 20–58 % at the
//!     median, 20–57 % at the 90th.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_core::strategy::StrategyKind;
use via_experiments::{build_env, header, metric_values_masked, pnr_masked, row, write_json, Args};
use via_model::metrics::Metric;
use via_model::stats::percentile;
use via_quality::relative_improvement;

#[derive(Serialize)]
struct Fig12 {
    /// strategy → metric → PNR reduction %.
    pnr_reduction: Vec<(String, Vec<(String, f64)>)>,
    /// strategy → "at least one bad" reduction % (conservative).
    any_reduction: Vec<(String, f64)>,
    /// metric → percentile → VIA improvement %.
    via_percentiles: Vec<(String, Vec<(f64, f64)>)>,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);

    let strategies = [
        StrategyKind::PredictionOnly,
        StrategyKind::ExplorationOnly,
        StrategyKind::Via,
        StrategyKind::Oracle,
    ];

    let mask = env.eligible(args.scale);
    let kept = mask.iter().filter(|&&b| b).count();
    println!(
        "Evaluation mask (§5.1 density filter): {kept} of {} calls eligible\n",
        mask.len()
    );

    let default_run = env.run(StrategyKind::Default, Metric::Rtt);
    let default_pnr = pnr_masked(&default_run, &mask);

    let mut pnr_reduction = Vec::new();
    let mut any_reduction = Vec::new();
    let mut via_percentiles = Vec::new();

    println!("# Figure 12a: PNR reduction over the default strategy\n");
    header(&["strategy", "RTT", "loss", "jitter", "at least one bad"]);

    for kind in strategies {
        let mut per_metric = Vec::new();
        let mut worst_any = f64::MIN;
        for metric in Metric::ALL {
            let out = env.run(kind, metric);
            let pnr = pnr_masked(&out, &mask);
            per_metric.push((
                metric.to_string(),
                relative_improvement(default_pnr.for_metric(metric), pnr.for_metric(metric)),
            ));
            worst_any = worst_any.max(pnr.any);

            if kind == StrategyKind::Via {
                let mut per_p = Vec::new();
                for &p in &[50.0, 90.0, 99.0] {
                    let b =
                        percentile(&metric_values_masked(&default_run, &mask, metric), p).unwrap();
                    let a = percentile(&metric_values_masked(&out, &mask, metric), p).unwrap();
                    per_p.push((p, relative_improvement(b, a)));
                }
                via_percentiles.push((metric.to_string(), per_p));
            }
        }
        let any = relative_improvement(default_pnr.any, worst_any);
        row(&[
            kind.name(),
            format!("{:.0}%", per_metric[0].1),
            format!("{:.0}%", per_metric[1].1),
            format!("{:.0}%", per_metric[2].1),
            format!("{any:.0}%"),
        ]);
        pnr_reduction.push((kind.name(), per_metric));
        any_reduction.push((kind.name(), any));
    }
    println!(
        "\nPaper: VIA 39-45% per metric / 23% any; oracle 53% / 30%; strawmen well below VIA."
    );

    println!("\n# Figure 12b: VIA improvement on percentiles\n");
    header(&["metric", "p50", "p90", "p99"]);
    for (m, ps) in &via_percentiles {
        row(&[
            m.clone(),
            format!("{:.0}%", ps[0].1),
            format!("{:.0}%", ps[1].1),
            format!("{:.0}%", ps[2].1),
        ]);
    }
    println!("\nPaper: 20-58% at median, 20-57% at p90, 35-60% at p99.");

    let path = write_json(
        "fig12",
        &Fig12 {
            pnr_reduction,
            any_reduction,
            via_percentiles,
        },
    );
    println!("\nWrote {}", path.display());
}
