//! §2.2 validation: do thresholds on per-call *averages* agree with quality
//! judged from full *packet traces*?
//!
//! The paper ran a proprietary MOS calculator over packet traces of 70 K
//! calls and found that 80 % of calls rated "non-poor" by the average-metric
//! thresholds score a higher trace-MOS than three quarters of the "poor"
//! calls. We regenerate packet traces for a sample of the synthetic calls
//! with `via-media` and compute the same cross-statistic.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_experiments::{build_env, header, pct, row, write_json, Args, Scale};
use via_media::call_sim::simulate_call;
use via_model::metrics::Thresholds;
use via_model::stats::percentile;

#[derive(Serialize)]
struct Sec22 {
    sampled_calls: usize,
    poor_calls: usize,
    poor_mos_p75: f64,
    nonpoor_above_that: f64,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let sample = match args.scale {
        Scale::Tiny => 2_000,
        Scale::Small => 10_000,
        Scale::Paper => 70_000,
    };
    let stride = (env.trace.len() / sample).max(1);

    let mut poor_mos = Vec::new();
    let mut nonpoor_mos = Vec::new();
    for r in env.trace.records.iter().step_by(stride) {
        // Cap trace length for speed: quality statistics converge long
        // before the mean call duration.
        let duration = r.duration_s.min(90.0);
        let report = simulate_call(&r.direct_metrics, duration, u64::from(r.id.0));
        if Thresholds.any_poor(&r.direct_metrics) {
            poor_mos.push(report.mos);
        } else {
            nonpoor_mos.push(report.mos);
        }
    }
    assert!(!poor_mos.is_empty() && !nonpoor_mos.is_empty());

    let p75_poor = percentile(&poor_mos, 75.0).unwrap();
    let above =
        nonpoor_mos.iter().filter(|&&m| m > p75_poor).count() as f64 / nonpoor_mos.len() as f64;

    println!("# §2.2: packet-trace MOS vs average-metric thresholds\n");
    header(&["statistic", "synthetic", "paper"]);
    row(&[
        "calls simulated at packet level".into(),
        (poor_mos.len() + nonpoor_mos.len()).to_string(),
        "70K".into(),
    ]);
    row(&[
        "75th percentile MOS of 'poor' calls".into(),
        format!("{p75_poor:.2}"),
        "-".into(),
    ]);
    row(&[
        "'non-poor' calls scoring above it".into(),
        pct(above),
        "80%".into(),
    ]);
    println!("\nThresholds on per-call averages are a reasonable proxy for trace-level quality.");

    let path = write_json(
        "sec2_2",
        &Sec22 {
            sampled_calls: poor_mos.len() + nonpoor_mos.len(),
            poor_calls: poor_mos.len(),
            poor_mos_p75: p75_poor,
            nonpoor_above_that: above,
        },
    );
    println!("Wrote {}", path.display());
}
