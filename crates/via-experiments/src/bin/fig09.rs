//! Figure 9: how long does the oracle's best relaying option last?
//!
//! For every AS pair in the trace, compute the oracle's per-day best option
//! over the horizon and measure the median run length of identical
//! consecutive choices. Paper: the best option changes within 2 days for
//! 30 % of pairs, and only 20 % keep the same optimum for > 20 days —
//! the case for *dynamic* selection.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use std::collections::BTreeSet;
use via_experiments::{build_env, header, pct, row, write_json, Args};
use via_model::metrics::Metric;
use via_model::stats::Cdf;
use via_model::time::{SimTime, SECS_PER_DAY};

#[derive(Serialize)]
struct Fig09 {
    cdf: Vec<(f64, f64)>,
    pairs: usize,
    lt2_days: f64,
    gt20_days: f64,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let days = env.trace.days;
    let objective = Metric::Rtt;

    // Unique AS pairs seen in the trace.
    let pairs: BTreeSet<(via_model::AsId, via_model::AsId)> = env
        .trace
        .records
        .iter()
        .map(|r| {
            let p = r.as_pair();
            (p.lo, p.hi)
        })
        .collect();

    let mut medians = Vec::new();
    for &(a, b) in &pairs {
        if a == b {
            continue; // intra-AS: direct is trivially stable
        }
        let options = env.world.candidate_options(a, b);
        let mut choices = Vec::with_capacity(days as usize);
        for d in 0..days {
            let t = SimTime(d * SECS_PER_DAY + SECS_PER_DAY / 2);
            let best = options
                .iter()
                .min_by(|&&x, &&y| {
                    let mx = env.world.perf().option_mean(a, b, x, t)[objective];
                    let my = env.world.perf().option_mean(a, b, y, t)[objective];
                    mx.total_cmp(&my)
                })
                .copied()
                .expect("non-empty options");
            choices.push(best);
        }
        // Run lengths of identical consecutive choices.
        let mut runs = Vec::new();
        let mut run = 1u64;
        for w in choices.windows(2) {
            if w[0] == w[1] {
                run += 1;
            } else {
                runs.push(run as f64);
                run = 1;
            }
        }
        runs.push(run as f64);
        medians.push(via_model::stats::percentile(&runs, 50.0).unwrap());
    }

    let cdf = Cdf::from_samples(medians.iter().copied()).expect("pairs exist");
    println!("# Figure 9: duration the oracle's best option persists (per AS pair)\n");
    header(&["days", "CDF of pairs"]);
    let mut points = Vec::new();
    for d in [1.0, 2.0, 3.0, 5.0, 10.0, 20.0, days as f64] {
        let f = cdf.fraction_at_or_below(d);
        row(&[format!("{d:.0}"), pct(f)]);
        points.push((d, f));
    }

    let lt2 = cdf.fraction_at_or_below(2.0);
    let gt20 = 1.0 - cdf.fraction_at_or_below(20.0);
    println!(
        "\nBest option lasts < 2 days for {} of pairs (paper: 30%); \
         > 20 days for {} (paper: 20%).",
        pct(lt2),
        pct(gt20)
    );

    let path = write_json(
        "fig09",
        &Fig09 {
            cdf: points,
            pairs: medians.len(),
            lt2_days: lt2,
            gt20_days: gt20,
        },
    );
    println!("Wrote {}", path.display());
}
