//! Figure 5: how concentrated are poor calls across AS pairs?
//!
//! The paper's central "no easy fix" observation: even the worst 1000 AS
//! pairs together account for under 15 % of all poor-network calls, so
//! point fixes at specific pairs cannot move the needle. This binary prints
//! the cumulative share of poor calls contributed by the worst n pairs.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_experiments::{build_env, header, pct, row, write_json, Args};
use via_trace::analysis::worst_pair_concentration;

#[derive(Serialize)]
struct Fig05 {
    /// (rank, cumulative fraction) at selected ranks.
    points: Vec<(usize, f64)>,
    total_pairs: usize,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let conc = worst_pair_concentration(&env.trace);
    assert!(
        !conc.is_empty(),
        "trace has no poor calls — world miscalibrated"
    );

    let total_pairs = conc.len();
    let marks = [1usize, 3, 10, 30, 100, 300, 1000, 3000];
    println!("# Figure 5: share of poor calls from the worst n AS pairs\n");
    header(&["worst n pairs", "share of poor calls"]);
    let mut points = Vec::new();
    for &n in &marks {
        if n > total_pairs {
            break;
        }
        let share = conc[n - 1].1;
        row(&[n.to_string(), pct(share)]);
        points.push((n, share));
    }
    row(&[format!("{total_pairs} (all)"), pct(1.0)]);

    // The paper's headline number: worst 1000 pairs < 15 %. At smaller
    // scales, report the equivalent share of the same *fraction* of pairs.
    let frac_idx = ((total_pairs as f64 * 0.05).ceil() as usize).clamp(1, total_pairs);
    println!(
        "\nWorst 5% of pairs ({} pairs) hold {} of poor calls — spread-out badness.",
        frac_idx,
        pct(conc[frac_idx - 1].1)
    );

    let path = write_json(
        "fig05",
        &Fig05 {
            points,
            total_pairs,
        },
    );
    println!("Wrote {}", path.display());
}
