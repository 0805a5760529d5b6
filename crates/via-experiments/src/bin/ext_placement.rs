//! Extension (Figure 17c's follow-up): where should new relays go?
//!
//! Figure 17c shows relay benefit is highly skewed — half the fleet carries
//! almost all of the improvement. This experiment plans a fleet from scratch
//! with the submodular greedy of `via_core::placement`, using the trace's
//! demand matrix (pair weights × default-path cost) and bounce-path costs
//! from the world model, and compares the greedy gain curve against naive
//! catalog-order deployment.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use std::collections::HashMap;
use via_core::placement::{plan_placement, Demand};
use via_experiments::{build_env, header, row, write_json, Args};
use via_model::ids::AsPair;
use via_model::options::RelayOption;
use via_model::time::{SimTime, SECS_PER_DAY};

#[derive(Serialize)]
struct ExtPlacement {
    greedy_sites: Vec<String>,
    greedy_gain: Vec<f64>,
    naive_gain: Vec<f64>,
    half_fleet_share: f64,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let t_eval = SimTime(env.trace.days / 2 * SECS_PER_DAY + SECS_PER_DAY / 2);
    let candidates: Vec<via_model::RelayId> = env.world.relays.iter().map(|r| r.id).collect();

    // Demand matrix: per AS pair, call count and RTT costs.
    let mut weights: HashMap<AsPair, f64> = HashMap::new();
    for r in &env.trace.records {
        if r.src_as != r.dst_as {
            *weights.entry(r.as_pair()).or_default() += 1.0;
        }
    }
    let mut pairs: Vec<_> = weights.into_iter().collect();
    // Tie-break equal weights by pair key: the map iteration order would
    // otherwise pick which tied pairs survive `truncate` and in what order
    // their gains are summed, making the output vary run to run.
    pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    pairs.truncate(400); // the heavy head carries the demand

    let demands: Vec<Demand> = pairs
        .iter()
        .map(|&(pair, weight)| {
            let default_cost = env
                .world
                .perf()
                .option_mean(pair.lo, pair.hi, RelayOption::Direct, t_eval)
                .rtt_ms;
            let site_cost = candidates
                .iter()
                .map(|&r| {
                    env.world
                        .perf()
                        .option_mean(pair.lo, pair.hi, RelayOption::Bounce(r), t_eval)
                        .rtt_ms
                })
                .collect();
            Demand {
                weight,
                default_cost,
                site_cost,
            }
        })
        .collect();

    let k = candidates.len();
    let greedy = plan_placement(&candidates, &demands, k);

    // Naive baseline: deploy sites in catalog order, measure the same
    // objective cumulatively.
    let mut naive_gain = Vec::new();
    let mut best: Vec<f64> = demands.iter().map(|d| d.default_cost).collect();
    for (s, _) in candidates.iter().enumerate() {
        for (cur, d) in best.iter_mut().zip(&demands) {
            *cur = cur.min(d.site_cost[s]);
        }
        naive_gain.push(
            demands
                .iter()
                .zip(&best)
                .map(|(d, &c)| d.weight * (d.default_cost - c).max(0.0))
                .sum(),
        );
    }

    println!("# Extension: greedy relay placement vs catalog-order deployment\n");
    header(&[
        "fleet size",
        "greedy gain",
        "naive gain",
        "greedy site added",
    ]);
    for (i, site) in greedy.sites.iter().take(12).enumerate() {
        row(&[
            (i + 1).to_string(),
            format!("{:.0}", greedy.gain_curve[i]),
            format!("{:.0}", naive_gain[i]),
            env.world.relays[site.index()].name.clone(),
        ]);
    }

    let total = *greedy.gain_curve.last().expect("non-empty");
    let half_idx = greedy.sites.len() / 2;
    let half_share = greedy.gain_curve[half_idx.saturating_sub(1)] / total.max(1e-9);
    println!(
        "\nHalf the greedy fleet captures {:.0}% of the total gain (Figure 17c's skew, planned for).",
        100.0 * half_share
    );

    let path = write_json(
        "ext_placement",
        &ExtPlacement {
            greedy_sites: greedy
                .sites
                .iter()
                .map(|r| env.world.relays[r.index()].name.clone())
                .collect(),
            greedy_gain: greedy.gain_curve,
            naive_gain,
            half_fleet_share: half_share,
        },
    );
    println!("Wrote {}", path.display());
}
