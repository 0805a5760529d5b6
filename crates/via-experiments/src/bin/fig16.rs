//! Figure 16: impact of the relaying budget (§4.6 / §5.4).
//!
//! Sweeps the budget B (maximum fraction of calls relayed) and compares
//! budget-aware VIA (relay only the top-B-percentile-benefit calls) against
//! budget-unaware VIA (first-come-first-served until the cap). Paper:
//! budget-aware reaches about half of the unbudgeted benefit with B = 0.3
//! and dominates the unaware variant at every budget.
//!
//! One replay per (budget, variant) with the RTT objective; PNR is the
//! "at least one bad" rate of that run.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_core::strategy::StrategyKind;
use via_experiments::{build_env, header, pnr_masked, row, write_json, Args};
use via_model::metrics::Metric;

#[derive(Serialize)]
struct Point {
    budget: f64,
    aware_pnr: f64,
    aware_relayed: f64,
    unaware_pnr: f64,
    unaware_relayed: f64,
}

#[derive(Serialize)]
struct Fig16 {
    default_pnr: f64,
    unbudgeted_pnr: f64,
    oracle_pnr: f64,
    points: Vec<Point>,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mask = env.eligible(args.scale);
    let objective = Metric::Rtt;

    let default_pnr = pnr_masked(&env.run(StrategyKind::Default, objective), &mask).any;
    let via_full = env.run(StrategyKind::Via, objective);
    let unbudgeted_pnr = pnr_masked(&via_full, &mask).any;
    let oracle_pnr = pnr_masked(&env.run(StrategyKind::Oracle, objective), &mask).any;

    println!("# Figure 16: PNR (at least one bad) vs relaying budget\n");
    println!(
        "default = {:.3}, unbudgeted VIA = {:.3} (relays {:.0}% of calls), oracle = {:.3}\n",
        default_pnr,
        unbudgeted_pnr,
        100.0 * via_full.aggregate.relayed_fraction(),
        oracle_pnr
    );
    header(&[
        "budget",
        "budget-aware PNR",
        "aware relayed",
        "budget-unaware PNR",
        "unaware relayed",
    ]);

    let mut points = Vec::new();
    for budget in [0.05, 0.1, 0.2, 0.3, 0.5, 0.75] {
        let aware = env.run(StrategyKind::ViaBudgeted { budget }, objective);
        let unaware = env.run(StrategyKind::ViaBudgetUnaware { budget }, objective);
        let p = Point {
            budget,
            aware_pnr: pnr_masked(&aware, &mask).any,
            aware_relayed: aware.aggregate.relayed_fraction(),
            unaware_pnr: pnr_masked(&unaware, &mask).any,
            unaware_relayed: unaware.aggregate.relayed_fraction(),
        };
        row(&[
            format!("{budget:.2}"),
            format!("{:.3}", p.aware_pnr),
            format!("{:.0}%", 100.0 * p.aware_relayed),
            format!("{:.3}", p.unaware_pnr),
            format!("{:.0}%", 100.0 * p.unaware_relayed),
        ]);
        points.push(p);
    }

    // The paper's headline: budget-aware at B=0.3 achieves ~half the
    // maximum (unbudgeted) benefit.
    if let Some(p30) = points.iter().find(|p| (p.budget - 0.3).abs() < 1e-9) {
        let max_benefit = default_pnr - unbudgeted_pnr;
        let b30_benefit = default_pnr - p30.aware_pnr;
        println!(
            "\nBudget 0.3 captures {:.0}% of the unbudgeted benefit (paper: ~50%).",
            100.0 * b30_benefit / max_benefit.max(1e-9)
        );
    }

    let path = write_json(
        "fig16",
        &Fig16 {
            default_pnr,
            unbudgeted_pnr,
            oracle_pnr,
            points,
        },
    );
    println!("Wrote {}", path.display());
}
