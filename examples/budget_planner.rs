//! Capacity planning for a managed overlay: how much relay budget buys how
//! much quality?
//!
//! An operator considering VIA wants to know the marginal value of relaying
//! capacity before provisioning it. This example sweeps the relaying budget,
//! measures the poor-network rate at each point, and reports the knee —
//! where additional budget stops paying for itself.
//!
//! ```sh
//! cargo run --release --example budget_planner
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "example code: terse unwraps keep the walkthrough readable"
)]

use via::core::replay::{ReplayConfig, ReplaySim};
use via::core::strategy::StrategyKind;
use via::netsim::{World, WorldConfig};
use via::trace::{TraceConfig, TraceGenerator};

fn main() {
    let seed = 23;
    let world = World::generate(&WorldConfig::tiny(), seed);
    let trace = TraceGenerator::new(&world, TraceConfig::tiny(), seed).generate();
    let cfg = ReplayConfig {
        seed,
        ..ReplayConfig::default()
    };

    let default_pnr = ReplaySim::new(&world, &trace, cfg.clone())
        .run(StrategyKind::Default)
        .aggregate
        .pnr()
        .any;
    let unbounded = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Via);
    let max_benefit = default_pnr - unbounded.aggregate.pnr().any;
    println!(
        "default PNR = {:.1}%; unbudgeted VIA removes {:.1} points while relaying {:.0}% of calls\n",
        100.0 * default_pnr,
        100.0 * max_benefit,
        100.0 * unbounded.aggregate.relayed_fraction()
    );

    println!("| budget | relayed | PNR (any) | benefit captured | benefit per point of budget |");
    println!("|---|---|---|---|---|");
    let mut best_efficiency = (0.0f64, 0.0f64); // (budget, captured)
    for budget in [0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8] {
        let out =
            ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::ViaBudgeted { budget });
        let pnr = out.aggregate.pnr().any;
        let captured = (default_pnr - pnr) / max_benefit.max(1e-9);
        let efficiency = captured / budget;
        println!(
            "| {budget:.2} | {:.0}% | {:.1}% | {:.0}% | {efficiency:.1} |",
            100.0 * out.aggregate.relayed_fraction(),
            100.0 * pnr,
            100.0 * captured,
        );
        if captured >= 0.5 && best_efficiency.0 == 0.0 {
            best_efficiency = (budget, captured);
        }
    }

    if best_efficiency.0 > 0.0 {
        println!(
            "\nrecommendation: a budget of {:.0}% of calls already captures {:.0}% of the \
             achievable improvement — capacity beyond that has steeply diminishing returns.",
            100.0 * best_efficiency.0,
            100.0 * best_efficiency.1
        );
    }
}
