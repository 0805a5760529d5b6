//! Quickstart: generate a world, synthesize a call trace, and compare
//! default routing against VIA and the oracle.
//!
//! ```sh
//! cargo run --release --example quickstart
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
    // Everything derives from one seed: same seed, same world, same calls,
    // same results.
    let seed = 7;
    let world = World::generate(&WorldConfig::tiny(), seed);
    let trace = TraceGenerator::new(&world, TraceConfig::tiny(), seed).generate();
    println!(
        "world: {} countries, {} ASes, {} relays; trace: {} calls over {} days\n",
        world.countries.len(),
        world.ases.len(),
        world.relays.len(),
        trace.len(),
        trace.days
    );

    println!("| strategy | PNR RTT | PNR loss | PNR jitter | PNR any | relayed |");
    println!("|---|---|---|---|---|---|");
    for kind in [
        StrategyKind::Default,
        StrategyKind::Via,
        StrategyKind::Oracle,
    ] {
        let cfg = ReplayConfig {
            seed,
            ..ReplayConfig::default()
        };
        let out = ReplaySim::new(&world, &trace, cfg).run(kind);
        let pnr = out.aggregate.pnr();
        println!(
            "| {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.0}% |",
            kind.name(),
            100.0 * pnr.rtt,
            100.0 * pnr.loss,
            100.0 * pnr.jitter,
            100.0 * pnr.any,
            100.0 * out.aggregate.relayed_fraction(),
        );
    }
    println!("\nLower is better; the oracle is the foresight bound VIA approaches.");
}
