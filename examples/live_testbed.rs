//! Spin up the real loopback testbed: a controller on TCP, relay forwarders
//! on UDP, and instrumented clients exchanging RTP probe streams through
//! emulated WAN impairments — then watch VIA pick relays against ground
//! truth (the §5.5 deployment in miniature).
//!
//! ```sh
//! cargo run --release --example live_testbed
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "example code: terse unwraps keep the walkthrough readable"
)]

use via::model::metrics::Metric;
use via::model::stats::Cdf;
use via::testbed::{evaluate_via_selection, run_testbed, TestbedConfig};

fn main() {
    let cfg = TestbedConfig::fast();
    println!(
        "starting testbed: {} clients, {} relays, {} pairs, {} back-to-back rounds…\n",
        cfg.n_clients, cfg.n_relays, cfg.n_pairs, cfg.rounds
    );

    let result = run_testbed(&cfg).expect("testbed failed");
    println!(
        "collected {} measurements; relays forwarded {} probes, dropped {} (impairment)\n",
        result.reports.len(),
        result.forwarded,
        result.dropped
    );

    // Measured RTT per (pair, relay), averaged over rounds.
    println!("mean measured RTT (ms) per pair and relay:");
    let mut pairs: Vec<(usize, usize)> = result
        .reports
        .iter()
        .map(|r| (r.caller, r.callee))
        .collect();
    pairs.sort();
    pairs.dedup();
    print!("| pair |");
    for r in 0..cfg.n_relays {
        print!(" R{r} |");
    }
    println!();
    print!("|---|");
    for _ in 0..cfg.n_relays {
        print!("---|");
    }
    println!();
    for &(caller, callee) in &pairs {
        print!("| client-{caller}->client-{callee} |");
        for relay in 0..cfg.n_relays as u16 {
            let vals: Vec<f64> = result
                .reports
                .iter()
                .filter(|r| r.caller == caller && r.callee == callee && r.relay == relay)
                .map(|r| r.metrics.rtt_ms)
                .collect();
            if vals.is_empty() {
                print!(" - |");
            } else {
                print!(" {:.0} |", vals.iter().sum::<f64>() / vals.len() as f64);
            }
        }
        println!();
    }

    // VIA's heuristic vs per-round ground truth.
    let eval = evaluate_via_selection(&result.reports, Metric::Rtt);
    println!(
        "\nVIA selection: {} decisions, picked the single best relay {:.0}% of the time",
        eval.decisions,
        100.0 * eval.best_pick_fraction
    );
    if let Some(cdf) = Cdf::from_samples(eval.suboptimality.iter().copied()) {
        println!(
            "sub-optimality: {:.0}% of calls within 20% of the best relay's performance",
            100.0 * cdf.fraction_at_or_below(0.2)
        );
    }
}
