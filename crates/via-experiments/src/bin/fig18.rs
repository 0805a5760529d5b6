//! Figure 18: the real-world controlled deployment (§5.5).
//!
//! Spins up the loopback testbed — controller (TCP), relay forwarders (UDP),
//! instrumented clients exchanging RTP probe streams through emulated WAN
//! impairments — runs back-to-back sweeps over every relay option, then
//! evaluates VIA's selection heuristic against per-round ground truth.
//!
//! Paper: VIA is within 20 % of the oracle for ~70 % of calls despite
//! picking the single best relay for no more than 30 % of them.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_experiments::{header, pct, row, write_json, Args, Scale};
use via_model::metrics::Metric;
use via_model::stats::Cdf;
use via_testbed::{evaluate_via_selection, run_testbed, TestbedConfig};

#[derive(Serialize)]
struct Fig18 {
    reports: usize,
    decisions: usize,
    best_pick_fraction: f64,
    within_20pct: f64,
    suboptimality_cdf: Vec<(f64, f64)>,
    relay_forwarded: u64,
    relay_dropped: u64,
}

fn main() {
    let args = Args::parse();
    let mut cfg = match args.scale {
        Scale::Tiny => TestbedConfig::fast(),
        Scale::Small => TestbedConfig {
            n_clients: 8,
            n_relays: 5,
            n_pairs: 10,
            rounds: 4,
            probes: 20,
            gap_ms: 3,
            ..TestbedConfig::fast()
        },
        Scale::Paper => TestbedConfig::paper_shaped(),
    };
    cfg.seed = args.seed;

    eprintln!(
        "starting testbed: {} clients, {} relays, {} pairs, {} rounds…",
        cfg.n_clients, cfg.n_relays, cfg.n_pairs, cfg.rounds
    );
    let result = run_testbed(&cfg).expect("testbed run failed");
    eprintln!(
        "collected {} reports ({} packets forwarded, {} dropped by impairment)",
        result.reports.len(),
        result.forwarded,
        result.dropped
    );

    let eval = evaluate_via_selection(&result.reports, Metric::Rtt);
    assert!(eval.decisions > 0, "no decisions evaluated");

    let cdf = Cdf::from_samples(eval.suboptimality.iter().copied()).expect("non-empty");
    println!("# Figure 18: CDF of VIA's sub-optimality on the testbed\n");
    header(&["sub-optimality", "CDF of calls"]);
    let mut points = Vec::new();
    for s in [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0] {
        let f = cdf.fraction_at_or_below(s);
        row(&[format!("{:.0}%", 100.0 * s), pct(f)]);
        points.push((s, f));
    }

    let within20 = cdf.fraction_at_or_below(0.2);
    println!(
        "\nWithin 20% of the oracle: {} of calls (paper: ~70%); \
         picked the single best relay for {} (paper: <=30%).",
        pct(within20),
        pct(eval.best_pick_fraction)
    );

    let path = write_json(
        "fig18",
        &Fig18 {
            reports: result.reports.len(),
            decisions: eval.decisions,
            best_pick_fraction: eval.best_pick_fraction,
            within_20pct: within20,
            suboptimality_cdf: points,
            relay_forwarded: result.forwarded,
            relay_dropped: result.dropped,
        },
    );
    println!("Wrote {}", path.display());
}
