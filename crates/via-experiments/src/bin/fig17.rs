//! Figure 17: sensitivity of VIA to its control granularities.
//!
//! (a) Spatial granularity: country-level vs AS-level vs finer-than-AS keys.
//!     Paper: coarser than AS loses improvement (ISPs within a country have
//!     different optimal relays); finer than AS doesn't help (data becomes
//!     too sparse to predict).
//! (b) Temporal granularity: the control period T. Paper: T beyond a day
//!     loses improvement; much finer adds little.
//! (c) Relay deployment: dropping the least-used half of the relay fleet
//!     barely hurts — benefit per relay is highly skewed.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use std::collections::HashMap;
use via_core::replay::{ReplayConfig, SpatialGranularity};
use via_core::strategy::StrategyKind;
use via_experiments::{build_env, header, per_call, pnr_masked, row, write_json, Args};
use via_model::ids::RelayId;
use via_model::metrics::Metric;
use via_model::time::WindowLen;

#[derive(Serialize)]
struct Fig17 {
    spatial: Vec<(String, f64)>,
    temporal: Vec<(String, f64)>,
    relay_ablation: Vec<(String, f64)>,
    default_pnr: f64,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mask = env.eligible(args.scale);
    let objective = Metric::Rtt;

    let base_cfg = ReplayConfig {
        objective,
        seed: env.seed,
        ..ReplayConfig::default()
    };
    let default_pnr = pnr_masked(&env.run(StrategyKind::Default, objective), &mask).any;
    println!("default PNR (at least one bad) = {default_pnr:.3}\n");

    // (a) Spatial granularity.
    println!("# Figure 17a: spatial decision granularity\n");
    header(&["granularity", "VIA PNR (any)"]);
    let mut spatial = Vec::new();
    for (label, g) in [
        ("country", SpatialGranularity::Country),
        ("AS pair (paper default)", SpatialGranularity::As),
        (
            "/20-like (4 buckets per AS)",
            SpatialGranularity::SubAs { buckets: 4 },
        ),
        (
            "/24-like (16 buckets per AS)",
            SpatialGranularity::SubAs { buckets: 16 },
        ),
    ] {
        let cfg = ReplayConfig {
            granularity: g,
            ..base_cfg.clone()
        };
        let pnr = pnr_masked(&env.run_with(StrategyKind::Via, cfg), &mask).any;
        row(&[label.to_string(), format!("{pnr:.3}")]);
        spatial.push((label.to_string(), pnr));
    }

    // (b) Temporal granularity.
    println!("\n# Figure 17b: control period T\n");
    header(&["T (hours)", "VIA PNR (any)"]);
    let mut temporal = Vec::new();
    for hours in [6u64, 12, 24, 48, 96] {
        let cfg = ReplayConfig {
            window: WindowLen::hours(hours),
            ..base_cfg.clone()
        };
        let pnr = pnr_masked(&env.run_with(StrategyKind::Via, cfg), &mask).any;
        row(&[hours.to_string(), format!("{pnr:.3}")]);
        temporal.push((format!("{hours}h"), pnr));
    }

    // (c) Relay-fleet ablation: rank relays by VIA's usage, drop the least
    // used.
    println!("\n# Figure 17c: dropping the least-used relays\n");
    let full = env.run_with(StrategyKind::Via, base_cfg.clone());
    let mut usage: HashMap<RelayId, usize> = HashMap::new();
    for c in per_call(&full) {
        for r in c.option.relays() {
            *usage.entry(r).or_default() += 1;
        }
    }
    let mut ranked: Vec<RelayId> = env.world.relays.iter().map(|r| r.id).collect();
    ranked.sort_by_key(|r| std::cmp::Reverse(usage.get(r).copied().unwrap_or(0)));

    header(&["fleet", "VIA PNR (any)"]);
    let full_pnr = pnr_masked(&full, &mask).any;
    row(&["all relays".into(), format!("{full_pnr:.3}")]);
    let mut relay_ablation = vec![("all relays".to_string(), full_pnr)];
    for keep_frac in [0.75, 0.5, 0.25] {
        let keep = ((ranked.len() as f64 * keep_frac).round() as usize).max(1);
        let cfg = ReplayConfig {
            allowed_relays: Some(ranked[..keep].to_vec()),
            ..base_cfg.clone()
        };
        let pnr = pnr_masked(&env.run_with(StrategyKind::Via, cfg), &mask).any;
        let label = format!("top {:.0}% most-used ({keep})", keep_frac * 100.0);
        row(&[label.clone(), format!("{pnr:.3}")]);
        relay_ablation.push((label, pnr));
    }
    println!("\nPaper: removing 50% of the least-used relays causes little drop in gains.");

    let path = write_json(
        "fig17",
        &Fig17 {
            spatial,
            temporal,
            relay_ablation,
            default_pnr,
        },
    );
    println!("Wrote {}", path.display());
}
