//! Extension (§7 "Active Measurements"): does orchestrating mock calls to
//! fill tomography holes improve VIA?
//!
//! The paper proposes, as future work, actively probing the holes in
//! passively collected measurements. Holes are rare at AS granularity (the
//! whole point of tomography), so this experiment runs at finer-than-AS
//! granularity — where Figure 17a showed coverage collapse — and sweeps the
//! per-window probe budget. PNR is over *all* calls (no density filter —
//! sparse keys are exactly where holes live).

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_core::replay::{ReplayConfig, SpatialGranularity};
use via_core::strategy::StrategyKind;
use via_experiments::{build_env, header, row, write_json, Args};
use via_model::metrics::Metric;
use via_quality::relative_improvement;

#[derive(Serialize)]
struct ExtActive {
    default_pnr: f64,
    points: Vec<(usize, f64)>,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let objective = Metric::Rtt;

    let default_pnr = env
        .run(StrategyKind::Default, objective)
        .aggregate
        .pnr()
        .any;
    println!("# §7 extension: active measurements (probes per window, /24-like granularity)\n");
    println!("default PNR (any, all calls) = {default_pnr:.3}\n");
    header(&["probes/window", "VIA PNR (any)", "reduction vs default"]);

    let mut points = Vec::new();
    let mut baseline_pnr = None;
    for probes in [0usize, 100, 500, 2000] {
        let cfg = ReplayConfig {
            objective,
            seed: env.seed,
            active_probes_per_window: probes,
            granularity: SpatialGranularity::SubAs { buckets: 8 },
            ..ReplayConfig::default()
        };
        let pnr = env.run_with(StrategyKind::Via, cfg).aggregate.pnr().any;
        if probes == 0 {
            baseline_pnr = Some(pnr);
        }
        row(&[
            probes.to_string(),
            format!("{pnr:.3}"),
            format!("{:.1}%", relative_improvement(default_pnr, pnr)),
        ]);
        points.push((probes, pnr));
    }

    if let Some(base) = baseline_pnr {
        let best = points.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
        println!(
            "\nActive probing removes up to {:.1}% of the residual PNR that passive-only VIA leaves.",
            100.0 * (base - best) / base.max(1e-9)
        );
    }

    let path = write_json(
        "ext_active",
        &ExtActive {
            default_pnr,
            points,
        },
    );
    println!("Wrote {}", path.display());
}
