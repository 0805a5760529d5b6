//! Multipath extension: what does a second, redundant relay path buy?
//!
//! Not a paper figure — the paper's §7 sketches "using multiple relays in
//! parallel" as future work. This experiment quantifies it on the synthetic
//! replay: singlepath VIA vs 2-path redundant VIA (duplicate mode, receiver
//! deduplicates and plays the earliest copy) vs the singlepath oracle, under
//! the trace's episode churn (paths degrade and recover mid-replay; a path
//! of the set can die mid-call). Duplicated traffic is charged k× by the
//! budget gate, so the budgeted row shows redundancy under an honest
//! traffic cap.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_core::strategy::{MultipathMode, StrategyKind};
use via_core::Outcome;
use via_experiments::{
    build_env, header, per_call, pnr_masked, row, write_json, write_metrics, Args,
};
use via_model::metrics::Metric;

#[derive(Serialize)]
struct SecMultipath {
    pnr_via: f64,
    pnr_multipath: f64,
    pnr_multipath_budgeted: f64,
    pnr_oracle: f64,
    mos_via: f64,
    mos_multipath: f64,
    mos_oracle: f64,
    paths_per_call: f64,
    dedup_drops: u64,
    failovers: u64,
    budgeted_gate_denied: u64,
}

/// Mean trace-MOS over the eligible calls of an outcome.
fn mean_mos(out: &Outcome, mask: &[bool]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for c in per_call(out) {
        if mask[c.call_index as usize] {
            sum += via_quality::mos(&c.metrics);
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mask = env.eligible(args.scale);
    let objective = Metric::Rtt;

    let via = env.run_observed(StrategyKind::Via, objective);
    let multipath = env.run_observed(
        StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Duplicate,
            budget: 1.0,
        },
        objective,
    );
    // Same redundancy under a hard traffic cap: each admitted duplicate
    // call charges 2 traffic units against a 30% budget.
    let budgeted = env.run_observed(
        StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Duplicate,
            budget: 0.3,
        },
        objective,
    );
    let oracle = env.run(StrategyKind::Oracle, objective);

    let pnr = |out: &Outcome| pnr_masked(out, &mask).any;
    let pnr_via = pnr(&via);
    let pnr_mp = pnr(&multipath);
    let pnr_mp_budgeted = pnr(&budgeted);
    let pnr_oracle = pnr(&oracle);
    let mos_via = mean_mos(&via, &mask);
    let mos_mp = mean_mos(&multipath, &mask);
    let mos_oracle = mean_mos(&oracle, &mask);

    let snap = multipath.obs.as_ref().expect("observed run has a snapshot");
    let calls = snap.counter("replay_calls_total").max(1);
    let extra = snap.counter("replay_multipath_extra_paths_total");
    let dedup_drops = snap.counter("replay_multipath_dedup_drops_total");
    let failovers = snap.counter("replay_multipath_failovers_total");
    let paths_per_call = 1.0 + extra as f64 / calls as f64;
    let budgeted_snap = budgeted.obs.as_ref().expect("observed run has a snapshot");
    let gate_denied = budgeted_snap.counter("replay_gate_denied_total");

    println!("# Multipath: singlepath VIA vs 2-path redundant VIA vs oracle\n");
    header(&["strategy", "PNR(any)", "mean MOS"]);
    row(&[
        "via (singlepath)".into(),
        format!("{pnr_via:.3}"),
        format!("{mos_via:.2}"),
    ]);
    row(&[
        "multipath dup k=2".into(),
        format!("{pnr_mp:.3}"),
        format!("{mos_mp:.2}"),
    ]);
    row(&[
        "multipath dup k=2, budget 0.3".into(),
        format!("{pnr_mp_budgeted:.3}"),
        format!("{:.2}", mean_mos(&budgeted, &mask)),
    ]);
    row(&[
        "oracle (singlepath)".into(),
        format!("{pnr_oracle:.3}"),
        format!("{mos_oracle:.2}"),
    ]);

    println!(
        "\nRedundancy: {paths_per_call:.2} paths per call, {dedup_drops} duplicate \
         copies dropped receiver-side, {failovers} mid-call failovers absorbed."
    );
    println!(
        "Budgeted run: {gate_denied} calls denied by the 2x-charging gate \
         (duplicate traffic pays for both paths)."
    );

    if let Some(mpath) = write_metrics("sec_multipath", &multipath) {
        println!("Wrote {}", mpath.display());
    }
    let path = write_json(
        "sec_multipath",
        &SecMultipath {
            pnr_via,
            pnr_multipath: pnr_mp,
            pnr_multipath_budgeted: pnr_mp_budgeted,
            pnr_oracle,
            mos_via,
            mos_multipath: mos_mp,
            mos_oracle,
            paths_per_call,
            dedup_drops,
            failovers,
            budgeted_gate_denied: gate_denied,
        },
    );
    println!("Wrote {}", path.display());
}
