//! Figure 13: VIA's improvement on international vs domestic calls.
//!
//! Paper: VIA improves both, with a somewhat larger improvement on
//! international calls (relaying cannot fix a poor last mile, which
//! dominates more of the domestic poor calls).

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_core::strategy::StrategyKind;
use via_core::Outcome;
use via_experiments::{build_env, header, pct, per_call, row, write_json, Args};
use via_model::metrics::Metric;
use via_quality::PnrReport;
use via_trace::Trace;

#[derive(Serialize)]
struct Fig13 {
    /// (strategy, intl PNR-any, domestic PNR-any), conservative across
    /// per-metric optimizations.
    rows: Vec<(String, f64, f64)>,
}

fn pnr_split(out: &Outcome, trace: &Trace, mask: &[bool]) -> (PnrReport, PnrReport) {
    let masked = |intl: bool| {
        PnrReport::from_calls(
            per_call(out)
                .iter()
                .filter(|c| {
                    mask[c.call_index as usize]
                        && trace.records[c.call_index as usize].is_international() == intl
                })
                .map(|c| &c.metrics),
        )
    };
    (masked(true), masked(false))
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mask = env.eligible(args.scale);

    println!("# Figure 13: PNR (at least one bad) on international vs domestic calls\n");
    header(&["strategy", "international", "domestic"]);

    let mut rows = Vec::new();
    for kind in [
        StrategyKind::Default,
        StrategyKind::Via,
        StrategyKind::Oracle,
    ] {
        // Conservative "any" PNR: worst across the three per-metric runs.
        let mut worst_intl = f64::MIN;
        let mut worst_dom = f64::MIN;
        for metric in Metric::ALL {
            let out = env.run(kind, metric);
            let (intl, dom) = pnr_split(&out, &env.trace, &mask);
            worst_intl = worst_intl.max(intl.any);
            worst_dom = worst_dom.max(dom.any);
            if kind == StrategyKind::Default {
                break; // default ignores the objective
            }
        }
        row(&[kind.name(), pct(worst_intl), pct(worst_dom)]);
        rows.push((kind.name(), worst_intl, worst_dom));
    }

    let d = &rows[0];
    let v = &rows[1];
    println!(
        "\nVIA reduction: international {:.0}%, domestic {:.0}% (paper: both improve, international slightly more).",
        100.0 * (d.1 - v.1) / d.1.max(1e-9),
        100.0 * (d.2 - v.2) / d.2.max(1e-9),
    );

    let path = write_json("fig13", &Fig13 { rows });
    println!("Wrote {}", path.display());
}
