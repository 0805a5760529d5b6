//! §5.2 statistics: where does VIA send calls, and what do transit relays
//! buy over bouncing alone?
//!
//! Paper: VIA sends ~54 % of calls to bouncing relays, ~38 % to transit
//! relays, ~8 % direct; and PNR is substantially lower when transit relays
//! are available than with bouncing only.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use via_core::replay::ReplayConfig;
use via_core::strategy::StrategyKind;
use via_experiments::{
    build_env, header, per_call, pnr_masked, row, write_json, write_metrics, Args,
};
use via_model::metrics::Metric;
use via_quality::relative_improvement;

#[derive(Serialize)]
struct Sec52 {
    direct_fraction: f64,
    bounce_fraction: f64,
    transit_fraction: f64,
    pnr_with_transit: f64,
    pnr_bounce_only: f64,
    transit_benefit_pct: f64,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mask = env.eligible(args.scale);
    let objective = Metric::Rtt;

    let with_transit = env.run_observed(StrategyKind::Via, objective);
    // Option mix over the evaluated (dense) calls — the population the
    // paper's §5.1 filter leaves, which is also what its §5.2 mix numbers
    // describe.
    let mix_over = |pred: &dyn Fn(usize) -> bool| {
        let mut d = 0usize;
        let mut b = 0usize;
        let mut tr = 0usize;
        let mut n = 0usize;
        for c in per_call(&with_transit) {
            let idx = c.call_index as usize;
            if !mask[idx] || !pred(idx) {
                continue;
            }
            n += 1;
            if c.option.is_bounce() {
                b += 1;
            } else if c.option.is_transit() {
                tr += 1;
            } else {
                d += 1;
            }
        }
        let n = n.max(1) as f64;
        (d as f64 / n, b as f64 / n, tr as f64 / n)
    };
    let (direct, bounce, transit) = mix_over(&|_| true);
    let (d_intl, b_intl, t_intl) = mix_over(&|i| env.trace.records[i].is_international());

    let bounce_only_cfg = ReplayConfig {
        objective,
        seed: env.seed,
        allow_transit: false,
        ..ReplayConfig::default()
    };
    let bounce_only = env.run_with(StrategyKind::Via, bounce_only_cfg);

    // Transit pays off on long-haul paths; measure its effect where it is
    // actually used — international calls (the paper conditions on AS pairs
    // that used both kinds).
    let pnr_intl = |out: &via_core::Outcome| {
        via_quality::PnrReport::from_calls(
            per_call(out)
                .iter()
                .filter(|c| {
                    mask[c.call_index as usize]
                        && env.trace.records[c.call_index as usize].is_international()
                })
                .map(|c| &c.metrics),
        )
        .any
    };
    let pnr_with = pnr_intl(&with_transit);
    let pnr_without = pnr_intl(&bounce_only);
    let default_pnr = pnr_masked(&env.run(StrategyKind::Default, objective), &mask).any;

    println!("# §5.2: option mix and the value of transit relaying\n");
    header(&["statistic", "synthetic", "paper"]);
    row(&[
        "calls sent direct".into(),
        format!("{:.0}%", 100.0 * direct),
        "8%".into(),
    ]);
    row(&[
        "bouncing relays".into(),
        format!("{:.0}%", 100.0 * bounce),
        "54%".into(),
    ]);
    row(&[
        "transit relays".into(),
        format!("{:.0}%", 100.0 * transit),
        "38%".into(),
    ]);
    row(&[
        "… direct (international only)".into(),
        format!("{:.0}%", 100.0 * d_intl),
        "-".into(),
    ]);
    row(&[
        "… bounce (international only)".into(),
        format!("{:.0}%", 100.0 * b_intl),
        "-".into(),
    ]);
    row(&[
        "… transit (international only)".into(),
        format!("{:.0}%", 100.0 * t_intl),
        "-".into(),
    ]);
    row(&[
        "intl PNR(any), transit + bounce".into(),
        format!("{pnr_with:.3}"),
        "-".into(),
    ]);
    row(&[
        "intl PNR(any), bounce only".into(),
        format!("{pnr_without:.3}"),
        "-".into(),
    ]);
    let benefit = relative_improvement(pnr_without - 0.0, pnr_with);
    println!(
        "\nTransit availability lowers VIA's PNR by {benefit:.0}% \
         (default strategy: {default_pnr:.3}; paper: 50% lower PNR with transit available)."
    );

    // Engine-side observability for the headline VIA run: how much the
    // bandit explored vs exploited, and how often the predictor refit.
    if let Some(snap) = &with_transit.obs {
        let pulls = snap.counter("replay_bandit_pulls_total");
        let eps = snap.counter("replay_explore_epsilon_total");
        let decided = (pulls + eps).max(1);
        println!(
            "\nEngine: {} predictor refits over {} windows; bandit explored \
             {:.1}% of decisions ({} of {}).",
            snap.counter("replay_predictor_fits_total"),
            snap.counter("replay_windows_total"),
            100.0 * eps as f64 / decided as f64,
            eps,
            decided
        );
        if let Some(mos) = snap.histogram("replay_mos_delta") {
            println!(
                "MOS delta vs direct: {} calls recorded, min {:.2}, max {:.2}.",
                mos.count, mos.min, mos.max
            );
        }
    }
    if let Some(mpath) = write_metrics("sec5_2", &with_transit) {
        println!("Wrote {}", mpath.display());
    }

    let path = write_json(
        "sec5_2",
        &Sec52 {
            direct_fraction: direct,
            bounce_fraction: bounce,
            transit_fraction: transit,
            pnr_with_transit: pnr_with,
            pnr_bounce_only: pnr_without,
            transit_benefit_pct: benefit,
        },
    );
    println!("Wrote {}", path.display());
}
