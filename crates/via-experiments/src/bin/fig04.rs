//! Figure 4: international vs domestic calls, and per-country PNR.
//!
//! The paper finds international calls 2–3× more likely to cross the poor
//! thresholds than domestic ones (4a), with a heavily skewed per-country
//! distribution — the worst countries reach ~70 % PNR on individual metrics
//! (4b). The inter-AS vs intra-AS split (§2.3) shows the same 2–3× pattern.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use via_experiments::{build_env, header, pct, row, write_json, Args, Scale};
use via_quality::PnrReport;
use via_trace::analysis::{pnr_by_country, pnr_by_scope};

#[derive(Serialize)]
struct Fig04 {
    international: PnrReport,
    domestic: PnrReport,
    inter_as: PnrReport,
    intra_as: PnrReport,
    by_country: Vec<(String, PnrReport)>,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let scope = pnr_by_scope(&env.trace);

    println!("# Figure 4a: PNR by scope\n");
    header(&[
        "scope",
        "calls",
        "PNR RTT",
        "PNR loss",
        "PNR jitter",
        "PNR any",
    ]);
    for (name, r) in [
        ("international", &scope.international),
        ("domestic", &scope.domestic),
        ("inter-AS", &scope.inter_as),
        ("intra-AS", &scope.intra_as),
    ] {
        row(&[
            name.into(),
            r.calls.to_string(),
            pct(r.rtt),
            pct(r.loss),
            pct(r.jitter),
            pct(r.any),
        ]);
    }
    let ratio = scope.international.any / scope.domestic.any.max(1e-9);
    println!("\nInternational/domestic PNR(any) ratio: {ratio:.1}x (paper: 2-3x)\n");

    let min_calls = match args.scale {
        Scale::Tiny => 30,
        Scale::Small => 200,
        Scale::Paper => 1000,
    };
    let ranked = pnr_by_country(&env.trace, min_calls);

    println!("# Figure 4b: international-call PNR by country (worst first)\n");
    header(&[
        "country",
        "calls",
        "PNR RTT",
        "PNR loss",
        "PNR jitter",
        "PNR any",
    ]);
    let mut by_country = Vec::new();
    for (cid, r) in ranked.iter().take(15) {
        let name = env.world.countries[cid.index()].name.clone();
        row(&[
            name.clone(),
            r.calls.to_string(),
            pct(r.rtt),
            pct(r.loss),
            pct(r.jitter),
            pct(r.any),
        ]);
        by_country.push((name, *r));
    }

    let result = Fig04 {
        international: scope.international,
        domestic: scope.domestic,
        inter_as: scope.inter_as,
        intra_as: scope.intra_as,
        by_country,
    };
    let path = write_json("fig04", &result);
    println!("\nWrote {}", path.display());
}
