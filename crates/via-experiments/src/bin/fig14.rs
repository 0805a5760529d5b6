//! Figure 14: dissecting VIA's improvement by country.
//!
//! For the countries with the worst default PNR (one side of an
//! international call in that country), compare default / VIA / oracle PNR
//! per metric. Paper: the worst countries sit far above the global PNR, and
//! VIA lands closer to the oracle than to the default for most of them.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use std::collections::HashMap;
use via_core::strategy::StrategyKind;
use via_core::Outcome;
use via_experiments::{build_env, header, pct, per_call, row, write_json, Args};
use via_model::ids::CountryId;
use via_model::metrics::Metric;
use via_quality::PoorAxes;

#[derive(Serialize)]
struct CountryRow {
    country: String,
    calls: usize,
    default_pnr: f64,
    via_pnr: f64,
    oracle_pnr: f64,
}

#[derive(Serialize)]
struct Fig14 {
    metric: String,
    global_default_pnr: f64,
    rows: Vec<CountryRow>,
}

/// Per-country PNR of one metric over international calls (a call counts for
/// both endpoint countries, like the paper's "one side of the call").
fn by_country(
    out: &Outcome,
    env: &via_experiments::Env,
    mask: &[bool],
    metric: Metric,
) -> HashMap<CountryId, (usize, usize)> {
    let mut acc: HashMap<CountryId, (usize, usize)> = HashMap::new();
    for c in per_call(out) {
        let r = &env.trace.records[c.call_index as usize];
        if !mask[c.call_index as usize] || !r.is_international() {
            continue;
        }
        let poor = PoorAxes::of(&c.metrics).on(metric);
        for country in [r.src_country, r.dst_country] {
            let e = acc.entry(country).or_default();
            e.0 += 1;
            if poor {
                e.1 += 1;
            }
        }
    }
    acc
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mask = env.eligible(args.scale);

    let mut results = Vec::new();
    for metric in Metric::ALL {
        let default_run = env.run(StrategyKind::Default, metric);
        let via_run = env.run(StrategyKind::Via, metric);
        let oracle_run = env.run(StrategyKind::Oracle, metric);

        let d = by_country(&default_run, &env, &mask, metric);
        let v = by_country(&via_run, &env, &mask, metric);
        let o = by_country(&oracle_run, &env, &mask, metric);

        // Global default PNR on this metric (the red line of Figure 14).
        let (g_calls, g_poor) = d
            .values()
            .fold((0, 0), |(c, p), &(cc, pp)| (c + cc, p + pp));
        let global = g_poor as f64 / g_calls.max(1) as f64;

        // Rank countries by default PNR, keep the worst with enough calls.
        let mut ranked: Vec<(CountryId, f64, usize)> = d
            .iter()
            .filter(|(_, &(calls, _))| calls >= 200)
            .map(|(&cid, &(calls, poor))| (cid, poor as f64 / calls as f64, calls))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));

        println!("\n# Figure 14 ({metric}): worst countries, PNR under default/VIA/oracle");
        println!("global default PNR({metric}) = {}\n", pct(global));
        header(&["country", "calls", "default", "VIA", "oracle"]);
        let mut rows = Vec::new();
        for &(cid, d_pnr, calls) in ranked.iter().take(10) {
            let v_pnr = v
                .get(&cid)
                .map_or(0.0, |&(c, p)| p as f64 / c.max(1) as f64);
            let o_pnr = o
                .get(&cid)
                .map_or(0.0, |&(c, p)| p as f64 / c.max(1) as f64);
            let name = env.world.countries[cid.index()].name.clone();
            row(&[
                name.clone(),
                calls.to_string(),
                pct(d_pnr),
                pct(v_pnr),
                pct(o_pnr),
            ]);
            rows.push(CountryRow {
                country: name,
                calls,
                default_pnr: d_pnr,
                via_pnr: v_pnr,
                oracle_pnr: o_pnr,
            });
        }
        results.push(Fig14 {
            metric: metric.to_string(),
            global_default_pnr: global,
            rows,
        });
    }

    let path = write_json("fig14", &results);
    println!("\nWrote {}", path.display());
}
