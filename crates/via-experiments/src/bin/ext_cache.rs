//! Extension (§7 "Cost of centralized control"): client-side caching of
//! relaying decisions.
//!
//! The paper notes the per-call controller exchange "can be further reduced
//! if the clients cache the best relaying options". This experiment sweeps
//! the cache TTL and reports the trade: controller round-trips saved vs the
//! PNR cost of acting on stale decisions.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use serde::Serialize;
use via_core::strategy::StrategyKind;
use via_experiments::{build_env, header, pnr_masked, row, write_json, Args};
use via_model::metrics::Metric;

#[derive(Serialize)]
struct Point {
    ttl_hours: u64,
    controller_contacts: u64,
    contacts_saved_pct: f64,
    pnr_any: f64,
}

#[derive(Serialize)]
struct ExtCache {
    via_contacts: u64,
    via_pnr: f64,
    points: Vec<Point>,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let mask = env.eligible(args.scale);
    let objective = Metric::Rtt;

    let via = env.run(StrategyKind::Via, objective);
    let via_pnr = pnr_masked(&via, &mask).any;
    println!("# §7 extension: client-side decision caching\n");
    println!(
        "plain VIA: {} controller contacts (one per call), PNR {via_pnr:.3}\n",
        via.controller_contacts
    );
    header(&["cache TTL", "controller contacts", "saved", "PNR (any)"]);

    let mut points = Vec::new();
    for ttl_hours in [1u64, 3, 6, 12, 24, 72] {
        let out = env.run(StrategyKind::ViaCached { ttl_hours }, objective);
        let pnr = pnr_masked(&out, &mask).any;
        let saved = 1.0 - out.controller_contacts as f64 / via.controller_contacts as f64;
        row(&[
            format!("{ttl_hours}h"),
            out.controller_contacts.to_string(),
            format!("{:.0}%", 100.0 * saved),
            format!("{pnr:.3}"),
        ]);
        points.push(Point {
            ttl_hours,
            controller_contacts: out.controller_contacts,
            contacts_saved_pct: 100.0 * saved,
            pnr_any: pnr,
        });
    }

    println!(
        "\nShort TTLs keep nearly all of VIA's benefit while eliminating most \
         controller round-trips — the split-control direction the paper sketches."
    );
    let path = write_json(
        "ext_cache",
        &ExtCache {
            via_contacts: via.controller_contacts,
            via_pnr,
            points,
        },
    );
    println!("Wrote {}", path.display());
}
