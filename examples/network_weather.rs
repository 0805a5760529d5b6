//! Network "weather" on one AS pair: watch the latent world state — daily
//! congestion episodes and the diurnal cycle — that makes static relay
//! pinning fail (§2.4 of the paper).
//!
//! Prints an ASCII strip chart of hourly direct-path quality for two weeks,
//! plus which relaying option the oracle would pick each day.
//!
//! ```sh
//! cargo run --release --example network_weather
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "example code: terse unwraps keep the walkthrough readable"
)]

use via::model::metrics::{Metric, Thresholds};
use via::model::time::SimTime;
use via::model::RelayOption;
use via::netsim::{World, WorldConfig};

fn main() {
    let world = World::generate(&WorldConfig::small(), 14);
    // Pick a *flaky* pair — poor for part of the horizon, fine otherwise —
    // the kind §2.4 shows dominates (most pairs are bad less than 30% of
    // days, for under a day at a stretch).
    let mut best_pick = (f64::INFINITY, world.ases[0].id, world.ases[1].id);
    for i in (0..world.ases.len()).step_by(3) {
        for j in ((i + 1)..world.ases.len()).step_by(5) {
            let (a, b) = (world.ases[i].id, world.ases[j].id);
            let poor_days = (0..14u64)
                .filter(|&d| {
                    let m = world.perf().option_mean(
                        a,
                        b,
                        RelayOption::Direct,
                        SimTime::from_hours(d * 24 + 12),
                    );
                    Thresholds.any_poor(&m)
                })
                .count();
            // Closest to being poor half the time.
            let score = (poor_days as f64 - 7.0).abs();
            if score < best_pick.0 {
                best_pick = (score, a, b);
            }
        }
    }
    let (_, src, dst) = best_pick;
    println!(
        "pair {src} ({}) <-> {dst} ({})\n",
        world.countries[world.ases[src.index()].country.index()].name,
        world.countries[world.ases[dst.index()].country.index()].name,
    );

    println!("hourly direct-path weather, 14 days (each char = 2h):");
    println!("  . good   - degraded   # poor (any metric beyond threshold)\n");
    for day in 0..14u64 {
        let mut strip = String::new();
        for slot in 0..12u64 {
            let t = SimTime::from_hours(day * 24 + slot * 2);
            let m = world.perf().option_mean(src, dst, RelayOption::Direct, t);
            let poor = Thresholds.any_poor(&m);
            let degraded = m.rtt_ms > 0.7 * Thresholds::RTT_MS
                || m.loss_pct > 0.7 * Thresholds::LOSS_PCT
                || m.jitter_ms > 0.7 * Thresholds::JITTER_MS;
            strip.push(if poor {
                '#'
            } else if degraded {
                '-'
            } else {
                '.'
            });
        }
        // The oracle's pick for this day.
        let t_mid = SimTime::from_hours(day * 24 + 12);
        let best = world
            .candidate_options(src, dst)
            .into_iter()
            .min_by(|&x, &y| {
                let mx = world.perf().option_mean(src, dst, x, t_mid)[Metric::Rtt];
                let my = world.perf().option_mean(src, dst, y, t_mid)[Metric::Rtt];
                mx.total_cmp(&my)
            })
            .expect("candidates exist");
        println!("day {day:>2}  {strip}   oracle: {best}");
    }
    println!(
        "\nEpisodes come and go on a timescale of days, and the best option moves \
         with them — the case for dynamic, predictive relay selection."
    );
}
