//! Shared infrastructure for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` (see
//! DESIGN.md §4 for the index). This library provides the common pieces:
//! standard world/trace construction, the output directory layout, result
//! serialization, and small table-printing helpers so each binary prints the
//! same rows the paper reports.
//!
//! Binaries accept an optional `--scale tiny|small|paper` argument (default
//! `small` — minutes, not hours, on a laptop), an optional `--seed N`, and
//! an optional `--workers N` (replay worker threads; 0 = one per core;
//! results are identical for any value).

// Experiment-driver code: a failure to create the output directory or write
// a result file should abort the run with the OS error — there is no caller
// to recover. The unwrap/expect denies target the simulation libraries.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins fail fast")]

use serde::Serialize;
use std::path::{Path, PathBuf};
use via_core::replay::{CallOutcome, ReplayConfig, ReplaySim};
use via_core::strategy::StrategyKind;
use via_core::Outcome;
use via_model::metrics::Metric;
use via_netsim::World;
pub use via_trace::Scale;
use via_trace::{Trace, TraceGenerator};

/// Parsed common CLI arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Selected scale.
    pub scale: Scale,
    /// Experiment seed.
    pub seed: u64,
    /// Replay worker threads (0 = one per core). Only affects wall-clock:
    /// replay results are byte-identical for any value.
    pub workers: usize,
}

impl Args {
    /// Parses `--scale`, `--seed`, and `--workers` from `std::env::args`.
    pub fn parse() -> Args {
        let mut scale = Scale::Small;
        let mut seed = 2016; // SIGCOMM 2016
        let mut workers = 0;
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    scale = argv
                        .get(i + 1)
                        .and_then(|s| Scale::parse(s).ok())
                        .unwrap_or_else(|| panic!("--scale expects tiny|small|paper"));
                    i += 2;
                }
                "--seed" => {
                    seed = argv
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--seed expects an integer"));
                    i += 2;
                }
                "--workers" => {
                    workers = argv
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--workers expects an integer"));
                    i += 2;
                }
                other => panic!(
                    "unknown argument {other}; use --scale tiny|small|paper, --seed N, --workers N"
                ),
            }
        }
        Args {
            scale,
            seed,
            workers,
        }
    }
}

/// A generated experiment environment: world + trace.
pub struct Env {
    /// The synthetic world.
    pub world: World,
    /// The call trace over it.
    pub trace: Trace,
    /// The seed everything derives from.
    pub seed: u64,
    /// Replay worker threads (0 = one per core).
    pub workers: usize,
}

/// Builds the standard environment for an experiment.
pub fn build_env(args: Args) -> Env {
    let world = World::generate(&args.scale.world_config(), args.seed);
    let trace = TraceGenerator::new(&world, args.scale.trace_config(), args.seed).generate();
    Env {
        world,
        trace,
        seed: args.seed,
        workers: args.workers,
    }
}

impl Env {
    /// Runs one strategy with the given objective metric, standard config.
    pub fn run(&self, kind: StrategyKind, objective: Metric) -> Outcome {
        let cfg = ReplayConfig {
            objective,
            seed: self.seed,
            workers: self.workers,
            ..ReplayConfig::default()
        };
        ReplaySim::new(&self.world, &self.trace, cfg).run(kind)
    }

    /// Runs one strategy with a custom replay config.
    pub fn run_with(&self, kind: StrategyKind, cfg: ReplayConfig) -> Outcome {
        ReplaySim::new(&self.world, &self.trace, cfg).run(kind)
    }

    /// Runs one strategy through the streaming engine, feeding this
    /// environment's trace record-by-record (a
    /// [`via_trace::stream::TraceRecords`] source). Per-call outcomes are
    /// not materialized — every summary lives in [`Outcome::aggregate`],
    /// byte-identical to what [`Env::run`] computes for the same inputs.
    pub fn run_streamed(&self, kind: StrategyKind, objective: Metric) -> Outcome {
        let cfg = ReplayConfig {
            objective,
            seed: self.seed,
            workers: self.workers,
            collect_calls: false,
            ..ReplayConfig::default()
        };
        ReplaySim::streaming(&self.world, cfg)
            .run_stream(via_trace::stream::TraceRecords::new(&self.trace), kind)
            .expect("an in-memory record source cannot fail to decode")
    }

    /// Like [`Env::run`], but with the via-obs metric sink enabled: the
    /// outcome carries a deterministic [`via_obs::MetricsSnapshot`] (see
    /// [`write_metrics`]) at a modest replay-throughput cost (tracked by
    /// the `metrics_overhead` bench case).
    pub fn run_observed(&self, kind: StrategyKind, objective: Metric) -> Outcome {
        let cfg = ReplayConfig {
            objective,
            seed: self.seed,
            workers: self.workers,
            metrics: true,
            ..ReplayConfig::default()
        };
        ReplaySim::new(&self.world, &self.trace, cfg).run(kind)
    }
}

/// Writes an outcome's metrics snapshot (if one was recorded — see
/// [`Env::run_observed`]) as `experiments/out/<name>.metrics.json` and
/// returns the path. The file holds only the deterministic core, so it is
/// byte-identical across reruns and worker counts and safe to diff in CI.
pub fn write_metrics(name: &str, outcome: &Outcome) -> Option<PathBuf> {
    outcome
        .obs
        .as_ref()
        .map(|snap| write_json(&format!("{name}.metrics"), snap))
}

/// The §5.1 evaluation filter: "for statistical confidence, in each 24-hour
/// window, we focus on AS pairs where there are at least 10 calls" (the paper
/// keeps 32 M of 430 M calls this way). Also skips a warm-up prefix of
/// windows so learning strategies are past their cold start, as the paper's
/// seven-month replay naturally is.
///
/// Returns one flag per trace record: `true` if the call participates in
/// evaluation. Apply the same mask to every strategy's outcome.
pub fn eligible_calls(
    trace: &Trace,
    window: via_model::WindowLen,
    min_calls_per_window: usize,
    warmup_windows: u64,
) -> Vec<bool> {
    use std::collections::HashMap;
    let mut counts: HashMap<(via_model::AsPair, u64), usize> = HashMap::new();
    for r in &trace.records {
        *counts
            .entry((r.as_pair(), window.window_of(r.t).index))
            .or_default() += 1;
    }
    trace
        .records
        .iter()
        .map(|r| {
            let w = window.window_of(r.t).index;
            w >= warmup_windows && counts[&(r.as_pair(), w)] >= min_calls_per_window
        })
        .collect()
}

impl Env {
    /// Standard evaluation mask for this environment: the §5.1 density
    /// filter at the scale-appropriate threshold plus a 2-window warm-up.
    pub fn eligible(&self, scale: Scale) -> Vec<bool> {
        let min_calls = match scale {
            Scale::Tiny => 5,
            Scale::Small => 10,
            Scale::Paper => 10,
        };
        eligible_calls(&self.trace, via_model::WindowLen::DAY, min_calls, 2)
    }
}

/// The per-call outcomes of a run, for a figure over a subset of its calls
/// (population figures read [`Outcome::aggregate`]). Panics when the
/// outcome did not keep one per replayed call — a streamed run, or one with
/// [`ReplayConfig::collect_calls`] off — since a subset of an empty vector
/// would read as a figure over no calls rather than as an error.
pub fn per_call(outcome: &Outcome) -> &[CallOutcome] {
    assert_eq!(
        outcome.calls.len() as u64,
        outcome.aggregate.calls,
        "{}: a per-call figure needs every call's outcome; replay with \
         ReplayConfig::collect_calls on",
        outcome.strategy
    );
    &outcome.calls
}

/// PNR of an outcome restricted to the eligible mask.
pub fn pnr_masked(outcome: &Outcome, mask: &[bool]) -> via_quality::PnrReport {
    via_quality::PnrReport::from_calls(
        per_call(outcome)
            .iter()
            .filter(|c| mask[c.call_index as usize])
            .map(|c| &c.metrics),
    )
}

/// Metric values of an outcome restricted to the eligible mask.
pub fn metric_values_masked(outcome: &Outcome, mask: &[bool], metric: Metric) -> Vec<f64> {
    per_call(outcome)
        .iter()
        .filter(|c| mask[c.call_index as usize])
        .map(|c| c.metrics[metric])
        .collect()
}

/// Output directory for experiment artifacts (`experiments/out`), created on
/// demand.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("experiments")
        .join("out");
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

/// Writes an experiment's result object as pretty JSON under
/// `experiments/out/<name>.json` and returns the path.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = out_dir().join(format!("{name}.json"));
    let file = std::fs::File::create(&path).expect("create result file");
    serde_json::to_writer_pretty(file, value).expect("serialize result");
    path
}

/// Prints a markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown table header (and separator).
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a fraction as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builds_at_tiny_scale() {
        let env = build_env(Args {
            scale: Scale::Tiny,
            seed: 1,
            workers: 2,
        });
        assert!(!env.trace.is_empty());
        assert!(env.trace.is_chronological());
    }

    #[test]
    fn streamed_run_matches_materialized_aggregate() {
        let env = build_env(Args {
            scale: Scale::Tiny,
            seed: 3,
            workers: 2,
        });
        let a = env.run(StrategyKind::Via, Metric::Rtt);
        let b = env.run_streamed(StrategyKind::Via, Metric::Rtt);
        assert!(b.calls.is_empty(), "streamed runs skip per-call outcomes");
        assert_eq!(a.aggregate, b.aggregate);
        assert_eq!(a.controller_contacts, b.controller_contacts);
    }

    #[test]
    #[should_panic(expected = "collect_calls")]
    fn a_subset_pnr_of_an_outcome_without_its_calls_panics() {
        let env = build_env(Args {
            scale: Scale::Tiny,
            seed: 3,
            workers: 1,
        });
        let out = env.run_streamed(StrategyKind::Via, Metric::Rtt);
        let mask = vec![true; env.trace.len()];
        let _ = pnr_masked(&out, &mask);
    }

    #[test]
    fn out_dir_exists_after_call() {
        let d = out_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.1234), "12.3%");
    }
}
