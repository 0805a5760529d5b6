//! Golden-snapshot tests for the experiment pipeline.
//!
//! Each test runs a tiny, fixed-seed experiment end to end and compares its
//! serialized output **byte-for-byte** against a checked-in fixture under
//! `tests/golden/`. Because everything serialized here is part of the
//! deterministic core (replay results and via-obs metrics snapshots carry no
//! wall-clock state), any byte difference is a real behavior change, not
//! noise — these tests pin the whole pipeline: world generation, trace
//! workload, predictor fits, bandit decisions, metric recording, and JSON
//! serialization.
//!
//! # Regenerating fixtures
//!
//! When a change *intentionally* alters replay behavior or the snapshot
//! format, regenerate the fixtures and review the diff like any other code
//! change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q --test golden_experiments
//! git diff tests/golden/
//! ```
//!
//! Commit the updated fixtures together with the change that explains them.
//! Never regenerate to silence a mismatch you cannot explain.

// Test driver: panicking on a missing fixture or unwritable path is the
// desired failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use via::core::strategy::{MultipathMode, StrategyKind};
use via::model::metrics::Metric;
use via_experiments::{build_env, pnr_masked, Args, Env, Scale};

/// The one environment every golden derives from: tiny scale, the SIGCOMM
/// seed. Changing either invalidates all fixtures at once — deliberately.
fn golden_env() -> Env {
    build_env(Args {
        scale: Scale::Tiny,
        seed: 2016,
        workers: 1,
    })
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// True when the run should rewrite fixtures instead of checking them.
fn updating() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Byte-compares `actual` against the fixture `name`, or rewrites the
/// fixture under `UPDATE_GOLDEN=1`. On mismatch, reports the first
/// differing line so the failure is diagnosable from CI logs alone.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if updating() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        println!("rewrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with \
             `UPDATE_GOLDEN=1 cargo test -q --test golden_experiments`",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let diff_line = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .map_or(expected.lines().count().min(actual.lines().count()), |i| i);
    let show = |s: &str| s.lines().nth(diff_line).unwrap_or("<eof>").to_string();
    panic!(
        "golden mismatch for {name} at line {} (expected {} bytes, got {}):\n\
         - {}\n+ {}\n\
         If this change is intended, regenerate with \
         `UPDATE_GOLDEN=1 cargo test -q --test golden_experiments` and commit \
         the fixture diff alongside the change that explains it.",
        diff_line + 1,
        expected.len(),
        actual.len(),
        show(&expected),
        show(actual),
    );
}

/// Pretty JSON with a trailing newline — the same shape `via replay
/// --metrics` and `write_metrics` emit, so fixtures diff cleanly against
/// real artifacts.
fn pretty(value: &via::obs::MetricsSnapshot) -> String {
    let mut s = serde_json::to_string_pretty(value).unwrap();
    s.push('\n');
    s
}

/// The headline determinism contract, pinned as a fixture: a metrics-enabled
/// VIA replay serializes to the same bytes at 1 and 8 workers, and those
/// bytes match the checked-in snapshot.
#[test]
fn replay_metrics_snapshot_matches_golden() {
    let mut env = golden_env();
    let sequential = env.run_observed(StrategyKind::Via, Metric::Rtt);
    let snap_1 = pretty(sequential.obs.as_ref().expect("metrics recorded"));

    env.workers = 8;
    let sharded = env.run_observed(StrategyKind::Via, Metric::Rtt);
    let snap_8 = pretty(sharded.obs.as_ref().expect("metrics recorded"));

    assert_eq!(
        snap_1, snap_8,
        "metrics snapshot must be byte-identical across worker counts"
    );
    check_golden("replay_metrics_tiny.json", &snap_1);
}

/// The Prometheus exposition of the same snapshot: text-format rendering is
/// part of the stable surface (dashboards parse it), so it gets its own
/// fixture.
#[test]
fn prometheus_exposition_matches_golden() {
    let env = golden_env();
    let outcome = env.run_observed(StrategyKind::Via, Metric::Rtt);
    let prom = via::obs::to_prometheus(outcome.obs.as_ref().expect("metrics recorded"));
    check_golden("replay_metrics_tiny.prom", &prom);
}

/// A §5.2-shaped experiment summary: option mix and PNR under the §5.1
/// eligibility mask, for both the learning strategy and the default. The
/// JSON is hand-formatted with fixed precision so the fixture pins the
/// numbers, not a float formatter.
#[test]
fn experiment_summary_matches_golden() {
    let env = golden_env();
    let mask = env.eligible(Scale::Tiny);

    let via_out = env.run_observed(StrategyKind::Via, Metric::Rtt);
    let default_out = env.run(StrategyKind::Default, Metric::Rtt);

    let (mut direct, mut bounce, mut transit, mut n) = (0usize, 0usize, 0usize, 0usize);
    for c in &via_out.calls {
        if !mask[c.call_index as usize] {
            continue;
        }
        n += 1;
        if c.option.is_bounce() {
            bounce += 1;
        } else if c.option.is_transit() {
            transit += 1;
        } else {
            direct += 1;
        }
    }
    let denom = n.max(1) as f64;
    let pnr_via = pnr_masked(&via_out, &mask).any;
    let pnr_default = pnr_masked(&default_out, &mask).any;
    let snap = via_out.obs.as_ref().expect("metrics recorded");

    let summary = format!(
        "{{\n  \"calls_evaluated\": {n},\n  \"direct_fraction\": {:.6},\n  \
         \"bounce_fraction\": {:.6},\n  \"transit_fraction\": {:.6},\n  \
         \"pnr_any_via\": {:.6},\n  \"pnr_any_default\": {:.6},\n  \
         \"predictor_fits\": {},\n  \"windows\": {},\n  \
         \"bandit_explore\": {}\n}}\n",
        direct as f64 / denom,
        bounce as f64 / denom,
        transit as f64 / denom,
        pnr_via,
        pnr_default,
        snap.counter("replay_predictor_fits_total"),
        snap.counter("replay_windows_total"),
        snap.counter("replay_explore_epsilon_total"),
    );
    check_golden("experiment_summary_tiny.json", &summary);
}

/// The `sec_multipath`-shaped summary and its metrics snapshot, pinned as
/// fixtures: singlepath VIA vs 2-path redundant VIA vs the oracle, plus the
/// multipath counters (paths per call, dedup drops, failovers) and the k×
/// charge of the budgeted gate. Regenerate with `UPDATE_GOLDEN=1` as above.
#[test]
fn multipath_experiment_summary_matches_golden() {
    let env = golden_env();
    let mask = env.eligible(Scale::Tiny);
    let dup2 = |budget: f64| StrategyKind::Multipath {
        k: 2,
        mode: MultipathMode::Duplicate,
        budget,
    };

    let via_out = env.run(StrategyKind::Via, Metric::Rtt);
    let mp_out = env.run_observed(dup2(1.0), Metric::Rtt);
    let budgeted_out = env.run_observed(dup2(0.3), Metric::Rtt);
    let oracle_out = env.run(StrategyKind::Oracle, Metric::Rtt);

    let pnr = |out: &via::core::Outcome| pnr_masked(out, &mask).any;
    let snap = mp_out.obs.as_ref().expect("metrics recorded");
    let budgeted_snap = budgeted_out.obs.as_ref().expect("metrics recorded");

    let summary = format!(
        "{{\n  \"pnr_any_via\": {:.6},\n  \"pnr_any_multipath\": {:.6},\n  \
         \"pnr_any_multipath_budgeted\": {:.6},\n  \"pnr_any_oracle\": {:.6},\n  \
         \"multipath_extra_paths\": {},\n  \"multipath_dedup_drops\": {},\n  \
         \"multipath_failovers\": {},\n  \"budgeted_gate_admitted\": {},\n  \
         \"budgeted_gate_denied\": {}\n}}\n",
        pnr(&via_out),
        pnr(&mp_out),
        pnr(&budgeted_out),
        pnr(&oracle_out),
        snap.counter("replay_multipath_extra_paths_total"),
        snap.counter("replay_multipath_dedup_drops_total"),
        snap.counter("replay_multipath_failovers_total"),
        budgeted_snap.counter("replay_gate_admitted_total"),
        budgeted_snap.counter("replay_gate_denied_total"),
    );
    check_golden("sec_multipath_summary_tiny.json", &summary);
    check_golden("multipath_metrics_tiny.json", &pretty(snap));
}
