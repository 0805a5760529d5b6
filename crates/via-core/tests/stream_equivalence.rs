//! Byte-identity of the replay engine across record sources and worker
//! counts.
//!
//! The streamed and materialized engines share one window state machine
//! (`engine_start` / `engine_window` / `engine_finish`), so every mode —
//! materialized trace, in-memory record stream, JSONL file, binary `.vbt`
//! file, generate-on-the-fly — must serialize to the *same bytes* at every
//! worker count. This test pins that contract: a regression in sharding,
//! window framing, file decoding, or the streamed prefetch driver shows up
//! as a JSON diff here before it shows up as a wrong paper figure.

#![allow(
    clippy::expect_used,
    reason = "test code: a broken fixture or a failed serialization panics"
)]

use std::path::PathBuf;
use via_core::replay::{ReplayConfig, ReplaySim};
use via_core::strategy::{MultipathMode, StrategyKind};
use via_core::Outcome;
use via_netsim::{World, WorldConfig};
use via_trace::stream::{FileSource, TraceRecords};
use via_trace::{save_trace, Trace, TraceConfig, TraceGenerator};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn env(seed: u64) -> (World, Trace) {
    let world = World::generate(&WorldConfig::tiny(), seed);
    let trace = TraceGenerator::new(&world, TraceConfig::tiny(), seed).generate();
    (world, trace)
}

fn cfg(workers: usize, metrics: bool) -> ReplayConfig {
    ReplayConfig {
        workers,
        metrics,
        ..ReplayConfig::default()
    }
}

/// Serialized deterministic core of an outcome (`stats` and `obs` are
/// serde-skipped, so this is exactly the result surface that must not vary).
fn outcome_json(outcome: &Outcome) -> String {
    serde_json::to_string(outcome).expect("serialize outcome")
}

/// Scratch dir for the file-backed sources, unique per test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("via-stream-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

#[test]
fn all_sources_and_worker_counts_are_byte_identical() {
    let seed = 11;
    let (world, trace) = env(seed);
    let jsonl = scratch("eq.jsonl");
    let vbt = scratch("eq.vbt");
    save_trace(&trace, &jsonl).expect("write jsonl");
    save_trace(&trace, &vbt).expect("write vbt");

    let baseline =
        outcome_json(&ReplaySim::new(&world, &trace, cfg(1, false)).run(StrategyKind::Via));
    assert!(baseline.len() > 2, "baseline outcome must not be empty");

    for workers in WORKER_COUNTS {
        let materialized =
            ReplaySim::new(&world, &trace, cfg(workers, false)).run(StrategyKind::Via);
        assert_eq!(
            outcome_json(&materialized),
            baseline,
            "materialized run diverged at workers={workers}"
        );

        let sim = ReplaySim::streaming(&world, cfg(workers, false));
        let in_memory = sim
            .run_stream(TraceRecords::new(&trace), StrategyKind::Via)
            .expect("in-memory stream");
        assert_eq!(
            outcome_json(&in_memory),
            baseline,
            "in-memory stream diverged at workers={workers}"
        );

        let from_jsonl = sim
            .run_stream(
                FileSource::open(&jsonl).expect("open jsonl"),
                StrategyKind::Via,
            )
            .expect("jsonl stream");
        assert_eq!(
            outcome_json(&from_jsonl),
            baseline,
            "JSONL stream diverged at workers={workers}"
        );
        assert!(
            from_jsonl.stats.bytes_decoded > 0,
            "file-backed stream must report decode volume"
        );

        let from_vbt = sim
            .run_stream(FileSource::open(&vbt).expect("open vbt"), StrategyKind::Via)
            .expect("binary stream");
        assert_eq!(
            outcome_json(&from_vbt),
            baseline,
            "binary stream diverged at workers={workers}"
        );
        assert!(
            from_vbt.stats.bytes_decoded > 0,
            "binary stream must report decode volume"
        );

        let generator = TraceGenerator::new(&world, TraceConfig::tiny(), seed);
        let generated = sim
            .run_stream(generator.stream(), StrategyKind::Via)
            .expect("generated stream");
        assert_eq!(
            outcome_json(&generated),
            baseline,
            "generate-on-the-fly diverged at workers={workers}"
        );
    }

    let _ = std::fs::remove_file(&jsonl);
    let _ = std::fs::remove_file(&vbt);
}

#[test]
fn metrics_snapshots_match_across_modes_and_worker_counts() {
    let (world, trace) = env(12);
    let baseline = ReplaySim::new(&world, &trace, cfg(1, true))
        .run(StrategyKind::Via)
        .obs
        .expect("metrics=true records a snapshot");
    let baseline = serde_json::to_string(&baseline).expect("serialize snapshot");

    for workers in WORKER_COUNTS {
        let materialized = ReplaySim::new(&world, &trace, cfg(workers, true))
            .run(StrategyKind::Via)
            .obs
            .expect("materialized snapshot");
        assert_eq!(
            serde_json::to_string(&materialized).expect("serialize snapshot"),
            baseline,
            "materialized snapshot diverged at workers={workers}"
        );

        let streamed = ReplaySim::streaming(&world, cfg(workers, true))
            .run_stream(TraceRecords::new(&trace), StrategyKind::Via)
            .expect("streamed run")
            .obs
            .expect("streamed snapshot");
        assert_eq!(
            serde_json::to_string(&streamed).expect("serialize snapshot"),
            baseline,
            "streamed snapshot diverged at workers={workers}"
        );
    }
}

/// Rewrites the strategy display name so outcomes from strategies that must
/// behave identically (but print differently) can be compared byte-for-byte
/// on everything else.
fn neutralize_strategy(json: &str, name: &str) -> String {
    json.replacen(
        &format!("\"strategy\":\"{name}\""),
        "\"strategy\":\"<normalized>\"",
        1,
    )
}

#[test]
fn multipath_k1_equals_via_across_modes_and_worker_counts() {
    // The degenerate set: `Multipath { k: 1, Duplicate, budget: 1.0 }` makes
    // the same per-call decisions as Via from the same RNG draws, skips the
    // merge stage for singleton sets, and carries no budget gate — so every
    // engine mode at every worker count must produce byte-identical outcomes
    // and metrics snapshots, save for the strategy display name.
    let (world, trace) = env(14);
    let mp = StrategyKind::Multipath {
        k: 1,
        mode: MultipathMode::Duplicate,
        budget: 1.0,
    };

    let via_run = ReplaySim::new(&world, &trace, cfg(1, true)).run(StrategyKind::Via);
    let baseline = neutralize_strategy(&outcome_json(&via_run), "via");
    let baseline_snap =
        serde_json::to_string(&via_run.obs.expect("metrics snapshot")).expect("serialize snapshot");

    for workers in WORKER_COUNTS {
        let materialized = ReplaySim::new(&world, &trace, cfg(workers, true)).run(mp);
        assert_eq!(
            neutralize_strategy(&outcome_json(&materialized), "multipath-dup-1"),
            baseline,
            "materialized multipath k=1 diverged from via at workers={workers}"
        );
        // Metrics snapshots need no normalization: the shared schema
        // registers the multipath counters for every strategy, and they stay
        // zero for both runs.
        assert_eq!(
            serde_json::to_string(&materialized.obs.expect("materialized snapshot"))
                .expect("serialize snapshot"),
            baseline_snap,
            "materialized multipath k=1 snapshot diverged at workers={workers}"
        );

        let streamed = ReplaySim::streaming(&world, cfg(workers, true))
            .run_stream(TraceRecords::new(&trace), mp)
            .expect("streamed multipath run");
        assert_eq!(
            neutralize_strategy(&outcome_json(&streamed), "multipath-dup-1"),
            baseline,
            "streamed multipath k=1 diverged from via at workers={workers}"
        );
        assert_eq!(
            serde_json::to_string(&streamed.obs.expect("streamed snapshot"))
                .expect("serialize snapshot"),
            baseline_snap,
            "streamed multipath k=1 snapshot diverged at workers={workers}"
        );
    }
}

#[test]
fn multipath_k2_is_byte_identical_across_modes_and_worker_counts() {
    // The real multipath path (merge stage, semi-bandit updates, k-weighted
    // budget gate) must hold the same determinism contract as every other
    // strategy: one byte string across worker counts and engine drivers.
    for mp in [
        StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Duplicate,
            budget: 1.0,
        },
        StrategyKind::Multipath {
            k: 2,
            mode: MultipathMode::Stripe,
            budget: 0.25,
        },
    ] {
        let (world, trace) = env(15);
        let baseline = outcome_json(&ReplaySim::new(&world, &trace, cfg(1, false)).run(mp));
        for workers in WORKER_COUNTS {
            assert_eq!(
                outcome_json(&ReplaySim::new(&world, &trace, cfg(workers, false)).run(mp)),
                baseline,
                "materialized {mp:?} diverged at workers={workers}"
            );
            let streamed = ReplaySim::streaming(&world, cfg(workers, false))
                .run_stream(TraceRecords::new(&trace), mp)
                .expect("streamed multipath run");
            assert_eq!(
                outcome_json(&streamed),
                baseline,
                "streamed {mp:?} diverged at workers={workers}"
            );
        }
    }
}

#[test]
fn uncollected_calls_leave_aggregate_identical() {
    let (world, trace) = env(13);
    let full = ReplaySim::new(&world, &trace, cfg(2, false)).run(StrategyKind::Via);
    let lean_cfg = ReplayConfig {
        collect_calls: false,
        ..cfg(2, false)
    };
    let lean = ReplaySim::streaming(&world, lean_cfg)
        .run_stream(TraceRecords::new(&trace), StrategyKind::Via)
        .expect("streamed run");
    assert!(
        lean.calls.is_empty(),
        "collect_calls=false must not materialize"
    );
    assert_eq!(full.aggregate, lean.aggregate);
    assert_eq!(full.aggregate.pnr(), lean.aggregate.pnr());
    assert_eq!(full.controller_contacts, lean.controller_contacts);
    assert_eq!(full.race_probes, lean.race_probes);
}
