//! Replay-engine benchmark suite: replay throughput at small and paper
//! scale, predictor-fit latency, and the sharded-vs-sequential worker sweep.
//! Emits `BENCH_replay.json` at the workspace root to start the perf
//! trajectory tracked by the ROADMAP.
//!
//! Uses a custom `main` (`harness = false` without the criterion macros):
//! the compat criterion entry point does not parse CLI arguments, and this
//! suite needs `--quick` (CI smoke: tiny scale, no paper-scale sweep) plus
//! its own JSON emission alongside the criterion console lines.

// Bench setup code: criterion closures fight `semicolon_if_nothing_returned`,
// and panicking on a malformed fixture is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::semicolon_if_nothing_returned)]

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use via_core::history::CallHistory;
use via_core::predictor::{GeoPrior, Predictor, PredictorConfig};
use via_core::replay::{ReplayConfig, ReplaySim};
use via_core::strategy::StrategyKind;
use via_core::KeyPair;
use via_model::ids::RelayId;
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::time::{SimTime, WindowLen};
use via_netsim::{World, WorldConfig};
use via_trace::stream::FileSource;
use via_trace::{Trace, TraceConfig, TraceGenerator};

/// One timed replay run and its engine counters.
#[derive(Debug, Serialize)]
struct RunRecord {
    scale: String,
    strategy: String,
    workers_requested: usize,
    workers_resolved: usize,
    warm: bool,
    warmed_segments: u64,
    calls: usize,
    wall_ms: f64,
    calls_per_sec: f64,
    predictor_fits: u64,
    /// Per-phase wall-time split of `wall_ms` (budget-gate pass, parallel
    /// shard processing, deterministic merge, predictor refits) — where a
    /// run actually spends its time, not just the total.
    gate_ms: f64,
    shard_ms: f64,
    merge_ms: f64,
    predictor_fit_ms: f64,
    shard_utilization: f64,
    controller_contacts: u64,
}

/// Worker-sweep outcome at one scale: per-worker-count wall times plus the
/// determinism check (identical per-call results for every worker count).
#[derive(Debug, Serialize)]
struct Sweep {
    scale: String,
    warm: bool,
    workers: Vec<usize>,
    workers_resolved: Vec<usize>,
    wall_ms: Vec<f64>,
    /// Whether speedup/efficiency figures mean anything on this host: false
    /// when the process can only use one core (`usable_parallelism == 1`),
    /// where a "speedup" line would only measure coordination overhead. The
    /// scaling vectors are left empty in that case rather than reporting
    /// numbers that lie.
    scaling_valid: bool,
    speedup_vs_sequential: Vec<f64>,
    /// Speedup divided by the resolved worker count: 1.0 = perfectly linear
    /// scaling, the regression-gated figure of merit for the engine.
    scaling_efficiency: Vec<f64>,
    results_identical: bool,
}

/// `sample_option` hot-path microbenchmark: the per-call world-model cost
/// every strategy pays (segment lookups + noise draws, no allocation).
#[derive(Debug, Serialize)]
struct SampleRecord {
    options_sampled: usize,
    /// Batched scratch path (`sample_option_scratch`) — what the replay
    /// engine actually runs per call: segment means memoized across the
    /// options scored at one instant.
    ns_per_sample: f64,
    /// Scratch-free reference path, for the amortization ratio.
    ns_per_sample_plain: f64,
}

/// One streamed replay run: the bounded-memory engine fed by a record
/// source, with the process peak-RSS reading taken right after the run.
#[derive(Debug, Serialize)]
struct StreamRecord {
    scale: String,
    /// Record source: `generate` (on-the-fly) or `binary` (a `.vbt` file).
    source: String,
    /// Resolved worker count the run used.
    workers: usize,
    calls: u64,
    windows: u64,
    wall_ms: f64,
    calls_per_sec: f64,
    /// Bytes decoded from the backing file (header, framing, payload);
    /// zero for generate-on-the-fly.
    bytes_decoded: u64,
    bytes_decoded_per_sec: f64,
    /// `VmHWM` right after the run, in bytes. The kernel counter is
    /// process-monotone, which is why the streaming section runs *first*
    /// in `main()`: these readings bound the streaming engine's footprint,
    /// not whatever a preceding materialized run faulted in.
    peak_rss_bytes: u64,
    /// Order-sensitive FNV-1a digest over every call outcome (hex) —
    /// identical across worker counts and across the streamed and
    /// materialized engines for the same inputs.
    digest: String,
}

/// Live-controller (via-server) closed-loop load results: the sustained
/// select/report plane, in-process and over a loopback socket.
#[derive(Debug, Clone, Serialize)]
struct ServerRecord {
    /// Selections measured in the in-process phase.
    selections: u64,
    /// Sustained in-process selections/sec (closed loop: one report per
    /// four selects, spanning a window rollover).
    in_process_selections_per_sec: f64,
    /// Upper edge of the histogram bucket holding the p50 select latency,
    /// microseconds (from the controller's own per-shard histogram).
    in_process_p50_us: f64,
    /// Upper edge of the bucket holding the p99 select latency, µs.
    in_process_p99_us: f64,
    /// Predictor publishes observed during the run.
    refit_epochs: u64,
    /// Round trips measured over the loopback socket phase.
    socket_round_trips: u64,
    /// Sustained select round trips/sec over one loopback connection.
    socket_round_trips_per_sec: f64,
    /// Client-measured p99 select round-trip latency over the socket, µs.
    socket_p99_us: f64,
}

#[derive(Debug, Serialize)]
struct FitRecord {
    cells: usize,
    sequential_ms: f64,
    parallel_ms: f64,
}

/// Cost of the via-obs instrumentation layer: the same replay with the
/// metric sink off vs on. The on-path records every counter, histogram
/// observation, and per-window span the engine emits.
#[derive(Debug, Clone, Serialize)]
struct ObsRecord {
    scale: String,
    /// Mean of the fastest half of the uninstrumented walls.
    wall_ms_off: f64,
    /// Mean of the fastest half of the instrumented walls.
    wall_ms_on: f64,
    /// Relative slowdown of the instrumented run (0.05 = 5 % overhead):
    /// `wall_ms_on / wall_ms_off − 1`. Host noise is strictly additive
    /// (interruptions only slow a run down), so the fastest half of each
    /// side's walls over many alternating repetitions is the clean
    /// cluster; its mean is the cost estimate — see
    /// [`bench_metrics_overhead`].
    overhead_frac: f64,
    counters: usize,
    histograms: usize,
    spans: usize,
}

/// Multipath-vs-singlepath replay cost: what the redundant path set (extra
/// per-path realizations + the receiver-side merge model) costs per call,
/// relative to singlepath VIA on the same inputs.
#[derive(Debug, Clone, Serialize)]
struct MultipathRecord {
    scale: String,
    /// Fastest-half mean wall of singlepath VIA runs, ms.
    wall_ms_singlepath: f64,
    /// Fastest-half mean wall of `multipath-dup-2` runs, ms.
    wall_ms_multipath: f64,
    /// Per-call cost ratio (`wall_ms_multipath / wall_ms_singlepath` over
    /// identical call counts). The acceptance gate holds this ≤ 2.5: a
    /// duplicated call realizes two paths and merges them, so ~2x is the
    /// honest floor and anything past 2.5x is merge-model bloat.
    cost_ratio: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    bench: String,
    quick: bool,
    /// Online CPUs on the host (from `/proc/cpuinfo`): the hardware the
    /// scaling targets are judged against.
    host_cores: usize,
    /// Parallelism actually usable by this process (affinity / cgroup
    /// masks applied) — what `workers: 0` resolves against.
    usable_parallelism: usize,
    runs: Vec<RunRecord>,
    sweeps: Vec<Sweep>,
    /// Streamed bounded-memory replays (peak-RSS and decode-throughput
    /// acceptance measurements); always the first section executed — see
    /// [`bench_streaming`].
    streams: Vec<StreamRecord>,
    predictor_fit: FitRecord,
    sample_option: SampleRecord,
    /// Primary instrumentation-overhead figure: measured on the paper-scale
    /// *world* in both modes — the full suite replays the real paper trace,
    /// `--quick` a shortened one (same per-call cost profile: same candidate
    /// density, same segment mix; just fewer calls). The <5% regression gate
    /// runs against this record, because at paper scale a call's budget is
    /// real scoring/realization work rather than fixed bookkeeping.
    metrics_overhead: ObsRecord,
    /// Tiny-scale overhead, always measured: comparable across quick and
    /// full runs of the suite.
    metrics_overhead_tiny: ObsRecord,
    /// Multipath replay cost relative to singlepath, gated at ≤ 2.5x per
    /// call (see [`MultipathRecord::cost_ratio`]).
    multipath: MultipathRecord,
    /// Live-controller select/report plane (via-server): sustained
    /// selections/sec and select-latency percentiles, in-process and over a
    /// loopback socket. The ≥100k selections/s and p99 ≤100 µs acceptance
    /// gates run against the in-process figures of the full suite.
    server: ServerRecord,
}

/// Online CPU count of the host. `available_parallelism()` alone respects
/// affinity and cgroup masks and so under-reports the machine (it returned 1
/// in pinned CI containers — the `host_cores` reporting bug this fixes);
/// counting `processor` entries in `/proc/cpuinfo` sees the real host, with
/// `available_parallelism()` as the floor and non-Linux fallback.
fn host_cores() -> usize {
    let online = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    online.max(usable_parallelism())
}

/// Parallelism usable by this process (affinity-respecting).
fn usable_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn env(world_cfg: &WorldConfig, trace_cfg: TraceConfig, seed: u64) -> (World, Trace) {
    let world = World::generate(world_cfg, seed);
    let trace = TraceGenerator::new(&world, trace_cfg, seed).generate();
    (world, trace)
}

/// Runs one replay, timing it and extracting the engine counters.
fn timed_run(
    world: &World,
    trace: &Trace,
    kind: StrategyKind,
    workers: usize,
    warm: bool,
    scale: &str,
) -> (RunRecord, via_core::Outcome) {
    let cfg = ReplayConfig {
        workers,
        warm,
        ..ReplayConfig::default()
    };
    let start = Instant::now();
    let outcome = ReplaySim::new(world, trace, cfg).run(kind);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let record = RunRecord {
        scale: scale.to_string(),
        strategy: kind.name().to_string(),
        workers_requested: workers,
        workers_resolved: outcome.stats.workers,
        warm,
        warmed_segments: outcome.stats.warmed_segments,
        calls: outcome.calls.len(),
        wall_ms,
        calls_per_sec: outcome.calls.len() as f64 / (wall_ms / 1e3),
        predictor_fits: outcome.stats.predictor_fits,
        gate_ms: outcome.stats.gate_ms,
        shard_ms: outcome.stats.shard_ms,
        merge_ms: outcome.stats.merge_ms,
        predictor_fit_ms: outcome.stats.predictor_fit_ms,
        shard_utilization: outcome.stats.shard_utilization(),
        controller_contacts: outcome.controller_contacts,
    };
    println!(
        "replay_engine/{scale}/{}{}/workers={workers:<2} {:>10.1} ms  ({:.0} calls/s)  [{}]",
        kind.name(),
        if warm { "+warm" } else { "" },
        record.wall_ms,
        record.calls_per_sec,
        outcome.stats.summary()
    );
    (record, outcome)
}

/// Same per-call results regardless of worker count (the byte-level JSON
/// check lives in via-core's tests; this structural check avoids holding
/// multi-hundred-MB JSON strings at paper scale).
fn same_results(a: &via_core::Outcome, b: &via_core::Outcome) -> bool {
    a.calls == b.calls
        && a.controller_contacts == b.controller_contacts
        && a.race_probes == b.race_probes
}

/// Worker sweep at one scale: sequential, then sharded counts; records
/// speedups and cross-checks determinism.
fn sweep(
    world: &World,
    trace: &Trace,
    scale: &str,
    warm: bool,
    worker_counts: &[usize],
    scaling_valid: bool,
    runs: &mut Vec<RunRecord>,
) -> Sweep {
    let mut wall_ms = Vec::new();
    let mut resolved = Vec::new();
    let mut baseline: Option<via_core::Outcome> = None;
    let mut identical = true;
    for &w in worker_counts {
        let (record, outcome) = timed_run(world, trace, StrategyKind::Via, w, warm, scale);
        wall_ms.push(record.wall_ms);
        resolved.push(record.workers_resolved);
        runs.push(record);
        match &baseline {
            None => baseline = Some(outcome),
            Some(b) => identical &= same_results(b, &outcome),
        }
    }
    // On a one-core host a speedup line would only report coordination
    // overhead as if it were scaling — leave the derived vectors empty and
    // keep the raw wall times.
    let (speedups, efficiency) = if scaling_valid {
        let sequential = wall_ms[0];
        let speedups: Vec<f64> = wall_ms.iter().map(|&t| sequential / t).collect();
        let efficiency = speedups
            .iter()
            .zip(&resolved)
            .map(|(&s, &w)| s / w.max(1) as f64)
            .collect();
        (speedups, efficiency)
    } else {
        println!(
            "replay_engine/{scale}: scaling figures suppressed \
             (usable_parallelism == 1; wall times recorded, speedups omitted)"
        );
        (Vec::new(), Vec::new())
    };
    Sweep {
        scale: scale.to_string(),
        warm,
        workers: worker_counts.to_vec(),
        workers_resolved: resolved,
        wall_ms,
        scaling_valid,
        speedup_vs_sequential: speedups,
        scaling_efficiency: efficiency,
        results_identical: identical,
    }
}

/// Times the zero-allocation `sample_option` hot path: candidate options of
/// a trace-like pair set, segments prewarmed, CRN-style per-sample RNG.
fn bench_sample_option(c: &mut Criterion, world: &World) -> SampleRecord {
    let t = via_model::time::SimTime::from_days(3);
    // A representative option set: every candidate of a band of AS pairs.
    let n_ases = world.ases.len();
    let mut work: Vec<(via_model::ids::AsId, via_model::ids::AsId, RelayOption)> = Vec::new();
    for i in 0..n_ases.min(12) {
        let src = world.ases[i].id;
        let dst = world.ases[(i + n_ases / 2) % n_ases].id;
        for opt in world.candidate_options(src, dst) {
            work.push((src, dst, opt));
        }
    }
    let mut rng = StdRng::seed_from_u64(42);
    // Warm every touched segment first so the measurement isolates the
    // steady-state read path, not first-touch latent generation.
    for &(src, dst, opt) in &work {
        black_box(world.perf().sample_option(src, dst, opt, t, &mut rng));
    }

    // The engine's actual hot path: one scratch carried across a batch of
    // candidates, segment means memoized per instant.
    let mut scratch = via_netsim::SampleScratch::new();
    let mut g = c.benchmark_group("replay_engine");
    g.bench_function("sample_option", |b| {
        b.iter(|| {
            for &(src, dst, opt) in &work {
                black_box(world.perf().sample_option_scratch(
                    src,
                    dst,
                    opt,
                    t,
                    &mut rng,
                    &mut scratch,
                ));
            }
        })
    });
    g.finish();

    let reps = 200usize;
    let start = Instant::now();
    for _ in 0..reps {
        for &(src, dst, opt) in &work {
            black_box(
                world
                    .perf()
                    .sample_option_scratch(src, dst, opt, t, &mut rng, &mut scratch),
            );
        }
    }
    let total = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..reps {
        for &(src, dst, opt) in &work {
            black_box(world.perf().sample_option(src, dst, opt, t, &mut rng));
        }
    }
    let total_plain = start.elapsed().as_secs_f64();
    let samples = (reps * work.len()).max(1) as f64;
    let record = SampleRecord {
        options_sampled: work.len(),
        ns_per_sample: total * 1e9 / samples,
        ns_per_sample_plain: total_plain * 1e9 / samples,
    };
    println!(
        "replay_engine/sample_option: {:.0} ns/sample batched ({:.0} ns/sample plain) over {} options",
        record.ns_per_sample, record.ns_per_sample_plain, record.options_sampled
    );
    record
}

/// Predictor-fit latency on a synthetic dense window, sequential vs all
/// cores. Criterion times the steady state; the JSON records single-shot
/// wall times from the same closure.
fn bench_predictor_fit(c: &mut Criterion) -> FitRecord {
    // A dense window: 2 000 pairs × 4 options, 6 samples each.
    let mut history = CallHistory::new();
    let window = WindowLen::DAY.window_of(SimTime::ZERO);
    let mut metrics = PathMetrics {
        rtt_ms: 120.0,
        loss_pct: 0.4,
        jitter_ms: 4.0,
    };
    for pair_idx in 0..2_000u32 {
        let pair = KeyPair::new(pair_idx % 97, pair_idx / 97);
        for option in [
            RelayOption::Direct,
            RelayOption::Bounce(RelayId(pair_idx % 7)),
            RelayOption::Bounce(RelayId(pair_idx % 5 + 7)),
            RelayOption::Transit(RelayId(pair_idx % 3), RelayId(pair_idx % 4 + 3)),
        ] {
            for sample in 0..6 {
                metrics.rtt_ms = 80.0 + f64::from((pair_idx + sample) % 120);
                history.record(window, pair, option, &metrics);
            }
        }
    }
    let cells = history.window_len(window);
    let prior = || GeoPrior::new(Vec::new(), Vec::new());
    let backbone = || {
        Box::new(|_: RelayId, _: RelayId| PathMetrics {
            rtt_ms: 40.0,
            loss_pct: 0.05,
            jitter_ms: 1.0,
        })
    };
    let fit = |workers: usize| {
        let cfg = PredictorConfig {
            workers,
            ..PredictorConfig::default()
        };
        Predictor::fit(&history, window, prior(), backbone(), cfg)
    };

    let mut g = c.benchmark_group("predictor_fit");
    g.bench_function("sequential", |b| b.iter(|| black_box(fit(1))));
    g.bench_function("all_cores", |b| b.iter(|| black_box(fit(0))));
    g.finish();

    let t = Instant::now();
    black_box(fit(1));
    let sequential_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    black_box(fit(0));
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;
    FitRecord {
        cells,
        sequential_ms,
        parallel_ms,
    }
}

/// Measures the via-obs sink's cost on the replay hot path: identical VIA
/// replays with `metrics` off and on.
///
/// The estimator is built for drifty hosts, where measurement noise is
/// *strictly additive*: interruptions (scheduler preemption, noisy
/// neighbors, frequency dips) only ever make a run slower, never faster —
/// characterization on this suite saw per-pair on/off ratios spanning
/// −16%..+39% on the same build. Under additive noise the clean signal
/// lives in the fast tail, so each of `reps` repetitions runs the off/on
/// pair in alternating order (drift cannot systematically favor one side)
/// and the reported overhead compares the *mean of the fastest half* of
/// each side's walls. That trims the contaminated slow tail entirely while
/// averaging enough clean runs that the figure does not ride on a single
/// lucky wall the way a pure min-vs-min does (min-ratio rounds swung
/// ±2–3 % between invocations; fastest-half rounds stay within ~1 %). The
/// per-pair ratio spread is still printed so a noisy invocation is visible
/// in the log. Asserts the instrumented run still produced a full snapshot
/// (the bench doubles as a smoke test that the counters survive the worker
/// merge).
fn bench_metrics_overhead(world: &World, trace: &Trace, scale: &str, reps: usize) -> ObsRecord {
    let run = |metrics: bool| {
        let cfg = ReplayConfig {
            metrics,
            ..ReplayConfig::default()
        };
        let start = Instant::now();
        let outcome = ReplaySim::new(world, trace, cfg).run(StrategyKind::Via);
        (start.elapsed().as_secs_f64() * 1e3, outcome)
    };
    // Throwaway run: pays the first-touch segment builds (and faults the
    // slot tables in) so both measured sides see the same steady state —
    // otherwise whichever side runs first eats the cold-world cost.
    let _ = run(false);
    let mut walls_off = Vec::with_capacity(reps);
    let mut walls_on = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    let mut snap: Option<via_obs::MetricsSnapshot> = None;
    for rep in 0..reps {
        let measure_off = || {
            let (w, outcome) = run(false);
            assert!(outcome.obs.is_none(), "metrics=false must not record");
            w
        };
        let measure_on = |snap: &mut Option<via_obs::MetricsSnapshot>| {
            let (w, outcome) = run(true);
            *snap = Some(outcome.obs.expect("metrics=true records a snapshot"));
            w
        };
        let (off, on) = if rep % 2 == 0 {
            let off = measure_off();
            let on = measure_on(&mut snap);
            (off, on)
        } else {
            let on = measure_on(&mut snap);
            let off = measure_off();
            (off, on)
        };
        walls_off.push(off);
        walls_on.push(on);
        ratios.push(on / off);
    }
    ratios.sort_by(f64::total_cmp);
    let fastest_half_mean = |walls: &mut Vec<f64>| {
        walls.sort_by(f64::total_cmp);
        let k = (walls.len() / 2).max(1);
        walls[..k].iter().sum::<f64>() / k as f64
    };
    let wall_off = fastest_half_mean(&mut walls_off);
    let wall_on = fastest_half_mean(&mut walls_on);
    let overhead_frac = wall_on / wall_off - 1.0;
    let snap = snap.expect("at least one instrumented run");
    assert!(
        snap.counter("replay_calls_total") > 0,
        "instrumented replay recorded no calls"
    );
    let record = ObsRecord {
        scale: scale.to_string(),
        wall_ms_off: wall_off,
        wall_ms_on: wall_on,
        overhead_frac,
        counters: snap.counters.len(),
        histograms: snap.histograms.len(),
        spans: snap.spans.len(),
    };
    println!(
        "replay_engine/{scale}/metrics_overhead: {:.1} ms off vs {:.1} ms on \
         ({:+.1}% fastest-half mean; {} pair ratios spanning {:+.1}%..{:+.1}% — \
         {} counters, {} histograms, {} spans)",
        record.wall_ms_off,
        record.wall_ms_on,
        100.0 * record.overhead_frac,
        ratios.len(),
        100.0 * (ratios.first().copied().unwrap_or(1.0) - 1.0),
        100.0 * (ratios.last().copied().unwrap_or(1.0) - 1.0),
        record.counters,
        record.histograms,
        record.spans,
    );
    record
}

/// Times singlepath VIA against 2-path duplicate multipath on the same
/// inputs, alternating the order each repetition (same noise discipline as
/// [`bench_metrics_overhead`]: host interruptions are strictly additive, so
/// the fastest-half means are the clean clusters).
fn bench_multipath(world: &World, trace: &Trace, scale: &str, reps: usize) -> MultipathRecord {
    let run = |kind: StrategyKind| {
        let start = Instant::now();
        let outcome = ReplaySim::new(world, trace, ReplayConfig::default()).run(kind);
        (start.elapsed().as_secs_f64() * 1e3, outcome)
    };
    let single = StrategyKind::Via;
    let multi = StrategyKind::Multipath {
        k: 2,
        mode: via_core::strategy::MultipathMode::Duplicate,
        budget: 1.0,
    };
    // Throwaway run pays the first-touch segment builds for both sides.
    let _ = run(single);
    let mut walls_single = Vec::with_capacity(reps);
    let mut walls_multi = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (s, m) = if rep % 2 == 0 {
            (run(single).0, run(multi).0)
        } else {
            let m = run(multi).0;
            (run(single).0, m)
        };
        walls_single.push(s);
        walls_multi.push(m);
    }
    let fastest_half_mean = |walls: &mut Vec<f64>| {
        walls.sort_by(f64::total_cmp);
        let k = (walls.len() / 2).max(1);
        walls[..k].iter().sum::<f64>() / k as f64
    };
    let wall_single = fastest_half_mean(&mut walls_single);
    let wall_multi = fastest_half_mean(&mut walls_multi);
    let record = MultipathRecord {
        scale: scale.to_string(),
        wall_ms_singlepath: wall_single,
        wall_ms_multipath: wall_multi,
        cost_ratio: wall_multi / wall_single,
    };
    println!(
        "replay_engine/{scale}/multipath: {:.1} ms singlepath vs {:.1} ms \
         multipath-dup-2 ({:.2}x per call, gate 2.5x)",
        record.wall_ms_singlepath, record.wall_ms_multipath, record.cost_ratio,
    );
    record
}

/// Peak resident set size of this process so far (`VmHWM` from
/// `/proc/self/status`), in bytes; 0 when unreadable (non-Linux hosts).
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// Builds the JSON record for one finished streamed run and prints its
/// console line. The peak-RSS reading is taken here, immediately after the
/// run it bounds.
fn stream_record(
    scale: &str,
    source: &str,
    outcome: &via_core::Outcome,
    wall_ms: f64,
) -> StreamRecord {
    let secs = wall_ms / 1e3;
    let record = StreamRecord {
        scale: scale.to_string(),
        source: source.to_string(),
        workers: outcome.stats.workers,
        calls: outcome.aggregate.calls,
        windows: outcome.stats.windows,
        wall_ms,
        calls_per_sec: outcome.aggregate.calls as f64 / secs,
        bytes_decoded: outcome.stats.bytes_decoded,
        bytes_decoded_per_sec: outcome.stats.bytes_decoded as f64 / secs,
        peak_rss_bytes: peak_rss_bytes(),
        digest: format!("{:#018x}", outcome.aggregate.digest),
    };
    println!(
        "replay_engine/stream/{scale}/{source}/workers={:<2} {:>10.1} ms  \
         ({:.0} calls/s, {:.1} MiB/s decoded, peak RSS {:.0} MiB, digest {})",
        record.workers,
        record.wall_ms,
        record.calls_per_sec,
        record.bytes_decoded_per_sec / (1024.0 * 1024.0),
        record.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        record.digest,
    );
    record
}

/// Streaming replay config: per-call outcomes off (materializing a
/// `Vec<CallOutcome>` at paper scale would defeat the bounded-memory mode
/// this section exists to measure).
fn stream_cfg(workers: usize) -> ReplayConfig {
    ReplayConfig {
        workers,
        collect_calls: false,
        ..ReplayConfig::default()
    }
}

/// One streamed VIA replay over a generate-on-the-fly source: records are
/// produced by the workload generator as the engine consumes them — no
/// trace is ever materialized.
fn streamed_gen_run(
    world: &World,
    trace_cfg: TraceConfig,
    seed: u64,
    workers: usize,
    scale: &str,
) -> StreamRecord {
    let generator = TraceGenerator::new(world, trace_cfg, seed);
    let sim = ReplaySim::streaming(world, stream_cfg(workers));
    let start = Instant::now();
    let outcome = sim
        .run_stream(generator.stream(), StrategyKind::Via)
        .expect("a generate-on-the-fly source cannot fail to decode");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    stream_record(scale, "generate", &outcome, wall_ms)
}

/// One streamed VIA replay over an on-disk trace file (the `bytes_decoded`
/// throughput path).
fn streamed_file_run(world: &World, path: &Path, workers: usize, scale: &str) -> StreamRecord {
    let source = FileSource::open(path).expect("open trace file");
    let sim = ReplaySim::streaming(world, stream_cfg(workers));
    let start = Instant::now();
    let outcome = sim
        .run_stream(source, StrategyKind::Via)
        .expect("stream trace file");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    stream_record(scale, "binary", &outcome, wall_ms)
}

/// Streaming data-plane section. Runs **first** in `main()` (before any
/// materialized replay) because `VmHWM` is process-monotone: only a fresh
/// process gives peak-RSS readings that actually bound the streaming
/// engine.
///
/// Tiny scale (always): generate-on-the-fly at two worker counts plus a
/// `.vbt` file source, cross-checked digest-identical to a materialized
/// run. Full suite adds the acceptance measurement: a paper-scale streamed
/// replay (~2.24 M calls) and a 10×-horizon run (560 days, 22.4 M calls —
/// the paper's own 430 M-call scale per unit of synthetic density) that
/// must stay under 1 GiB peak RSS with near-flat growth across the 10×
/// trace length.
fn bench_streaming(quick: bool) -> Vec<StreamRecord> {
    let mut streams = Vec::new();

    // Tiny: every source kind, digest-checked against the materialized
    // engine (the byte-level serialization matrix lives in via-core's
    // tests; this is the smoke-level invariant on real bench hardware).
    let (world, trace) = env(&WorldConfig::tiny(), TraceConfig::tiny(), 7);
    let dir = std::env::temp_dir().join("via-bench-stream");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let vbt = dir.join("tiny.vbt");
    via_trace::binfmt::write_binary(&trace, &vbt).expect("write tiny .vbt");
    streams.push(streamed_gen_run(&world, TraceConfig::tiny(), 7, 1, "tiny"));
    streams.push(streamed_gen_run(&world, TraceConfig::tiny(), 7, 2, "tiny"));
    streams.push(streamed_file_run(&world, &vbt, 1, "tiny"));
    let materialized = ReplaySim::new(&world, &trace, stream_cfg(1)).run(StrategyKind::Via);
    let want = format!("{:#018x}", materialized.aggregate.digest);
    for s in &streams {
        assert_eq!(
            s.digest, want,
            "streamed {}/{} digest diverged from the materialized engine",
            s.source, s.workers
        );
    }
    let _ = std::fs::remove_file(&vbt);

    if quick {
        return streams;
    }

    // Acceptance measurement: paper-scale density streamed at 1× and 10×
    // the trace length. Same calls/day, 10× the days (a 560-day world
    // horizon), so any RSS growth between the two readings is genuine
    // trace-length-dependent state, not bigger windows.
    let world = World::generate(&WorldConfig::paper_scale(), 7);
    let paper = streamed_gen_run(&world, TraceConfig::paper_scale(), 7, 0, "paper");
    let rss_paper = paper.peak_rss_bytes;
    streams.push(paper);
    drop(world);

    let world_cfg_10x = WorldConfig {
        horizon_days: 560,
        ..WorldConfig::paper_scale()
    };
    let trace_cfg_10x = TraceConfig {
        days: 560,
        ..TraceConfig::paper_scale()
    };
    let world = World::generate(&world_cfg_10x, 7);
    let paper10 = streamed_gen_run(&world, trace_cfg_10x, 7, 0, "paper10x");
    assert_eq!(
        paper10.calls, 22_400_000,
        "10x-horizon run must replay the full 22.4 M calls"
    );
    assert!(
        paper10.peak_rss_bytes < 1 << 30,
        "streamed 22.4 M-call replay peaked at {:.0} MiB (>= 1 GiB budget)",
        paper10.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
    // Flatness: VmHWM is monotone, so the delta between the two readings is
    // exactly what the 10× run added on top of the 1× peak. The allowance
    // covers the 10×-horizon world itself (per-segment daily severity
    // curves are 10× longer) plus noise — not a window's worth of growth
    // per unit trace length.
    let growth = paper10.peak_rss_bytes.saturating_sub(rss_paper);
    assert!(
        growth < 256 << 20,
        "peak RSS grew {:.0} MiB across a 10x longer trace — streaming is \
         supposed to be flat in trace length",
        growth as f64 / (1024.0 * 1024.0)
    );
    streams.push(paper10);
    streams
}

/// Builds a tiny-world live controller with the same predictor inputs the
/// replay engine uses (AS-granularity geo prior, precomputed backbone legs).
fn server_under_test() -> (
    std::sync::Arc<via_server::Controller>,
    u32,
    Vec<RelayOption>,
) {
    let world = World::generate(&WorldConfig::tiny(), 7);
    let granularity = via_core::replay::SpatialGranularity::As;
    let key_positions = granularity.key_positions(&world);
    let n_keys = u32::try_from(key_positions.len()).expect("key count fits u32");
    let prior = GeoPrior::new(key_positions, world.relays.iter().map(|r| r.pos).collect());
    let n_relays = world.relays.len();
    let mut legs = Vec::with_capacity(n_relays * n_relays);
    for i in 0..n_relays {
        for j in 0..n_relays {
            legs.push(
                world
                    .perf()
                    .backbone_metrics(RelayId(i as u32), RelayId(j as u32)),
            );
        }
    }
    let backbone: via_core::BackboneFn = std::sync::Arc::new(move |a: RelayId, b: RelayId| {
        legs[a.0 as usize * n_relays + b.0 as usize]
    });
    let cfg = via_server::ServerConfig {
        seed: 7,
        window: WindowLen::hours(1),
        epsilon: 0.05,
        budget: Some(0.3),
        shards: 8,
        ..via_server::ServerConfig::default()
    };
    let mut candidates = vec![RelayOption::Direct];
    candidates.extend((0..n_relays.min(8)).map(|r| RelayOption::Bounce(RelayId(r as u32))));
    if n_relays >= 2 {
        candidates.push(RelayOption::Transit(RelayId(0), RelayId(1)));
    }
    (
        std::sync::Arc::new(via_server::Controller::new(cfg, prior, backbone)),
        n_keys,
        candidates,
    )
}

/// Closed-loop load against the live controller (via-server).
///
/// Phase 1 (in-process, the acceptance surface): a single driver issuing
/// selects with one report per four selects, spanning a window rollover, so
/// the measured rate includes the reports and one rollover refit and
/// publish. Throughput is wall-clock; percentiles come from the
/// controller's own select-latency histogram.
///
/// Phase 2 (socket): the same call pattern as select round trips over one
/// loopback connection through the framed-TCP plane — measured separately
/// because it prices serialization and scheduling, not selection.
fn bench_server(quick: bool) -> ServerRecord {
    use rand::Rng;

    // -------- in-process phase --------
    let (controller, n_keys, candidates) = server_under_test();
    let mut rng = StdRng::seed_from_u64(11);
    let window_secs = controller.config().window.secs();
    let warm = 10_000u64;
    let measured: u64 = if quick { 200_000 } else { 1_000_000 };
    let span = 2 * window_secs; // measured phase crosses one rollover
    let mut drive = |controller: &via_server::Controller, call_id: u64, t: SimTime| {
        let src = rng.random_range(0..n_keys);
        let dst = (src + rng.random_range(1..n_keys.max(2))) % n_keys;
        let sel = controller.select(call_id, t, src, dst, &candidates);
        if call_id.is_multiple_of(4) {
            let m = PathMetrics::new(
                40.0 + rng.random::<f64>() * 80.0,
                rng.random::<f64>() * 2.0,
                1.0 + rng.random::<f64>() * 5.0,
            );
            controller.report(t, src, dst, sel.option, &m);
        }
        black_box(sel);
    };
    for i in 0..warm {
        drive(&controller, i, SimTime(i % window_secs));
    }
    let start = Instant::now();
    for i in 0..measured {
        drive(&controller, warm + i, SimTime(span * i / measured));
    }
    let wall = start.elapsed().as_secs_f64();
    let in_process_selections_per_sec = measured as f64 / wall;
    let hist = controller.latency_histogram();
    let in_process_p50_us = hist.quantile_bracket(0.5).map_or(f64::NAN, |(_, hi)| hi);
    let in_process_p99_us = hist.quantile_bracket(0.99).map_or(f64::NAN, |(_, hi)| hi);
    let refit_epochs = controller.refit_epoch();

    // -------- socket phase --------
    let (controller, n_keys, _) = server_under_test();
    let handle = via_server::serve(controller).expect("bind loopback");
    let mut client = via_server::Client::connect(handle.addr(), std::time::Duration::from_secs(10))
        .expect("connect");
    let round_trips: u64 = if quick { 5_000 } else { 20_000 };
    let mut rtts_us = Vec::with_capacity(usize::try_from(round_trips).expect("fits usize"));
    let start = Instant::now();
    for i in 0..round_trips {
        let src = rng.random_range(0..n_keys);
        let dst = (src + 1) % n_keys;
        let t0 = Instant::now();
        let sel = client
            .select(i, SimTime(i % window_secs), src, dst, &candidates)
            .expect("socket select");
        rtts_us.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(sel);
    }
    let socket_wall = start.elapsed().as_secs_f64();
    client.shutdown().expect("clean shutdown");
    handle.wait();
    rtts_us.sort_by(f64::total_cmp);
    let p99_idx = ((rtts_us.len() as f64) * 0.99) as usize;
    let socket_p99_us = rtts_us[p99_idx.min(rtts_us.len() - 1)];

    let record = ServerRecord {
        selections: measured,
        in_process_selections_per_sec,
        in_process_p50_us,
        in_process_p99_us,
        refit_epochs,
        socket_round_trips: round_trips,
        socket_round_trips_per_sec: round_trips as f64 / socket_wall,
        socket_p99_us,
    };
    println!(
        "replay_engine/server/in-process    {:>10.0} selections/s  p50<={:.1}us p99<={:.1}us ({} rollovers)",
        record.in_process_selections_per_sec,
        record.in_process_p50_us,
        record.in_process_p99_us,
        record.refit_epochs,
    );
    println!(
        "replay_engine/server/socket        {:>10.0} round-trips/s  p99={:.0}us",
        record.socket_round_trips_per_sec, record.socket_p99_us,
    );
    record
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut criterion = Criterion::default();
    let mut runs = Vec::new();
    let mut sweeps = Vec::new();

    // Streaming section first: its VmHWM readings are only meaningful
    // before anything else has inflated the process high-water mark.
    let streams = bench_streaming(quick);

    // Throughput + worker sweep, cold path and warmed cache. Quick mode (CI
    // smoke) stays at tiny scale; the full suite adds small and paper scale,
    // the acceptance target. On a one-core host the multi-worker sweeps at
    // the larger scales are skipped outright — they cannot measure scaling,
    // only coordination overhead, and at paper scale that waste is minutes.
    // Tiny keeps its multi-worker runs regardless: they double as the
    // cross-worker determinism check.
    let multi_ok = usable_parallelism() > 1;
    let (world, trace) = env(&WorldConfig::tiny(), TraceConfig::tiny(), 7);
    sweeps.push(sweep(
        &world,
        &trace,
        "tiny",
        false,
        &[1, 2, 8],
        multi_ok,
        &mut runs,
    ));
    sweeps.push(sweep(
        &world,
        &trace,
        "tiny",
        true,
        &[1, 2, 8],
        multi_ok,
        &mut runs,
    ));
    let sample_option = bench_sample_option(&mut criterion, &world);
    // Tiny-scale overhead is reported for continuity but is dominated by
    // fixed per-call work (a tiny call is ~1.5 µs of mostly bookkeeping, so
    // the one extra CRN baseline realization behind the MOS-delta histogram
    // reads as a large fraction). The <5% budget is gated on the primary
    // record below, measured at the largest scale the run includes — where
    // per-call cost is real work and the ratio means something.
    let metrics_overhead_tiny = bench_metrics_overhead(&world, &trace, "tiny", 5);
    // Multipath cost section: quick mode measures at tiny scale (the CI
    // smoke runs this); the full suite re-measures at small scale where a
    // call's budget is dominated by real scoring/realization work.
    let multipath = if quick {
        bench_multipath(&world, &trace, "tiny", 5)
    } else {
        let (world, trace) = env(&WorldConfig::small(), TraceConfig::small(), 7);
        bench_multipath(&world, &trace, "small", 5)
    };
    if !quick {
        let (world, trace) = env(&WorldConfig::small(), TraceConfig::small(), 7);
        let counts: &[usize] = if multi_ok { &[1, 2, 8, 0] } else { &[1] };
        sweeps.push(sweep(
            &world, &trace, "small", false, counts, multi_ok, &mut runs,
        ));
        sweeps.push(sweep(
            &world, &trace, "small", true, counts, multi_ok, &mut runs,
        ));
        let (world, trace) = env(&WorldConfig::paper_scale(), TraceConfig::paper_scale(), 7);
        let counts: &[usize] = if multi_ok { &[1, 8] } else { &[1] };
        sweeps.push(sweep(
            &world, &trace, "paper", false, counts, multi_ok, &mut runs,
        ));
        sweeps.push(sweep(
            &world, &trace, "paper", true, counts, multi_ok, &mut runs,
        ));
    }
    // Primary overhead record, both modes: the paper-scale world (the
    // acceptance scale's per-call cost profile — same candidate density and
    // segment mix) driven by a shortened trace so each repetition is a few
    // hundred milliseconds. Gating at tiny/small would ask the MOS-delta
    // baseline — segment-mean math that costs the same per call at every
    // scale — to hide inside a per-call budget that is mostly fixed
    // bookkeeping there; and gating on full-length paper runs would replace
    // statistics with a handful of ten-second samples at the mercy of host
    // drift. Overhead is a per-call ratio, so trace length only sets how
    // many repetitions fit: short runs × many alternating ratios beats long
    // runs × few.
    let short = TraceConfig {
        days: 2,
        ..TraceConfig::paper_scale()
    };
    let (world, trace) = env(&WorldConfig::paper_scale(), short, 7);
    let metrics_overhead = bench_metrics_overhead(&world, &trace, "paper-world/short-trace", 20);

    let predictor_fit = bench_predictor_fit(&mut criterion);
    let server = bench_server(quick);

    // Live-controller acceptance gates: the select plane must sustain
    // ≥100k selections/s with p99 ≤100 µs in-process (socket round trips
    // are reported but not gated — they price the RPC layer, not
    // selection). Quick mode keeps a relaxed floor so shared CI runners
    // still catch order-of-magnitude regressions without flaking on noise.
    let (min_sps, max_p99) = if quick {
        (50_000.0, 400.0)
    } else {
        (100_000.0, 100.0)
    };
    assert!(
        server.in_process_selections_per_sec >= min_sps,
        "live controller sustained only {:.0} selections/s (target {min_sps:.0})",
        server.in_process_selections_per_sec,
    );
    assert!(
        server.in_process_p99_us <= max_p99,
        "live controller p99 select latency {:.0} us exceeds {max_p99:.0} us",
        server.in_process_p99_us,
    );

    for s in &sweeps {
        assert!(
            s.results_identical,
            "worker sweep at {} scale produced diverging results",
            s.scale
        );
    }

    // CI smoke regression gate: multi-worker replay must not be slower than
    // sequential beyond noise. On a multi-core host the sharded engine is
    // expected to win outright; when the process is pinned to one core
    // (usable_parallelism == 1) genuine speedup is impossible, so the gate
    // only bounds the coordination overhead. Tiny-scale walls are a few ms,
    // so tolerances are generous against timer jitter.
    let tolerance = if usable_parallelism() > 1 { 1.30 } else { 2.00 };
    for s in sweeps.iter().filter(|s| s.scale == "tiny") {
        let sequential = s.wall_ms[0];
        let best_multi = s.wall_ms[1..].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            best_multi <= sequential * tolerance,
            "tiny-scale {} sweep: best multi-worker wall {best_multi:.1} ms \
             vs sequential {sequential:.1} ms exceeds {tolerance}x tolerance \
             (usable_parallelism={})",
            if s.warm { "warm" } else { "cold" },
            usable_parallelism(),
        );
    }

    // Instrumentation-overhead regression gate: the metric sink must stay
    // near-free on the replay hot path. Gated on the primary record — the
    // largest scale this run measured (small under --quick, paper in the
    // full suite) — where per-call cost is dominated by real work rather
    // than fixed overhead. The bench binary exits non-zero on breach, which
    // is exactly what the CI smoke step runs.
    assert!(
        metrics_overhead.overhead_frac < 0.05,
        "metrics overhead at {} scale is {:.1}% (>= 5% budget): \
         {:.1} ms off vs {:.1} ms on",
        metrics_overhead.scale,
        100.0 * metrics_overhead.overhead_frac,
        metrics_overhead.wall_ms_off,
        metrics_overhead.wall_ms_on,
    );

    // Multipath cost gate: a 2-path duplicate call does two realizations
    // plus one receiver-side merge, so its per-call cost must stay within
    // 2.5x singlepath — past that the merge model is doing per-call work
    // that belongs in the realization layer.
    assert!(
        multipath.cost_ratio <= 2.5,
        "multipath replay costs {:.2}x singlepath per call at {} scale \
         (gate 2.5x): {:.1} ms vs {:.1} ms",
        multipath.cost_ratio,
        multipath.scale,
        multipath.wall_ms_multipath,
        multipath.wall_ms_singlepath,
    );

    let report = Report {
        bench: "replay_engine".to_string(),
        quick,
        host_cores: host_cores(),
        usable_parallelism: usable_parallelism(),
        runs,
        sweeps,
        streams,
        predictor_fit,
        sample_option,
        metrics_overhead,
        metrics_overhead_tiny,
        multipath,
        server,
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let path = root.join("BENCH_replay.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    std::fs::write(&path, json + "\n").expect("write bench report");
    println!("wrote {}", path.display());
}
