//! One run of one workload: set-up, a discarded warm-up round, a fixed
//! number of measured rounds, the correctness checks, and the metrics. The
//! untraced run produces the end-to-end metrics; the traced run records
//! spans, times the layers the workload enters and produces the per-layer
//! metrics and the ledger.

use std::path::{Path, PathBuf};

use via_core::replay::{Outcome, ReplayConfig, ReplayStats};

use crate::alloc::{self, AllocCount};
use crate::layers::{self, Bencher, Figures};
use crate::refclock::{
    bracketed, host_speed, median, percentile, rate_per_ref_s, rate_per_wall_s, ref_share,
    round_ref_time_s, RefKernel, Round, NOMINAL_REF_S,
};
use crate::report::{declarations, Metric, RunReport};
use crate::span::{SpanId, SpanLog};
use crate::workloads::{
    ReplayBench, RoundOut, ServerBench, Workload, MULTIPATH_K, REPORT_EVERY, SERVER_ROUND_CALLS,
    SERVER_WINDOW_SECS,
};
use crate::Res;

/// Fresh repetitions of the set-up; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds with metrics on, and as many with them off, behind
/// `obs.metrics_overhead_frac`.
const METRICS_ROUNDS: usize = 3;

/// Where the run may write: the trace file of the streamed workload and the
/// span log. Inside the benchmark's own directory, ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Measured rounds that fit `seconds`, from the workload's nominal round
/// time: a fixed number, never a time limit, so every count repeats.
pub fn rounds_for(workload: Workload, seconds: f64) -> usize {
    ((seconds / (workload.nominal_round_s() + NOMINAL_REF_S)).floor() as usize).max(2)
}

enum Bench {
    Replay(ReplayBench),
    Server(ServerBench),
}

impl Bench {
    fn setup(
        workload: Workload,
        seed: u64,
        dir: &Path,
        spans: &mut SpanLog,
        parent: Option<SpanId>,
    ) -> Res<Bench> {
        Ok(match workload {
            Workload::ServerSocket => Bench::Server(ServerBench::setup(seed, spans, parent)?),
            _ => Bench::Replay(ReplayBench::setup(workload, seed, dir, spans, parent)?),
        })
    }

    fn round(
        &mut self,
        spans: &mut SpanLog,
        parent: Option<SpanId>,
    ) -> Res<(RoundOut, Option<Outcome>)> {
        match self {
            Bench::Replay(b) => b.round(spans, parent).map(|(out, o)| (out, Some(o))),
            Bench::Server(b) => b.round(spans, parent).map(|out| (out, None)),
        }
    }
}

/// The rounds of one bench: the first after set-up, kept apart as warm-up,
/// and the measured ones.
struct Measured {
    cold: Round,
    rounds: Vec<Round>,
    outs: Vec<RoundOut>,
    /// Engine phase times of each measured round (replay workloads).
    stats: Vec<ReplayStats>,
    last: Option<Outcome>,
    allocs: AllocCount,
    faults: Vec<String>,
}

/// Runs the warm-up round and `n` measured rounds. With `alternate`, spans
/// are recorded in every second measured round only, which is what
/// `harness.trace_overhead_frac` compares.
fn measure(
    bench: &mut Bench,
    kernel: &RefKernel,
    n: usize,
    spans: &mut SpanLog,
    parent: Option<SpanId>,
    alternate: bool,
) -> Res<Measured> {
    let was_enabled = spans.enabled();
    let allocs_before = alloc::disarm();
    let mut round = |spans: &mut SpanLog, name: &'static str, ref_s: Option<f64>, count: bool| {
        let id = spans.enter(name, parent);
        let (result, timing) = bracketed(kernel, ref_s, || {
            if count {
                alloc::arm();
            }
            let result = bench.round(spans, id);
            alloc::disarm();
            let calls = result.as_ref().map_or(0, |(out, _)| out.calls - out.failed);
            (result, calls)
        });
        spans.exit(id);
        result.map(|(out, outcome)| (out, outcome, timing))
    };
    let (cold_out, _, cold) = round(spans, "round.warmup", None, false)?;
    let mut m = Measured {
        cold,
        rounds: Vec::with_capacity(n),
        outs: Vec::with_capacity(n),
        stats: Vec::new(),
        last: None,
        allocs: AllocCount::default(),
        faults: Vec::new(),
    };
    let mut ref_s = Some(cold.ref_after_s);
    for i in 0..n {
        if alternate {
            spans.set_enabled(was_enabled && i % 2 == 1);
        }
        let (out, outcome, timing) = round(spans, "round", ref_s, true)?;
        ref_s = Some(timing.ref_after_s);
        if out.digest != cold_out.digest {
            m.faults.push(format!(
                "round {i} produced digest {:?}, the warm-up round {:?}",
                out.digest, cold_out.digest
            ));
        }
        m.rounds.push(timing);
        m.outs.push(out);
        if let Some(outcome) = outcome {
            m.stats.push(outcome.stats.clone());
            m.last = Some(outcome);
        }
    }
    spans.set_enabled(was_enabled);
    let allocs_after = alloc::disarm();
    m.allocs = AllocCount {
        allocs: allocs_after.allocs - allocs_before.allocs,
        bytes: allocs_after.bytes - allocs_before.bytes,
    };
    Ok(m)
}

impl Measured {
    fn calls(&self) -> u64 {
        self.outs.iter().map(|o| o.calls).sum()
    }

    fn failed(&self) -> u64 {
        self.outs.iter().map(|o| o.failed).sum()
    }

    /// The run's median and 99th-percentile service time in reference
    /// microseconds, from each round's own. The median is the median over
    /// rounds. The 99th percentile is the lower quartile over rounds: the
    /// host's interference only ever lengthens a tail (eight runs of one
    /// build: per-round p99 medians 37–50 us, lower quartiles 35–41 us while
    /// the p50 stayed within 4 %), so the quieter rounds are the ones that
    /// compare between runs, and a slower server moves them all. A round
    /// without per-call samples has one sample, its time ÷ calls, which
    /// serves as both.
    fn rtt_us(&self) -> (f64, f64) {
        let (mut p50s, mut p99s): (Vec<f64>, Vec<f64>) = self
            .rounds
            .iter()
            .zip(&self.outs)
            .map(|(round, out)| {
                let per_call = round.wall_s * 1e6 / out.calls.max(1) as f64;
                let (p50, p99) = out.rtt_us.unwrap_or((per_call, per_call));
                let to_ref = NOMINAL_REF_S / round.bracket_s();
                (p50 * to_ref, p99 * to_ref)
            })
            .unzip();
        let p50 = median(&mut p50s);
        if self.outs.iter().any(|o| o.rtt_us.is_none()) {
            return (p50, p50);
        }
        (p50, percentile(&mut p99s, 0.25))
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The untraced run: every end-to-end metric, nothing else.
pub fn untraced(
    workload: Workload,
    seed: u64,
    n_rounds: usize,
    pinned: Option<usize>,
) -> Res<RunReport> {
    let kernel = RefKernel::new();
    let dir = out_dir();
    let mut spans = SpanLog::new(String::new(), false);

    // Set-up, several times over, each from nothing; the last one is used.
    let mut setups_s = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    let mut ref_s = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let (built, timing) = bracketed(&kernel, ref_s, || {
            (Bench::setup(workload, seed, &dir, &mut spans, None), 1)
        });
        ref_s = Some(timing.ref_after_s);
        setups_s.push(timing.ref_time_s());
        bench = Some(built?);
    }
    let mut bench = bench.ok_or("no set-up ran")?;

    let m = measure(&mut bench, &kernel, n_rounds, &mut spans, None, false)?;
    // Read before the checks: they replay more, and one materializes a trace.
    let peak_rss = peak_rss_mib()?;

    let mut report = RunReport {
        attempted: m.calls(),
        failed: m.failed(),
        faults: m.faults.clone(),
        ..RunReport::default()
    };
    match &mut bench {
        Bench::Replay(b) => {
            let (out, outcome) = (m.outs.last(), m.last.as_ref());
            let (Some(out), Some(outcome)) = (out, outcome) else {
                return Err("no measured round".into());
            };
            report.faults.extend(b.check(out, outcome)?);
        }
        Bench::Server(b) => {
            report.faults.extend(b.check());
            b.shutdown()?;
        }
    }

    let ok_calls = (m.calls() - m.failed()).max(1) as f64;
    let (rtt_p50, rtt_p99) = m.rtt_us();
    let poor: u64 = m.outs.iter().map(|o| o.poor).sum();
    report.metrics = vec![
        Metric::new("calls_per_s", rate_per_ref_s(&m.rounds), "1/s"),
        Metric::new("rtt_p50_us", rtt_p50, "us"),
        Metric::new("rtt_p99_us", rtt_p99, "us"),
        Metric::new("peak_rss_mib", peak_rss, "MiB"),
        Metric::new(
            "allocs_per_call",
            m.allocs.allocs as f64 / ok_calls,
            "count",
        ),
        Metric::new("pnr_any", poor as f64 / ok_calls, "frac"),
        Metric::new("setup_s", median(&mut setups_s), "s"),
    ];
    let samples = match workload {
        Workload::ServerSocket => format!(
            "rtt_*: {} select round trips per round ({} beyond the round's p99); p50 median, p99 lower quartile over {} rounds; loopback, client and server on one CPU",
            SERVER_ROUND_CALLS,
            SERVER_ROUND_CALLS / 100,
            m.rounds.len()
        ),
        _ => format!(
            "rtt_*: no round trip in a replay; one service-time sample per round (round time / calls), so p50 = p99; median over {} rounds",
            m.rounds.len()
        ),
    };
    report.notes = vec![
        format!(
            "{}: seed {seed}, {} measured rounds of {} calls, closed loop, one worker, {}",
            workload.name(),
            m.rounds.len(),
            m.outs.first().map_or(0, |o| o.calls),
            pinned.map_or("unpinned".to_string(), |c| format!("pinned to CPU {c}"))
        ),
        format!(
            "times are reference time: wall / bracketing kernel time x nominal; host speed {:.3} (nominal / measured kernel time, 1 = the host the bounds were measured on)",
            host_speed(&m.rounds).0
        ),
        samples,
        format!(
            "plain wall clock, for comparison: {:.1} calls/s",
            rate_per_wall_s(&m.rounds)
        ),
    ];
    Ok(report)
}

/// Engine phase times of a replay plane, reference milliseconds per round.
fn replay_figures(m: &Measured, w2: &Round, f: &mut Figures) {
    let n = m.rounds.len().max(1) as f64;
    let phase = |pick: &dyn Fn(&ReplayStats) -> f64| {
        m.rounds
            .iter()
            .zip(&m.stats)
            .map(|(r, s)| pick(s) * NOMINAL_REF_S / r.bracket_s())
            .sum::<f64>()
            / n
    };
    f.push("replay.gate_ms", phase(&|s| s.gate_ms), "ms");
    f.push("replay.shard_ms", phase(&|s| s.shard_ms), "ms");
    f.push("replay.merge_ms", phase(&|s| s.merge_ms), "ms");
    f.push("replay.refit_ms", phase(&|s| s.predictor_fit_ms), "ms");
    f.push(
        "replay.other_ms",
        phase(&|s| s.wall_ms - s.gate_ms - s.shard_ms - s.merge_ms - s.predictor_fit_ms),
        "ms",
    );
    f.push("replay.ns_per_call", 1e9 / rate_per_ref_s(&m.rounds), "ns");
    f.push(
        "replay.relayed_frac",
        m.last
            .as_ref()
            .map_or(0.0, |o| o.aggregate.relayed_fraction()),
        "frac",
    );
    let warm_s = round_ref_time_s(&m.rounds);
    f.push(
        "replay.first_round_ratio",
        m.cold.ref_time_s() / warm_s,
        "ratio",
    );
    f.push("replay.w2_overhead", w2.ref_time_s() / warm_s, "ratio");
}

/// Counters the kernel keeps for the process, read around socket rounds.
struct ProcCounters {
    switches: u64,
    segments: u64,
    ticks: (u64, u64),
}

impl ProcCounters {
    fn read() -> ProcCounters {
        ProcCounters {
            switches: layers::context_switches(),
            segments: layers::tcp_segments_out(),
            ticks: layers::cpu_ticks(),
        }
    }
}

/// Sums `ns x how often per call` into the ledger, keeping the terms.
#[derive(Default)]
struct Ledger {
    terms: Vec<(&'static str, f64)>,
}

impl Ledger {
    fn add(&mut self, f: &Figures, name: &'static str, per_call: f64) {
        self.terms.push((name, f.ns(name) * per_call));
    }

    fn total(&self) -> f64 {
        self.terms.iter().map(|t| t.1).sum()
    }
}

/// What the harness itself did to the measurement: host speed, kernel
/// share, and what the spans cost (rounds with them against rounds without).
fn harness_figures(m: &Measured, pinned: Option<usize>, f: &mut Figures) {
    let every_other =
        |from: usize| -> Vec<Round> { m.rounds.iter().skip(from).step_by(2).copied().collect() };
    let (spans_off, spans_on) = (every_other(0), every_other(1));
    let (speed, speed_iqr) = host_speed(&m.rounds);
    f.push("harness.host_speed", speed, "ratio");
    f.push("harness.host_speed_iqr", speed_iqr, "ratio");
    f.push("harness.raw_calls_per_s", rate_per_wall_s(&m.rounds), "1/s");
    f.push("harness.ref_share", ref_share(&m.rounds), "frac");
    f.push(
        "harness.pinned",
        f64::from(u8::from(pinned.is_some())),
        "count",
    );
    f.push("harness.rounds", m.rounds.len() as f64, "count");
    f.push(
        "harness.alloc_bytes_per_call",
        m.allocs.bytes as f64 / m.calls().max(1) as f64,
        "B",
    );
    f.push(
        "harness.trace_overhead_frac",
        rate_per_ref_s(&spans_off) / rate_per_ref_s(&spans_on) - 1.0,
        "frac",
    );
}

/// The ledger of one workload: each layer figure times how often the
/// engine (or the round trip) enters that layer per call. The multiplicities
/// are assumed: they come from reading the engine, not from inside it, and
/// nothing checks them against it; what they miss or get wrong shows up in
/// the unattributed remainder.
fn ledger_for(bench: &Bench, f: &Figures) -> Ledger {
    let mut ledger = Ledger::default();
    let replay = match bench {
        Bench::Replay(replay) => replay,
        Bench::Server(_) => {
            // A call is one select round trip and a quarter of a report's.
            let trips = 1.0 + 1.0 / REPORT_EVERY as f64;
            ledger.add(f, "protocol.write_frame_ns", 2.0 * trips);
            ledger.add(f, "protocol.read_frame_ns", 2.0 * trips);
            ledger.add(f, "server.loopback_echo_ns", trips);
            ledger.add(f, "server.select_ns", 1.0);
            ledger.add(f, "server.report_ns", 1.0 / REPORT_EVERY as f64);
            ledger.add(f, "server.rollover_ms", 1.0 / SERVER_WINDOW_SECS as f64);
            return ledger;
        }
    };
    let Some(trace) = &replay.trace else {
        // Streamed under `Default`: decode, frame, realize, count.
        ledger.add(f, "trace.vbt_decode_ns_per_record", 1.0);
        ledger.add(f, "trace.window_frame_ns_per_record", 1.0);
        ledger.add(f, "netsim.sample_option_ns", 1.0);
        ledger.add(f, "obs.hot_inc_ns", 2.0);
        ledger.add(f, "obs.hot_observe_ns", 1.0);
        return ledger;
    };
    // Once per (pair, window): enumerate, score and prune the candidates and
    // build the pair's bandit.
    let mult = layers::multiplicity(trace);
    let g = mult.groups_per_call;
    ledger.add(f, "netsim.candidates_ns", g);
    ledger.add(
        f,
        "predictor.predict_ns",
        g * f.get("netsim.candidates_per_call"),
    );
    ledger.add(f, "topk.ns_per_call", g);
    ledger.add(f, "bandit.build_ns", g);
    let paths = if replay.workload == Workload::ReplayMultipathBudget {
        // An admitted call plays k paths, realizes and learns from each, and
        // merges them.
        let admitted = f.get("budget.admit_rate");
        ledger.add(f, "budget.admit_cost_ns", 1.0);
        ledger.add(f, "bandit.choose_set_ns", admitted);
        ledger.add(f, "media.simulate_set_ns", admitted);
        ledger.add(f, "obs.hot_inc_ns", 5.0);
        1.0 + admitted * (MULTIPATH_K as f64 - 1.0)
    } else {
        // An exploring call enumerates the candidates again.
        let epsilon = replay.cfg.epsilon;
        ledger.add(f, "netsim.candidates_ns", epsilon);
        ledger.add(f, "bandit.choose_ns", 1.0 - epsilon);
        ledger.add(f, "obs.hot_inc_ns", 3.0);
        1.0
    };
    ledger.add(f, "netsim.sample_option_ns", paths);
    ledger.add(f, "bandit.update_ns", paths);
    ledger.add(f, "history.record_ns", paths);
    ledger.add(f, "obs.hot_observe_ns", 2.0);
    ledger.add(
        f,
        "predictor.fit_ms_per_window",
        mult.windows as f64 / trace.len() as f64,
    );
    ledger
}

/// The traced run: spans around the harness's calls, the per-layer metrics
/// of the layers the workload enters (0 for the others), and the ledger of
/// what those layers account for.
pub fn traced(
    workload: Workload,
    seed: u64,
    n_rounds: usize,
    pinned: Option<usize>,
) -> Res<RunReport> {
    let kernel = RefKernel::new();
    let dir = out_dir();
    let mut spans = SpanLog::new(format!("{}-seed{seed}", workload.name()), true);
    let root = spans.enter("run", None);
    let mut f = Figures::default();

    // ---- the workload itself, spans on in every second round --------------
    let mut bench = spans.scope("setup", root, |spans, id| {
        Bench::setup(workload, seed, &dir, spans, id)
    })?;
    let before = ProcCounters::read();
    let m = measure(&mut bench, &kernel, n_rounds.max(2), &mut spans, root, true)?;
    let after = ProcCounters::read();
    let mut report = RunReport {
        attempted: m.calls(),
        failed: m.failed(),
        faults: m.faults.clone(),
        ..RunReport::default()
    };
    harness_figures(&m, pinned, &mut f);

    // ---- the layers under it ------------------------------------------------
    let mut b = Bencher::new(&kernel);
    match &bench {
        Bench::Replay(replay) => {
            let outcome = m.last.as_ref().ok_or("the replay ran no round")?;
            let two_workers = ReplayConfig {
                workers: 2,
                ..replay.cfg.clone()
            };
            let (w2, w2_round) =
                b.once(|| replay.replay(replay.strategy, two_workers, &mut spans, root));
            if w2?.aggregate.digest != outcome.aggregate.digest {
                report
                    .faults
                    .push("two workers produced a different outcome digest than one".into());
            }
            replay_figures(&m, &w2_round, &mut f);

            // The workload's own round, metrics on against off, alternating.
            let with_metrics = ReplayConfig {
                metrics: true,
                ..replay.cfg.clone()
            };
            let (mut on, mut off) = (Vec::new(), Vec::new());
            for _ in 0..METRICS_ROUNDS {
                for (cfg, rounds) in [(&replay.cfg, &mut off), (&with_metrics, &mut on)] {
                    let (snapshot, round) =
                        b.once(|| replay.replay(replay.strategy, cfg.clone(), &mut spans, root));
                    let snapshot = snapshot?;
                    if cfg.metrics && snapshot.obs.is_none() {
                        report
                            .faults
                            .push("a replay with metrics on recorded no snapshot".into());
                    }
                    rounds.push(round);
                }
            }
            f.push(
                "obs.metrics_overhead_frac",
                round_ref_time_s(&on) / round_ref_time_s(&off) - 1.0,
                "frac",
            );

            let layer_span = spans.enter("layers.replay", root);
            layers::replay_layers(&mut b, replay, outcome, &dir, &mut f)?;
            spans.exit(layer_span);
            f.push(
                "netsim.segment_builds",
                replay.world.perf().segment_builds() as f64,
                "count",
            );
        }
        Bench::Server(srv) => {
            let layer_span = spans.enter("layers.server", root);
            layers::server_layers(&mut b, &srv.world, &srv.pool, seed, &mut f)?;
            spans.exit(layer_span);
            // Warm-up round included: the counters were read around all of them.
            let calls = (m.calls() + SERVER_ROUND_CALLS) as f64;
            f.push(
                "server.rollovers",
                srv.controller().map_or(0, |c| c.refit_epoch()) as f64,
                "count",
            );
            f.push(
                "server.ctx_switches_per_call",
                (after.switches - before.switches) as f64 / calls,
                "count",
            );
            f.push(
                "server.tcp_segments_per_call",
                (after.segments - before.segments) as f64 / calls,
                "count",
            );
            let (user, sys) = (
                after.ticks.0 - before.ticks.0,
                after.ticks.1 - before.ticks.1,
            );
            f.push(
                "server.sys_frac",
                sys as f64 / (user + sys).max(1) as f64,
                "frac",
            );
            f.push(
                "netsim.segment_builds",
                srv.world.perf().segment_builds() as f64,
                "count",
            );
            report.faults.extend(srv.check());
        }
    }

    // ---- the ledger: what the layers account for of one call --------------
    let ns_per_call = 1e9 / rate_per_ref_s(&m.rounds);
    let ledger = ledger_for(&bench, &f);
    f.push(
        "ledger.attributed_frac",
        ledger.total() / ns_per_call,
        "frac",
    );
    f.push("ledger.unattributed_ns", ns_per_call - ledger.total(), "ns");

    // ---- a layer the workload never enters reads 0 --------------------------
    let mut idle = Vec::new();
    for declared in declarations()?.per_layer {
        if f.0.iter().all(|m| m.name != declared.name) {
            f.push(&declared.name, 0.0, &declared.unit);
            idle.push(declared.name);
        }
    }

    // ---- wrap up: stop the server, write the spans --------------------------
    report.notes = vec![
        format!(
            "{} traced: seed {seed}, {} rounds, spans on in every second one",
            workload.name(),
            m.rounds.len(),
        ),
        format!(
            "0, the workload never enters the layer: {}",
            idle.join(" ")
        ),
        format!(
            "ledger: {:.1} ns of {ns_per_call:.1} ns per call attributed; how often a call enters each layer is assumed from reading the engine",
            ledger.total()
        ),
    ];
    for (name, ns) in &ledger.terms {
        report
            .notes
            .push(format!("ledger: {name:<34} {ns:>10.1} ns/call"));
    }
    if let Bench::Server(srv) = &mut bench {
        srv.shutdown()?;
    }
    spans.exit(root);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.trace.json", workload.name()));
    std::fs::write(&path, serde_json::to_string(&spans.to_value())? + "\n")?;
    report.notes.push(format!(
        "{} spans written to {}",
        spans.spans.len(),
        path.display()
    ));
    for (name, self_ns, count) in spans.self_time_by_name().into_iter().take(12) {
        report.notes.push(format!(
            "span self time: {name:<28} {:>10.3} ms over {count} spans",
            self_ns as f64 / 1e6
        ));
    }
    report.metrics = f.0;
    Ok(report)
}
