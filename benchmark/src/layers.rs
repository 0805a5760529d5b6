//! Per-layer figures of the traced run: the harness calls the public
//! functions of each layer the workload enters, on inputs captured from the
//! workload's own calls, in batches of at least 20 ms bracketed by the
//! reference kernel. Layer names are crate or module names. A layer the
//! workload never enters reads 0. What the engine spends between these calls
//! is not seen from here; `ledger.unattributed_ns` says how much that is.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use via_core::bandit::UcbBandit;
use via_core::budget::BudgetGate;
use via_core::history::{CallHistory, KeyPair};
use via_core::predictor::{Predictor, PredictorConfig};
use via_core::replay::Outcome;
use via_core::tomography::Tomography;
use via_core::topk::{top_k_into, ScoredOption};
use via_core::BackboneFn;
use via_media::merge::{simulate_set, MergeConfig, MergeMode, MergeScratch, PathSpec};
use via_model::ids::{AsId, RelayId};
use via_model::metrics::{Metric as NetMetric, PathMetrics};
use via_model::options::RelayOption;
use via_model::time::{SimTime, WindowLen};
use via_netsim::{CandidateScratch, SampleScratch, World, WorldConfig};
use via_obs::HotSchema;
use via_server::{Request, Response};
use via_testbed::protocol::{read_frame, write_frame};
use via_trace::stream::{FileSource, RecordSource, TraceRecords, WindowStream};
use via_trace::{CallRecord, Trace, TraceGenerator};

use crate::refclock::{bracketed, median, RefKernel, Round, NOMINAL_REF_S};
use crate::report::Metric;
use crate::workloads::{
    controller, predictor_inputs, PoolCall, ReplayBench, TempFile, Workload, BUDGET, MULTIPATH_K,
    REPORT_EVERY, SERVER_WINDOW_SECS, WORLD_SEED,
};
use crate::Res;

/// Shortest batch worth timing: the kernel runs around it are ~40 ms each,
/// and a batch much shorter than them would be timed mostly by their noise.
const MIN_BATCH_S: f64 = 0.020;

/// The merge settings the replay engine uses for multipath calls. Private
/// there, so repeated here for `media.simulate_set_ns` to price the same
/// work; a unit test below compares this with the engine's source.
const MULTIPATH_MERGE: MergeConfig = MergeConfig {
    frames: 16,
    burst_len: 6.0,
    delay_rho: 0.5,
    death_prob: 0.01,
};

/// Times batches in reference time; consecutive batches share the kernel
/// run between them.
pub struct Bencher<'k> {
    kernel: &'k RefKernel,
    last_ref_s: Option<f64>,
}

impl<'k> Bencher<'k> {
    pub fn new(kernel: &'k RefKernel) -> Bencher<'k> {
        Bencher {
            kernel,
            last_ref_s: None,
        }
    }

    /// Times `work` once between two kernel runs.
    pub fn once<T>(&mut self, work: impl FnOnce() -> T) -> (T, Round) {
        let (out, round) = bracketed(self.kernel, self.last_ref_s, || (work(), 1));
        self.last_ref_s = Some(round.ref_after_s);
        (out, round)
    }

    /// Repeats `batch`, which returns how many operations it did, until
    /// [`MIN_BATCH_S`] has passed; returns reference nanoseconds per
    /// operation.
    pub fn ns_per_op(&mut self, mut batch: impl FnMut() -> u64) -> f64 {
        let (ops, round) = self.once(|| {
            let start = Instant::now();
            let mut ops = 0;
            loop {
                ops += batch();
                if start.elapsed().as_secs_f64() >= MIN_BATCH_S {
                    return ops;
                }
            }
        });
        round.ref_time_s() * 1e9 / ops.max(1) as f64
    }
}

fn boxed(backbone: &BackboneFn) -> Box<dyn Fn(RelayId, RelayId) -> PathMetrics + Send + Sync> {
    let backbone = backbone.clone();
    Box::new(move |a, b| backbone(a, b))
}

/// Per-layer figures as named metrics; the ledger reads them back by name.
#[derive(Default)]
pub struct Figures(pub Vec<Metric>);

impl Figures {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push(Metric::new(name, value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// Times `batch` (see [`Bencher::ns_per_op`]) and records the result.
    pub fn time_ns(&mut self, b: &mut Bencher<'_>, name: &str, batch: impl FnMut() -> u64) {
        self.push(name, b.ns_per_op(batch), "ns");
    }

    /// As [`Figures::time_ns`], for operations that take milliseconds.
    pub fn time_ms(&mut self, b: &mut Bencher<'_>, name: &str, batch: impl FnMut() -> u64) {
        self.push(name, b.ns_per_op(batch) / 1e6, "ms");
    }

    /// A time figure in nanoseconds, whatever unit it is reported in.
    pub fn ns(&self, name: &str) -> f64 {
        let scale = match self.0.iter().find(|m| m.name == name) {
            Some(m) if m.unit == "ms" => 1e6,
            Some(m) if m.unit == "us" => 1e3,
            _ => 1.0,
        };
        self.get(name) * scale
    }
}

/// How often the engine enters each layer per replayed call, counted from
/// the trace: pair groups per call decide how often candidates are
/// enumerated, scored, pruned and a bandit is built.
pub struct Multiplicity {
    pub groups_per_call: f64,
    pub windows: u64,
}

pub fn multiplicity(trace: &Trace) -> Multiplicity {
    let mut groups: BTreeSet<(u64, KeyPair)> = BTreeSet::new();
    let mut windows = BTreeSet::new();
    for r in &trace.records {
        let w = WindowLen::DAY.window_of(r.t).index;
        windows.insert(w);
        groups.insert((w, KeyPair::new(r.src_as.0, r.dst_as.0)));
    }
    Multiplicity {
        groups_per_call: groups.len() as f64 / trace.len().max(1) as f64,
        windows: windows.len() as u64,
    }
}

/// The world every workload generates at set-up.
fn world_generate(b: &mut Bencher<'_>, f: &mut Figures) {
    f.time_ms(b, "netsim.world_generate_ms", || {
        black_box(World::generate(&WorldConfig::paper_scale(), WORLD_SEED));
        1
    });
}

/// Realizes `call` over `option` as the replay engine does: one generator
/// per (call, option), access extras applied to the sampled path.
fn realize(
    world: &World,
    call: &CallRecord,
    option: RelayOption,
    sample: &mut SampleScratch,
) -> PathMetrics {
    let mut rng = StdRng::seed_from_u64(u64::from(call.id.0));
    let path = world.perf().sample_option_scratch(
        call.src_as,
        call.dst_as,
        option,
        call.t,
        &mut rng,
        sample,
    );
    call.access_extra.apply(&path)
}

/// The first two days of a replay workload's own calls, each with the
/// option the strategy gave it and the metrics it realized. Day 0 trains
/// what the selection layers learn from, day 1 supplies the per-call inputs.
struct TwoDays<'a> {
    records: &'a [CallRecord],
    decided: Vec<(RelayOption, PathMetrics)>,
    train: std::ops::Range<usize>,
    live: std::ops::Range<usize>,
}

impl<'a> TwoDays<'a> {
    fn new(records: &'a [CallRecord], decided: Vec<(RelayOption, PathMetrics)>) -> Res<Self> {
        let day = |d: u64| {
            let lo = records.partition_point(|r| r.t.day() < d);
            let hi = records.partition_point(|r| r.t.day() <= d);
            lo..hi
        };
        let (train, live) = (day(0), day(1));
        if train.is_empty() || live.is_empty() || decided.len() < live.end {
            return Err("layer inputs need two days of calls with their outcomes".into());
        }
        Ok(TwoDays {
            records,
            decided,
            train,
            live,
        })
    }

    fn pair(&self, i: usize) -> KeyPair {
        let r = &self.records[i];
        KeyPair::new(r.src_as.0, r.dst_as.0)
    }
}

/// Layers a replay workload enters, on its own calls. Every replay workload
/// pays for netsim realization, quality and obs, and for the world and the
/// trace generator at set-up; the streamed one also for the trace plane;
/// the two that select relays also for history, predictor, tomography, topk
/// and bandit, and the multipath one for budget and media. `outcome` is the
/// workload's own last round.
pub fn replay_layers(
    b: &mut Bencher<'_>,
    bench: &ReplayBench,
    outcome: &Outcome,
    dir: &Path,
    f: &mut Figures,
) -> Res<()> {
    let world = &bench.world;

    // ---- set-up: the world and the trace, generated as set-up does --------
    world_generate(b, f);
    let generator = TraceGenerator::new(world, bench.workload.trace_config(), bench.seed);
    f.time_ns(b, "trace.generate_ns_per_record", || match &bench.trace {
        Some(_) => black_box(generator.generate()).len() as u64,
        None => generator.stream().count() as u64,
    });

    // ---- the calls: the trace and the last round's outcomes, or the first
    // two days of the file, which `Default` sends direct --------------------
    let from_file;
    let days = match (&bench.trace, &bench.vbt) {
        (Some(trace), _) => {
            if outcome.calls.len() != trace.len() {
                return Err("layer inputs need a round with per-call outcomes".into());
            }
            let decided = outcome
                .calls
                .iter()
                .map(|c| (c.option, c.metrics))
                .collect();
            TwoDays::new(&trace.records, decided)?
        }
        (None, Some(file)) => {
            let mut source = FileSource::open(file.path())?;
            let mut records = Vec::new();
            while let Some(r) = source.next_record()? {
                if r.t.day() > 1 {
                    break;
                }
                records.push(r);
            }
            from_file = records;
            let mut sample = SampleScratch::new();
            let decided = from_file
                .iter()
                .map(|c| {
                    let direct = RelayOption::Direct;
                    (direct, realize(world, c, direct, &mut sample))
                })
                .collect();
            TwoDays::new(&from_file, decided)?
        }
        (None, None) => return Err("replay bench has neither a trace nor a file".into()),
    };

    // ---- netsim: realization ---------------------------------------------
    let mut sample = SampleScratch::new();
    f.time_ns(b, "netsim.sample_option_ns", || {
        for i in days.live.clone() {
            black_box(realize(
                world,
                &days.records[i],
                days.decided[i].0,
                &mut sample,
            ));
        }
        days.live.len() as u64
    });

    if let Some(file) = &bench.vbt {
        let bytes = std::fs::metadata(file.path())?.len();
        f.push(
            "trace.bytes_per_record",
            bytes as f64 / bench.records.max(1) as f64,
            "B",
        );
        trace_layers(b, &days, bench.seed, dir, f)?;
    }
    if bench.workload != Workload::StreamDefaultVbt {
        selection_layers(b, bench, &days, f);
    }

    // ---- quality / obs ---------------------------------------------------
    let live = days.live.clone();
    f.time_ns(b, "quality.mos_ns", || {
        for i in live.clone() {
            black_box(via_quality::mos(&days.decided[i].1));
        }
        live.len() as u64
    });
    let mut schema = HotSchema::new();
    let counter = schema.counter("benchmark_calls_total");
    let histogram = schema.histogram("benchmark_rtt_ms", via_obs::LATENCY_MS);
    let mut sink = schema.make_sink();
    f.time_ns(b, "obs.hot_inc_ns", || {
        for _ in live.clone() {
            black_box(&mut sink).inc(counter, 1);
        }
        live.len() as u64
    });
    f.time_ns(b, "obs.hot_observe_ns", || {
        for i in live.clone() {
            black_box(&mut sink).observe(histogram, days.decided[i].1.rtt_ms);
        }
        live.len() as u64
    });
    Ok(())
}

/// The trace plane of the streamed workload, on two days of its records:
/// the `.vbt` writer (set-up), the decoder and the window framing.
fn trace_layers(
    b: &mut Bencher<'_>,
    days: &TwoDays<'_>,
    seed: u64,
    dir: &Path,
    f: &mut Figures,
) -> Res<()> {
    let trace = Trace::new(seed, 2, days.records[..days.live.end].to_vec());
    let file = TempFile::new(dir, "layers.vbt")?;
    let mut io_fault = None;
    f.time_ns(b, "trace.vbt_write_ns_per_record", || {
        if let Err(e) = via_trace::binfmt::write_binary(&trace, file.path()) {
            io_fault = Some(e.to_string());
        }
        trace.len() as u64
    });
    f.time_ns(b, "trace.vbt_decode_ns_per_record", || {
        let mut n = 0;
        match FileSource::open(file.path()) {
            Ok(mut source) => {
                while let Ok(Some(r)) = source.next_record() {
                    black_box(&r);
                    n += 1;
                }
            }
            Err(e) => io_fault = Some(e.to_string()),
        }
        if n != trace.len() as u64 {
            io_fault.get_or_insert(format!("decoded {n} of {} records", trace.len()));
        }
        n.max(1)
    });
    f.time_ns(b, "trace.window_frame_ns_per_record", || {
        let mut stream = WindowStream::new(TraceRecords::new(&trace), WindowLen::DAY);
        while let Ok(Some(batch)) = stream.next_batch() {
            black_box(batch.records.len());
            stream.recycle(batch);
        }
        stream.records_yielded().max(1)
    });
    match io_fault {
        Some(fault) => Err(format!("trace layer: {fault}").into()),
        None => Ok(()),
    }
}

/// The layers that select a relay, as `replay-via` and
/// `replay-multipath-budget` enter them: candidate enumeration, history,
/// predictor, tomography, top-k and the bandit; with `choose` for the one
/// and `choose_set`, the budget gate and the receiver-side merge for the
/// other.
fn selection_layers(b: &mut Bencher<'_>, bench: &ReplayBench, days: &TwoDays<'_>, f: &mut Figures) {
    let world = &bench.world;
    let multipath = bench.workload == Workload::ReplayMultipathBudget;
    let (train, live) = (days.train.clone(), days.live.clone());
    let w0 = WindowLen::DAY.window_of(SimTime::ZERO);

    // ---- netsim: candidate enumeration, once per pair --------------------
    let pairs: Vec<(AsId, AsId)> = {
        let mut seen = BTreeSet::new();
        days.records[live.clone()]
            .iter()
            .filter(|r| seen.insert(KeyPair::new(r.src_as.0, r.dst_as.0)))
            .map(|r| (r.src_as, r.dst_as))
            .collect()
    };
    let mut scratch = CandidateScratch::default();
    let mut options = Vec::new();
    f.time_ns(b, "netsim.candidates_ns", || {
        for &(src, dst) in &pairs {
            world.candidate_options_into(src, dst, &mut scratch, &mut options);
            black_box(&options);
        }
        pairs.len() as u64
    });
    let candidate_sets: Vec<Vec<RelayOption>> = pairs
        .iter()
        .map(|&(src, dst)| world.candidate_options(src, dst))
        .collect();
    let n_candidates: usize = candidate_sets.iter().map(Vec::len).sum();
    f.push(
        "netsim.candidates_per_call",
        n_candidates as f64 / pairs.len() as f64,
        "count",
    );

    // ---- history / predictor / tomography --------------------------------
    let build_history = || {
        let mut h = CallHistory::new();
        for i in train.clone() {
            let (option, metrics) = &days.decided[i];
            h.record(w0, days.pair(i), *option, metrics);
        }
        h
    };
    f.time_ns(b, "history.record_ns", || {
        black_box(build_history());
        train.len() as u64
    });
    let history = build_history();
    let (prior, backbone) = predictor_inputs(world);
    let cfg = PredictorConfig::default();
    let fit = || Predictor::fit(&history, w0, prior.clone(), boxed(&backbone), cfg);
    f.time_ms(b, "predictor.fit_ms_per_window", || {
        black_box(fit());
        1
    });
    f.time_ms(b, "tomography.fit_ms_per_window", || {
        black_box(Tomography::fit(
            &history,
            w0,
            backbone.as_ref(),
            &cfg.tomography,
        ));
        1
    });
    let predictor = fit();
    f.push(
        "predictor.cells",
        predictor.empirical_cells() as f64,
        "count",
    );
    f.push(
        "tomography.segments",
        predictor.tomography_segments() as f64,
        "count",
    );
    f.time_ns(b, "predictor.predict_ns", || {
        for (&(src, dst), set) in pairs.iter().zip(&candidate_sets) {
            for &option in set {
                black_box(predictor.predict(src.0, dst.0, option));
            }
        }
        n_candidates as u64
    });

    // ---- topk / bandit ---------------------------------------------------
    let scored: Vec<Vec<ScoredOption>> = pairs
        .iter()
        .zip(&candidate_sets)
        .map(|(&(src, dst), set)| {
            set.iter()
                .map(|&o| {
                    ScoredOption::from_prediction(
                        o,
                        &predictor.predict(src.0, dst.0, o),
                        NetMetric::Rtt,
                    )
                })
                .collect()
        })
        .collect();
    let (mut order, mut selected) = (Vec::new(), Vec::new());
    f.time_ns(b, "topk.ns_per_call", || {
        for set in &scored {
            top_k_into(set, &mut order, &mut selected);
            black_box(&selected);
        }
        scored.len() as u64
    });
    let kept: Vec<Vec<ScoredOption>> = scored
        .iter()
        .map(|set| {
            top_k_into(set, &mut order, &mut selected);
            selected.clone()
        })
        .collect();
    let n_kept: usize = kept.iter().map(Vec::len).sum();
    f.push(
        "topk.kept_per_call",
        n_kept as f64 / kept.len() as f64,
        "count",
    );
    let build = |set: &[ScoredOption]| {
        // Algorithm 3 line 3, as the engine and the server build it.
        let w = set.iter().map(|s| s.upper).sum::<f64>() / set.len().max(1) as f64;
        UcbBandit::with_priors(set.iter().map(|s| (s.option, s.mean)), w, 3)
    };
    f.time_ns(b, "bandit.build_ns", || {
        for set in &kept {
            black_box(build(set));
        }
        kept.len() as u64
    });
    let mut bandits: Vec<UcbBandit> = kept.iter().map(|set| build(set)).collect();
    if multipath {
        let mut set_out = Vec::new();
        f.time_ns(b, "bandit.choose_set_ns", || {
            for bandit in &bandits {
                bandit.choose_set(MULTIPATH_K, &mut set_out);
                black_box(&set_out);
            }
            bandits.len() as u64
        });
    } else {
        f.time_ns(b, "bandit.choose_ns", || {
            for bandit in &bandits {
                black_box(bandit.choose());
            }
            bandits.len() as u64
        });
    }
    let slot_of: BTreeMap<KeyPair, usize> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| (KeyPair::new(s.0, d.0), i))
        .collect();
    // Each live call feeds its realized cost back to its pair's bandit; a
    // call whose option the pruning dropped updates nothing, as in the engine.
    let feedback: Vec<(usize, RelayOption, f64)> = live
        .clone()
        .map(|i| {
            let (option, metrics) = &days.decided[i];
            (slot_of[&days.pair(i)], *option, metrics.rtt_ms)
        })
        .collect();
    f.time_ns(b, "bandit.update_ns", || {
        for &(slot, option, cost) in &feedback {
            bandits[slot].update(option, cost);
        }
        feedback.len() as u64
    });
    if !multipath {
        return;
    }

    // ---- budget / media: the gate pass and the merge of an admitted call --
    let benefit_of_pair: Vec<f64> = scored
        .iter()
        .zip(&kept)
        .map(|(all, kept)| {
            let direct = all
                .iter()
                .find(|s| s.option == RelayOption::Direct)
                .map_or(f64::INFINITY, |s| s.mean);
            direct - kept.first().map_or(direct, |s| s.mean)
        })
        .collect();
    let benefits: Vec<f64> = live
        .clone()
        .map(|i| benefit_of_pair[slot_of[&days.pair(i)]])
        .filter(|b| b.is_finite())
        .collect();
    let mut admitted = 0u64;
    f.time_ns(b, "budget.admit_cost_ns", || {
        let mut gate = BudgetGate::new(BUDGET);
        admitted = 0;
        for &benefit in &benefits {
            admitted += u64::from(gate.admit_cost(benefit, MULTIPATH_K as u64));
        }
        benefits.len() as u64
    });
    f.push(
        "budget.admit_rate",
        admitted as f64 / benefits.len().max(1) as f64,
        "frac",
    );
    let mut merge = MergeScratch::default();
    f.time_ns(b, "media.simulate_set_ns", || {
        for i in live.clone() {
            let specs = [
                PathSpec::alive(days.decided[i].1, 1),
                PathSpec::alive(days.records[i].direct_metrics, 2),
            ];
            black_box(simulate_set(
                &specs,
                MergeMode::Duplicate,
                &MULTIPATH_MERGE,
                u64::from(days.records[i].id.0),
                &mut merge,
            ));
        }
        live.len() as u64
    });
}

/// Layers of the live plane: protocol framing, direct controller calls on
/// the pool with the workload's clock, the live budget gate and the bare
/// transport; and the world its set-up generates.
pub fn server_layers(
    b: &mut Bencher<'_>,
    world: &World,
    pool: &[PoolCall],
    seed: u64,
    f: &mut Figures,
) -> Res<()> {
    world_generate(b, f);

    // ---- protocol: the frames of a select round trip, request and reply ---
    let sample = &pool[..pool.len().min(4096)];
    let select = |i: usize, call: &PoolCall| Request::Select {
        session: 1,
        call_id: i as u64,
        t: SimTime(i as u64),
        src_key: call.src_key,
        dst_key: call.dst_key,
        candidates: call.candidates().to_vec(),
    };
    let reply = |call: &PoolCall| Response::Selected {
        option: call.candidates[call.n - 1],
        admitted: true,
        explored: false,
        window: 0,
    };
    let requests: Vec<Request> = sample
        .iter()
        .enumerate()
        .map(|(i, c)| select(i, c))
        .collect();
    let replies: Vec<Response> = sample.iter().map(reply).collect();
    let mut wire = Vec::new();
    let mut fault = None;
    f.time_ns(b, "protocol.write_frame_ns", || {
        for (req, resp) in requests.iter().zip(&replies) {
            wire.clear();
            if let Err(e) = write_frame(&mut wire, req).and_then(|()| write_frame(&mut wire, resp))
            {
                fault = Some(e.to_string());
            }
            black_box(&wire);
        }
        2 * requests.len() as u64
    });
    let framed: Vec<Vec<u8>> = requests
        .iter()
        .zip(&replies)
        .map(|(req, resp)| {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, req)?;
            write_frame(&mut bytes, resp)?;
            Ok(bytes)
        })
        .collect::<Res<_>>()?;
    f.time_ns(b, "protocol.read_frame_ns", || {
        for bytes in &framed {
            let mut cursor = Cursor::new(bytes.as_slice());
            let req = read_frame::<Request>(&mut cursor);
            let resp = read_frame::<Response>(&mut cursor);
            if req.is_err() || resp.is_err() {
                fault = Some("a frame the codec wrote did not read back".into());
            }
            black_box((req.ok(), resp.ok()));
        }
        2 * framed.len() as u64
    });
    let mean_bytes = |lens: Vec<usize>| lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    let select_bytes = mean_bytes(requests.iter().map(frame_bytes).collect::<Res<_>>()?);
    let reply_bytes = mean_bytes(replies.iter().map(frame_bytes).collect::<Res<_>>()?);
    f.push("protocol.select_frame_bytes", select_bytes, "B");
    let reports = sample.iter().enumerate().map(|(i, call)| {
        frame_bytes(&Request::Report {
            session: 1,
            t: SimTime(i as u64),
            src_key: call.src_key,
            dst_key: call.dst_key,
            option: call.candidates[call.n - 1],
            metrics: call.realized[call.n - 1],
        })
    });
    f.push(
        "protocol.report_frame_bytes",
        mean_bytes(reports.collect::<Res<_>>()?),
        "B",
    );
    if let Some(fault) = fault {
        return Err(format!("protocol layer: {fault}").into());
    }

    // ---- server: direct controller calls, the workload's clock -----------
    // Ten windows of 3 600 one-second calls, every fourth reporting, then
    // the select that crosses into the next window and pays the rollover.
    let ctrl = controller(world, seed);
    let (windows, mut selects, mut reports) = (10u64, 0u64, 0u64);
    let (mut select_s, mut report_s) = (0.0f64, 0.0f64);
    let mut rollover_s = Vec::new();
    let ((), round) = b.once(|| {
        for call_no in 0..windows * SERVER_WINDOW_SECS + 1 {
            let call = &pool[(call_no % pool.len() as u64) as usize];
            let t = SimTime(call_no);
            let start = Instant::now();
            let sel = ctrl.select(call_no, t, call.src_key, call.dst_key, call.candidates());
            let took = start.elapsed().as_secs_f64();
            if call_no > 0 && call_no.is_multiple_of(SERVER_WINDOW_SECS) {
                rollover_s.push(took);
            } else {
                select_s += took;
                selects += 1;
            }
            if call_no.is_multiple_of(REPORT_EVERY) {
                if let Some(m) = call.realized_for(sel.option) {
                    let start = Instant::now();
                    ctrl.report(t, call.src_key, call.dst_key, sel.option, &m);
                    report_s += start.elapsed().as_secs_f64();
                    reports += 1;
                }
            }
        }
    });
    // Sub-intervals were read off the wall clock inside one bracketed run;
    // the bracket's host speed converts them all.
    let to_ref = NOMINAL_REF_S / round.bracket_s();
    f.push(
        "server.select_ns",
        select_s / selects as f64 * to_ref * 1e9,
        "ns",
    );
    f.push(
        "server.report_ns",
        report_s / reports as f64 * to_ref * 1e9,
        "ns",
    );
    f.push(
        "server.rollover_ms",
        median(&mut rollover_s) * to_ref * 1e3,
        "ms",
    );
    if ctrl.refit_epoch() != windows {
        return Err(format!(
            "{} rollovers over {windows} windows of direct calls",
            ctrl.refit_epoch()
        )
        .into());
    }

    // ---- budget: the live gate, asked once per select --------------------
    let benefits: Vec<f64> = pool
        .iter()
        .filter_map(|call| {
            let direct = call.realized_for(RelayOption::Direct)?.rtt_ms;
            let best = call.realized[..call.n]
                .iter()
                .map(|m| m.rtt_ms)
                .fold(direct, f64::min);
            Some(direct - best)
        })
        .collect();
    f.time_ns(b, "budget.admit_ns", || {
        let mut gate = BudgetGate::new(BUDGET);
        for &benefit in &benefits {
            black_box(gate.admit(benefit));
        }
        benefits.len().max(1) as u64
    });

    // ---- the transport floor: a bare echo of same-size messages ----------
    let (req_len, resp_len) = (select_bytes.round() as usize, reply_bytes.round() as usize);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut req = vec![0u8; req_len];
        let resp = vec![0u8; resp_len];
        // Ends when the client closes its side.
        while stream.read_exact(&mut req).is_ok() {
            stream.write_all(&resp)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let req = vec![0u8; req_len];
    let mut resp = vec![0u8; resp_len];
    let mut echo_fault = None;
    let echo_ns = b.ns_per_op(|| {
        for _ in 0..256 {
            if let Err(e) = stream
                .write_all(&req)
                .and_then(|()| stream.read_exact(&mut resp))
            {
                echo_fault = Some(e.to_string());
            }
        }
        256
    });
    drop(stream);
    match echo.join() {
        Ok(result) => result?,
        Err(_) => return Err("echo thread panicked".into()),
    }
    if let Some(fault) = echo_fault {
        return Err(format!("loopback echo: {fault}").into());
    }
    f.push("server.loopback_echo_ns", echo_ns, "ns");
    Ok(())
}

fn frame_bytes<T: serde::Serialize>(msg: &T) -> Res<usize> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, msg)?;
    Ok(bytes.len())
}

/// Context switches of every thread of this process, voluntary and not.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// TCP segments this network namespace has sent (`OutSegs`).
pub fn tcp_segments_out() -> u64 {
    let Ok(snmp) = std::fs::read_to_string("/proc/net/snmp") else {
        return 0;
    };
    let mut rows = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(names), Some(values)) = (rows.next(), rows.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(name, _)| *name == "OutSegs")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// User and system CPU time of this process so far, in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line.
    let mut fields = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(11);
    let mut next = || fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    (next(), next())
}

#[cfg(test)]
mod tests {
    /// The engine keeps its multipath merge settings private; if they change
    /// there, `media.simulate_set_ns` must change with them.
    #[test]
    fn the_merge_settings_priced_here_are_the_engines() {
        let engine = include_str!("../../crates/via-core/src/replay.rs");
        let at = engine
            .find("const MULTIPATH_MERGE: MergeConfig = MergeConfig {")
            .expect("the engine declares MULTIPATH_MERGE");
        let block: String = engine[at..]
            .chars()
            .take_while(|&c| c != ';')
            .filter(|c| !c.is_whitespace())
            .collect();
        assert!(
            block.ends_with("{frames:16,burst_len:6.0,delay_rho:0.5,death_prob:0.01,}"),
            "the engine now merges with {block}"
        );
    }
}
