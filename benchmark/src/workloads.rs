//! The four workloads: what each sets up, what one fixed-work round does,
//! and what a round must produce to count as correct.
//!
//! All of them run on one world, generated from [`WORLD_SEED`]; `--seed`
//! draws the calls. The world is the environment (the Internet the calls
//! cross), the calls are the load: redrawing the world per seed moved
//! `pnr_any` by ±7 % and hid any change smaller than that, redrawing only the
//! calls moves it by ±1 %.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use via_core::predictor::GeoPrior;
use via_core::replay::{Outcome, ReplayConfig, ReplaySim, SpatialGranularity};
use via_core::strategy::{MultipathMode, StrategyKind};
use via_core::BackboneFn;
use via_model::ids::RelayId;
use via_model::metrics::{PathMetrics, Thresholds};
use via_model::options::RelayOption;
use via_model::seed;
use via_model::time::{SimTime, WindowLen};
use via_netsim::{World, WorldConfig};
use via_server::{Client, Controller, ServerConfig, ServerHandle};
use via_trace::binfmt::BinWriter;
use via_trace::stream::FileSource;
use via_trace::{Trace, TraceConfig, TraceGenerator};

use crate::refclock::percentile;
use crate::span::{SpanId, SpanLog};
use crate::Res;

/// Seed of the one world every workload runs on.
pub const WORLD_SEED: u64 = 7;

/// Budget of the two budgeted workloads, as a fraction of traffic.
pub const BUDGET: f64 = 0.3;
/// Paths per call of `replay-multipath-budget`.
pub const MULTIPATH_K: usize = 2;

/// Calls in the server's pre-drawn pool.
pub const POOL_CALLS: usize = 65_536;
/// Candidates offered per pooled call.
pub const POOL_CANDIDATES: usize = 10;
/// Calls per `server-socket` round.
pub const SERVER_ROUND_CALLS: u64 = 20_000;
/// One call in this many also reports its outcome.
pub const REPORT_EVERY: u64 = 4;
/// The server's control window; the sim clock advances one second per call,
/// so a round of 20 000 calls crosses five or six rollovers.
pub const SERVER_WINDOW_SECS: u64 = 3_600;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayVia,
    ReplayMultipathBudget,
    StreamDefaultVbt,
    ServerSocket,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReplayVia,
        Workload::ReplayMultipathBudget,
        Workload::StreamDefaultVbt,
        Workload::ServerSocket,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayVia => "replay-via",
            Workload::ReplayMultipathBudget => "replay-multipath-budget",
            Workload::StreamDefaultVbt => "stream-default-vbt",
            Workload::ServerSocket => "server-socket",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one round takes in reference seconds on the host the bounds were
    /// measured on; `--seconds` is turned into a fixed number of rounds with
    /// it, so `attempted` and every count repeat exactly.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::ReplayVia => 0.60,
            Workload::ReplayMultipathBudget => 0.65,
            Workload::StreamDefaultVbt => 0.50,
            Workload::ServerSocket => 0.37,
        }
    }

    pub fn trace_config(self) -> TraceConfig {
        let (calls_per_day, days) = match self {
            Workload::StreamDefaultVbt => (40_000, 14),
            _ => (12_000, 7),
        };
        TraceConfig {
            calls_per_day,
            days,
            ..TraceConfig::paper_scale()
        }
    }

    fn strategy(self) -> StrategyKind {
        match self {
            Workload::ReplayVia => StrategyKind::Via,
            Workload::ReplayMultipathBudget => StrategyKind::Multipath {
                k: MULTIPATH_K,
                mode: MultipathMode::Duplicate,
                budget: BUDGET,
            },
            Workload::StreamDefaultVbt | Workload::ServerSocket => StrategyKind::Default,
        }
    }
}

/// What one round did, as far as every workload can say it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOut {
    /// Calls attempted.
    pub calls: u64,
    /// Calls that failed or were refused.
    pub failed: u64,
    /// Calls whose realized RTT, loss or jitter is over the paper's
    /// thresholds, of the calls as decided.
    pub poor: u64,
    /// Digest over every call outcome of the round, for workloads whose
    /// rounds must all produce the same outcome.
    pub digest: Option<u64>,
    /// Median and 99th percentile of the round's own service-time samples,
    /// wall-clock microseconds. `None` when the round has no per-call
    /// samples; its one sample is then the round's time ÷ calls.
    pub rtt_us: Option<(f64, f64)>,
}

/// A file under the benchmark's `out/` directory, removed when dropped —
/// also when a failed run unwinds or returns early.
pub struct TempFile(PathBuf);

impl TempFile {
    pub fn new(dir: &Path, name: &str) -> Res<TempFile> {
        std::fs::create_dir_all(dir)?;
        Ok(TempFile(
            dir.join(format!("tmp-{}-{name}", std::process::id())),
        ))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        // Nothing to do about a failure here, and Drop must not panic.
        let _ = std::fs::remove_file(&self.0);
    }
}

pub fn world(spans: &mut SpanLog, parent: Option<SpanId>) -> World {
    spans.scope("netsim.world_generate", parent, |_, _| {
        World::generate(&WorldConfig::paper_scale(), WORLD_SEED)
    })
}

// ---------------------------------------------------------------- replay --

/// Set-up state of one of the three replay workloads.
pub struct ReplayBench {
    pub workload: Workload,
    pub world: World,
    /// The materialized trace; `None` for the streamed workload.
    pub trace: Option<Trace>,
    /// The `.vbt` file of the streamed workload.
    pub vbt: Option<TempFile>,
    /// Records in the trace, materialized or written.
    pub records: u64,
    pub strategy: StrategyKind,
    pub cfg: ReplayConfig,
    pub seed: u64,
}

impl ReplayBench {
    /// Generates the world and the trace; the streamed workload writes the
    /// trace to a `.vbt` file under `dir` as it is generated, one day
    /// resident, and never materializes it.
    pub fn setup(
        workload: Workload,
        seed: u64,
        dir: &Path,
        spans: &mut SpanLog,
        parent: Option<SpanId>,
    ) -> Res<ReplayBench> {
        let world = world(spans, parent);
        let generator = TraceGenerator::new(&world, workload.trace_config(), seed);
        let streamed = workload == Workload::StreamDefaultVbt;
        let (trace, vbt, records) = if streamed {
            let file = TempFile::new(dir, "trace.vbt")?;
            let records = spans.scope("trace.generate+vbt_write", parent, |_, _| -> Res<u64> {
                let mut source = generator.stream();
                let mut writer =
                    BinWriter::create(file.path(), seed, source.days(), WindowLen::DAY)?;
                while let Some(record) = source.next_record() {
                    writer.push(&record)?;
                }
                Ok(writer.finish()?)
            })?;
            (None, Some(file), records)
        } else {
            let trace = spans.scope("trace.generate", parent, |_, _| generator.generate());
            let records = trace.len() as u64;
            (Some(trace), None, records)
        };
        let cfg = ReplayConfig {
            workers: 1,
            collect_calls: !streamed,
            ..ReplayConfig::default()
        };
        Ok(ReplayBench {
            workload,
            world,
            trace,
            vbt,
            records,
            strategy: workload.strategy(),
            cfg,
            seed,
        })
    }

    /// One replay of the whole trace under `strategy` and `cfg`.
    pub fn replay(
        &self,
        strategy: StrategyKind,
        cfg: ReplayConfig,
        spans: &mut SpanLog,
        parent: Option<SpanId>,
    ) -> Res<Outcome> {
        match (&self.trace, &self.vbt) {
            (Some(trace), _) => Ok(spans.scope("replay.run", parent, |_, _| {
                ReplaySim::new(&self.world, trace, cfg).run(strategy)
            })),
            (None, Some(file)) => {
                let source =
                    spans.scope("trace.open", parent, |_, _| FileSource::open(file.path()))?;
                Ok(spans.scope("replay.run_stream", parent, |_, _| {
                    ReplaySim::streaming(&self.world, cfg).run_stream(source, strategy)
                })?)
            }
            (None, None) => Err("replay bench has neither a trace nor a file".into()),
        }
    }

    /// One round: the workload's own replay. Returns the outcome too, for
    /// the traced run's per-phase figures.
    pub fn round(&self, spans: &mut SpanLog, parent: Option<SpanId>) -> Res<(RoundOut, Outcome)> {
        let outcome = self.replay(self.strategy, self.cfg.clone(), spans, parent)?;
        let agg = &outcome.aggregate;
        let out = RoundOut {
            calls: agg.calls,
            failed: 0,
            poor: agg.poor_any,
            digest: Some(agg.digest),
            rtt_us: None,
        };
        Ok((out, outcome))
    }

    /// Checks one round's outcome against what the workload promises; runs
    /// after the measured rounds and after peak memory was read, because the
    /// streamed workload's check materializes the trace it never held.
    pub fn check(&self, round: &RoundOut, outcome: &Outcome) -> Res<Vec<String>> {
        let mut faults = Vec::new();
        let mut quiet = SpanLog::new(String::new(), false);
        if round.calls != self.records {
            faults.push(format!(
                "replayed {} calls of {} records",
                round.calls, self.records
            ));
        }
        match self.workload {
            Workload::ReplayVia => {
                let default =
                    self.replay(StrategyKind::Default, self.cfg.clone(), &mut quiet, None)?;
                if round.poor >= default.aggregate.poor_any {
                    faults.push(format!(
                        "via left {} calls poor, the default strategy {}",
                        round.poor, default.aggregate.poor_any
                    ));
                }
            }
            Workload::ReplayMultipathBudget => {
                let charged = MULTIPATH_K as f64 * outcome.aggregate.relayed_fraction();
                if charged > BUDGET {
                    faults.push(format!(
                        "relayed traffic charged {MULTIPATH_K}x is {charged:.4} of calls, over the {BUDGET} budget"
                    ));
                }
            }
            Workload::StreamDefaultVbt => {
                let trace =
                    TraceGenerator::new(&self.world, self.workload.trace_config(), self.seed)
                        .generate();
                if trace.len() as u64 != self.records {
                    faults.push(format!(
                        "wrote {} records of a {}-record trace",
                        self.records,
                        trace.len()
                    ));
                }
                let materialized =
                    ReplaySim::new(&self.world, &trace, self.cfg.clone()).run(self.strategy);
                if materialized.aggregate.digest != outcome.aggregate.digest {
                    faults.push(format!(
                        "streamed digest {:#018x} differs from the materialized run's {:#018x}",
                        outcome.aggregate.digest, materialized.aggregate.digest
                    ));
                }
            }
            Workload::ServerSocket => faults.push("not a replay workload".into()),
        }
        Ok(faults)
    }
}

// ---------------------------------------------------------------- server --

/// One pre-drawn call: who calls whom, the options offered, and what each
/// option would deliver if taken.
pub struct PoolCall {
    pub src_key: u32,
    pub dst_key: u32,
    pub n: usize,
    pub candidates: [RelayOption; POOL_CANDIDATES],
    pub realized: [PathMetrics; POOL_CANDIDATES],
}

impl PoolCall {
    pub fn candidates(&self) -> &[RelayOption] {
        &self.candidates[..self.n]
    }

    pub fn realized_for(&self, option: RelayOption) -> Option<PathMetrics> {
        let at = self.candidates().iter().position(|&c| c == option)?;
        Some(self.realized[at])
    }
}

/// Draws the pool: calls from the trace generator (so pairs repeat as they
/// do in a trace), keyed by AS, each with its first ten candidate options
/// and one realization per option.
pub fn draw_pool(world: &World, seed: u64) -> Vec<PoolCall> {
    let cfg = TraceConfig {
        calls_per_day: POOL_CALLS,
        days: 1,
        ..TraceConfig::paper_scale()
    };
    let generator = TraceGenerator::new(world, cfg, seed);
    let realize_base = seed::derive(seed, "pool-realize");
    let mut scratch = via_netsim::CandidateScratch::default();
    let mut sample = via_netsim::SampleScratch::new();
    let mut options = Vec::new();
    generator
        .stream()
        .take(POOL_CALLS)
        .map(|call| {
            world.candidate_options_into(call.src_as, call.dst_as, &mut scratch, &mut options);
            let n = options.len().min(POOL_CANDIDATES);
            let mut candidates = [RelayOption::Direct; POOL_CANDIDATES];
            let mut realized = [PathMetrics::ZERO; POOL_CANDIDATES];
            for (i, &option) in options[..n].iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed::derive_indexed_from(
                    realize_base,
                    (u64::from(call.id.0) << 34) ^ option.stable_code(),
                ));
                let path = world.perf().sample_option_scratch(
                    call.src_as,
                    call.dst_as,
                    option,
                    call.t,
                    &mut rng,
                    &mut sample,
                );
                candidates[i] = option;
                realized[i] = call.access_extra.apply(&path);
            }
            PoolCall {
                src_key: call.src_as.0,
                dst_key: call.dst_as.0,
                n,
                candidates,
                realized,
            }
        })
        .collect()
}

/// The controller's static knowledge, built as the replay engine builds
/// it: AS-granularity geographic prior and the precomputed backbone legs.
pub fn predictor_inputs(world: &World) -> (GeoPrior, BackboneFn) {
    let prior = GeoPrior::new(
        SpatialGranularity::As.key_positions(world),
        world.relays.iter().map(|r| r.pos).collect(),
    );
    let n = world.relays.len();
    let legs: Vec<PathMetrics> = (0..n * n)
        .map(|ij| {
            world
                .perf()
                .backbone_metrics(RelayId((ij / n) as u32), RelayId((ij % n) as u32))
        })
        .collect();
    let backbone: BackboneFn =
        Arc::new(move |a: RelayId, b: RelayId| legs[a.index() * n + b.index()]);
    (prior, backbone)
}

/// A live controller configured as the workload runs it.
pub fn controller(world: &World, seed: u64) -> Arc<Controller> {
    let (prior, backbone) = predictor_inputs(world);
    let cfg = ServerConfig {
        seed,
        window: WindowLen::hours(SERVER_WINDOW_SECS / 3_600),
        epsilon: 0.05,
        budget: Some(BUDGET),
        shards: 8,
        ..ServerConfig::default()
    };
    Arc::new(Controller::new(cfg, prior, backbone))
}

/// Set-up state of `server-socket`: the pool, a controller serving on
/// loopback, and one connected client.
pub struct ServerBench {
    pub world: World,
    pub pool: Vec<PoolCall>,
    handle: Option<ServerHandle>,
    client: Option<Client>,
    /// Calls issued so far; also the sim clock in seconds.
    pub issued: u64,
    thresholds: Thresholds,
    /// What replies got wrong so far.
    pub faults: Vec<String>,
}

impl ServerBench {
    pub fn setup(seed: u64, spans: &mut SpanLog, parent: Option<SpanId>) -> Res<ServerBench> {
        let world = world(spans, parent);
        let pool = spans.scope("server.draw_pool", parent, |_, _| draw_pool(&world, seed));
        let (handle, client) = spans.scope("server.serve+connect", parent, |_, _| -> Res<_> {
            let handle = via_server::serve(controller(&world, seed))?;
            let client = Client::connect(handle.addr(), Duration::from_secs(10))?;
            Ok((handle, client))
        })?;
        Ok(ServerBench {
            world,
            pool,
            handle: Some(handle),
            client: Some(client),
            issued: 0,
            thresholds: Thresholds::default(),
            faults: Vec::new(),
        })
    }

    pub fn controller(&self) -> Option<&Arc<Controller>> {
        self.handle.as_ref().map(ServerHandle::controller)
    }

    /// One round: [`SERVER_ROUND_CALLS`] calls, closed loop, one client.
    /// Each call is a `select`; one in [`REPORT_EVERY`] then reports the
    /// pre-drawn metrics of the option it was given. One select in
    /// [`SPAN_SAMPLE`] gets a span of its own when spans are on.
    pub fn round(&mut self, spans: &mut SpanLog, parent: Option<SpanId>) -> Res<RoundOut> {
        let client = self.client.as_mut().ok_or("server bench is shut down")?;
        let mut rtts_us = Vec::with_capacity(SERVER_ROUND_CALLS as usize);
        let (mut failed, mut poor) = (0u64, 0u64);
        for _ in 0..SERVER_ROUND_CALLS {
            let call_no = self.issued;
            self.issued += 1;
            let call = &self.pool[(call_no % self.pool.len() as u64) as usize];
            let t = SimTime(call_no);
            let window = call_no / SERVER_WINDOW_SECS;
            let span = if call_no.is_multiple_of(SPAN_SAMPLE) {
                spans.enter("client.select", parent)
            } else {
                None
            };
            let start = Instant::now();
            let reply = client.select(call_no, t, call.src_key, call.dst_key, call.candidates());
            rtts_us.push(start.elapsed().as_secs_f64() * 1e6);
            spans.exit(span);
            let selection = match reply {
                Ok(selection) => selection,
                Err(e) => {
                    failed += 1;
                    self.faults.push(format!("select {call_no}: {e}"));
                    continue;
                }
            };
            let Some(metrics) = call.realized_for(selection.option) else {
                failed += 1;
                self.faults.push(format!(
                    "select {call_no}: {:?} is not among the candidates",
                    selection.option
                ));
                continue;
            };
            if selection.window != window {
                self.faults.push(format!(
                    "select {call_no}: decided in window {}, the clock says {window}",
                    selection.window
                ));
            }
            poor += u64::from(self.thresholds.any_poor(&metrics));
            if call_no.is_multiple_of(REPORT_EVERY) {
                let span = if call_no.is_multiple_of(SPAN_SAMPLE) {
                    spans.enter("client.report", parent)
                } else {
                    None
                };
                let filed = client.report(t, call.src_key, call.dst_key, selection.option, metrics);
                spans.exit(span);
                match filed {
                    Ok(w) if w == window => {}
                    Ok(w) => self.faults.push(format!(
                        "report {call_no}: filed under window {w}, the clock says {window}"
                    )),
                    Err(e) => {
                        failed += 1;
                        self.faults.push(format!("report {call_no}: {e}"));
                    }
                }
            }
        }
        Ok(RoundOut {
            calls: SERVER_ROUND_CALLS,
            failed,
            poor,
            digest: None,
            rtt_us: Some((
                percentile(&mut rtts_us, 0.5),
                percentile(&mut rtts_us, 0.99),
            )),
        })
    }

    /// Rollovers the controller performed against the count the sim clock
    /// implies, and anything a reply got wrong along the way.
    pub fn check(&self) -> Vec<String> {
        let mut faults = self.faults.clone();
        faults.truncate(20);
        if let Some(controller) = self.controller() {
            let implied = self.issued.saturating_sub(1) / SERVER_WINDOW_SECS;
            let rolled = controller.refit_epoch();
            if rolled != implied {
                faults.push(format!(
                    "{rolled} rollovers after {} one-second calls, the clock implies {implied}",
                    self.issued
                ));
            }
        }
        faults
    }

    /// Asks the server to stop and waits until its threads have ended.
    pub fn shutdown(&mut self) -> Res<()> {
        if let Some(client) = self.client.take() {
            client.shutdown()?;
        }
        if let Some(handle) = self.handle.take() {
            handle.wait();
        }
        Ok(())
    }
}

impl Drop for ServerBench {
    fn drop(&mut self) {
        // A run that failed half-way still has to stop the server's threads.
        self.client = None;
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
    }
}

/// One select in this many gets its own span in a traced round.
pub const SPAN_SAMPLE: u64 = 64;
