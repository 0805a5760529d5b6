//! Chronological trace replay — the evaluation methodology of §5.1, run on a
//! deterministic window-parallel engine.
//!
//! Calls are replayed in trace order. Each strategy decides a relaying option
//! per call; the realized performance is drawn from the ground-truth model
//! for that (pair, option, instant) — the in-model equivalent of the paper's
//! "randomly sampled call from the same AS pair through the same relay option
//! in the same 24-hour window". Three details matter:
//!
//! * **Common random numbers** — the realization RNG is seeded by
//!   `(replay seed, call id, option)` so every strategy evaluating the same
//!   call over the same option observes the same value. Strategy comparisons
//!   are therefore paired, eliminating sampling noise from the deltas.
//! * **Information hygiene** — learning strategies only ever see realized
//!   samples of calls they actually carried (fed back into the window's
//!   history cells); only the oracle touches `option_mean`.
//! * **Worker-count invariance** — within a control window, calls are
//!   sharded by decision [`KeyPair`] across a worker pool; the predictor
//!   refit at each window boundary is the barrier. All per-call randomness
//!   is derived from the call's trace index (never from a shared stream), a
//!   pair's entire state lives on exactly one shard, and per-shard results
//!   are merged back in trace order — so the outcome is a pure function of
//!   the config, byte-identical for any worker count.
//!
//! The replay also implements the sensitivity axes of Figure 17: spatial
//! decision granularity, control-period length `T`, and relay-fleet
//! restriction.

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use via_media::merge::MergeConfig;
use via_model::ids::{AsId, RelayId};
use via_model::metrics::Metric;
use via_model::options::RelayOption;
use via_model::seed;
use via_model::table::Table;
use via_model::time::{SimTime, Window, WindowLen};
use via_netsim::World;
use via_obs::{MetricSink, Stopwatch};
use via_trace::stream::{RecordSource, WindowBatch, WindowStream};
use via_trace::{CallRecord, Trace, TraceError};

use crate::history::KeyPair;
use crate::online::{BackboneFn, Trained};
use crate::predictor::{GeoPrior, Predictor};
use crate::selector::{GateState, PairArms, Plan, Selector};
use crate::strategy::StrategyKind;

mod aggregate;
mod shard;
mod stats;

pub use aggregate::{CallOutcome, ReplayAggregate};
use shard::{PairGroup, WindowCtx, WindowGroups, WorkerSlot};
pub use stats::{Outcome, ReplayStats};

/// Spatial granularity at which selection decisions are keyed (Figure 17a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpatialGranularity {
    /// One decision key per country.
    Country,
    /// One key per AS — the paper's default sweet spot.
    As,
    /// Finer than AS: each AS splits into `buckets` client buckets,
    /// emulating /20- or /24-prefix granularity (sparser data per key).
    SubAs {
        /// Buckets per AS.
        buckets: u8,
    },
}

impl SpatialGranularity {
    /// Key of one call endpoint under this granularity.
    pub fn key_of(&self, world: &World, as_id: AsId, client: u32) -> u32 {
        match *self {
            SpatialGranularity::Country => world.ases[as_id.index()].country.0,
            SpatialGranularity::As => as_id.0,
            SpatialGranularity::SubAs { buckets } => {
                as_id.0 * u32::from(buckets) + client % u32::from(buckets)
            }
        }
    }

    /// Representative positions per key, for the predictor's geographic
    /// prior.
    pub fn key_positions(&self, world: &World) -> Vec<via_netsim::GeoPoint> {
        match *self {
            SpatialGranularity::Country => world.countries.iter().map(|c| c.pos).collect(),
            SpatialGranularity::As => world.ases.iter().map(|a| a.pos).collect(),
            SpatialGranularity::SubAs { buckets } => world
                .ases
                .iter()
                .flat_map(|a| std::iter::repeat_n(a.pos, usize::from(buckets)))
                .collect(),
        }
    }

    /// The controller's static knowledge of `world` (§3.2): the geographic
    /// prior over this granularity's keys, and the inter-relay backbone
    /// tabulated once. Both planes' predictors start from these.
    pub fn controller_inputs(&self, world: &World) -> (GeoPrior, BackboneFn) {
        let relays = &world.relays;
        let prior = GeoPrior::new(
            self.key_positions(world),
            relays.iter().map(|r| r.pos).collect(),
        );
        let table = Table::from_fn(relays.len(), relays.len(), |i, j| {
            world.perf().backbone_metrics(relays[i].id, relays[j].id)
        });
        let backbone: BackboneFn =
            std::sync::Arc::new(move |a: RelayId, b: RelayId| table[(a.index(), b.index())]);
        (prior, backbone)
    }
}

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Control-period length `T` (stages 2–3 of Algorithm 1 refresh per
    /// window; Figure 17b sweeps this).
    pub window: WindowLen,
    /// The network metric being optimized (the paper optimizes each metric
    /// individually; run one replay per metric).
    pub objective: Metric,
    /// ε for general exploration (fraction of calls sent to a uniformly
    /// random option outside the bandit).
    pub epsilon: f64,
    /// Spatial decision granularity.
    pub granularity: SpatialGranularity,
    /// If set, only these relays exist (Figure 17c relay ablation).
    pub allowed_relays: Option<Vec<RelayId>>,
    /// If false, transit (two-relay) options are excluded — the §5.2
    /// "bouncing only" comparison.
    pub allow_transit: bool,
    /// Active probes issued per control window (§7 "Active Measurements"):
    /// before each window's predictor refresh, the controller makes this
    /// many mock calls targeting tomography holes and folds the results into
    /// the training data. Zero (the paper's deployed system) disables it.
    pub active_probes_per_window: usize,
    /// Worker threads for the window-parallel engine: each window's calls
    /// are sharded by decision [`KeyPair`] across this many threads; the
    /// per-window predictor refit between them runs on one. `0` means
    /// one worker per available core. Results are byte-identical for any
    /// value — the engine guarantees worker-count invariance.
    pub workers: usize,
    /// Record observability metrics (via-obs counters, histograms, and
    /// per-window span events) into [`Outcome::obs`]. Each worker records
    /// into its own [`MetricSink`], merged at the window barrier in
    /// shard-index order, so the snapshot's deterministic core is
    /// byte-identical for any worker count. Off by default: the hot path
    /// then records nothing.
    pub metrics: bool,
    /// Materialize per-call outcomes into [`Outcome::calls`]. On by default.
    /// Paper-scale streamed runs turn this off: hundreds of millions of
    /// [`CallOutcome`]s would defeat bounded-memory replay, and every
    /// population summary is carried by [`Outcome::aggregate`] instead
    /// (computed identically either way).
    pub collect_calls: bool,
    /// Base seed for realization sampling and exploration randomness.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            window: WindowLen::DAY,
            objective: Metric::Rtt,
            epsilon: 0.03,
            granularity: SpatialGranularity::As,
            allowed_relays: None,
            allow_transit: true,
            active_probes_per_window: 0,
            workers: 0,
            metrics: false,
            collect_calls: true,
            seed: 0xC0FFEE,
        }
    }
}

/// Merge-model tunables for multipath replay. 16 frames keeps per-call
/// packet synthesis inside the replay-engine bench gate (multipath must stay
/// within 2.5× the singlepath per-call cost) while still exercising dedup,
/// reordering, and head-of-line waits; the small drawn-death probability
/// surfaces mid-call failover at replay scale without dominating quality.
const MULTIPATH_MERGE: MergeConfig = MergeConfig {
    frames: 16,
    burst_len: 6.0,
    delay_rho: 0.5,
    death_prob: 0.01,
};

/// Slot indices of the per-call hot-path metrics, registered once per run.
/// Recording through these is a plain indexed `u64` bump (counters) or a
/// LUT-bucketed record (histograms) — no name lookups, no test of the
/// metrics flag at the call site: a run without metrics gives its shards
/// [`via_obs::HotSink`]s with no slots, which drop every record.
struct HotIds {
    schema: via_obs::HotSchema,
    calls: usize,
    opt_direct: usize,
    opt_bounce: usize,
    opt_transit: usize,
    oracle_evals: usize,
    explore_epsilon: usize,
    bandit_pulls: usize,
    cache_hits: usize,
    cache_misses: usize,
    race_probes: usize,
    multipath_extra_paths: usize,
    multipath_dedup_drops: usize,
    multipath_failovers: usize,
    rtt: usize,
    mos_delta: usize,
    regret: usize,
    ci_width: usize,
}

impl HotIds {
    fn new() -> HotIds {
        let mut schema = via_obs::HotSchema::new();
        HotIds {
            calls: schema.counter("replay_calls_total"),
            opt_direct: schema.counter("replay_option_direct_total"),
            opt_bounce: schema.counter("replay_option_bounce_total"),
            opt_transit: schema.counter("replay_option_transit_total"),
            oracle_evals: schema.counter("replay_oracle_evals_total"),
            explore_epsilon: schema.counter("replay_explore_epsilon_total"),
            bandit_pulls: schema.counter("replay_bandit_pulls_total"),
            cache_hits: schema.counter("replay_cache_hits_total"),
            cache_misses: schema.counter("replay_cache_misses_total"),
            race_probes: schema.counter("replay_race_probes_total"),
            multipath_extra_paths: schema.counter("replay_multipath_extra_paths_total"),
            multipath_dedup_drops: schema.counter("replay_multipath_dedup_drops_total"),
            multipath_failovers: schema.counter("replay_multipath_failovers_total"),
            rtt: schema.histogram("replay_call_rtt_ms", via_obs::LATENCY_MS),
            mos_delta: schema.histogram("replay_mos_delta", via_obs::MOS_DELTA),
            regret: schema.histogram("replay_bandit_regret", via_obs::REGRET),
            ci_width: schema.histogram("replay_predictor_ci_width", via_obs::CI_WIDTH),
            schema,
        }
    }
}

/// All mutable engine state that survives across window barriers: built by
/// `engine_start`, advanced by `engine_window` once per control window, and
/// folded into an [`Outcome`] by `engine_finish`. The materialized
/// [`ReplaySim::run`] and the streamed [`ReplaySim::run_stream`] drivers
/// share this state machine verbatim — that shared core is what makes their
/// results byte-identical.
struct EngineState {
    t_run: Stopwatch,
    /// Sequential-side metric sink; workers get their own (merged at the
    /// barrier). None when metrics are off, so the hot path records nothing.
    obs: Option<MetricSink>,
    workers: usize,
    /// The last window replayed, its cells as its shards handed them back:
    /// all the controller ever trains on. The next barrier fits from them in
    /// place.
    trained: Trained,
    predictor: Option<Predictor>,
    /// The strategy, resolved once per run.
    plan: Plan,
    gate: GateState,
    /// §7 client-side decision cache: pair → (option, expiry). Persists
    /// across windows; a window's groups start from it and the barrier
    /// writes back what their misses made of it.
    decision_cache: HashMap<KeyPair, (RelayOption, SimTime)>,
    controller_contacts: u64,
    /// §7 hybrid racing overhead: parallel setup probes issued.
    race_probes: u64,
    /// Demand observed in the current window: key pair → exemplar AS
    /// endpoints (used by the active-measurement planner at the next window
    /// boundary).
    demands: HashMap<KeyPair, (AsId, AsId)>,
    stats: ReplayStats,
    /// Fixed per-worker slots: hot metric sinks plus scoring/sampling
    /// scratch, allocated once and reused by every window's fork–join (slot
    /// i always serves shard i).
    hot_ids: HotIds,
    worker_slots: Vec<WorkerSlot>,
    /// The current window's pair groups, gate verdicts and trace-order
    /// outcomes: refilled every window, sized by one.
    grouped: WindowGroups,
    gate_flags: Vec<bool>,
    window_out: Vec<Option<CallOutcome>>,
    /// Per-call outcomes, populated only when `collect_calls` is on.
    outcomes: Vec<CallOutcome>,
    /// Running trace-order aggregate — always populated.
    aggregate: ReplayAggregate,
    /// Built once per run: the controller's static knowledge (geography and
    /// inter-relay metrics) does not change across windows.
    prior: GeoPrior,
    backbone: BackboneFn,
}

/// The replay simulator.
pub struct ReplaySim<'a> {
    world: &'a World,
    /// The materialized trace, present for [`ReplaySim::new`] construction;
    /// `None` for [`ReplaySim::streaming`], where records arrive through a
    /// [`RecordSource`] instead.
    trace: Option<&'a Trace>,
    cfg: ReplayConfig,
    /// Hoisted `seed::derive(cfg.seed, "realize")`: the label fold costs one
    /// mix round per byte and the realization stream is derived per call ×
    /// option, so the base is computed once here and mixed with
    /// [`seed::derive_indexed_from`] on the hot path (bit-identical seeds).
    realize_base: u64,
}

impl<'a> ReplaySim<'a> {
    /// Creates a simulator over a world and its materialized trace.
    pub fn new(world: &'a World, trace: &'a Trace, cfg: ReplayConfig) -> Self {
        // The verdict is cached on the trace (one O(n) scan per trace, not
        // per run); the streamed path validates incrementally instead.
        debug_assert!(
            trace.is_chronological(),
            "replay requires a chronological trace"
        );
        Self {
            trace: Some(trace),
            ..Self::streaming(world, cfg)
        }
    }

    /// Creates a simulator for source-backed replay ([`ReplaySim::run_stream`]):
    /// no materialized trace exists, records arrive window by window.
    pub fn streaming(world: &'a World, cfg: ReplayConfig) -> Self {
        let realize_base = seed::derive(cfg.seed, "realize");
        Self {
            world,
            trace: None,
            cfg,
            realize_base,
        }
    }

    /// The replay configuration.
    pub fn config(&self) -> &ReplayConfig {
        &self.cfg
    }

    /// Fills `opts` with the candidate options for an AS pair, honoring the
    /// relay-fleet restriction and the transit toggle, without allocating
    /// (beyond the buffers' first growth). The one enumerator: every consumer
    /// — shard loop, gate pass, oracle, active probes — reads
    /// `opts` after calling this.
    fn candidates_into(
        &self,
        src: AsId,
        dst: AsId,
        topo: &mut via_netsim::CandidateScratch,
        opts: &mut Vec<RelayOption>,
    ) {
        self.world.candidate_options_into(src, dst, topo, opts);
        if !self.cfg.allow_transit {
            opts.retain(|o| !o.is_transit());
        }
        if let Some(allowed) = &self.cfg.allowed_relays {
            opts.retain(|o| match *o {
                RelayOption::Direct => true,
                RelayOption::Bounce(r) => allowed.contains(&r),
                RelayOption::Transit(a, b) => allowed.contains(&a) && allowed.contains(&b),
            });
            if opts.is_empty() {
                opts.push(RelayOption::Direct);
            }
        }
    }

    /// Builds the engine state shared by both replay drivers — everything
    /// the per-run setup does before the first window.
    fn engine_start(&self, kind: StrategyKind) -> EngineState {
        // Wall-clock (via the via-obs facade) feeds ReplayStats and the obs
        // timing layer only — both excluded from serialized summaries.
        let t_run = Stopwatch::started();
        let obs: Option<MetricSink> = self.cfg.metrics.then(MetricSink::with_timing);
        let workers = crate::par::resolve_workers(self.cfg.workers);
        let plan = Plan::from(kind);
        let stats = ReplayStats {
            workers,
            shard_calls: vec![0; workers],
            ..ReplayStats::default()
        };
        let hot_ids = HotIds::new();
        let worker_slots: Vec<WorkerSlot> = (0..workers)
            .map(|_| {
                let cfg = &self.cfg;
                let selector = Selector::new(plan, cfg.objective, cfg.epsilon, cfg.seed);
                WorkerSlot::new(&hot_ids, self.cfg.metrics, selector)
            })
            .collect();
        let (prior, backbone) = self.cfg.granularity.controller_inputs(self.world);
        EngineState {
            t_run,
            obs,
            workers,
            trained: Trained::default(),
            predictor: None,
            plan,
            gate: GateState::new(&plan),
            decision_cache: HashMap::new(),
            controller_contacts: 0,
            race_probes: 0,
            demands: HashMap::new(),
            stats,
            hot_ids,
            worker_slots,
            grouped: WindowGroups::default(),
            gate_flags: Vec::new(),
            window_out: Vec::new(),
            outcomes: Vec::new(),
            aggregate: ReplayAggregate::default(),
            prior,
            backbone,
        }
    }

    /// Runs one strategy over the whole materialized trace.
    ///
    /// # Panics
    /// If the simulator was built with [`ReplaySim::streaming`] — streamed
    /// sims replay through [`ReplaySim::run_stream`].
    pub fn run(&mut self, kind: StrategyKind) -> Outcome {
        let Some(trace) = self.trace else {
            panic!("ReplaySim::run needs a materialized trace; use run_stream on a streaming sim")
        };
        let mut st = self.engine_start(kind);
        if self.cfg.collect_calls {
            st.outcomes.reserve(trace.len());
        }
        let records = &trace.records;
        let n = records.len();
        let mut start = 0usize;
        while start < n {
            // ---- window boundary: the barrier ------------------------------
            let window = self.cfg.window.window_of(records[start].t);
            let mut end = start + 1;
            while end < n && self.cfg.window.window_of(records[end].t) == window {
                end += 1;
            }
            self.engine_window(&mut st, window, &records[start..end]);
            start = end;
        }
        self.engine_finish(st, kind)
    }

    /// Streamed replay: records arrive from a [`RecordSource`], re-windowed
    /// by a [`WindowStream`] on a producer thread that prefetches the next
    /// window while the engine replays the current one (spent batch buffers
    /// are recycled back to the producer). One window is resident in the
    /// engine while a bounded handful more sit in the prefetch queue, so
    /// peak memory is independent of trace length. Results are
    /// byte-identical to [`ReplaySim::run`] over the materialized
    /// equivalent, at every worker count.
    ///
    /// # Errors
    /// Any decode or chronology error surfaced by the source, or a record
    /// that fails [`CallRecord::check`] against the world; the engine stops
    /// at the first bad window.
    pub fn run_stream<S>(&self, source: S, kind: StrategyKind) -> Result<Outcome, TraceError>
    where
        S: RecordSource + Send,
    {
        let mut st = self.engine_start(kind);
        if self.cfg.collect_calls {
            if let Some(n) = source.size_hint() {
                st.outcomes.reserve(usize::try_from(n).unwrap_or(0));
            }
        }
        let (days, world) = (source.days(), self.world);
        let mut stream = WindowStream::new(source, self.cfg.window);
        let bytes = std::thread::scope(|scope| -> Result<u64, TraceError> {
            // Bounded prefetch: at most two windows queued ahead of the one
            // being replayed. The recycle channel hands spent batch buffers
            // back to the producer for reuse.
            let (tx, rx) = std::sync::mpsc::sync_channel::<Result<WindowBatch, TraceError>>(2);
            let (recycle_tx, recycle_rx) = std::sync::mpsc::channel::<WindowBatch>();
            let producer = scope.spawn(move || {
                loop {
                    // Every record passes `CallRecord::check` against the
                    // world before the engine sees it, as its window is
                    // framed: a trace of another world is a typed error,
                    // never an index out of range. Checking the framed batch
                    // measured cheaper than a checking source under the
                    // framing, which moved every record once more.
                    let next = stream.next_batch().and_then(|batch| {
                        for (i, r) in batch.iter().flat_map(|b| (b.base..).zip(&b.records)) {
                            r.check(i, days, Some(world))?;
                        }
                        Ok(batch)
                    });
                    match next {
                        Ok(Some(batch)) => {
                            if tx.send(Ok(batch)).is_err() {
                                break; // consumer bailed on an earlier error
                            }
                            while let Ok(spent) = recycle_rx.try_recv() {
                                stream.recycle(spent);
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            break;
                        }
                    }
                }
                stream
            });
            let mut first_err = None;
            for item in rx {
                match item {
                    Ok(batch) => {
                        self.engine_window(&mut st, batch.window, &batch.records);
                        let _ = recycle_tx.send(batch);
                    }
                    Err(e) => {
                        first_err = Some(e);
                        break;
                    }
                }
            }
            drop(recycle_tx);
            let stream = match producer.join() {
                Ok(s) => s,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            match first_err {
                Some(e) => Err(e),
                None => Ok(stream.source().bytes_read()),
            }
        })?;
        st.stats.bytes_decoded = bytes;
        Ok(self.engine_finish(st, kind))
    }

    /// Advances the engine by one control window. `batch` holds the window's
    /// calls in chronological order; every index inside is batch-relative, so
    /// the caller may hand over a slice of a materialized trace or a streamed
    /// batch interchangeably.
    fn engine_window(&self, st: &mut EngineState, window: Window, batch: &[CallRecord]) {
        let EngineState {
            obs,
            workers,
            trained,
            predictor,
            plan,
            gate,
            decision_cache,
            controller_contacts,
            race_probes,
            demands,
            stats,
            hot_ids,
            worker_slots,
            grouped,
            gate_flags,
            window_out,
            outcomes,
            aggregate,
            prior,
            backbone,
            ..
        } = st;
        let workers = *workers;
        let plan: &Plan = plan;
        let hot_ids: &HotIds = hot_ids;
        stats.windows += 1;
        let t_window = Stopwatch::started();

        if plan.learns() {
            let t_fit = Stopwatch::started();
            let fits_before = stats.predictor_fits;
            // The controller only ever trains on the window before this one:
            // across an idle gap the cells at hand are older, and it trains on
            // nothing.
            let mut fitted = trained.fit(window, prior.clone(), backbone);
            stats.predictor_fits += 1;

            // §7 active measurements: probe tomography holes for the
            // pairs that carried traffic last window, fold the mock
            // calls into the training window, and refit.
            if self.cfg.active_probes_per_window > 0 && window.prev().is_some() {
                let scratch = &mut worker_slots[0].scratch;
                let mut demand_list: Vec<(KeyPair, Vec<RelayOption>)> = demands
                    .iter()
                    .map(|(&pair, &(sa, sb))| {
                        self.candidates_into(sa, sb, &mut scratch.topo, &mut scratch.cand);
                        (pair, scratch.cand.clone())
                    })
                    .collect();
                demand_list.sort_by_key(|d| d.0);
                let plan = crate::active::plan_probes(
                    &demand_list,
                    &fitted,
                    self.cfg.active_probes_per_window,
                );
                if !plan.is_empty() {
                    let mut probe_rng = StdRng::seed_from_u64(seed::derive_indexed(
                        self.cfg.seed,
                        "active-probes",
                        window.index,
                    ));
                    for probe in plan {
                        let Some(&(sa, sb)) = demands.get(&probe.pair) else {
                            continue;
                        };
                        let m = self.world.perf().sample_option(
                            sa,
                            sb,
                            probe.option,
                            window.start(),
                            &mut probe_rng,
                        );
                        // A mock call is recorded as a real one of the
                        // window before would have been.
                        trained.record(probe.pair, probe.option, &m);
                    }
                    fitted = trained.fit(window, prior.clone(), backbone);
                    stats.predictor_fits += 1;
                }
            }
            demands.clear();
            *predictor = Some(fitted);
            stats.predictor_fit_ms += t_fit.elapsed_ms();
            if let Some(sink) = obs.as_mut() {
                let fits = stats.predictor_fits - fits_before;
                sink.inc("replay_predictor_fits_total", fits);
                let (cells, segs) = predictor.as_ref().map_or((0, 0), |p| {
                    (p.empirical_cells() as u64, p.tomography_segments() as u64)
                });
                sink.span(
                    "replay.refit",
                    window.index,
                    &[
                        ("fits", fits),
                        ("history_cells", cells),
                        ("tomography_segments", segs),
                    ],
                );
                sink.time("replay.refit", t_fit);
            }
        }

        // ---- group the window's calls by decision key ------------------
        // A plan that keeps no per-pair state has no decision key: its shards
        // take contiguous runs and read the batch in trace order, where the
        // pair walk jumps around it. With metrics on it keeps the pair walk,
        // because the snapshot counts pair groups.
        if plan.keeps_pair_state() || self.cfg.metrics {
            let granularity = self.cfg.granularity;
            grouped.regroup(batch.iter().map(|call| {
                KeyPair::new(
                    granularity.key_of(self.world, call.src_as, call.caller.0),
                    granularity.key_of(self.world, call.dst_as, call.callee.0),
                )
            }));
        } else {
            grouped.chunk(batch.len(), workers);
        }
        let nshards = workers.min(grouped.groups.len()).max(1);
        grouped.assign_shards(nshards);
        let (groups, call_idx) = (&mut grouped.groups, grouped.call_idx.as_slice());
        for g in groups.iter_mut() {
            g.cached = decision_cache.get(&g.pair).copied();
        }

        // ---- budget gate pass (sequential, O(1) per call) --------------
        // The gate is global sequential state, but a call's predicted
        // benefit is fixed per (pair, window) — it never depends on how
        // the bandit evolves within the window. So the states are built
        // in parallel, the gate walks the window in trace order once,
        // and the per-call verdicts ride into the shards as plain flags.
        let t_gate = Stopwatch::started();
        let gated: Option<&[bool]> = match predictor.as_ref() {
            Some(pred) if !gate.is_open() => {
                // One contiguous chunk of groups per worker, each built
                // through that worker's own scratch; a pair's arms are a pure
                // function of (predictor, group), so the chunking never
                // shows in the result.
                let chunk = groups.len().div_ceil(workers).max(1);
                let tasks: Vec<&mut [PairGroup]> = groups.chunks_mut(chunk).collect();
                crate::par::par_run_with(workers, tasks, worker_slots, |chunk, slot| {
                    for g in chunk {
                        if let Some(&i) = call_idx.get(g.start) {
                            // A gated plan never decides a lone call alone.
                            let arms =
                                self.build_arms(pred, hot_ids, g.pair, false, &batch[i], slot);
                            g.state = Some(arms);
                        }
                    }
                });
                gate_flags.clear();
                gate_flags.extend(grouped.group_of_call.iter().map(|&g| {
                    let benefit = groups[g].state.as_ref().map_or(0.0, PairArms::benefit);
                    !gate.admit(benefit)
                }));
                Some(gate_flags.as_slice())
            }
            _ => None,
        };
        stats.gate_ms += t_gate.elapsed_ms();
        // Gate verdicts are produced by the sequential pass above, so
        // the admit/deny counts are worker-count invariant by
        // construction (flags[i] == true means "forced direct").
        let (gate_admitted, gate_denied) = gated.map_or((0, 0), |flags| {
            let denied = flags.iter().filter(|f| **f).count() as u64;
            (flags.len() as u64 - denied, denied)
        });
        if let Some(sink) = obs.as_mut() {
            if gated.is_some() {
                sink.inc("replay_gate_admitted_total", gate_admitted);
                sink.inc("replay_gate_denied_total", gate_denied);
            }
            sink.time("replay.gate", t_gate);
        }
        let n_groups = groups.len() as u64;

        // ---- parallel shard processing ---------------------------------
        // A pair's whole state lives in its group, and a group runs on one
        // shard: each shard borrows its own groups, in batch order.
        let mut tasks: Vec<Vec<&mut PairGroup>> = (0..nshards).map(|_| Vec::new()).collect();
        for g in groups.iter_mut() {
            tasks[g.shard].push(g);
        }
        let ctx = WindowCtx {
            plan,
            window,
            predictor: predictor.as_ref(),
            gated,
            batch,
            call_idx,
            ids: hot_ids,
        };
        let t_shard = Stopwatch::started();
        crate::par::par_run_with(workers, tasks, worker_slots, |task, slot| {
            self.process_shard(&ctx, task, slot);
        });
        stats.shard_ms += t_shard.elapsed_ms();

        // ---- deterministic merge back into trace order -----------------
        let t_merge = Stopwatch::started();
        window_out.clear();
        window_out.resize(batch.len(), None);
        let closing = trained.close(window);
        for (shard_idx, slot) in worker_slots.iter_mut().enumerate() {
            let res = &mut slot.out;
            stats.shard_calls[shard_idx] += res.outcomes.len() as u64;
            // Fold the shard's hot sink first (fixed shard-index order;
            // the deterministic core is order-independent anyway), then
            // reset it for the next window.
            if let Some(sink) = obs.as_mut() {
                sink.fold_hot(&hot_ids.schema, &slot.hot);
                slot.hot.clear();
            }
            for (i, co) in res.outcomes.drain(..) {
                window_out[i] = Some(co);
            }
            // A pair lives on one shard, so the shards' cells are disjoint:
            // the training window is their concatenation.
            closing.append(&mut res.history);
            *controller_contacts += std::mem::take(&mut res.contacts);
            *race_probes += std::mem::take(&mut res.race_probes);
        }
        // What a group leaves for later windows is read off the groups: the
        // §7 decision-cache entry its misses rewrote (entries exist only
        // under a caching plan) and, for the active-measurement planner, its
        // demand exemplar — the pair's first call's AS endpoints.
        decision_cache.extend(groups.iter().filter_map(|g| Some((g.pair, g.cached?))));
        if plan.learns() && self.cfg.active_probes_per_window > 0 {
            demands.extend(groups.iter().filter_map(|g| {
                let first = &batch[*call_idx.get(g.start)?];
                Some((g.pair, (first.src_as, first.dst_as)))
            }));
        }
        stats.merge_ms += t_merge.elapsed_ms();
        // Fold the window's outcomes into the running aggregate in trace
        // order (the digest is order-sensitive); materialize them only
        // when the config asks for per-call outcomes.
        let mut filled = 0usize;
        for co in window_out.iter().flatten() {
            aggregate.update(co);
            if self.cfg.collect_calls {
                outcomes.push(*co);
            }
            filled += 1;
        }
        assert_eq!(
            filled,
            batch.len(),
            "every call in the window must yield exactly one outcome"
        );
        if let Some(sink) = obs.as_mut() {
            sink.inc("replay_windows_total", 1);
            sink.inc("replay_pair_groups_total", n_groups);
            sink.time("replay.shard", t_shard);
            sink.time("replay.merge", t_merge);
            sink.span(
                "replay.window",
                window.index,
                &[
                    ("calls", batch.len() as u64),
                    ("pairs", n_groups),
                    ("gate_admitted", gate_admitted),
                    ("gate_denied", gate_denied),
                ],
            );
            sink.time("replay.window", t_window);
        }
    }

    /// Folds the engine state into the run's [`Outcome`].
    fn engine_finish(&self, st: EngineState, kind: StrategyKind) -> Outcome {
        let EngineState {
            t_run,
            obs,
            plan,
            mut stats,
            outcomes,
            aggregate,
            controller_contacts,
            race_probes,
            ..
        } = st;
        stats.wall_ms = t_run.elapsed_ms();
        stats.calls_per_sec = if stats.wall_ms > 0.0 {
            aggregate.calls as f64 / (stats.wall_ms / 1e3)
        } else {
            0.0
        };

        Outcome {
            strategy: kind.name(),
            objective: self.cfg.objective,
            controller_contacts: if plan.cache_ttl_secs.is_some() {
                controller_contacts
            } else {
                aggregate.calls
            },
            race_probes,
            calls: outcomes,
            aggregate,
            stats,
            obs: obs.map(|mut sink| {
                sink.time("replay.run", t_run);
                sink.snapshot()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::MultipathMode;
    use via_netsim::WorldConfig;
    use via_trace::{TraceConfig, TraceGenerator};

    fn setup() -> (World, Trace) {
        let world = World::generate(&WorldConfig::tiny(), 77);
        let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 77).generate();
        (world, trace)
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn default_strategy_stays_direct() {
        let (world, trace) = setup();
        let mut sim = ReplaySim::new(&world, &trace, ReplayConfig::default());
        let out = sim.run(StrategyKind::Default);
        assert_eq!(out.calls.len(), trace.len());
        assert!(out.calls.iter().all(|c| c.option == RelayOption::Direct));
        let (direct, bounce, transit) = out.aggregate.option_mix();
        assert_eq!(direct, 1.0);
        assert_eq!(bounce + transit, 0.0);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn runs_are_deterministic() {
        let (world, trace) = setup();
        let out1 = ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Via);
        let out2 = ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Via);
        assert_eq!(out1.calls, out2.calls);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn same_seed_summaries_are_byte_identical() {
        // Determinism regression: two replays from the same seed must
        // serialize to byte-identical summaries — any hidden nondeterminism
        // (unordered map iteration, wall-clock reads, entropy seeding) shows
        // up here as a diff.
        let (world, trace) = setup();
        let run = || {
            let out =
                ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Via);
            serde_json::to_string(&out).expect("outcome serializes")
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn worker_count_does_not_change_results() {
        // The engine's core guarantee: sharding a window across 2 or 8
        // workers serializes to the same bytes as the sequential walk — for
        // stateless, stateful, budgeted, and cached strategies alike, with
        // segment states built lazily under contention.
        let (world, trace) = setup();
        let summary = |workers: usize, kind: StrategyKind| {
            let cfg = ReplayConfig {
                workers,
                ..ReplayConfig::default()
            };
            let out = ReplaySim::new(&world, &trace, cfg).run(kind);
            serde_json::to_string(&out).expect("outcome serializes")
        };
        for kind in [
            StrategyKind::Via,
            StrategyKind::ViaBudgeted { budget: 0.2 },
            StrategyKind::ViaCached { ttl_hours: 6 },
            StrategyKind::ExplorationOnly,
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
            StrategyKind::Oracle,
        ] {
            let sequential = summary(1, kind);
            for w in [2usize, 8] {
                assert_eq!(
                    summary(w, kind),
                    sequential,
                    "worker count {w} changed results for {kind:?}"
                );
            }
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn metrics_snapshots_are_worker_count_invariant() {
        // Extension of the determinism regression to the obs layer: the
        // serialized deterministic core of the metrics snapshot must be
        // byte-identical across worker counts for every
        // strategy family — the per-worker sinks and the barrier merge must
        // not leak the partition.
        let (world, trace) = setup();
        let snapshot_json = |workers: usize, kind: StrategyKind| {
            let cfg = ReplayConfig {
                workers,
                metrics: true,
                ..ReplayConfig::default()
            };
            let out = ReplaySim::new(&world, &trace, cfg).run(kind);
            let snap = out.obs.expect("metrics enabled");
            assert!(snap.counter("replay_calls_total") == trace.len() as u64);
            serde_json::to_string(&snap).expect("snapshot serializes")
        };
        for kind in [
            StrategyKind::Via,
            StrategyKind::ViaBudgeted { budget: 0.2 },
            StrategyKind::ViaCached { ttl_hours: 6 },
            StrategyKind::HybridRacing { k: 2 },
            StrategyKind::Multipath {
                k: 2,
                mode: MultipathMode::Duplicate,
                budget: 1.0,
            },
            StrategyKind::Oracle,
        ] {
            let sequential = snapshot_json(1, kind);
            for w in [2usize, 8] {
                assert_eq!(
                    snapshot_json(w, kind),
                    sequential,
                    "worker count {w} changed the metrics snapshot for {kind:?}"
                );
            }
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn multipath_k1_duplicate_is_call_identical_to_via() {
        // A one-path "set" must collapse to exactly the singlepath Via run:
        // same decision RNG draws, same realizations, no merge stage, no gate
        // at budget 1.0. Only the strategy display name may differ.
        let (world, trace) = setup();
        let run = |kind: StrategyKind| {
            let cfg = ReplayConfig {
                metrics: true,
                ..ReplayConfig::default()
            };
            ReplaySim::new(&world, &trace, cfg).run(kind)
        };
        let via = run(StrategyKind::Via);
        let mp = run(StrategyKind::Multipath {
            k: 1,
            mode: MultipathMode::Duplicate,
            budget: 1.0,
        });
        let calls = |o: &Outcome| serde_json::to_string(&o.calls).expect("calls serialize");
        let agg = |o: &Outcome| serde_json::to_string(&o.aggregate).expect("aggregate serializes");
        assert_eq!(calls(&via), calls(&mp));
        assert_eq!(agg(&via), agg(&mp));
        // The shared HotSchema registers the multipath counters for every
        // strategy, so the snapshots agree byte-for-byte (all three zero).
        let snap = |o: &Outcome| {
            serde_json::to_string(o.obs.as_ref().expect("metrics enabled"))
                .expect("snapshot serializes")
        };
        assert_eq!(snap(&via), snap(&mp));
        assert_eq!(
            mp.obs
                .as_ref()
                .expect("metrics enabled")
                .counter("replay_multipath_extra_paths_total"),
            0
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn multipath_k2_duplicates_paths_and_budget_gate_charges_k() {
        let (world, trace) = setup();
        let run = |budget: f64| {
            let cfg = ReplayConfig {
                metrics: true,
                ..ReplayConfig::default()
            };
            ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Multipath {
                k: 2,
                mode: MultipathMode::Duplicate,
                budget,
            })
        };
        let open = run(1.0);
        let snap = open.obs.as_ref().expect("metrics enabled");
        let extra = snap.counter("replay_multipath_extra_paths_total");
        assert!(extra > 0, "k=2 duplicate replay never opened a second path");
        assert!(
            snap.counter("replay_multipath_dedup_drops_total") > 0,
            "duplicated media never produced a duplicate copy to drop"
        );

        // Tight budget: duplicate traffic is charged 2x per relayed call, so
        // relayed traffic units stay within budget * total even though each
        // admission covers two paths.
        let tight = run(0.2);
        let direct = |o: &Outcome| {
            o.calls
                .iter()
                .filter(|c| c.option == RelayOption::Direct)
                .count()
        };
        assert!(
            direct(&tight) > direct(&open),
            "a 0.2 budget with 2x-cost admissions must push more calls direct"
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn back_to_back_runs_on_one_sim_report_identical_counters() {
        // Satellite regression: the engine counters must be a pure function
        // of (config, strategy), not of what a previous run left cached in
        // the shared world: the second run finds every segment already built.
        let (world, trace) = setup();
        let cfg = ReplayConfig {
            workers: 2,
            metrics: true,
            ..ReplayConfig::default()
        };
        let mut sim = ReplaySim::new(&world, &trace, cfg);
        let first = sim.run(StrategyKind::Via);
        let second = sim.run(StrategyKind::Via);

        assert_eq!(first.stats.windows, second.stats.windows);
        assert_eq!(first.stats.predictor_fits, second.stats.predictor_fits);
        assert_eq!(first.stats.shard_calls, second.stats.shard_calls);
        // The full deterministic core agrees byte-for-byte too.
        let json = |o: &Outcome| {
            serde_json::to_string(o.obs.as_ref().expect("metrics enabled"))
                .expect("snapshot serializes")
        };
        assert_eq!(json(&first), json(&second));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn metrics_are_opt_in_and_catalogued() {
        let (world, trace) = setup();
        let off = ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Via);
        assert!(off.obs.is_none(), "metrics must be off by default");

        let cfg = ReplayConfig {
            metrics: true,
            ..ReplayConfig::default()
        };
        let out = ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Via);
        let snap = out.obs.expect("metrics enabled");
        let n = trace.len() as u64;
        assert_eq!(snap.counter("replay_calls_total"), n);
        assert_eq!(
            snap.counter("replay_option_direct_total")
                + snap.counter("replay_option_bounce_total")
                + snap.counter("replay_option_transit_total"),
            n,
            "every call contributes to exactly one option-mix counter"
        );
        assert_eq!(
            snap.counter("replay_explore_epsilon_total")
                + snap.counter("replay_bandit_pulls_total"),
            n,
            "every Via call is either an ε-exploration or a bandit pull"
        );
        assert!(snap.counter("replay_windows_total") > 0);
        assert!(snap.counter("replay_predictor_fits_total") > 0);

        let rtt = snap.histogram("replay_call_rtt_ms").expect("rtt histogram");
        assert_eq!(rtt.count, n);
        let mos = snap.histogram("replay_mos_delta").expect("mos histogram");
        assert_eq!(mos.count, n);
        assert!(snap.histogram("replay_predictor_ci_width").is_some());
        assert!(snap.histogram("replay_bandit_regret").is_some());

        // One window span per window, with deterministic fields.
        let windows = snap.counter("replay_windows_total");
        assert_eq!(snap.spans_named("replay.window").count() as u64, windows);
        let total_span_calls: u64 = snap
            .spans_named("replay.window")
            .flat_map(|s| s.fields.iter())
            .filter(|f| f.key == "calls")
            .map(|f| f.value)
            .sum();
        assert_eq!(total_span_calls, n);
        assert_eq!(snap.spans_named("replay.refit").count() as u64, windows);

        // The in-memory timing layer is populated, but never serialized.
        assert!(!snap.timings.is_empty());
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        assert!(
            !json.contains("timing"),
            "timings leaked into the wire form"
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn budget_gate_counters_cover_every_call() {
        let (world, trace) = setup();
        let cfg = ReplayConfig {
            metrics: true,
            ..ReplayConfig::default()
        };
        let out =
            ReplaySim::new(&world, &trace, cfg).run(StrategyKind::ViaBudgeted { budget: 0.2 });
        let snap = out.obs.expect("metrics enabled");
        let gated =
            snap.counter("replay_gate_admitted_total") + snap.counter("replay_gate_denied_total");
        // The gate sees every call in windows where a predictor exists; the
        // cold first window bypasses it.
        assert!(gated > 0 && gated <= trace.len() as u64);
        assert!(
            snap.counter("replay_gate_denied_total") > 0,
            "0.2 budget must deny"
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn stats_track_engine_counters() {
        let (world, trace) = setup();
        let cfg = ReplayConfig {
            workers: 4,
            ..ReplayConfig::default()
        };
        let out = ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Via);
        let s = &out.stats;
        assert_eq!(s.workers, 4);
        assert_eq!(s.shard_calls.len(), 4);
        assert_eq!(
            s.shard_calls.iter().sum::<u64>(),
            trace.len() as u64,
            "every call must be attributed to exactly one shard"
        );
        assert!(s.windows > 0);
        assert!(s.predictor_fits >= s.windows);
        assert!(s.shard_utilization() > 0.0 && s.shard_utilization() <= 1.0);
        assert!(s.summary().contains("4 workers"));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn common_random_numbers_pair_strategies() {
        let (world, trace) = setup();
        let d = ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Default);
        let o = ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Oracle);
        // Wherever the oracle chose Direct, the realized metrics must match
        // the default run exactly (same CRN stream).
        let mut checked = 0;
        for (a, b) in d.calls.iter().zip(&o.calls) {
            if b.option == RelayOption::Direct {
                assert_eq!(a.metrics, b.metrics);
                checked += 1;
            }
        }
        assert!(checked > 0, "oracle should pick direct at least sometimes");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn oracle_beats_default_on_objective() {
        let (world, trace) = setup();
        let cfg = ReplayConfig::default();
        let d = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Default);
        let o = ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Oracle);
        let mean_rtt = |out: &Outcome| {
            out.calls.iter().map(|c| c.metrics.rtt_ms).sum::<f64>() / out.calls.len() as f64
        };
        let (dm, om) = (mean_rtt(&d), mean_rtt(&o));
        assert!(
            om < dm,
            "oracle mean RTT {om:.1} should beat default {dm:.1}"
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn via_lands_between_default_and_oracle() {
        let (world, trace) = setup();
        let cfg = ReplayConfig::default();
        let d = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Default);
        let o = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Oracle);
        let v = ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Via);
        let (dp, op, vp) = (
            d.aggregate.pnr().rtt,
            o.aggregate.pnr().rtt,
            v.aggregate.pnr().rtt,
        );
        assert!(
            op <= vp + 0.02,
            "oracle {op:.3} must lower-bound via {vp:.3}"
        );
        assert!(
            vp < dp,
            "via PNR {vp:.3} should improve on default {dp:.3} (oracle {op:.3})"
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn budget_gate_limits_relayed_fraction() {
        let (world, trace) = setup();
        let cfg = ReplayConfig::default();
        let out =
            ReplaySim::new(&world, &trace, cfg).run(StrategyKind::ViaBudgeted { budget: 0.2 });
        let f = out.aggregate.relayed_fraction();
        // ε-exploration adds a small overshoot on top of the gate.
        assert!(f <= 0.3, "relayed fraction {f} far exceeds budget 0.2");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn relay_restriction_is_honored() {
        let (world, trace) = setup();
        let allowed = vec![RelayId(0), RelayId(1)];
        let cfg = ReplayConfig {
            allowed_relays: Some(allowed.clone()),
            ..ReplayConfig::default()
        };
        let mut sim = ReplaySim::new(&world, &trace, cfg);
        let out = sim.run(StrategyKind::Via);
        for c in &out.calls {
            for r in c.option.relays() {
                assert!(allowed.contains(&r), "used forbidden relay {r}");
            }
        }
        // The kept set is the one `relays()` defines, on every pair of the
        // trace, in enumeration order.
        let mut topo = via_netsim::CandidateScratch::default();
        let mut got = Vec::new();
        let mut dropped = 0;
        for call in &trace.records {
            sim.candidates_into(call.src_as, call.dst_as, &mut topo, &mut got);
            let mut want = world.candidate_options(call.src_as, call.dst_as);
            dropped += want.len();
            want.retain(|o| o.relays().iter().all(|r| allowed.contains(r)));
            dropped -= want.len();
            assert_eq!(got, want, "pair {} -> {}", call.src_as, call.dst_as);
        }
        assert!(dropped > 0, "the restriction removed nothing on this trace");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn granularity_changes_decision_keys() {
        let (world, trace) = setup();
        for g in [
            SpatialGranularity::Country,
            SpatialGranularity::As,
            SpatialGranularity::SubAs { buckets: 4 },
        ] {
            let cfg = ReplayConfig {
                granularity: g,
                ..ReplayConfig::default()
            };
            let out = ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Via);
            assert_eq!(out.calls.len(), trace.len());
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn oracle_respects_decision_granularity() {
        // Regression for the Figure 17a comparison: the oracle must make one
        // decision per granularity key pair per window (like every other
        // strategy), not one per raw AS pair.
        let (world, trace) = setup();
        let cfg = ReplayConfig {
            granularity: SpatialGranularity::Country,
            ..ReplayConfig::default()
        };
        let out = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Oracle);
        // Group outcomes by (country pair, window): each group must use one
        // single option.
        let mut seen: HashMap<(KeyPair, u64), RelayOption> = HashMap::new();
        for c in &out.calls {
            let r = &trace.records[c.call_index as usize];
            let ka = cfg.granularity.key_of(&world, r.src_as, r.caller.0);
            let kb = cfg.granularity.key_of(&world, r.dst_as, r.callee.0);
            let w = cfg.window.window_of(r.t);
            let prev = seen
                .entry((KeyPair::new(ka, kb), w.index))
                .or_insert(c.option);
            assert_eq!(
                *prev, c.option,
                "oracle made multiple decisions for one key pair in one window"
            );
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn active_probes_do_not_break_replay_and_stay_deterministic() {
        let (world, trace) = setup();
        let cfg = ReplayConfig {
            active_probes_per_window: 20,
            ..ReplayConfig::default()
        };
        let a = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Via);
        let b = ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Via);
        assert_eq!(a.calls, b.calls, "active probing must stay deterministic");
        assert_eq!(a.calls.len(), trace.len());
    }
}
