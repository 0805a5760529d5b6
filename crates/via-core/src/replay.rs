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
use via_media::merge::{simulate_set, MergeConfig, MergeMode, MergeScratch, PathSpec};
use via_model::ids::{AsId, RelayId};
use via_model::metrics::{Metric, PathMetrics, Thresholds};
use via_model::options::RelayOption;
use via_model::seed;
use via_model::table::Table;
use via_model::time::{SimTime, Window, WindowLen};
use via_netsim::World;
use via_obs::{MetricSink, MetricsSnapshot, Stopwatch};
use via_quality::PnrReport;
use via_trace::stream::{RecordSource, WindowBatch, WindowStream};
use via_trace::{CallRecord, Trace, TraceError};

use crate::budget::BudgetGate;
use crate::history::{record_grouped, GroupedCell, KeyPair};
use crate::online::{BackboneFn, Trained};
use crate::predictor::{GeoPrior, Predictor, PredictorConfig};
use crate::selector::{ArmsScratch, Explore, Gate, PairArms, Plan, Source};
use crate::strategy::{MultipathMode, StrategyKind};
use crate::tomography::TomographyConfig;

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
    /// are sharded by decision [`KeyPair`] across this many threads, and the
    /// per-window predictor refit is parallelized the same way. `0` means
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

/// Outcome of one call under some strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CallOutcome {
    /// Index of the call in the trace.
    pub call_index: u32,
    /// The option the strategy assigned.
    pub option: RelayOption,
    /// Realized end-to-end metrics (access extras included).
    pub metrics: PathMetrics,
}

/// Running digest + population counters over the replayed calls, updated in
/// the sequential window merge (trace order) — so it is worker-count
/// invariant by construction and byte-identical between the streamed and
/// materialized engines. It is the whole summary when
/// [`ReplayConfig::collect_calls`] is off (the bounded-memory paper-scale
/// mode, where materializing a `Vec<CallOutcome>` would defeat streaming).
///
/// PNR counters use [`Thresholds::default`]; runs needing custom thresholds
/// keep `collect_calls` on and use [`Outcome::pnr`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayAggregate {
    /// Calls replayed.
    pub calls: u64,
    /// Calls sent on the direct path.
    pub direct: u64,
    /// Calls sent through one relay.
    pub bounce: u64,
    /// Calls sent through two relays.
    pub transit: u64,
    /// Calls with poor RTT (default thresholds).
    pub poor_rtt: u64,
    /// Calls with poor loss.
    pub poor_loss: u64,
    /// Calls with poor jitter.
    pub poor_jitter: u64,
    /// Calls with at least one poor metric.
    pub poor_any: u64,
    /// Trace-order sum of realized RTT, ms.
    pub sum_rtt_ms: f64,
    /// Trace-order sum of realized loss, percent.
    pub sum_loss_pct: f64,
    /// Trace-order sum of realized jitter, ms.
    pub sum_jitter_ms: f64,
    /// FNV-1a digest over every call's `(call_index, option, metric bits)`
    /// in trace order — one number that differs if any call's outcome,
    /// option, or position differs.
    pub digest: u64,
}

/// FNV-1a 64-bit offset basis (digest accumulator start).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

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

/// Folds bytes into an FNV-1a 64-bit accumulator.
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Default for ReplayAggregate {
    fn default() -> Self {
        ReplayAggregate {
            calls: 0,
            direct: 0,
            bounce: 0,
            transit: 0,
            poor_rtt: 0,
            poor_loss: 0,
            poor_jitter: 0,
            poor_any: 0,
            sum_rtt_ms: 0.0,
            sum_loss_pct: 0.0,
            sum_jitter_ms: 0.0,
            digest: FNV_BASIS,
        }
    }
}

impl ReplayAggregate {
    /// Folds one call outcome in. Must be called in trace order — the
    /// digest is order-sensitive on purpose.
    fn update(&mut self, co: &CallOutcome, thresholds: &Thresholds) {
        self.calls += 1;
        if co.option == RelayOption::Direct {
            self.direct += 1;
        } else if co.option.is_bounce() {
            self.bounce += 1;
        } else {
            self.transit += 1;
        }
        let m = &co.metrics;
        let mut any = false;
        if thresholds.is_poor(m, Metric::Rtt) {
            self.poor_rtt += 1;
            any = true;
        }
        if thresholds.is_poor(m, Metric::Loss) {
            self.poor_loss += 1;
            any = true;
        }
        if thresholds.is_poor(m, Metric::Jitter) {
            self.poor_jitter += 1;
            any = true;
        }
        if any {
            self.poor_any += 1;
        }
        self.sum_rtt_ms += m.rtt_ms;
        self.sum_loss_pct += m.loss_pct;
        self.sum_jitter_ms += m.jitter_ms;
        let mut h = self.digest;
        h = fnv1a_fold(h, &co.call_index.to_le_bytes());
        h = fnv1a_fold(h, &co.option.stable_code().to_le_bytes());
        h = fnv1a_fold(h, &m.rtt_ms.to_bits().to_le_bytes());
        h = fnv1a_fold(h, &m.loss_pct.to_bits().to_le_bytes());
        h = fnv1a_fold(h, &m.jitter_ms.to_bits().to_le_bytes());
        self.digest = h;
    }

    /// The default-threshold PNR this aggregate counted.
    pub fn pnr(&self) -> PnrReport {
        let n = self.calls.max(1) as f64;
        PnrReport {
            calls: usize::try_from(self.calls).unwrap_or(usize::MAX),
            rtt: self.poor_rtt as f64 / n,
            loss: self.poor_loss as f64 / n,
            jitter: self.poor_jitter as f64 / n,
            any: self.poor_any as f64 / n,
        }
    }

    /// Mean of one metric across all calls.
    pub fn mean(&self, m: Metric) -> f64 {
        let n = self.calls.max(1) as f64;
        match m {
            Metric::Rtt => self.sum_rtt_ms / n,
            Metric::Loss => self.sum_loss_pct / n,
            Metric::Jitter => self.sum_jitter_ms / n,
        }
    }

    /// Fractions of calls sent direct / bounced / transited.
    pub fn option_mix(&self) -> (f64, f64, f64) {
        let n = self.calls.max(1) as f64;
        (
            self.direct as f64 / n,
            self.bounce as f64 / n,
            self.transit as f64 / n,
        )
    }

    /// Fraction of calls relayed (non-direct).
    pub fn relayed_fraction(&self) -> f64 {
        let n = self.calls.max(1) as f64;
        (self.bounce + self.transit) as f64 / n
    }
}

/// Per-run engine counters: throughput, shard utilization, and predictor-fit
/// latency. Carried on [`Outcome`] but **excluded from serialization** —
/// wall-clock readings and the resolved worker count vary across machines
/// and worker counts while the replay results must not, so summaries stay
/// byte-identical.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplayStats {
    /// Resolved worker count the run used.
    pub workers: usize,
    /// Control windows processed.
    pub windows: u64,
    /// Predictor refits performed at window barriers.
    pub predictor_fits: u64,
    /// Total wall-clock spent in predictor refits, milliseconds.
    pub predictor_fit_ms: f64,
    /// Wall-clock spent in the sequential budget-gate pass (building pair
    /// states and walking the window in trace order), milliseconds.
    pub gate_ms: f64,
    /// Wall-clock spent inside the parallel shard fork–join, milliseconds.
    pub shard_ms: f64,
    /// Wall-clock spent merging shard results back at the window barrier
    /// (outcomes, history cells, metric sinks), milliseconds.
    pub merge_ms: f64,
    /// Total wall-clock of the replay, milliseconds.
    pub wall_ms: f64,
    /// Calls replayed per second of wall-clock.
    pub calls_per_sec: f64,
    /// Calls processed per worker slot, summed over windows (shard load).
    pub shard_calls: Vec<u64>,
    /// Bytes decoded from the backing trace source during a streamed run
    /// (header, framing, and payload); zero for materialized runs and
    /// non-file sources. With `wall_ms` this yields bytes-decoded/sec.
    pub bytes_decoded: u64,
}

impl ReplayStats {
    /// Shard load balance in `(0, 1]`: mean per-shard calls divided by the
    /// maximum (1.0 = perfectly even, small = one shard did all the work).
    pub fn shard_utilization(&self) -> f64 {
        let max = self.shard_calls.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean =
            self.shard_calls.iter().sum::<u64>() as f64 / self.shard_calls.len().max(1) as f64;
        mean / max as f64
    }

    /// One-line human-readable summary of the run's counters.
    pub fn summary(&self) -> String {
        format!(
            "{} workers, {} windows, {:.0} calls/s, shard utilization {:.2}, \
             {} predictor fits ({:.1} ms total), wall {:.1} ms \
             (gate {:.1} + shard {:.1} + merge {:.1} + refit {:.1})",
            self.workers,
            self.windows,
            self.calls_per_sec,
            self.shard_utilization(),
            self.predictor_fits,
            self.predictor_fit_ms,
            self.wall_ms,
            self.gate_ms,
            self.shard_ms,
            self.merge_ms,
            self.predictor_fit_ms
        )
    }
}

/// Outcome of a whole replay run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    /// Strategy display name.
    pub strategy: String,
    /// Objective metric the run optimized.
    pub objective: Metric,
    /// Per-call outcomes, in trace order. Empty when
    /// [`ReplayConfig::collect_calls`] is off — use [`Outcome::aggregate`].
    pub calls: Vec<CallOutcome>,
    /// Sequential-merge aggregate over every replayed call (PNR counters,
    /// option mix, metric sums, order-sensitive digest). Always populated,
    /// and byte-identical across worker counts and across the streamed and
    /// materialized engines.
    pub aggregate: ReplayAggregate,
    /// Controller round-trips (equals the call count unless a client-side
    /// decision cache absorbed some — the §7 scalability lever).
    pub controller_contacts: u64,
    /// Parallel setup probes issued by hybrid racing (zero otherwise).
    pub race_probes: u64,
    /// Engine counters (wall-clock, shard load); not serialized so that
    /// summaries are a pure function of the config.
    #[serde(skip)]
    pub stats: ReplayStats,
    /// Observability snapshot, present when [`ReplayConfig::metrics`] was
    /// set. Excluded from the serialized outcome so result summaries stay
    /// byte-stable; serialize the snapshot itself to persist it (its
    /// deterministic core is worker-count invariant, see
    /// [`MetricsSnapshot`]).
    #[serde(skip)]
    pub obs: Option<MetricsSnapshot>,
}

impl Outcome {
    /// PNR report over all calls.
    pub fn pnr(&self, thresholds: &Thresholds) -> PnrReport {
        PnrReport::from_calls(self.calls.iter().map(|c| &c.metrics), thresholds)
    }

    /// Fraction of calls with at least one poor metric.
    pub fn pnr_any(&self, thresholds: &Thresholds) -> f64 {
        self.pnr(thresholds).any
    }

    /// Values of one metric across calls (for percentile analysis).
    pub fn metric_values(&self, m: Metric) -> Vec<f64> {
        self.calls.iter().map(|c| c.metrics[m]).collect()
    }

    /// Fractions of calls sent direct / bounced / transited (§5.2 reports
    /// 8 % / 54 % / 38 % for VIA). Read from [`Outcome::aggregate`], so it
    /// holds with [`ReplayConfig::collect_calls`] off.
    pub fn option_mix(&self) -> (f64, f64, f64) {
        self.aggregate.option_mix()
    }

    /// Fraction of calls relayed (non-direct); zero for an empty outcome.
    pub fn relayed_fraction(&self) -> f64 {
        if self.aggregate.calls == 0 {
            return 0.0;
        }
        let (direct, _, _) = self.option_mix();
        1.0 - direct
    }

    /// PNR over a subset of calls selected by a predicate on the trace
    /// record (e.g. international-only for Figure 13).
    pub fn pnr_where(
        &self,
        trace: &Trace,
        thresholds: &Thresholds,
        pred: impl Fn(&CallRecord) -> bool,
    ) -> PnrReport {
        PnrReport::from_calls(
            self.calls
                .iter()
                .filter(|c| pred(&trace.records[c.call_index as usize]))
                .map(|c| &c.metrics),
            thresholds,
        )
    }
}

/// One decision key's work within a window: where its calls are in the
/// window's [`WindowGroups`] plus the state handed to whichever shard owns
/// the pair.
struct PairGroup {
    pair: KeyPair,
    /// Spatial keys in the orientation of the pair's first call (the state
    /// exemplar, matching the lazily-built state of the sequential engine).
    ka: u32,
    kb: u32,
    /// The pair's calls this window are `call_idx[start..start + len]`.
    start: usize,
    len: usize,
    /// The shard the group runs on.
    shard: usize,
    /// Pre-built arms (gated plans build eagerly for the gate pass).
    state: Option<PairArms>,
    /// The §7 decision-cache entry: incoming, then as the group's misses
    /// rewrite it.
    cached: Option<(RelayOption, SimTime)>,
    /// The oracle and the prediction-only strawman decide once per (pair,
    /// window), from the pair's exemplar call: ground truth and predictions
    /// are both constant between refit barriers, and the memo is keyed by
    /// the same granularity KeyPair as every learning strategy. (Keying the
    /// oracle by raw AS pair would hand it finer spatial resolution than the
    /// Figure 17a granularity sweep grants the contenders.)
    memo: Option<RelayOption>,
}

/// Hasher of the window's pair index. A [`KeyPair`] is eight bytes, which
/// fill one word exactly, so distinct pairs keep distinct hashes through the
/// splitmix finish; SipHash (the `HashMap` default) cost more per call than
/// the rest of the grouping. The keys are the world's own spatial keys, the
/// map is never iterated, and only its speed depends on this.
#[derive(Default)]
struct PairHasher(u64);

impl std::hash::Hasher for PairHasher {
    fn finish(&self) -> u64 {
        seed::splitmix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

/// One window's calls grouped by decision key, as flat arrays that are
/// cleared and refilled window after window: nothing here is allocated per
/// group, and nothing is sized by more than one window.
#[derive(Default)]
struct WindowGroups {
    /// Pair → its index in `groups`, for the window being grouped.
    index: HashMap<KeyPair, usize, std::hash::BuildHasherDefault<PairHasher>>,
    /// One group per pair, in the order the pairs first appear in the batch.
    groups: Vec<PairGroup>,
    /// The group of each call of the batch.
    group_of_call: Vec<usize>,
    /// Batch-relative call indices, each group's contiguous and ascending.
    call_idx: Vec<usize>,
}

impl WindowGroups {
    /// Groups a batch, given each call's `(ka, kb)` in batch order, in one
    /// pass over the pair index and one counting-sort scatter.
    fn regroup(&mut self, keys: impl Iterator<Item = (u32, u32)>) {
        self.index.clear();
        self.groups.clear();
        self.group_of_call.clear();
        for (ka, kb) in keys {
            let pair = KeyPair::new(ka, kb);
            let g = *self.index.entry(pair).or_insert_with(|| {
                self.groups.push(PairGroup {
                    pair,
                    ka,
                    kb,
                    start: 0,
                    len: 0,
                    shard: 0,
                    state: None,
                    cached: None,
                    memo: None,
                });
                self.groups.len() - 1
            });
            self.groups[g].len += 1;
            self.group_of_call.push(g);
        }
        let mut start = 0;
        for g in &mut self.groups {
            g.start = start;
            start += std::mem::take(&mut g.len);
        }
        self.call_idx.clear();
        self.call_idx.resize(start, 0);
        for (i, &g) in self.group_of_call.iter().enumerate() {
            let g = &mut self.groups[g];
            self.call_idx[g.start + g.len] = i;
            g.len += 1;
        }
    }

    /// Spreads the groups over `nshards` shards: longest processing time
    /// first by call count, ties by pair, each to the least-loaded shard.
    fn assign_shards(&mut self, nshards: usize) {
        if nshards < 2 {
            return;
        }
        let groups = &mut self.groups;
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_unstable_by_key(|&g| (std::cmp::Reverse(groups[g].len), groups[g].pair));
        let mut loads = vec![0usize; nshards];
        for g in order {
            let dest = (0..nshards).min_by_key(|&i| (loads[i], i)).unwrap_or(0);
            loads[dest] += groups[g].len;
            groups[g].shard = dest;
        }
    }
}

/// What every step of one window's shard loops reads.
struct WindowCtx<'w> {
    plan: &'w Plan,
    window: Window,
    predictor: Option<&'w Predictor>,
    /// The gate pass's verdicts, one per call of `batch`: true is "forced
    /// direct".
    gated: Option<&'w [bool]>,
    /// The window's calls; every call index in `call_idx` or a
    /// [`ShardResult`] is relative to this.
    batch: &'w [CallRecord],
    /// [`WindowGroups::call_idx`]: where a [`PairGroup`] finds its calls.
    call_idx: &'w [usize],
    ids: &'w HotIds,
}

/// What one shard hands back at the window barrier, which drains it: the
/// buffers live in the shard's [`WorkerSlot`] and keep their capacity.
#[derive(Default)]
struct ShardResult {
    /// (batch-relative index, outcome) for every call the shard carried.
    outcomes: Vec<(usize, CallOutcome)>,
    /// The window's history cells (disjoint: a pair lives on exactly one
    /// shard), each pair group's contiguous.
    history: Vec<GroupedCell>,
    /// Controller round-trips (cache misses) on this shard.
    contacts: u64,
    /// Hybrid-racing setup probes issued on this shard.
    race_probes: u64,
}

/// Worker-local scratch buffers, one per shard: candidate enumeration,
/// option staging, and top-k scoring reuse these across every call the
/// shard carries, so the steady-state decision loop performs no heap
/// allocation.
#[derive(Default)]
struct Scratch {
    /// Candidate options of the call under consideration.
    cand: Vec<RelayOption>,
    /// Ranking buffers for the world's candidate enumeration.
    topo: via_netsim::CandidateScratch,
    /// Scoring and top-k buffers for the pair arms under construction.
    arms: ArmsScratch,
    /// The decided path set, primary first (one element for single-path
    /// plans).
    set: Vec<RelayOption>,
    /// Per-path CRN realizations of the current multipath set.
    set_specs: Vec<PathSpec>,
    /// Per-path metric triples (parallel to `set`) for semi-bandit feedback.
    set_metrics: Vec<PathMetrics>,
    /// Receiver-side merge buffers, reused across calls.
    merge_buf: MergeScratch,
}

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

/// Per-worker state that survives across window barriers: the hot metric
/// sink (folded and cleared at each barrier), the scoring/sampling scratch
/// buffers and the shard's result buffers. Slot `i` always serves shard `i`,
/// so the fold order at the barrier is the fixed shard-index order.
struct WorkerSlot {
    hot: via_obs::HotSink,
    scratch: Scratch,
    sample: via_netsim::SampleScratch,
    out: ShardResult,
}

impl WorkerSlot {
    fn new(ids: &HotIds, metrics: bool) -> WorkerSlot {
        WorkerSlot {
            hot: if metrics {
                ids.schema.make_sink()
            } else {
                via_obs::HotSink::default()
            },
            scratch: Scratch::default(),
            sample: via_netsim::SampleScratch::new(),
            out: ShardResult::default(),
        }
    }
}

/// The run's relaying-budget gate: global sequential state, walked once per
/// window in trace order.
#[allow(clippy::large_enum_variant)] // one per run, never moved
enum GateState {
    Open,
    Percentile {
        gate: BudgetGate,
        cost: u64,
    },
    /// First come, first served under a hard cap.
    Fcfs {
        budget: f64,
        relayed: u64,
        total: u64,
    },
}

impl GateState {
    /// The verdict for the next call in trace order, given its predicted
    /// benefit.
    fn admit(&mut self, benefit: f64) -> bool {
        match self {
            GateState::Open => true,
            GateState::Percentile { gate, cost } => {
                let admitted = gate.admit_cost(benefit, *cost);
                gate.validate();
                admitted
            }
            GateState::Fcfs {
                budget,
                relayed,
                total,
            } => {
                *total += 1;
                let admitted = benefit > 0.0 && (*relayed as f64 / *total as f64) < *budget;
                *relayed += u64::from(admitted);
                admitted
            }
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
    pred_cfg: PredictorConfig,
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
    thresholds: Thresholds,
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
    /// Hoisted `seed::derive(cfg.seed, "call")`, same reasoning.
    call_base: u64,
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
        let realize_base = seed::derive(cfg.seed, "realize");
        let call_base = seed::derive(cfg.seed, "call");
        Self {
            world,
            trace: Some(trace),
            cfg,
            realize_base,
            call_base,
        }
    }

    /// Creates a simulator for source-backed replay ([`ReplaySim::run_stream`]):
    /// no materialized trace exists, records arrive window by window.
    pub fn streaming(world: &'a World, cfg: ReplayConfig) -> Self {
        let realize_base = seed::derive(cfg.seed, "realize");
        let call_base = seed::derive(cfg.seed, "call");
        Self {
            world,
            trace: None,
            cfg,
            realize_base,
            call_base,
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

    /// Per-call decision RNG, derived from the call's trace index: the
    /// stream a call sees is independent of every other call, so decisions
    /// are identical no matter which shard (or how many shards) carried it.
    fn call_rng(&self, call: &CallRecord) -> StdRng {
        StdRng::seed_from_u64(seed::derive_indexed_from(
            self.call_base,
            u64::from(call.id.0),
        ))
    }

    /// The call's candidate with the least `cost` (first wins ties; the
    /// direct path when none is finite) — the per-(pair, window) decision of
    /// the oracle and of the prediction-only strawman.
    fn cheapest(
        &self,
        call: &CallRecord,
        scratch: &mut Scratch,
        mut cost: impl FnMut(RelayOption) -> f64,
    ) -> RelayOption {
        let Scratch { topo, cand, .. } = scratch;
        self.candidates_into(call.src_as, call.dst_as, topo, cand);
        let mut best = (f64::INFINITY, RelayOption::Direct);
        for &opt in cand.iter() {
            let v = cost(opt);
            if v < best.0 {
                best = (v, opt);
            }
        }
        best.1
    }

    /// Builds the engine state shared by both replay drivers — everything
    /// the per-run setup does before the first window.
    fn engine_start(&self, kind: StrategyKind) -> EngineState {
        // Wall-clock (via the via-obs facade) feeds ReplayStats and the obs
        // timing layer only — both excluded from serialized summaries.
        let t_run = Stopwatch::started();
        let obs: Option<MetricSink> = self.cfg.metrics.then(MetricSink::with_timing);
        let workers = crate::par::resolve_workers(self.cfg.workers);
        let pred_cfg = PredictorConfig {
            workers,
            tomography: TomographyConfig { workers },
        };
        let plan = Plan::from(kind);
        let gate = match plan.gate {
            Gate::None => GateState::Open,
            Gate::Percentile { budget, cost } => GateState::Percentile {
                gate: BudgetGate::new(budget),
                cost,
            },
            Gate::Fcfs { budget } => GateState::Fcfs {
                budget,
                relayed: 0,
                total: 0,
            },
        };
        let stats = ReplayStats {
            workers,
            shard_calls: vec![0; workers],
            ..ReplayStats::default()
        };
        let hot_ids = HotIds::new();
        let worker_slots: Vec<WorkerSlot> = (0..workers)
            .map(|_| WorkerSlot::new(&hot_ids, self.cfg.metrics))
            .collect();
        let prior = GeoPrior::new(
            self.cfg.granularity.key_positions(self.world),
            self.world.relays.iter().map(|r| r.pos).collect(),
        );
        let backbone = self.backbone_fn();
        EngineState {
            t_run,
            obs,
            workers,
            pred_cfg,
            trained: Trained::default(),
            predictor: None,
            plan,
            gate,
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
            thresholds: Thresholds::default(),
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
    /// Any decode or chronology error surfaced by the source; the engine
    /// stops at the first bad window.
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
        let mut stream = WindowStream::new(source, self.cfg.window);
        let bytes = std::thread::scope(|scope| -> Result<u64, TraceError> {
            // Bounded prefetch: at most two windows queued ahead of the one
            // being replayed. The recycle channel hands spent batch buffers
            // back to the producer for reuse.
            let (tx, rx) = std::sync::mpsc::sync_channel::<Result<WindowBatch, TraceError>>(2);
            let (recycle_tx, recycle_rx) = std::sync::mpsc::channel::<WindowBatch>();
            let producer = scope.spawn(move || {
                loop {
                    match stream.next_batch() {
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
            pred_cfg,
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
            thresholds,
            prior,
            backbone,
            ..
        } = st;
        let workers = *workers;
        let pred_cfg = *pred_cfg;
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
            let mut fitted = trained.fit(window, prior.clone(), backbone, pred_cfg);
            stats.predictor_fits += 1;

            // §7 active measurements: probe tomography holes for the
            // pairs that carried traffic last window, fold the mock
            // calls into the training window, and refit.
            if self.cfg.active_probes_per_window > 0 && window.prev().is_some() {
                let scratch = &mut worker_slots[0].scratch;
                let mut demand_list: Vec<(u32, u32, Vec<RelayOption>)> = demands
                    .iter()
                    .map(|(kp, &(sa, sb))| {
                        self.candidates_into(sa, sb, &mut scratch.topo, &mut scratch.cand);
                        (kp.lo, kp.hi, scratch.cand.clone())
                    })
                    .collect();
                demand_list.sort_by_key(|d| (d.0, d.1));
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
                        let kp = KeyPair::new(probe.a, probe.b);
                        let Some(&(sa, sb)) = demands.get(&kp) else {
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
                        trained.record(kp, probe.option, &m);
                    }
                    fitted = trained.fit(window, prior.clone(), backbone, pred_cfg);
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
        let granularity = self.cfg.granularity;
        grouped.regroup(batch.iter().map(|call| {
            (
                granularity.key_of(self.world, call.src_as, call.caller.0),
                granularity.key_of(self.world, call.dst_as, call.callee.0),
            )
        }));
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
        let gated: Option<&[bool]> = match (&mut *gate, predictor.as_ref()) {
            (GateState::Open, _) | (_, None) => None,
            (gate, Some(pred)) => {
                // One contiguous chunk of groups per worker, each built
                // through that worker's own scratch; a pair's arms are a pure
                // function of (predictor, group), so the chunking never
                // shows in the result.
                let chunk = groups.len().div_ceil(workers).max(1);
                let tasks: Vec<&mut [PairGroup]> = groups.chunks_mut(chunk).collect();
                crate::par::par_run_with(workers, tasks, worker_slots, |chunk, slot| {
                    for g in chunk {
                        if let Some(&i) = call_idx.get(g.start) {
                            let keys = (g.ka, g.kb);
                            g.state =
                                Some(self.build_arms(plan, pred, hot_ids, keys, &batch[i], slot));
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
            aggregate.update(co, thresholds);
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

    /// Stage 3 of Algorithm 1 for one pair group: enumerates its exemplar
    /// call's candidates, resolves the pair's predictions once and builds
    /// the arms. A pure function of (predictor, group), so the gate pass and
    /// a shard's first miss build the same arms — once per (pair, window)
    /// either way, which is what makes this the place to record one
    /// CI-width sample per kept arm.
    fn build_arms(
        &self,
        plan: &Plan,
        pred: &Predictor,
        ids: &HotIds,
        (ka, kb): (u32, u32),
        exemplar: &CallRecord,
        slot: &mut WorkerSlot,
    ) -> PairArms {
        let Scratch {
            topo, cand, arms, ..
        } = &mut slot.scratch;
        self.candidates_into(exemplar.src_as, exemplar.dst_as, topo, cand);
        let view = pred.pair(ka, kb);
        let built = PairArms::build(plan, |o| view.predict(o), cand, self.cfg.objective, arms);
        for width in arms.ci_widths() {
            slot.hot.observe(ids.ci_width, width);
        }
        built
    }

    /// Replays one shard's pair groups for one window: decide, realize,
    /// record, call by call. Everything a pair touches — its bandit,
    /// decision-cache entry, oracle memo, history cells — lives on this
    /// shard alone, so the per-pair computation is identical to a sequential
    /// walk of the same calls.
    fn process_shard(&self, ctx: &WindowCtx<'_>, work: Vec<&mut PairGroup>, slot: &mut WorkerSlot) {
        for g in work {
            // Where this group's history cells start.
            let cells_at = slot.out.history.len();
            for &i in &ctx.call_idx[g.start..g.start + g.len] {
                let option = self.decide(ctx, g, i, slot);
                let realized = self.realize(ctx, &ctx.batch[i], option, slot);
                self.record(ctx, g, cells_at, i, option, realized, slot);
            }
        }
    }

    /// Algorithm 1 stage 4 for call `i` of group `g`: the option it takes.
    /// The arms of a plan with several paths leave the whole set, primary
    /// first, in `slot.scratch.set`; every other decision leaves at most one
    /// option there.
    ///
    /// Kept out of line: inlined into the shard loop, an edit to selection
    /// re-lays the realize and record code the `Default` strategy runs, and
    /// `stream-default-vbt` has moved −4 % and +2.8 % that way with no source
    /// change on its path (PRs 14, 18).
    #[inline(never)]
    fn decide(
        &self,
        ctx: &WindowCtx<'_>,
        g: &mut PairGroup,
        i: usize,
        slot: &mut WorkerSlot,
    ) -> RelayOption {
        let WindowCtx {
            plan, window, ids, ..
        } = *ctx;
        let objective = self.cfg.objective;
        let call = &ctx.batch[i];
        match plan.source {
            Source::Direct => RelayOption::Direct,
            // The candidate scan shares segment means through the sample
            // scratch, so one evaluation touches each distinct segment once
            // instead of once per option.
            Source::Oracle => *g.memo.get_or_insert_with(|| {
                slot.hot.inc(ids.oracle_evals, 1);
                let t_eval = window.start() + window.len.secs() / 2;
                let (src, dst) = (call.src_as, call.dst_as);
                let sample = &mut slot.sample;
                self.cheapest(call, &mut slot.scratch, |opt| {
                    self.world
                        .perf()
                        .option_mean_scratch(src, dst, opt, t_eval, sample)[objective]
                })
            }),
            // `learns()` guarantees a predictor for the two sources below; a
            // defensive `None` (cold controller) falls back to the direct
            // path instead of panicking.
            Source::BestPrediction => match ctx.predictor {
                None => RelayOption::Direct,
                Some(pred) => *g.memo.get_or_insert_with(|| {
                    let view = pred.pair(g.ka, g.kb);
                    self.cheapest(call, &mut slot.scratch, |opt| {
                        view.predict(opt).mean(objective)
                    })
                }),
            },
            Source::Arms => match (g.cached, ctx.predictor) {
                // §7 decision cache: the client reuses a cached controller
                // decision until it expires; only misses consult the
                // selection stack. (Entries exist only under a caching plan.)
                (Some((opt, expires)), _) if call.t < expires => {
                    slot.hot.inc(ids.cache_hits, 1);
                    opt
                }
                (_, None) => {
                    slot.scratch.set.clear();
                    RelayOption::Direct
                }
                (_, Some(pred)) => {
                    if plan.cache_ttl_secs.is_some() {
                        slot.out.contacts += 1;
                        slot.hot.inc(ids.cache_misses, 1);
                    }
                    let keys = (g.ka, g.kb);
                    let st = &*g
                        .state
                        .get_or_insert_with(|| self.build_arms(plan, pred, ids, keys, call, slot));
                    let option = if let Some(width) = plan.race {
                        // §7 hybrid racing: race the leading arms in parallel
                        // at call setup and keep the best. The race
                        // multiplies setup traffic by its width;
                        // `race_probes` tracks that overhead. Realize is
                        // deterministic per (call, option), so realizing each
                        // racer once and comparing is both the cheap and the
                        // correct form.
                        let mut probes = 0u64;
                        let best = st
                            .options()
                            .take(width)
                            .map(|o| {
                                probes += 1;
                                (self.realize(ctx, call, o, slot).0[objective], o)
                            })
                            .min_by(|a, b| a.0.total_cmp(&b.0));
                        slot.out.race_probes += probes;
                        slot.hot.inc(ids.race_probes, probes);
                        best.map_or(RelayOption::Direct, |(_, o)| o)
                    } else {
                        // Budget verdicts were computed in the sequential
                        // gate pass; they arrive as per-call flags. General
                        // exploration re-enumerates the call's own
                        // candidates.
                        let Scratch {
                            topo, cand, set, ..
                        } = &mut slot.scratch;
                        let d = st.decide(
                            plan,
                            ctx.gated.is_some_and(|flags| flags[i]),
                            self.cfg.epsilon,
                            || self.call_rng(call),
                            || {
                                self.candidates_into(call.src_as, call.dst_as, topo, cand);
                                cand
                            },
                            set,
                        );
                        if !d.gated && plan.explore != Explore::Off {
                            let id = if d.explored {
                                ids.explore_epsilon
                            } else {
                                ids.bandit_pulls
                            };
                            slot.hot.inc(id, 1);
                        }
                        d.option
                    };
                    if let Some(ttl) = plan.cache_ttl_secs {
                        g.cached = Some((option, call.t + ttl));
                    }
                    option
                }
            },
        }
    }

    /// Realizes a decided call with common random numbers: each path's
    /// stream is seeded from `(call, path)` alone — `derive_indexed(seed,
    /// "realize", …)` with the label fold hoisted into `realize_base` — so
    /// its draws are bit-identical however often and wherever it is
    /// realized, and the sample scratch memoizes the segment means the
    /// paths of one instant share. Returns the call's metrics and its
    /// direct-path baseline.
    ///
    /// The baseline feeds only the MOS-delta histogram, so it is drawn only
    /// when metrics are collected (it is the metrics themselves otherwise):
    /// for a relayed single path from the call's own noise draws (see
    /// [`via_netsim::PerfModel::sample_option_paired`] — the chosen metrics
    /// stay bit-identical, so enabling metrics cannot change an outcome),
    /// for a merged path set from the direct path's own stream.
    fn realize(
        &self,
        ctx: &WindowCtx<'_>,
        call: &CallRecord,
        option: RelayOption,
        slot: &mut WorkerSlot,
    ) -> (PathMetrics, PathMetrics) {
        let WorkerSlot {
            hot,
            scratch,
            sample,
            ..
        } = slot;
        let perf = self.world.perf();
        let (src, dst, t) = (call.src_as, call.dst_as, call.t);
        let stream = |o: RelayOption| {
            StdRng::seed_from_u64(seed::derive_indexed_from(
                self.realize_base,
                (u64::from(call.id.0) << 34) ^ o.stable_code(),
            ))
        };
        let mut one = |o: RelayOption| {
            let path = perf.sample_option_scratch(src, dst, o, t, &mut stream(o), sample);
            call.access_extra.apply(&path)
        };
        if scratch.set.len() > 1 {
            // Multipath: realize every path in the set under its own CRN
            // stream, then merge receiver-side. The per-path triples stay in
            // scratch for semi-bandit feedback; the merged effective triple
            // is what the call records.
            scratch.set_specs.clear();
            scratch.set_metrics.clear();
            for &o in &scratch.set {
                let m = one(o);
                scratch.set_metrics.push(m);
                scratch.set_specs.push(PathSpec::alive(m, o.stable_code()));
            }
            let mmode = match ctx.plan.merge {
                MultipathMode::Stripe => MergeMode::Stripe,
                MultipathMode::Duplicate => MergeMode::Duplicate,
            };
            // The merge stream is keyed by the call and the set's
            // composition (the XOR fold is order-invariant), on a label
            // distinct from every per-path realize stream.
            let fold = scratch
                .set
                .iter()
                .fold(0u64, |a, o| a ^ seed::splitmix64(o.stable_code()));
            let merge_seed = seed::derive_indexed(
                self.realize_base,
                "multipath-merge",
                (u64::from(call.id.0) << 34) ^ fold,
            );
            let report = simulate_set(
                &scratch.set_specs,
                mmode,
                &MULTIPATH_MERGE,
                merge_seed,
                &mut scratch.merge_buf,
            );
            let ids = ctx.ids;
            hot.inc(ids.multipath_extra_paths, scratch.set.len() as u64 - 1);
            hot.inc(ids.multipath_dedup_drops, report.dedup_drops);
            hot.inc(ids.multipath_failovers, report.failovers);
            let merged = report.effective;
            let direct = if self.cfg.metrics {
                one(RelayOption::Direct)
            } else {
                merged
            };
            (merged, direct)
        } else if self.cfg.metrics && option != RelayOption::Direct {
            let (chosen, direct) = perf.sample_option_paired(
                src,
                dst,
                option,
                RelayOption::Direct,
                t,
                &mut stream(option),
                sample,
            );
            (
                call.access_extra.apply(&chosen),
                call.access_extra.apply(&direct),
            )
        } else {
            let m = one(option);
            (m, m)
        }
    }

    /// Books a realized call: the hot metrics (into the shard's sink, which
    /// keeps them only in a run that collects metrics), the feedback to the
    /// pair's arms and history cells, and the outcome.
    #[allow(clippy::too_many_arguments)] // the shard loop's third step
    fn record(
        &self,
        ctx: &WindowCtx<'_>,
        g: &mut PairGroup,
        cells_at: usize,
        i: usize,
        option: RelayOption,
        (metrics, direct): (PathMetrics, PathMetrics),
        slot: &mut WorkerSlot,
    ) {
        let WorkerSlot {
            hot, scratch, out, ..
        } = slot;
        let ids = ctx.ids;
        let objective = self.cfg.objective;
        hot.inc(ids.calls, 1);
        hot.inc(
            if option == RelayOption::Direct {
                ids.opt_direct
            } else if option.is_bounce() {
                ids.opt_bounce
            } else {
                ids.opt_transit
            },
            1,
        );
        hot.observe(ids.rtt, metrics[Metric::Rtt]);
        if self.cfg.metrics {
            // MOS delta against the direct path under the call's own noise
            // draws (a direct pick is its own baseline, so the delta is
            // exactly zero).
            hot.observe(
                ids.mos_delta,
                via_quality::mos(&metrics) - via_quality::mos(&direct),
            );
        }
        // Regret proxy vs the predictor's best arm; only meaningful for arms
        // scored by a real predictor (best mean > 0 — unscored arms report
        // 0).
        if let Some(best) = g.state.as_ref().map(PairArms::best_mean) {
            if best > 0.0 && best.is_finite() {
                hot.observe(ids.regret, (metrics[objective] - best).max(0.0));
            }
        }

        if ctx.plan.learns() {
            // Semi-bandit feedback (CUCB): every played path feeds its own
            // realization back to its own arm and to the shared history, not
            // the merged stream's triple.
            let mut feed = |o: RelayOption, m: &PathMetrics| {
                record_grouped(&mut out.history, cells_at, g.pair, o, m);
                if let Some(st) = g.state.as_mut() {
                    st.learn(o, m[objective]);
                }
            };
            if scratch.set.len() > 1 {
                for (&o, m) in scratch.set.iter().zip(&scratch.set_metrics) {
                    feed(o, m);
                }
            } else {
                feed(option, &metrics);
            }
        }

        out.outcomes.push((
            i,
            CallOutcome {
                call_index: ctx.batch[i].id.0,
                option,
                metrics,
            },
        ));
    }

    /// The controller's static knowledge of inter-relay performance (§3.2),
    /// tabulated once per run.
    fn backbone_fn(&self) -> BackboneFn {
        let relays = &self.world.relays;
        let table = Table::from_fn(relays.len(), relays.len(), |i, j| {
            self.world
                .perf()
                .backbone_metrics(relays[i].id, relays[j].id)
        });
        std::sync::Arc::new(move |a: RelayId, b: RelayId| table[(a.index(), b.index())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_netsim::WorldConfig;
    use via_trace::{TraceConfig, TraceGenerator};

    fn setup() -> (World, Trace) {
        let world = World::generate(&WorldConfig::tiny(), 77);
        let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 77).generate();
        (world, trace)
    }

    /// A window's pair groups as `engine_window` formed them before the flat
    /// groups — a `HashMap` from pair to slot and one member `Vec` per group
    /// — over each call's `(ka, kb)`: groups in first-seen order, each the
    /// pair, the first call's keys as given, and the members' batch indices.
    fn reference_groups(keys: &[(u32, u32)]) -> Vec<(KeyPair, (u32, u32), Vec<usize>)> {
        let mut slot_of_pair: HashMap<KeyPair, usize> = HashMap::new();
        let mut groups: Vec<(KeyPair, (u32, u32), Vec<usize>)> = Vec::new();
        for (i, &(ka, kb)) in keys.iter().enumerate() {
            let pair = KeyPair::new(ka, kb);
            let slot = *slot_of_pair.entry(pair).or_insert_with(|| {
                groups.push((pair, (ka, kb), Vec::new()));
                groups.len() - 1
            });
            groups[slot].2.push(i);
        }
        groups
    }

    proptest::proptest! {
        // What any regrouping of a batch must reproduce. Few distinct keys, so
        // a batch holds `a == b` pairs, both directions of one pair, groups
        // of one call and groups of many.
        #[test]
        fn reference_grouping_partitions_a_batch_by_pair(
            keys in proptest::collection::vec((0u32..5, 0u32..5), 0..48),
        ) {
            let groups = reference_groups(&keys);
            // The engine's flat groups are the reference's, field for field,
            // in the same order — twice, since the arrays are reused.
            let mut flat = WindowGroups::default();
            for _ in 0..2 {
                flat.regroup(keys.iter().copied());
                let got: Vec<_> = flat
                    .groups
                    .iter()
                    .map(|g| (g.pair, (g.ka, g.kb), flat.call_idx[g.start..g.start + g.len].to_vec()))
                    .collect();
                proptest::prop_assert_eq!(&got, &groups);
                for (g, (_, _, members)) in groups.iter().enumerate() {
                    proptest::prop_assert!(members.iter().all(|&i| flat.group_of_call[i] == g));
                }
            }
            let mut seen = vec![0usize; keys.len()];
            for (g, (pair, exemplar, members)) in groups.iter().enumerate() {
                proptest::prop_assert!(!members.is_empty());
                proptest::prop_assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending");
                // The orientation is the first member's, not the canonical one.
                proptest::prop_assert_eq!(*exemplar, keys[members[0]]);
                for &i in members {
                    let (ka, kb) = keys[i];
                    proptest::prop_assert_eq!(KeyPair::new(ka, kb), *pair);
                    seen[i] += 1;
                }
                // One group per pair, in first-seen order.
                proptest::prop_assert!(groups[..g].iter().all(|(p, _, _)| p != pair));
                proptest::prop_assert!(groups[..g].iter().all(|(_, _, m)| m[0] < members[0]));
            }
            proptest::prop_assert!(seen.iter().all(|&n| n == 1), "a partition of the batch");
            // (a, b) and (b, a) share a group, (a, a) is a pair like any other.
            for (i, &(a, b)) in keys.iter().enumerate() {
                for (j, &(c, d)) in keys.iter().enumerate() {
                    let together = groups.iter().any(|(_, _, m)| m.contains(&i) && m.contains(&j));
                    proptest::prop_assert_eq!(together, (a, b) == (c, d) || (a, b) == (d, c));
                }
            }
        }
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
        let (direct, bounce, transit) = out.option_mix();
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
        let dm: f64 = d.metric_values(Metric::Rtt).iter().sum::<f64>() / d.calls.len() as f64;
        let om: f64 = o.metric_values(Metric::Rtt).iter().sum::<f64>() / o.calls.len() as f64;
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
        let thresholds = Thresholds::default();
        let d = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Default);
        let o = ReplaySim::new(&world, &trace, cfg.clone()).run(StrategyKind::Oracle);
        let v = ReplaySim::new(&world, &trace, cfg).run(StrategyKind::Via);
        let (dp, op, vp) = (
            d.pnr(&thresholds).rtt,
            o.pnr(&thresholds).rtt,
            v.pnr(&thresholds).rtt,
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
        let f = out.relayed_fraction();
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

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full replay sims are orders of magnitude too slow under miri"
    )]
    fn outcome_filters_by_predicate() {
        let (world, trace) = setup();
        let out =
            ReplaySim::new(&world, &trace, ReplayConfig::default()).run(StrategyKind::Default);
        let thresholds = Thresholds::default();
        let intl = out.pnr_where(&trace, &thresholds, CallRecord::is_international);
        let dom = out.pnr_where(&trace, &thresholds, |r| !r.is_international());
        assert_eq!(intl.calls + dom.calls, trace.len());
    }
}
