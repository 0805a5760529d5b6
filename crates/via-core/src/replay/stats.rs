//! What a replay run returns: the [`Outcome`] and its engine counters,
//! [`ReplayStats`].

use serde::{Deserialize, Serialize};
use via_model::metrics::Metric;
use via_obs::MetricsSnapshot;

#[cfg(doc)]
use super::ReplayConfig;
use super::{CallOutcome, ReplayAggregate};

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

/// Outcome of a whole replay run: plain data, with no methods. Every
/// population figure (PNR, option mix, relayed fraction) is read from
/// [`Outcome::aggregate`]; a figure over a subset of calls reads
/// [`Outcome::calls`], which only a run with
/// [`ReplayConfig::collect_calls`] on keeps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    /// Strategy display name.
    pub strategy: String,
    /// Objective metric the run optimized.
    pub objective: Metric,
    /// Per-call outcomes, in trace order. Empty when
    /// [`ReplayConfig::collect_calls`] is off, so a reader of a subset must
    /// check that it holds `aggregate.calls` entries.
    pub calls: Vec<CallOutcome>,
    /// Sequential-merge aggregate over every replayed call (PNR counters,
    /// option mix, order-sensitive digest). Always populated,
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
