//! Receiver-side merge model for multipath calls.
//!
//! A multipath call sends its RTP stream over a small *set* of relay paths —
//! every packet on every path (duplicate) or round-robin across the set
//! (stripe). The receiver sees up to one copy per path per sequence number
//! and must dedup, reorder, and play out in order. This module models that
//! pipeline at packet level:
//!
//! 1. **Per-path synthesis** — each path runs its own Gilbert–Elliott loss
//!    chain and correlated delay process (the same machinery as
//!    [`crate::call_sim`]), seeded from the path's stable key so the draws
//!    are a property of the *path*, never of its position in the set.
//! 2. **Dedup and reorder** — the merged per-sequence arrival is the
//!    earliest copy across paths ([`receive`]); later copies are dedup
//!    drops. Taking the minimum makes the merge order-independent across
//!    path permutations and idempotent by construction.
//! 3. **In-order playout** — a packet cannot play before its predecessor,
//!    so the release time is `max(arrival, previous release)`: the
//!    head-of-line/reordering penalty. Effective delay, effective loss and
//!    RFC 3550 jitter over the *released* stream form the merged
//!    [`PathMetrics`] triple that feeds the existing MOS pipeline.
//! 4. **Failover** — a path can die mid-call (explicitly via
//!    [`PathSpec::dies_at_ms`] or drawn from [`MergeConfig::death_prob`]);
//!    packets it would carry after that instant are lost. A death with a
//!    surviving sibling is a failover (the call degrades but continues);
//!    when every path is dead before the call ends the report carries the
//!    same typed [`MergeFailure`] a singlepath relay death produces.

// Runs once per multipath call inside the shard loop: no cast may truncate
// silently.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use rand::prelude::*;
use rand::rngs::StdRng;
use via_model::metrics::PathMetrics;
use via_model::seed;

use crate::call_sim::{FRAME_MS, TS_PER_FRAME};
use crate::delay::DelayModel;
use crate::jitter::JitterEstimator;
use crate::loss::GilbertElliott;

/// How the sender spreads the stream over the path set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// Every packet rides every live path; the receiver keeps the first
    /// copy. Loss requires all copies lost.
    Duplicate,
    /// Packets round-robin across the live paths (by ascending path key, so
    /// the assignment is independent of input order); each packet rides
    /// exactly one path.
    Stripe,
}

/// One path's contribution to a multipath call.
#[derive(Debug, Clone, Copy)]
pub struct PathSpec {
    /// The path's per-call average metrics (RTT, loss, jitter).
    pub metrics: PathMetrics,
    /// Stable identity of the path (e.g. the relay option's stable code).
    /// Seeds the path's loss/delay streams and orders stripe assignment;
    /// keys within one set must be distinct.
    pub key: u64,
    /// Milliseconds into the call at which the path dies; packets sent at
    /// or after this instant on this path are lost. `f64::INFINITY` (the
    /// [`PathSpec::alive`] constructor) means the path outlives the call.
    pub dies_at_ms: f64,
}

impl PathSpec {
    /// A path that stays up for the whole call.
    pub fn alive(metrics: PathMetrics, key: u64) -> PathSpec {
        PathSpec {
            metrics,
            key,
            dies_at_ms: f64::INFINITY,
        }
    }
}

/// Tunables of the merge simulation.
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// Frames (20 ms each) synthesized per call. The replay hot path keeps
    /// this small; quality experiments can raise it.
    pub frames: usize,
    /// Mean loss-burst length, packets (Gilbert–Elliott bad-state sojourn).
    pub burst_len: f64,
    /// AR(1) coefficient of each path's delay process.
    pub delay_rho: f64,
    /// Probability that a path dies mid-call (drawn per path from the
    /// path's own stream; the death instant is uniform over the call).
    /// Explicit [`PathSpec::dies_at_ms`] combines with the draw via `min`.
    pub death_prob: f64,
}

impl Default for MergeConfig {
    fn default() -> Self {
        Self {
            frames: 32,
            burst_len: 6.0,
            delay_rho: 0.5,
            death_prob: 0.0,
        }
    }
}

/// Typed failure of a multipath call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeFailure {
    /// Every path in the set died before the call ended. With `k = 1` this
    /// is exactly a singlepath relay death, so the kind string is shared.
    AllPathsDown,
}

impl MergeFailure {
    /// Stable label for deterministic summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            MergeFailure::AllPathsDown => "all-paths-down",
        }
    }
}

/// Per-path arrival times for one call: `arrivals[s]` is the sequence-`s`
/// copy's arrival in ms, or `f64::INFINITY` when the copy was lost or the
/// path did not carry that sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct PathArrivals {
    /// The path's stable key (carried through for diagnostics).
    pub key: u64,
    /// Arrival time per sequence number; `INFINITY` = no copy.
    pub arrivals: Vec<f64>,
}

/// The deduped, per-sequence view the receiver plays from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MergedStream {
    /// Earliest arrival per sequence across all paths; `INFINITY` = lost
    /// on every path that carried it.
    pub arrivals: Vec<f64>,
    /// Copies that reached the receiver, duplicates included.
    pub copies_received: u64,
    /// Sequences with at least one received copy.
    pub unique_received: u64,
}

impl MergedStream {
    /// Redundant copies the dedup stage discarded: every received copy
    /// beyond the first of its sequence.
    pub fn dedup_drops(&self) -> u64 {
        self.copies_received - self.unique_received
    }
}

/// Dedup-and-reorder stage: folds per-path arrivals into one per-sequence
/// stream, keeping the earliest copy of each sequence. Pure and
/// order-independent — any permutation of `paths` produces the same stream
/// — and idempotent: receiving a merged stream again changes nothing.
/// Sequence-space length is the longest path's; shorter paths simply carry
/// no copies of the tail.
pub fn receive(paths: &[PathArrivals], out: &mut MergedStream) {
    out.arrivals.clear();
    out.copies_received = 0;
    out.unique_received = 0;
    let n = paths.iter().map(|p| p.arrivals.len()).max().unwrap_or(0);
    out.arrivals.resize(n, f64::INFINITY);
    for p in paths {
        for (s, &a) in p.arrivals.iter().enumerate() {
            if a.is_finite() {
                out.copies_received += 1;
                if a < out.arrivals[s] {
                    out.arrivals[s] = a;
                }
            }
        }
    }
    out.unique_received = out.arrivals.iter().filter(|a| a.is_finite()).count() as u64;
}

/// Report of one merged multipath call.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// Unique sequences sent (frames in the call).
    pub sent: u64,
    /// Copies that reached the receiver across all paths.
    pub copies_received: u64,
    /// Sequences with at least one received copy.
    pub unique_received: u64,
    /// Redundant copies discarded by dedup.
    pub dedup_drops: u64,
    /// Mean head-of-line/reordering wait added by in-order playout, ms.
    pub reorder_wait_ms: f64,
    /// Paths that died mid-call while a sibling survived.
    pub failovers: u64,
    /// True when a path died mid-call but the call completed on survivors.
    pub degraded: bool,
    /// Set when every path died before the call ended.
    pub failure: Option<MergeFailure>,
    /// The merged effective metric triple — two-way delay including the
    /// head-of-line wait, loss after redundancy, RFC 3550 jitter of the
    /// released stream — ready for the MOS pipeline.
    pub effective: PathMetrics,
}

/// Reusable buffers for [`simulate_set`]; one per worker keeps the hot
/// path allocation-free across calls.
#[derive(Debug, Default)]
pub struct MergeScratch {
    paths: Vec<PathArrivals>,
    stream: MergedStream,
    order: Vec<usize>,
    dies: Vec<f64>,
}

/// Simulates one multipath call over `specs` and merges it receiver-side.
/// Deterministic in `(specs, mode, cfg, call_seed)` and — because every
/// per-path draw comes from a stream derived from the path's own key —
/// invariant under permutations of `specs`.
pub fn simulate_set(
    specs: &[PathSpec],
    mode: MergeMode,
    cfg: &MergeConfig,
    call_seed: u64,
    scratch: &mut MergeScratch,
) -> MergeReport {
    let frames = cfg.frames.max(2);
    let duration_ms = frames as f64 * FRAME_MS;

    // Stripe assignment walks paths by ascending key so the carrier of a
    // sequence never depends on input order.
    scratch.order.clear();
    scratch.order.extend(0..specs.len());
    scratch
        .order
        .sort_by_key(|&p| specs.get(p).map_or(0, |s| s.key));

    // Death instants: the explicit spec value, min-combined with a drawn
    // death from the path's own stream.
    scratch.dies.clear();
    for spec in specs {
        let mut die = spec.dies_at_ms;
        if cfg.death_prob > 0.0 {
            let mut rng =
                StdRng::seed_from_u64(seed::derive_indexed(call_seed, "merge-death", spec.key));
            if rng.random::<f64>() < cfg.death_prob {
                die = die.min(rng.random::<f64>() * duration_ms);
            }
        }
        scratch.dies.push(die);
    }

    synthesize_paths(specs, mode, cfg, call_seed, frames, scratch);
    receive(&scratch.paths, &mut scratch.stream);

    // Failover accounting: a death strictly inside the call is a failover
    // when some sibling is still alive at that instant.
    let mut failovers = 0u64;
    let mut died_mid_call = 0usize;
    for (p, &die) in scratch.dies.iter().enumerate() {
        if die < duration_ms {
            died_mid_call += 1;
            let survivor = scratch
                .dies
                .iter()
                .enumerate()
                .any(|(q, &other)| q != p && other > die);
            if survivor {
                failovers += 1;
            }
        }
    }
    let all_down = !specs.is_empty() && died_mid_call == specs.len();
    let degraded = died_mid_call > 0 && !all_down;

    let mut report = playout(&scratch.stream, frames, specs);
    report.failovers = failovers;
    report.degraded = degraded;
    report.failure = all_down.then_some(MergeFailure::AllPathsDown);
    report
}

/// Synthesizes each path's per-sequence arrivals into `scratch.paths`.
/// Every path advances its loss and delay chains on every frame (the
/// network queue exists whether or not a packet rides it), so a path's
/// draw sequence depends only on its key — never on the carrier schedule.
fn synthesize_paths(
    specs: &[PathSpec],
    mode: MergeMode,
    cfg: &MergeConfig,
    call_seed: u64,
    frames: usize,
    scratch: &mut MergeScratch,
) {
    scratch.paths.clear();
    for (p, spec) in specs.iter().enumerate() {
        let mut rng =
            StdRng::seed_from_u64(seed::derive_indexed(call_seed, "merge-path", spec.key));
        let one_way = spec.metrics.rtt_ms / 2.0;
        let mut loss =
            GilbertElliott::with_mean_loss(spec.metrics.loss_pct, cfg.burst_len, &mut rng);
        let mut delay =
            DelayModel::for_target_jitter(one_way, spec.metrics.jitter_ms, cfg.delay_rho);
        let die = scratch.dies.get(p).copied().unwrap_or(f64::INFINITY);

        let mut arrivals = Vec::with_capacity(frames);
        for s in 0..frames {
            let send_ms = s as f64 * FRAME_MS;
            let lost = loss.next_lost(&mut rng);
            let d = delay.next_delay(&mut rng);
            let carried =
                send_ms < die && carries(specs, &scratch.order, &scratch.dies, mode, p, s);
            if carried && !lost {
                arrivals.push(send_ms + d);
            } else {
                arrivals.push(f64::INFINITY);
            }
        }
        scratch.paths.push(PathArrivals {
            key: spec.key,
            arrivals,
        });
    }
}

/// Whether path `p` carries sequence `s`: all live paths under duplicate,
/// the `s mod |live|`-th live path (in ascending key order) under stripe.
fn carries(
    specs: &[PathSpec],
    order: &[usize],
    dies: &[f64],
    mode: MergeMode,
    p: usize,
    s: usize,
) -> bool {
    match mode {
        MergeMode::Duplicate => true,
        MergeMode::Stripe => {
            let send_ms = s as f64 * FRAME_MS;
            let live = |q: &usize| dies.get(*q).copied().unwrap_or(f64::INFINITY) > send_ms;
            let alive = order.iter().filter(|q| live(q)).count();
            if alive == 0 {
                // No carrier left; charge the sequence to every dead path
                // equally (it is lost regardless).
                return specs.len() == 1 || p == order.first().copied().unwrap_or(0);
            }
            order
                .iter()
                .filter(|q| live(q))
                .nth(s % alive)
                .copied()
                .unwrap_or(usize::MAX)
                == p
        }
    }
}

/// Intermediate playout result (reused as the report skeleton).
fn playout(stream: &MergedStream, frames: usize, specs: &[PathSpec]) -> MergeReport {
    let mut estimator = JitterEstimator::new();
    let mut release = 0.0f64;
    let mut wait_sum = 0.0f64;
    let mut delay_sum = 0.0f64;
    let mut released = 0u64;
    let mut ts: u32 = 0;
    for (s, &arrival) in stream.arrivals.iter().enumerate() {
        if arrival.is_finite() {
            release = if arrival > release { arrival } else { release };
            let send_ms = s as f64 * FRAME_MS;
            wait_sum += release - arrival;
            delay_sum += release - send_ms;
            estimator.on_packet(release, ts);
            released += 1;
        }
        ts = ts.wrapping_add(TS_PER_FRAME);
    }

    let effective = if released > 0 {
        PathMetrics::new(
            2.0 * delay_sum / released as f64,
            100.0 * (frames as f64 - released as f64) / frames as f64,
            estimator.jitter_ms(),
        )
    } else {
        // Nothing arrived: loss saturates; report the set's best base RTT
        // (permutation-invariant) so the triple stays well-formed.
        let best_rtt = specs
            .iter()
            .map(|spec| spec.metrics.rtt_ms)
            .min_by(f64::total_cmp)
            .unwrap_or(0.0);
        PathMetrics::new(best_rtt, 100.0, 0.0)
    };

    MergeReport {
        sent: frames as u64,
        copies_received: stream.copies_received,
        unique_received: stream.unique_received,
        dedup_drops: stream.dedup_drops(),
        reorder_wait_ms: if released > 0 {
            wait_sum / released as f64
        } else {
            0.0
        },
        failovers: 0,
        degraded: false,
        failure: None,
        effective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> PathMetrics {
        PathMetrics::new(80.0, 0.5, 3.0)
    }

    fn lossy() -> PathMetrics {
        PathMetrics::new(120.0, 8.0, 10.0)
    }

    fn sim(specs: &[PathSpec], mode: MergeMode, cfg: &MergeConfig, seed: u64) -> MergeReport {
        let mut scratch = MergeScratch::default();
        simulate_set(specs, mode, cfg, seed, &mut scratch)
    }

    #[test]
    fn deterministic_and_permutation_invariant() {
        let cfg = MergeConfig {
            frames: 64,
            ..MergeConfig::default()
        };
        let a = PathSpec::alive(clean(), 11);
        let b = PathSpec::alive(lossy(), 22);
        let ab = sim(&[a, b], MergeMode::Duplicate, &cfg, 7);
        let ba = sim(&[b, a], MergeMode::Duplicate, &cfg, 7);
        assert_eq!(ab, ba, "duplicate merge must not depend on path order");
        let ab_s = sim(&[a, b], MergeMode::Stripe, &cfg, 7);
        let ba_s = sim(&[b, a], MergeMode::Stripe, &cfg, 7);
        assert_eq!(ab_s, ba_s, "stripe assignment is keyed, not positional");
        assert_eq!(ab, sim(&[a, b], MergeMode::Duplicate, &cfg, 7));
    }

    #[test]
    fn duplication_reduces_loss_and_drops_duplicates() {
        let cfg = MergeConfig {
            frames: 512,
            ..MergeConfig::default()
        };
        let a = PathSpec::alive(lossy(), 1);
        let b = PathSpec::alive(lossy(), 2);
        let single = sim(&[a], MergeMode::Duplicate, &cfg, 3);
        let dual = sim(&[a, b], MergeMode::Duplicate, &cfg, 3);
        assert!(
            dual.effective.loss_pct < single.effective.loss_pct,
            "2-path duplication must cut loss: {} vs {}",
            dual.effective.loss_pct,
            single.effective.loss_pct
        );
        assert!(dual.dedup_drops > 0, "duplicates must be deduped");
        assert_eq!(single.dedup_drops, 0, "k=1 has nothing to dedup");
    }

    #[test]
    fn stripe_sends_each_sequence_once() {
        let cfg = MergeConfig {
            frames: 100,
            ..MergeConfig::default()
        };
        let r = sim(
            &[PathSpec::alive(clean(), 1), PathSpec::alive(clean(), 2)],
            MergeMode::Stripe,
            &cfg,
            5,
        );
        assert_eq!(r.dedup_drops, 0, "striping never duplicates");
        assert!(r.unique_received as usize > 90);
    }

    #[test]
    fn mid_call_death_with_survivor_is_failover_not_failure() {
        let cfg = MergeConfig {
            frames: 100,
            ..MergeConfig::default()
        };
        let mut dying = PathSpec::alive(clean(), 1);
        dying.dies_at_ms = 500.0;
        let r = sim(
            &[dying, PathSpec::alive(clean(), 2)],
            MergeMode::Duplicate,
            &cfg,
            5,
        );
        assert_eq!(r.failovers, 1);
        assert!(r.degraded);
        assert_eq!(r.failure, None);
        assert!(r.unique_received > 90, "survivor carries the call");
    }

    #[test]
    fn all_paths_down_is_the_singlepath_death_failure() {
        let cfg = MergeConfig {
            frames: 50,
            ..MergeConfig::default()
        };
        let mut a = PathSpec::alive(clean(), 1);
        a.dies_at_ms = 100.0;
        let mut b = PathSpec::alive(clean(), 2);
        b.dies_at_ms = 300.0;
        let both = sim(&[a, b], MergeMode::Duplicate, &cfg, 5);
        let single = sim(&[a], MergeMode::Duplicate, &cfg, 5);
        assert_eq!(both.failure, Some(MergeFailure::AllPathsDown));
        assert_eq!(single.failure, Some(MergeFailure::AllPathsDown));
        assert_eq!(
            both.failure.map(|f| f.kind()),
            single.failure.map(|f| f.kind()),
            "k=2 total death must carry the singlepath death cause"
        );
    }

    #[test]
    fn reorder_wait_is_nonnegative_and_bounded_by_delay() {
        let cfg = MergeConfig {
            frames: 256,
            ..MergeConfig::default()
        };
        let r = sim(
            &[PathSpec::alive(clean(), 1), PathSpec::alive(lossy(), 2)],
            MergeMode::Stripe,
            &cfg,
            9,
        );
        assert!(r.reorder_wait_ms >= 0.0);
        assert!(r.effective.rtt_ms >= clean().rtt_ms * 0.2);
    }
}
