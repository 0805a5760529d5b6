//! One window's calls on the worker pool: the calls grouped by decision
//! key ([`WindowGroups`]), and the shard loop that replays a shard's groups
//! call by call — decide, realize, record.

use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;
use via_media::merge::{simulate_set, MergeMode, MergeScratch, PathSpec};
use via_model::metrics::{Metric, PathMetrics};
use via_model::options::RelayOption;
use via_model::seed;
use via_model::time::{SimTime, Window};
use via_trace::CallRecord;

use super::{CallOutcome, HotIds, ReplaySim, MULTIPATH_MERGE};
use crate::history::{record_grouped, GroupedCell, KeyPair};
use crate::predictor::Predictor;
use crate::selector::{Explore, PairArms, Plan, Selector, Source};
use crate::strategy::MultipathMode;

/// One decision key's work within a window: where its calls are in the
/// window's [`WindowGroups`] plus the state handed to whichever shard owns
/// the pair.
pub(super) struct PairGroup {
    pub(super) pair: KeyPair,
    /// The pair's calls this window are `call_idx[start..start + len]`.
    pub(super) start: usize,
    len: usize,
    /// The shard the group runs on.
    pub(super) shard: usize,
    /// Pre-built arms (gated plans build eagerly for the gate pass).
    pub(super) state: Option<PairArms>,
    /// The §7 decision-cache entry: incoming, then as the group's misses
    /// rewrite it.
    pub(super) cached: Option<(RelayOption, SimTime)>,
    /// The oracle decides once per (pair, window), from the pair's exemplar
    /// call: ground truth is constant between refit barriers, and the memo
    /// is keyed by the same granularity KeyPair as every learning strategy.
    /// (Keying the oracle by raw AS pair would hand it finer spatial
    /// resolution than the Figure 17a granularity sweep grants the
    /// contenders.)
    memo: Option<RelayOption>,
}

impl PairGroup {
    fn new(pair: KeyPair, start: usize, len: usize) -> PairGroup {
        PairGroup {
            pair,
            start,
            len,
            shard: 0,
            state: None,
            cached: None,
            memo: None,
        }
    }
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

/// One window's calls grouped by decision key ([`WindowGroups::regroup`]),
/// or split into trace-order runs ([`WindowGroups::chunk`]), as flat arrays
/// that are cleared and refilled window after window: nothing here is
/// allocated per group, and nothing is sized by more than one window.
#[derive(Default)]
pub(super) struct WindowGroups {
    /// Pair → its index in `groups`, for the window being grouped.
    index: HashMap<KeyPair, usize, std::hash::BuildHasherDefault<PairHasher>>,
    /// One group per pair, in the order the pairs first appear in the batch
    /// (or one per run, in batch order).
    pub(super) groups: Vec<PairGroup>,
    /// The group of each call of the batch.
    pub(super) group_of_call: Vec<usize>,
    /// Batch-relative call indices, each group's contiguous and ascending.
    pub(super) call_idx: Vec<usize>,
}

impl WindowGroups {
    /// Groups a batch, given each call's pair in batch order, in one pass
    /// over the pair index and one counting-sort scatter.
    pub(super) fn regroup(&mut self, pairs: impl Iterator<Item = KeyPair>) {
        self.index.clear();
        self.groups.clear();
        self.group_of_call.clear();
        for pair in pairs {
            let g = *self.index.entry(pair).or_insert_with(|| {
                self.groups.push(PairGroup::new(pair, 0, 0));
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

    /// Splits a batch of `n` calls into at most `parts` contiguous runs of
    /// near-equal length, one group each, with `call_idx` the identity: the
    /// fill for a plan that keeps no per-pair state, whose shards then read
    /// their calls and write their outcomes in trace order. A run's pair is
    /// a placeholder: nothing such a plan does reads it.
    pub(super) fn chunk(&mut self, n: usize, parts: usize) {
        self.groups.clear();
        self.group_of_call.clear();
        self.call_idx.clear();
        self.call_idx.extend(0..n);
        let parts = parts.max(1);
        for r in 0..parts {
            let (start, end) = (r * n / parts, (r + 1) * n / parts);
            if start < end {
                let g = self.groups.len();
                let run = PairGroup::new(KeyPair::new(0, 0), start, end - start);
                self.groups.push(run);
                self.group_of_call.resize(end, g);
            }
        }
    }

    /// Spreads the groups over `nshards` shards: longest processing time
    /// first by call count, ties by pair, each to the least-loaded shard.
    pub(super) fn assign_shards(&mut self, nshards: usize) {
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
pub(super) struct WindowCtx<'w> {
    pub(super) plan: &'w Plan,
    pub(super) window: Window,
    pub(super) predictor: Option<&'w Predictor>,
    /// The gate pass's verdicts, one per call of `batch`: true is "forced
    /// direct".
    pub(super) gated: Option<&'w [bool]>,
    /// The window's calls; every call index in `call_idx` or a
    /// [`ShardResult`] is relative to this.
    pub(super) batch: &'w [CallRecord],
    /// [`WindowGroups::call_idx`]: where a [`PairGroup`] finds its calls.
    pub(super) call_idx: &'w [usize],
    pub(super) ids: &'w HotIds,
}

/// What one shard hands back at the window barrier, which drains it: the
/// buffers live in the shard's [`WorkerSlot`] and keep their capacity.
#[derive(Default)]
pub(super) struct ShardResult {
    /// (batch-relative index, outcome) for every call the shard carried.
    pub(super) outcomes: Vec<(usize, CallOutcome)>,
    /// The window's history cells (disjoint: a pair lives on exactly one
    /// shard), each pair group's contiguous.
    pub(super) history: Vec<GroupedCell>,
    /// Controller round-trips (cache misses) on this shard.
    pub(super) contacts: u64,
    /// Hybrid-racing setup probes issued on this shard.
    pub(super) race_probes: u64,
}

/// Worker-local scratch buffers, one per shard: candidate enumeration,
/// option staging, and top-k scoring reuse these across every call the
/// shard carries, so the steady-state decision loop performs no heap
/// allocation.
#[derive(Default)]
pub(super) struct Scratch {
    /// Candidate options of the call under consideration.
    pub(super) cand: Vec<RelayOption>,
    /// Ranking buffers for the world's candidate enumeration.
    pub(super) topo: via_netsim::CandidateScratch,
    /// Per-path CRN realizations of the current multipath set.
    set_specs: Vec<PathSpec>,
    /// Per-path metric triples (parallel to the selector's path set) for
    /// semi-bandit feedback.
    set_metrics: Vec<PathMetrics>,
    /// Receiver-side merge buffers, reused across calls.
    merge_buf: MergeScratch,
}

/// Per-worker state that survives across window barriers: the hot metric
/// sink (folded and cleared at each barrier), the worker's selector, the
/// scoring/sampling scratch buffers and the shard's result buffers. Slot `i`
/// always serves shard `i`, so the fold order at the barrier is the fixed
/// shard-index order.
pub(super) struct WorkerSlot {
    pub(super) hot: via_obs::HotSink,
    selector: Selector,
    pub(super) scratch: Scratch,
    sample: via_netsim::SampleScratch,
    pub(super) out: ShardResult,
}

impl WorkerSlot {
    pub(super) fn new(ids: &HotIds, metrics: bool, selector: Selector) -> WorkerSlot {
        WorkerSlot {
            hot: if metrics {
                ids.schema.make_sink()
            } else {
                via_obs::HotSink::default()
            },
            selector,
            scratch: Scratch::default(),
            sample: via_netsim::SampleScratch::new(),
            out: ShardResult::default(),
        }
    }
}
impl<'a> ReplaySim<'a> {
    /// The call's candidate with the least `cost` (first wins ties; the
    /// direct path when none is finite) — the oracle's per-(pair, window)
    /// decision.
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

    /// Stage 3 of Algorithm 1 for one pair group: enumerates its exemplar
    /// call's candidates and builds the arms. A pure function of (predictor,
    /// group), so the gate pass and a shard's first miss build the same arms
    /// — once per (pair, window) either way, which is what makes this the
    /// place to record one CI-width sample per kept arm. `lone` says the
    /// group holds one call (see [`Selector::arms`]).
    pub(super) fn build_arms(
        &self,
        pred: &Predictor,
        ids: &HotIds,
        pair: KeyPair,
        lone: bool,
        exemplar: &CallRecord,
        slot: &mut WorkerSlot,
    ) -> PairArms {
        let WorkerSlot {
            hot,
            selector,
            scratch: Scratch { topo, cand, .. },
            ..
        } = slot;
        self.candidates_into(exemplar.src_as, exemplar.dst_as, topo, cand);
        let view = pred.pair(pair);
        let built = selector.arms(|o| view.predict(o), cand, lone);
        if hot.keeps_records() {
            for width in selector.ci_widths() {
                hot.observe(ids.ci_width, width);
            }
        }
        built
    }

    /// Replays one shard's pair groups for one window: decide, realize,
    /// record, call by call. Everything a pair touches — its bandit,
    /// decision-cache entry, oracle memo, history cells — lives on this
    /// shard alone, so the per-pair computation is identical to a sequential
    /// walk of the same calls.
    pub(super) fn process_shard(
        &self,
        ctx: &WindowCtx<'_>,
        work: Vec<&mut PairGroup>,
        slot: &mut WorkerSlot,
    ) {
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
    /// first, in the slot's selector; every other decision leaves at most
    /// one option there.
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
            // instead of once per option. Every scan of a window is at its
            // midpoint and a lone realization skips the memo, so a worker's
            // scans share it across the window's pair groups.
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
            Source::Arms => match (g.cached, ctx.predictor) {
                // §7 decision cache: the client reuses a cached controller
                // decision until it expires; only misses consult the
                // selection stack. (Entries exist only under a caching plan.)
                (Some((opt, expires)), _) if call.t < expires => {
                    slot.hot.inc(ids.cache_hits, 1);
                    opt
                }
                // `learns()` guarantees a predictor; a defensive `None` (cold
                // controller) falls back to the direct path instead of
                // panicking.
                (_, None) => RelayOption::Direct,
                (_, Some(pred)) => {
                    if plan.cache_ttl_secs.is_some() {
                        slot.out.contacts += 1;
                        slot.hot.inc(ids.cache_misses, 1);
                    }
                    let (pair, lone) = (g.pair, g.len == 1);
                    let st = &*g
                        .state
                        .get_or_insert_with(|| self.build_arms(pred, ids, pair, lone, call, slot));
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
                        // gate pass; they arrive as per-call flags. The ε
                        // coin is the call's own, and general exploration
                        // re-enumerates the call's own candidates.
                        let WorkerSlot {
                            selector,
                            scratch: Scratch { topo, cand, .. },
                            ..
                        } = slot;
                        let d = selector.decide(
                            st,
                            ctx.gated.is_some_and(|flags| flags[i]),
                            u64::from(call.id.0),
                            || {
                                self.candidates_into(call.src_as, call.dst_as, topo, cand);
                                cand
                            },
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
    /// paths of one instant share (a lone path shares none and skips it).
    /// Returns the call's metrics and its direct-path baseline.
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
            selector,
            scratch,
            sample,
            ..
        } = slot;
        let set = selector.set();
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
        if set.len() > 1 {
            // Multipath: realize every path in the set under its own CRN
            // stream, then merge receiver-side. The per-path triples stay in
            // scratch for semi-bandit feedback; the merged effective triple
            // is what the call records.
            scratch.set_specs.clear();
            scratch.set_metrics.clear();
            for &o in set {
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
            let fold = set
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
            hot.inc(ids.multipath_extra_paths, set.len() as u64 - 1);
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
            // The memo would be filled and thrown away at the next instant.
            let path = perf.sample_option(src, dst, option, t, &mut stream(option));
            let m = call.access_extra.apply(&path);
            (m, m)
        }
    }

    /// Books a realized call: the hot metrics (into the shard's sink, which
    /// keeps them only in a run that collects metrics), the feedback to the
    /// pair's arms and history cells, and the outcome.
    #[expect(clippy::too_many_arguments, reason = "the shard loop's third step")]
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
            hot,
            selector,
            scratch,
            out,
            ..
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
            let set = selector.set();
            if set.len() > 1 {
                for (&o, m) in set.iter().zip(&scratch.set_metrics) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window's pair groups as `engine_window` formed them before the flat
    /// groups — a `HashMap` from pair to slot and one member `Vec` per group
    /// — over each call's `(ka, kb)`: groups in first-seen order, each the
    /// pair and the members' batch indices.
    fn reference_groups(keys: &[(u32, u32)]) -> Vec<(KeyPair, Vec<usize>)> {
        let mut slot_of_pair: HashMap<KeyPair, usize> = HashMap::new();
        let mut groups: Vec<(KeyPair, Vec<usize>)> = Vec::new();
        for (i, &(ka, kb)) in keys.iter().enumerate() {
            let pair = KeyPair::new(ka, kb);
            let slot = *slot_of_pair.entry(pair).or_insert_with(|| {
                groups.push((pair, Vec::new()));
                groups.len() - 1
            });
            groups[slot].1.push(i);
        }
        groups
    }

    /// What [`WindowGroups::chunk`] must make of a batch of `n` calls over
    /// `parts` workers, on arrays a pair walk filled first.
    fn check_chunk(n: usize, parts: usize) {
        let mut flat = WindowGroups::default();
        flat.regroup((0..n as u32).map(|i| KeyPair::new(i % 7, i % 3)));
        flat.chunk(n, parts);
        assert_eq!(flat.groups.len(), n.min(parts), "one run per worker");
        assert!(flat.call_idx.iter().copied().eq(0..n), "identity call_idx");
        assert_eq!(flat.group_of_call.len(), n);
        let mut next = 0;
        for (r, g) in flat.groups.iter().enumerate() {
            assert_eq!(g.start, next, "runs are contiguous and ascending");
            assert!(
                g.len > 0 && g.len <= n.div_ceil(parts),
                "non-empty, near-equal"
            );
            assert!(flat.group_of_call[next..next + g.len]
                .iter()
                .all(|&x| x == r));
            next += g.len;
        }
        assert_eq!(next, n, "the runs cover the batch");
        // As the engine shards a window: one shard per group, at most.
        flat.assign_shards(parts.min(flat.groups.len()).max(1));
        let mut shards: Vec<usize> = flat.groups.iter().map(|g| g.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(shards.len(), flat.groups.len(), "each run on its own shard");
    }

    #[test]
    fn chunk_handles_an_empty_batch_and_fewer_calls_than_workers() {
        for (n, parts) in [(0, 1), (0, 8), (1, 1), (3, 8), (7, 8)] {
            check_chunk(n, parts);
        }
    }

    proptest::proptest! {
        #[test]
        fn chunk_splits_a_batch_into_contiguous_runs(n in 0usize..=2000, parts in 1usize..=8) {
            check_chunk(n, parts);
        }

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
                flat.regroup(keys.iter().map(|&(ka, kb)| KeyPair::new(ka, kb)));
                let got: Vec<_> = flat
                    .groups
                    .iter()
                    .map(|g| (g.pair, flat.call_idx[g.start..g.start + g.len].to_vec()))
                    .collect();
                proptest::prop_assert_eq!(&got, &groups);
                for (g, (_, members)) in groups.iter().enumerate() {
                    proptest::prop_assert!(members.iter().all(|&i| flat.group_of_call[i] == g));
                }
            }
            let mut seen = vec![0usize; keys.len()];
            for (g, (pair, members)) in groups.iter().enumerate() {
                proptest::prop_assert!(!members.is_empty());
                proptest::prop_assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending");
                for &i in members {
                    let (ka, kb) = keys[i];
                    proptest::prop_assert_eq!(KeyPair::new(ka, kb), *pair);
                    seen[i] += 1;
                }
                // One group per pair, in first-seen order.
                proptest::prop_assert!(groups[..g].iter().all(|(p, _)| p != pair));
                proptest::prop_assert!(groups[..g].iter().all(|(_, m)| m[0] < members[0]));
            }
            proptest::prop_assert!(seen.iter().all(|&n| n == 1), "a partition of the batch");
            // (a, b) and (b, a) share a group, (a, a) is a pair like any other.
            for (i, &(a, b)) in keys.iter().enumerate() {
                for (j, &(c, d)) in keys.iter().enumerate() {
                    let together = groups.iter().any(|(_, m)| m.contains(&i) && m.contains(&j));
                    proptest::prop_assert_eq!(together, (a, b) == (c, d) || (a, b) == (d, c));
                }
            }
        }
    }
}
