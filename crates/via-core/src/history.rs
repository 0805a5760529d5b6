//! Call-history storage: the controller's measurement database.
//!
//! §3.1 of the paper: clients push the network metrics of completed calls to
//! the controller, which aggregates them per (source, destination, relaying
//! option) and time window. This store keeps one [`MetricStats`] (a Welford
//! accumulator per metric) per `(pair, option, window)` cell and can iterate
//! a whole window's cells — the training set for the tomography predictor.
//!
//! Pairs are keyed by a *spatial key* rather than raw AS ids so the same
//! machinery supports the granularity sweep of Figure 17a (country-level,
//! AS-level, or finer-than-AS decisions).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use via_model::metrics::{Metric, PathMetrics};
use via_model::options::RelayOption;
use via_model::stats::OnlineStats;
use via_model::time::Window;

/// Canonical (order-independent) pair of spatial keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KeyPair {
    /// Smaller key.
    pub lo: u32,
    /// Larger key.
    pub hi: u32,
}

impl KeyPair {
    /// Builds the canonical pair.
    pub fn new(a: u32, b: u32) -> Self {
        if a <= b {
            Self { lo: a, hi: b }
        } else {
            Self { lo: b, hi: a }
        }
    }
}

/// Per-metric Welford accumulators for one (pair, option, window) cell.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricStats {
    stats: [OnlineStats; 3],
}

impl MetricStats {
    /// Folds one call's metrics in.
    pub fn push(&mut self, m: &PathMetrics) {
        for (i, &metric) in Metric::ALL.iter().enumerate() {
            self.stats[i].push(m[metric]);
        }
    }

    /// Accumulator for one metric axis.
    pub fn metric(&self, m: Metric) -> &OnlineStats {
        match m {
            Metric::Rtt => &self.stats[0],
            Metric::Loss => &self.stats[1],
            Metric::Jitter => &self.stats[2],
        }
    }

    /// Number of calls aggregated (same for every axis).
    pub fn count(&self) -> u64 {
        self.stats[0].count()
    }

    /// Merges another cell's accumulators into this one (per-axis Welford
    /// merge); used when combining histories from independent collectors.
    pub fn merge(&mut self, other: &MetricStats) {
        for (dst, src) in self.stats.iter_mut().zip(&other.stats) {
            dst.merge(src);
        }
    }
}

/// One time window's worth of measurements.
///
/// The call total is kept as a running counter instead of being recomputed
/// by folding over the cell map: the fold's result was order-independent
/// (u64 sum), but iterating a hash map into *any* reduction is the exact
/// shape the `map-iteration-order` lint denies, and a stored counter is
/// O(1) where the fold was O(cells).
#[derive(Debug, Default)]
struct WindowSlot {
    /// (pair, option) → stats.
    cells: HashMap<(KeyPair, RelayOption), MetricStats>,
    /// Total calls recorded into this window, maintained on every record
    /// and merge.
    calls: u64,
}

/// The controller's measurement store.
#[derive(Debug, Default)]
pub struct CallHistory {
    /// window index → that window's cells and call total.
    windows: HashMap<u64, WindowSlot>,
}

impl CallHistory {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed call's measurements.
    pub fn record(&mut self, window: Window, pair: KeyPair, option: RelayOption, m: &PathMetrics) {
        let slot = self.windows.entry(window.index).or_default();
        slot.calls += 1;
        slot.cells
            .entry((pair, option.canonical()))
            .or_default()
            .push(m);
    }

    /// Installs a whole cell's accumulated statistics (snapshot restore).
    ///
    /// The window's call counter absorbs the cell's sample count; a cell
    /// that already exists is combined with the Chan et al. merge, exactly
    /// like [`Self::merge`].
    pub fn insert_cell(
        &mut self,
        window: Window,
        pair: KeyPair,
        option: RelayOption,
        stats: MetricStats,
    ) {
        let slot = self.windows.entry(window.index).or_default();
        slot.calls += stats.count();
        match slot.cells.entry((pair, option.canonical())) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(stats);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().merge(&stats);
            }
        }
    }

    /// Stats of one cell, if any calls were observed.
    pub fn cell(&self, window: Window, pair: KeyPair, option: RelayOption) -> Option<&MetricStats> {
        self.windows
            .get(&window.index)?
            .cells
            .get(&(pair, option.canonical()))
    }

    /// Iterates all cells of a window.
    pub fn window_cells(
        &self,
        window: Window,
    ) -> impl Iterator<Item = (&(KeyPair, RelayOption), &MetricStats)> {
        self.windows
            .get(&window.index)
            .into_iter()
            .flat_map(|slot| slot.cells.iter())
    }

    /// Number of distinct cells in a window.
    pub fn window_len(&self, window: Window) -> usize {
        self.windows.get(&window.index).map_or(0, |s| s.cells.len())
    }

    /// Total calls recorded in a window. O(1): the slot maintains the
    /// counter, so no iteration over the cell map is needed.
    pub fn window_calls(&self, window: Window) -> u64 {
        self.windows.get(&window.index).map_or(0, |s| s.calls)
    }

    /// Discards windows older than `keep_from` (controller memory bound; the
    /// predictor only ever trains on the previous window).
    pub fn prune_before(&mut self, keep_from: u64) {
        self.windows.retain(|&w, _| w >= keep_from);
    }

    /// Folds another history into this one, merging per-cell Welford
    /// accumulators where both sides observed the same cell.
    ///
    /// The window-parallel replay engine shards calls by [`KeyPair`], so each
    /// (pair, option, window) cell is written by exactly one shard and the
    /// merge is a disjoint insert — the per-cell push sequences (and hence
    /// the floating-point results) are bit-identical to a sequential run.
    /// Overlapping cells are still handled correctly (Chan et al. merge) for
    /// callers that combine histories from genuinely concurrent collectors.
    pub fn merge(&mut self, other: CallHistory) {
        // Iteration order cannot leak into results here: inserting the same
        // set of cells in any order yields the same map content, per-cell
        // merges are independent, and the call counter is a u64 sum
        // (commutative, no rounding). via-audit: allow(map-iteration-order)
        for (w, slot) in other.windows {
            let dst = self.windows.entry(w).or_default();
            dst.calls += slot.calls;
            for (key, stats) in slot.cells {
                match dst.cells.entry(key) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(stats);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        e.get_mut().merge(&stats);
                    }
                }
            }
        }
    }
}

/// A history cell accumulated outside the store, by a caller that walks one
/// pair's calls together (a replay shard): keyed as the store keys it, so a
/// sorted run of them is what [`crate::tomography::sorted_cells`] yields.
pub(crate) type GroupedCell = ((KeyPair, RelayOption), MetricStats);

/// [`CallHistory::record`] for such a caller: folds `m` into `pair`'s cell
/// for `option` among `grouped[group..]` — for a shard that one pair's cells,
/// a handful, so a linear scan finds it — or opens the cell. The cells end up
/// as per-call `record` would have left them in the store: the same cells,
/// each with the same push sequence and therefore the same bits, and nothing
/// was hashed.
pub(crate) fn record_grouped(
    grouped: &mut Vec<GroupedCell>,
    group: usize,
    pair: KeyPair,
    option: RelayOption,
    m: &PathMetrics,
) {
    let key = (pair, option.canonical());
    let found = grouped.iter_mut().skip(group).find(|c| c.0 == key);
    match found {
        Some((_, stats)) => stats.push(m),
        None => {
            let mut stats = MetricStats::default();
            stats.push(m);
            grouped.push((key, stats));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_model::ids::RelayId;
    use via_model::time::{SimTime, WindowLen};

    fn w(i: u64) -> Window {
        WindowLen::DAY.window_of(SimTime::from_days(i))
    }

    #[test]
    fn key_pair_is_canonical() {
        assert_eq!(KeyPair::new(5, 2), KeyPair::new(2, 5));
        assert_eq!(KeyPair::new(2, 5).lo, 2);
    }

    #[test]
    fn record_and_read_back() {
        let mut h = CallHistory::new();
        let pair = KeyPair::new(1, 2);
        let opt = RelayOption::Bounce(RelayId(3));
        h.record(w(0), pair, opt, &PathMetrics::new(100.0, 1.0, 5.0));
        h.record(w(0), pair, opt, &PathMetrics::new(200.0, 2.0, 7.0));
        let cell = h.cell(w(0), pair, opt).unwrap();
        assert_eq!(cell.count(), 2);
        assert_eq!(cell.metric(Metric::Rtt).mean(), Some(150.0));
        assert_eq!(cell.metric(Metric::Loss).mean(), Some(1.5));
        assert!(h.cell(w(1), pair, opt).is_none());
    }

    #[test]
    fn options_are_canonicalized_on_both_paths() {
        let mut h = CallHistory::new();
        let pair = KeyPair::new(0, 1);
        h.record(
            w(0),
            pair,
            RelayOption::Transit(RelayId(9), RelayId(4)),
            &PathMetrics::new(80.0, 0.5, 3.0),
        );
        let cell = h
            .cell(w(0), pair, RelayOption::Transit(RelayId(4), RelayId(9)))
            .unwrap();
        assert_eq!(cell.count(), 1);
    }

    #[test]
    fn window_iteration_and_counts() {
        let mut h = CallHistory::new();
        for i in 0..5 {
            h.record(
                w(1),
                KeyPair::new(i, i + 1),
                RelayOption::Direct,
                &PathMetrics::new(50.0, 0.1, 1.0),
            );
        }
        assert_eq!(h.window_len(w(1)), 5);
        assert_eq!(h.window_calls(w(1)), 5);
        assert_eq!(h.window_cells(w(1)).count(), 5);
        assert_eq!(h.window_len(w(0)), 0);
    }

    #[test]
    fn merge_combines_disjoint_and_overlapping_cells() {
        let mut a = CallHistory::new();
        let mut b = CallHistory::new();
        let p1 = KeyPair::new(1, 2);
        let p2 = KeyPair::new(3, 4);
        a.record(
            w(0),
            p1,
            RelayOption::Direct,
            &PathMetrics::new(100.0, 1.0, 5.0),
        );
        b.record(
            w(0),
            p2,
            RelayOption::Direct,
            &PathMetrics::new(50.0, 0.5, 2.0),
        );
        // Overlapping cell: both sides observed (p1, Direct, w0).
        b.record(
            w(0),
            p1,
            RelayOption::Direct,
            &PathMetrics::new(200.0, 3.0, 7.0),
        );
        a.merge(b);
        assert_eq!(a.window_len(w(0)), 2);
        let c1 = a.cell(w(0), p1, RelayOption::Direct).unwrap();
        assert_eq!(c1.count(), 2);
        assert_eq!(c1.metric(Metric::Rtt).mean(), Some(150.0));
        assert_eq!(a.cell(w(0), p2, RelayOption::Direct).unwrap().count(), 1);
    }

    #[test]
    fn sharded_merge_is_bit_identical_for_disjoint_pairs() {
        // The engine's invariant: when pairs are disjoint across shards, each
        // cell's push sequence is identical to the sequential run, so stats
        // must be bit-for-bit equal (not just approximately).
        let calls: Vec<(KeyPair, f64)> = (0..50)
            .map(|i| (KeyPair::new(i % 5, 100), 10.0 + f64::from(i) * 1.7))
            .collect();
        let mut seq = CallHistory::new();
        for (p, v) in &calls {
            seq.record(
                w(0),
                *p,
                RelayOption::Direct,
                &PathMetrics::new(*v, 0.0, 0.0),
            );
        }
        let mut merged = CallHistory::new();
        for shard in 0..5u32 {
            let mut local = CallHistory::new();
            for (p, v) in calls.iter().filter(|(p, _)| p.lo % 5 == shard) {
                local.record(
                    w(0),
                    *p,
                    RelayOption::Direct,
                    &PathMetrics::new(*v, 0.0, 0.0),
                );
            }
            merged.merge(local);
        }
        for i in 0..5 {
            let p = KeyPair::new(i, 100);
            let (a, b) = (
                seq.cell(w(0), p, RelayOption::Direct).unwrap(),
                merged.cell(w(0), p, RelayOption::Direct).unwrap(),
            );
            assert_eq!(a.metric(Metric::Rtt).mean(), b.metric(Metric::Rtt).mean());
            assert_eq!(a.metric(Metric::Rtt).sem(), b.metric(Metric::Rtt).sem());
        }
    }

    #[test]
    fn grouped_accumulation_then_insert_cell_equals_per_call_record() {
        let (r1, r2) = (RelayId(4), RelayId(9));
        let (a, b) = (KeyPair::new(1, 2), KeyPair::new(3, 4));
        // One entry per call, in trace order, with the cells it feeds: pair
        // `a` mixes both spellings of one transit, pair `b` is a
        // `Multipath { k: 2 }` group where every call feeds two cells.
        let calls = [
            (a, vec![RelayOption::Transit(r1, r2)]),
            (b, vec![RelayOption::Bounce(r1), RelayOption::Direct]),
            (a, vec![RelayOption::Transit(r2, r1)]),
            (a, vec![RelayOption::Direct]),
            (b, vec![RelayOption::Bounce(r2), RelayOption::Bounce(r1)]),
            (a, vec![RelayOption::Transit(r1, r2)]),
            (b, vec![RelayOption::Direct, RelayOption::Bounce(r2)]),
            (a, vec![RelayOption::Transit(r2, r1)]),
            (b, vec![RelayOption::Bounce(r1), RelayOption::Bounce(r2)]),
        ];
        let metrics = |call: usize, path: usize| {
            let (i, j) = (call as f64, path as f64);
            PathMetrics::new(
                50.0 + 7.3 * i + 1.1 * j,
                0.1 + 0.07 * i,
                2.0 + 0.9 * j + 0.3 * i,
            )
        };

        let mut per_call = CallHistory::new();
        for (i, (pair, fed)) in calls.iter().enumerate() {
            for (j, &option) in fed.iter().enumerate() {
                per_call.record(w(0), *pair, option, &metrics(i, j));
            }
        }

        // A shard walks one pair group at a time, each group's calls in order.
        let mut cells: Vec<GroupedCell> = Vec::new();
        for group_pair in [a, b] {
            let group = cells.len();
            for (i, (pair, fed)) in calls.iter().enumerate() {
                for (j, &option) in fed.iter().enumerate().filter(|_| *pair == group_pair) {
                    record_grouped(&mut cells, group, *pair, option, &metrics(i, j));
                }
            }
        }
        assert_eq!(
            cells.len(),
            2 + 3,
            "a: transit, direct; b: two bounces, direct"
        );
        let mut grouped = CallHistory::new();
        for ((pair, option), stats) in cells {
            grouped.insert_cell(w(0), pair, option, stats);
        }

        assert_eq!(grouped.window_calls(w(0)), per_call.window_calls(w(0)));
        assert_eq!(grouped.window_calls(w(0)), 5 + 2 * 4);
        assert_eq!(grouped.window_len(w(0)), per_call.window_len(w(0)));
        for (&(pair, option), want) in per_call.window_cells(w(0)) {
            let got = grouped.cell(w(0), pair, option).expect("same cells");
            // The serialized accumulators are count, mean and m2 per axis,
            // floats round-trip exact: equal text is equal bits.
            assert_eq!(
                serde_json::to_string(got).unwrap(),
                serde_json::to_string(want).unwrap(),
                "{pair:?} {option}"
            );
        }
    }

    #[test]
    fn window_calls_is_order_invariant_and_pinned() {
        // Regression for the audit's map-iteration-order finding: the call
        // total used to be recomputed by folding `.values().map(count).sum()`
        // over the cell map — structurally order-sensitive even though a u64
        // sum happens to commute. The stored counter must agree with the old
        // fold's value and be identical for any insertion or merge order.
        let calls: Vec<(KeyPair, RelayOption)> = (0..40)
            .map(|i| {
                (
                    KeyPair::new(i % 7, 100 + i % 3),
                    if i % 2 == 0 {
                        RelayOption::Direct
                    } else {
                        RelayOption::Bounce(RelayId(i))
                    },
                )
            })
            .collect();

        let mut forward = CallHistory::new();
        for (p, o) in &calls {
            forward.record(w(2), *p, *o, &PathMetrics::new(10.0, 0.1, 1.0));
        }
        let mut reverse = CallHistory::new();
        for (p, o) in calls.iter().rev() {
            reverse.record(w(2), *p, *o, &PathMetrics::new(10.0, 0.1, 1.0));
        }
        assert_eq!(forward.window_calls(w(2)), 40);
        assert_eq!(reverse.window_calls(w(2)), 40);

        // Merge order must not matter either, and the counter must equal the
        // old fold recomputed from the cells.
        for shard_order in [[0u32, 1, 2], [2, 0, 1]] {
            let mut merged = CallHistory::new();
            for shard in shard_order {
                let mut local = CallHistory::new();
                for (p, o) in calls.iter().filter(|(p, _)| p.lo % 3 == shard) {
                    local.record(w(2), *p, *o, &PathMetrics::new(10.0, 0.1, 1.0));
                }
                merged.merge(local);
            }
            assert_eq!(merged.window_calls(w(2)), 40);
            let refold: u64 = {
                let mut counts: Vec<u64> =
                    merged.window_cells(w(2)).map(|(_, s)| s.count()).collect();
                counts.sort_unstable();
                counts.iter().sum()
            };
            assert_eq!(merged.window_calls(w(2)), refold);
        }
    }

    #[test]
    fn prune_drops_old_windows() {
        let mut h = CallHistory::new();
        let pair = KeyPair::new(1, 2);
        h.record(w(0), pair, RelayOption::Direct, &PathMetrics::ZERO);
        h.record(w(5), pair, RelayOption::Direct, &PathMetrics::ZERO);
        h.prune_before(3);
        assert!(h.cell(w(0), pair, RelayOption::Direct).is_none());
        assert!(h.cell(w(5), pair, RelayOption::Direct).is_some());
    }
}
