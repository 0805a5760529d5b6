//! Call-history storage: the controller's measurement database.
//!
//! §3.1 of the paper: clients push the network metrics of completed calls to
//! the controller, which aggregates them per (source, destination, relaying
//! option) and time window. The unit is one [`MetricStats`] (a Welford
//! accumulator per metric) per `(pair, option, window)` cell, held two ways:
//!
//! * [`CallHistory`] — a per-call store keyed by window, for callers of
//!   [`crate::Predictor::fit`] that record call by call (the examples, the
//!   experiment binaries, reference loops in tests).
//! * [`GroupedCell`] runs — one window's cells in a plain `Vec`, as a replay
//!   shard or a live-controller shard accumulates them and
//!   [`crate::online::Trained`] fits them: no per-call hashing, and a buffer
//!   that keeps its capacity from window to window.
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
    /// merge, Chan et al.); used when a restored snapshot lists one cell
    /// twice.
    pub fn merge(&mut self, other: &MetricStats) {
        for (dst, src) in self.stats.iter_mut().zip(&other.stats) {
            dst.merge(src);
        }
    }
}

/// The `(pair, option)` cells of one time window.
type WindowCells = HashMap<(KeyPair, RelayOption), MetricStats>;

/// The controller's measurement store.
#[derive(Debug, Default)]
pub struct CallHistory {
    /// window index → that window's cells.
    windows: HashMap<u64, WindowCells>,
}

impl CallHistory {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed call's measurements.
    pub fn record(&mut self, window: Window, pair: KeyPair, option: RelayOption, m: &PathMetrics) {
        self.windows
            .entry(window.index)
            .or_default()
            .entry((pair, option.canonical()))
            .or_default()
            .push(m);
    }

    /// Stats of one cell, if any calls were observed.
    pub fn cell(&self, window: Window, pair: KeyPair, option: RelayOption) -> Option<&MetricStats> {
        self.windows
            .get(&window.index)?
            .get(&(pair, option.canonical()))
    }

    /// Iterates all cells of a window.
    pub fn window_cells(
        &self,
        window: Window,
    ) -> impl Iterator<Item = (&(KeyPair, RelayOption), &MetricStats)> {
        self.windows.get(&window.index).into_iter().flatten()
    }

    /// Number of distinct cells in a window.
    pub fn window_len(&self, window: Window) -> usize {
        self.windows.get(&window.index).map_or(0, HashMap::len)
    }

    /// Discards windows older than `keep_from` (controller memory bound; the
    /// predictor only ever trains on the previous window).
    pub fn prune_before(&mut self, keep_from: u64) {
        self.windows.retain(|&w, _| w >= keep_from);
    }
}

/// A history cell accumulated outside the store — by a replay shard that
/// walks one pair's calls together, or a live-controller shard — keyed as the
/// store keys it (canonical option), so a sorted run of them is a window as
/// the store would list it.
pub type GroupedCell = ((KeyPair, RelayOption), MetricStats);

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
        assert_eq!(h.window_cells(w(1)).count(), 5);
        assert_eq!(h.window_len(w(0)), 0);
    }

    #[test]
    fn grouped_accumulation_equals_per_call_record() {
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
        assert_eq!(cells.len(), per_call.window_len(w(0)));
        let calls_fed: u64 = cells.iter().map(|(_, stats)| stats.count()).sum();
        assert_eq!(calls_fed, 5 + 2 * 4);
        for ((pair, option), got) in &cells {
            let want = per_call.cell(w(0), *pair, *option).expect("same cells");
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
