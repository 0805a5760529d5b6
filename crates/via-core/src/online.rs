//! The window roll: the one refit rule, and the snapshot image of a window.
//!
//! The controller refreshes its predictions once per control period `T`
//! (Algorithm 1 stages 1–2, §4.3): when a window opens, one whole-window
//! [`Predictor::fit`] over the window before it. [`refit`] is that rule,
//! written once. The batch replay engine calls it at its window barrier; the
//! live controller (`via-server`) calls it at start-up, at every rollover —
//! after draining its shard histories into one — and on restore. Between
//! rollovers a call report is one Welford push into a plain [`CallHistory`];
//! nothing is fitted per report.
//!
//! Shard histories are keyed by pair, so they are disjoint and
//! [`CallHistory::merge`]-ing them is the same union in any order; per-cell
//! Welford statistics depend only on that cell's push sequence, which is the
//! report sequence. The live plane's predictor is therefore the replay
//! engine's by construction: same function, same statistics.

use std::sync::Arc;

use via_model::ids::RelayId;
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::time::Window;

use crate::history::{CallHistory, KeyPair, MetricStats};
use crate::predictor::{GeoPrior, Predictor, PredictorConfig};
use crate::tomography::{sorted_cells, CellRef};

/// Shared inter-relay backbone metrics closure. `Arc` so every refitted
/// predictor holds a handle to the same table instead of cloning it.
pub type BackboneFn = Arc<dyn Fn(RelayId, RelayId) -> PathMetrics + Send + Sync>;

/// The predictor that serves `opening`: trained on whatever `history` holds
/// for the window before it — nothing, across an idle gap or a clock jump,
/// which yields the empty-window predictor — or the prior-only cold
/// predictor when `opening` is window 0 and has no predecessor.
pub fn refit(
    history: &CallHistory,
    opening: Window,
    prior: GeoPrior,
    backbone: &BackboneFn,
    cfg: PredictorConfig,
) -> Predictor {
    let cells = opening
        .prev()
        .map(|training| sorted_cells(history, training));
    refit_sorted(&cells.unwrap_or_default(), opening, prior, backbone, cfg)
}

/// [`refit`] for a caller that holds the cells of the window before
/// `opening` itself, in [`sorted_cells`] order (the replay engine, whose
/// shards hand them back at the barrier): the same rule, and the one place it
/// is written.
pub(crate) fn refit_sorted(
    cells: &[CellRef<'_>],
    opening: Window,
    prior: GeoPrior,
    backbone: &BackboneFn,
    cfg: PredictorConfig,
) -> Predictor {
    let backbone = Arc::clone(backbone);
    match opening.prev() {
        Some(training) => Predictor::fit_sorted(cells, training, prior, backbone, cfg),
        None => Predictor::cold(prior, backbone),
    }
}

/// Appends every cell `history` holds for `window` to `out` (unsorted;
/// [`RefitSnapshot::new`] puts them in canonical order).
pub fn snapshot_cells(history: &CallHistory, window: Window, out: &mut Vec<CellSnapshot>) {
    out.extend(
        history
            .window_cells(window)
            .map(|(&(pair, option), stats)| CellSnapshot {
                pair,
                option,
                stats: stats.clone(),
            }),
    );
}

/// One history cell in a [`RefitSnapshot`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CellSnapshot {
    /// Canonical spatial pair.
    pub pair: KeyPair,
    /// Canonical relaying option.
    pub option: RelayOption,
    /// The cell's Welford accumulators.
    pub stats: MetricStats,
}

/// Serializable image of one window's cells, in canonical cell order.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RefitSnapshot {
    /// Window the cells belong to.
    pub window: Window,
    /// Reports folded in since the last rollover.
    pub pending: u64,
    /// Every cell of the window, sorted by (pair, option).
    pub cells: Vec<CellSnapshot>,
}

impl RefitSnapshot {
    /// Sorts `cells` into canonical order: hash-map iteration order must not
    /// leak into the snapshot bytes (restores and byte-compares depend on
    /// it).
    pub fn new(window: Window, pending: u64, mut cells: Vec<CellSnapshot>) -> RefitSnapshot {
        cells.sort_by_key(|c| (c.pair, c.option));
        RefitSnapshot {
            window,
            pending,
            cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictionSource;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use via_model::metrics::Metric;
    use via_model::time::{SimTime, WindowLen};

    fn w(i: u64) -> Window {
        WindowLen::DAY.window_of(SimTime::from_days(i))
    }

    fn prior() -> GeoPrior {
        let keys = vec![
            via_netsim::GeoPoint::new(37.0, -122.0),
            via_netsim::GeoPoint::new(52.0, 13.0),
            via_netsim::GeoPoint::new(1.0, 103.0),
        ];
        let relays = vec![
            via_netsim::GeoPoint::new(40.0, -74.0),
            via_netsim::GeoPoint::new(48.0, 2.0),
        ];
        GeoPrior::new(keys, relays)
    }

    fn backbone_metrics(a: RelayId, b: RelayId) -> PathMetrics {
        let d = (a.0 as f64 - b.0 as f64).abs();
        PathMetrics::new(20.0 + 10.0 * d, 0.05, 1.0)
    }

    fn backbone() -> BackboneFn {
        Arc::new(backbone_metrics)
    }

    fn roll(history: &CallHistory, opening: Window) -> Predictor {
        refit(
            history,
            opening,
            prior(),
            &backbone(),
            PredictorConfig::default(),
        )
    }

    /// A deterministic synthetic report stream over a handful of pairs and
    /// options, including repeated touches of the same cell.
    fn reports(seed: u64, n: usize) -> Vec<(KeyPair, RelayOption, PathMetrics)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a = rng.random_range(0..3u32);
                let b = rng.random_range(0..3u32);
                let option = match rng.random_range(0..4u32) {
                    0 => RelayOption::Direct,
                    1 => RelayOption::Bounce(RelayId(rng.random_range(0..2))),
                    2 => RelayOption::Transit(RelayId(0), RelayId(1)),
                    _ => RelayOption::Transit(RelayId(1), RelayId(0)),
                };
                let m = PathMetrics::new(
                    40.0 + rng.random::<f64>() * 200.0,
                    rng.random::<f64>() * 3.0,
                    rng.random::<f64>() * 12.0,
                );
                (KeyPair::new(a, b), option, m)
            })
            .collect()
    }

    /// `stream` recorded into `window` of `shards` pair-sharded histories,
    /// then drained into one — the live controller's rollover merge.
    fn drained(
        stream: &[(KeyPair, RelayOption, PathMetrics)],
        window: Window,
        shards: usize,
    ) -> CallHistory {
        let mut parts: Vec<CallHistory> = (0..shards).map(|_| CallHistory::new()).collect();
        for (pair, option, m) in stream {
            parts[(pair.lo + pair.hi) as usize % shards].record(window, *pair, *option, m);
        }
        let mut merged = CallHistory::new();
        for part in parts {
            merged.merge(part);
        }
        merged
    }

    fn assert_bit_identical(a: &Predictor, b: &Predictor) {
        assert_eq!(a.empirical_cells(), b.empirical_cells());
        assert_eq!(a.tomography_segments(), b.tomography_segments());
        for ka in 0..3u32 {
            for kb in 0..3u32 {
                for option in [
                    RelayOption::Direct,
                    RelayOption::Bounce(RelayId(0)),
                    RelayOption::Bounce(RelayId(1)),
                    RelayOption::Transit(RelayId(0), RelayId(1)),
                ] {
                    let pa = a.predict(ka, kb, option);
                    let pb = b.predict(ka, kb, option);
                    assert_eq!(pa.source, pb.source, "source for ({ka},{kb},{option:?})");
                    for &m in Metric::ALL.iter() {
                        assert_eq!(
                            pa.mean(m).to_bits(),
                            pb.mean(m).to_bits(),
                            "mean[{m:?}] for ({ka},{kb},{option:?})"
                        );
                        assert_eq!(
                            pa.lower(m).to_bits(),
                            pb.lower(m).to_bits(),
                            "lower[{m:?}] for ({ka},{kb},{option:?})"
                        );
                        assert_eq!(
                            pa.upper(m).to_bits(),
                            pb.upper(m).to_bits(),
                            "upper[{m:?}] for ({ka},{kb},{option:?})"
                        );
                    }
                }
            }
        }
    }

    fn snapshot(history: &CallHistory, window: Window) -> RefitSnapshot {
        let mut cells = Vec::new();
        snapshot_cells(history, window, &mut cells);
        RefitSnapshot::new(window, history.window_calls(window), cells)
    }

    #[test]
    fn rolling_over_an_idle_gap_trains_on_the_empty_window() {
        let stream = reports(7, 50);
        let whole = drained(&stream, w(0), 1);
        for shards in [1usize, 2] {
            let merged = drained(&stream, w(0), shards);
            // The next window trains on what was drained, however it was
            // sharded.
            let next = roll(&merged, w(1));
            assert!(next.empirical_cells() > 0);
            assert_bit_identical(&next, &roll(&whole, w(1)));
            // Jumping from window 0 straight to window 3 trains on window 2,
            // which saw no traffic.
            let empty = Predictor::fit(
                &CallHistory::new(),
                w(2),
                prior(),
                backbone(),
                PredictorConfig::default(),
            );
            let rolled = roll(&merged, w(3));
            assert_eq!(rolled.empirical_cells(), 0);
            assert_bit_identical(&empty, &rolled);
        }
    }

    #[test]
    fn window_zero_opens_cold_whatever_the_history_holds() {
        let history = drained(&reports(11, 50), w(0), 1);
        let opened = roll(&history, w(0));
        let cold = Predictor::cold(prior(), backbone());
        assert_bit_identical(&cold, &opened);
        let pred = opened.predict(0, 1, RelayOption::Direct);
        assert_eq!(pred.source, PredictionSource::Prior);
    }

    #[test]
    fn snapshot_restore_round_trips_the_accumulating_window() {
        let history = drained(&reports(99, 250), w(4), 1);
        let bytes = serde_json::to_vec(&snapshot(&history, w(4))).unwrap();
        let decoded: RefitSnapshot = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(decoded.window, w(4));
        assert_eq!(decoded.pending, 250);
        let mut restored = CallHistory::new();
        for cell in decoded.cells {
            restored.insert_cell(w(4), cell.pair, cell.option, cell.stats);
        }

        // Snapshot bytes are canonical: re-snapshotting the restored state
        // reproduces them exactly, and it refits to the same predictor.
        assert_eq!(
            serde_json::to_vec(&snapshot(&restored, w(4))).unwrap(),
            bytes
        );
        assert_bit_identical(&roll(&history, w(5)), &roll(&restored, w(5)));
    }

    #[test]
    fn mirrored_transit_reports_land_in_one_snapshot_cell() {
        let mut history = CallHistory::new();
        let pair = KeyPair::new(0, 1);
        let m = PathMetrics::new(80.0, 0.5, 3.0);
        history.record(w(0), pair, RelayOption::Transit(RelayId(1), RelayId(0)), &m);
        history.record(w(0), pair, RelayOption::Transit(RelayId(0), RelayId(1)), &m);
        let snap = snapshot(&history, w(0));
        assert_eq!(snap.cells.len(), 1);
        assert_eq!(snap.cells[0].stats.count(), 2);
    }
}
