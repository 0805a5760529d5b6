//! Incremental predictor refit: the report half of the live controller.
//!
//! The batch replay engine refits at the window barrier — it stops, walks
//! every cell of the previous window, and fits a fresh [`Predictor`]. A
//! long-running controller cannot stall its select path behind that
//! whole-window pass, so a [`LiveWindow`] keeps the per-cell Welford
//! sufficient statistics *live*: every call report updates exactly one
//! cell's accumulator and re-derives that one cell's [`Prediction`] — O(1)
//! work per report. At window rollover the already-finished cell maps are
//! drained and [`publish`]ed together with a fresh tomography solve (the only
//! remaining whole-window computation, which runs off the select path while
//! the previous predictor keeps serving).
//!
//! A controller may hold one `LiveWindow` or one per pair shard: cells are
//! keyed by pair, so shard maps are disjoint and draining them into one
//! history and one cell map is the same union either way.
//!
//! **Byte-identity with the batch path.** Both paths feed each cell's final
//! Welford statistics through the same `fit_cell` function, and Welford
//! accumulation depends only on the per-cell push sequence — which is the
//! report sequence either way. Tomography is fitted from the identical
//! [`CallHistory`] by the identical deterministic solve. A published
//! predictor therefore returns bit-for-bit the same [`Prediction`]s as
//! [`Predictor::fit`] over the same recorded window — the regression tests in
//! this module pin that down to `f64::to_bits`.

use std::collections::HashMap;
use std::sync::Arc;

use via_model::ids::RelayId;
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::time::Window;

use crate::history::{CallHistory, KeyPair, MetricStats};
use crate::predictor::{fit_cell, GeoPrior, Prediction, Predictor, PredictorConfig};
use crate::tomography::Tomography;

/// Shared inter-relay backbone metrics closure. `Arc` so every published
/// predictor holds a handle to the same table instead of cloning it.
pub type BackboneFn = Arc<dyn Fn(RelayId, RelayId) -> PathMetrics + Send + Sync>;

/// The boxed form of a [`BackboneFn`] the predictor constructors take.
pub fn boxed(bb: &BackboneFn) -> Box<dyn Fn(RelayId, RelayId) -> PathMetrics + Send + Sync> {
    let bb = Arc::clone(bb);
    Box::new(move |a, b| bb(a, b))
}

/// The accumulating window's training state: the full per-cell statistics
/// (tomography's training set), the live per-cell empirical predictions
/// re-derived per touch so rollover publishes without a window scan, and the
/// reports folded in since the last drain (the "refit lag" a batch
/// controller would still owe at its next barrier).
#[derive(Debug, Default)]
pub struct LiveWindow {
    history: CallHistory,
    cells: HashMap<(KeyPair, RelayOption), Prediction>,
    pending: u64,
}

impl LiveWindow {
    /// Reports folded in since the last [`LiveWindow::drain_into`].
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Folds one call report into `window`: one Welford push plus one
    /// single-cell fit — O(1), no window scan.
    pub fn record(
        &mut self,
        window: Window,
        pair: KeyPair,
        option: RelayOption,
        m: &PathMetrics,
        cfg: &PredictorConfig,
    ) {
        let option = option.canonical();
        self.history.record(window, pair, option, m);
        self.pending += 1;
        if let Some(stats) = self.history.cell(window, pair, option) {
            if let Some(pred) = fit_cell(stats, cfg) {
                self.cells.insert((pair, option), pred);
            }
        }
    }

    /// Closes the window: moves the statistics into `history` and the fitted
    /// cells into `cells`, leaving this accumulator empty. Returns the
    /// reports it had pending.
    pub fn drain_into(
        &mut self,
        history: &mut CallHistory,
        cells: &mut HashMap<(KeyPair, RelayOption), Prediction>,
    ) -> u64 {
        history.merge(std::mem::take(&mut self.history));
        cells.extend(self.cells.drain());
        std::mem::take(&mut self.pending)
    }

    /// Appends `window`'s cells to `out` (unsorted; [`RefitSnapshot::new`]
    /// puts them in canonical order).
    pub fn snapshot_cells(&self, window: Window, out: &mut Vec<CellSnapshot>) {
        snapshot_cells(&self.history, window, out);
    }

    /// Reinstalls one snapshotted cell of `window` and refits it, so the
    /// restored state publishes the same predictions the snapshotting
    /// instance would have.
    pub fn restore_cell(&mut self, window: Window, cell: CellSnapshot, cfg: &PredictorConfig) {
        let option = cell.option.canonical();
        if let Some(pred) = fit_cell(&cell.stats, cfg) {
            self.cells.insert((cell.pair, option), pred);
        }
        self.pending += cell.stats.count();
        self.history
            .insert_cell(window, cell.pair, option, cell.stats);
    }
}

/// Appends every cell `history` holds for `window` to `out`.
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

/// The rollover publish: the predictor the batch engine would fit at the
/// same barrier, trained on `training` (the window before the one that
/// opens). When `training` is the window that just closed — the common case
/// — `cells` is already its fitted cell map and ships as-is; only
/// tomography, inherently a whole-window solve, is computed here. Across an
/// idle gap (the window preceding the next saw no traffic, or the clock
/// jumped) it fits on whatever `history` holds for `training` — normally
/// nothing, yielding the batch engine's empty-window predictor.
pub fn publish(
    training: Window,
    closing: Window,
    history: &CallHistory,
    cells: HashMap<(KeyPair, RelayOption), Prediction>,
    prior: GeoPrior,
    backbone: &BackboneFn,
    cfg: PredictorConfig,
) -> Predictor {
    if training == closing {
        let tomography = Tomography::fit(history, training, backbone.as_ref(), &cfg.tomography);
        Predictor::from_parts(cfg, training, cells, tomography, prior, boxed(backbone))
    } else {
        Predictor::fit(history, training, prior, boxed(backbone), cfg)
    }
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

    fn backbone() -> BackboneFn {
        Arc::new(|a: RelayId, b: RelayId| {
            let d = (a.0 as f64 - b.0 as f64).abs();
            PathMetrics::new(20.0 + 10.0 * d, 0.05, 1.0)
        })
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

    fn assert_bit_identical(a: &Predictor, b: &Predictor) {
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

    fn snapshot(live: &LiveWindow, window: Window) -> RefitSnapshot {
        let mut cells = Vec::new();
        live.snapshot_cells(window, &mut cells);
        RefitSnapshot::new(window, live.pending(), cells)
    }

    /// Drains `lives` (one accumulator, or one per shard) and publishes the
    /// predictor for the window after `closing`.
    fn roll(lives: &mut [LiveWindow], closing: Window, next: Window) -> Predictor {
        let mut history = CallHistory::new();
        let mut cells = HashMap::new();
        for live in lives.iter_mut() {
            live.drain_into(&mut history, &mut cells);
            assert_eq!(live.pending(), 0);
        }
        let training = next.prev().unwrap();
        publish(
            training,
            closing,
            &history,
            cells,
            prior(),
            &backbone(),
            PredictorConfig::default(),
        )
    }

    #[test]
    fn incremental_roll_matches_batch_fit_bit_for_bit() {
        let cfg = PredictorConfig::default();
        let stream = reports(0xA11CE, 400);

        // Batch: record everything into window 0, fit at the barrier.
        let mut history = CallHistory::new();
        for (pair, option, m) in &stream {
            history.record(w(0), *pair, *option, m);
        }
        let batch = Predictor::fit(&history, w(0), prior(), boxed(&backbone()), cfg);

        // Incremental: one record() per report, publish at the rollover —
        // through one accumulator, and sharded by pair across two.
        for shards in [1usize, 2] {
            let mut lives: Vec<LiveWindow> = (0..shards).map(|_| LiveWindow::default()).collect();
            for (pair, option, m) in &stream {
                lives[(pair.lo + pair.hi) as usize % shards].record(w(0), *pair, *option, m, &cfg);
            }
            assert_eq!(lives.iter().map(LiveWindow::pending).sum::<u64>(), 400);
            let rolled = roll(&mut lives, w(0), w(1));
            assert_eq!(batch.empirical_cells(), rolled.empirical_cells());
            assert_eq!(batch.tomography_segments(), rolled.tomography_segments());
            assert_bit_identical(&batch, &rolled);
        }
    }

    #[test]
    fn rolling_over_an_idle_gap_matches_an_empty_batch_window() {
        let cfg = PredictorConfig::default();
        let mut live = LiveWindow::default();
        for (pair, option, m) in reports(7, 50) {
            live.record(w(0), pair, option, &m, &cfg);
        }
        // Jump from window 0 straight to window 3: training window 2 is
        // empty, exactly like a batch fit over a quiet window.
        let rolled = roll(std::slice::from_mut(&mut live), w(0), w(3));
        let batch = Predictor::fit(&CallHistory::new(), w(2), prior(), boxed(&backbone()), cfg);
        assert_eq!(rolled.empirical_cells(), 0);
        assert_bit_identical(&batch, &rolled);
    }

    #[test]
    fn snapshot_restore_round_trips_the_accumulating_window() {
        let cfg = PredictorConfig::default();
        let mut live = LiveWindow::default();
        for (pair, option, m) in &reports(99, 250) {
            live.record(w(4), *pair, *option, m, &cfg);
        }

        let bytes = serde_json::to_vec(&snapshot(&live, w(4))).unwrap();
        let decoded: RefitSnapshot = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(decoded.window, w(4));
        let mut restored = LiveWindow::default();
        for cell in decoded.cells {
            restored.restore_cell(w(4), cell, &cfg);
        }
        assert_eq!(restored.pending(), live.pending());

        // Snapshot bytes are canonical: re-snapshotting the restored state
        // reproduces them exactly.
        assert_eq!(
            serde_json::to_vec(&snapshot(&restored, w(4))).unwrap(),
            bytes
        );

        let a = roll(std::slice::from_mut(&mut live), w(4), w(5));
        let b = roll(std::slice::from_mut(&mut restored), w(4), w(5));
        assert_eq!(a.empirical_cells(), b.empirical_cells());
        assert_bit_identical(&a, &b);
    }

    #[test]
    fn record_canonicalizes_options_like_the_history() {
        let cfg = PredictorConfig::default();
        let mut live = LiveWindow::default();
        let pair = KeyPair::new(0, 1);
        let m = PathMetrics::new(80.0, 0.5, 3.0);
        live.record(
            w(0),
            pair,
            RelayOption::Transit(RelayId(1), RelayId(0)),
            &m,
            &cfg,
        );
        live.record(
            w(0),
            pair,
            RelayOption::Transit(RelayId(0), RelayId(1)),
            &m,
            &cfg,
        );
        let snap = snapshot(&live, w(0));
        assert_eq!(snap.cells.len(), 1);
        assert_eq!(snap.cells[0].stats.count(), 2);
    }
}
