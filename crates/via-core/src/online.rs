//! The window roll: the closed window behind a predictor, its one refit
//! rule, and the snapshot image of a window.
//!
//! The controller refreshes its predictions once per control period `T`
//! (Algorithm 1 stages 1–2, §4.3): when a window opens, one whole-window
//! fit over the window before it. [`Trained`] owns that closed window — its
//! label and its cells — and [`Trained::fit`] is the rule, written once. The
//! batch replay engine closes one at its window barrier from the cells its
//! shards hand back; the live controller (`via-server`) stages one at every
//! rollover from its shards' cells, and restores one from a snapshot.
//! Between rolls a call report is one Welford push into its `(pair, option)`
//! cell; nothing is fitted per report.
//!
//! Shards are keyed by pair, so their cells are disjoint and concatenating
//! them is the same set in any order; per-cell Welford statistics depend only
//! on that cell's push sequence, which is the report sequence, and the fit
//! reads the cells sorted. The live plane's predictor is therefore the replay
//! engine's by construction: same rule, same statistics.

use std::sync::Arc;

use via_model::ids::RelayId;
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::time::Window;

use crate::history::{record_grouped, GroupedCell, KeyPair, MetricStats};
use crate::predictor::{GeoPrior, Predictor, PredictorConfig};
use crate::tomography::CellRef;

/// Shared inter-relay backbone metrics closure. `Arc` so every refitted
/// predictor holds a handle to the same table instead of cloning it.
pub type BackboneFn = Arc<dyn Fn(RelayId, RelayId) -> PathMetrics + Send + Sync>;

/// The closed window behind a predictor: its label and its cells, each
/// `(pair, option)` once.
#[derive(Debug, Default)]
pub struct Trained {
    /// The window the cells were recorded in; `None` before any closed.
    window: Option<Window>,
    cells: Vec<GroupedCell>,
}

impl Trained {
    /// Closes `window`: the cells held so far go, and the caller fills the
    /// returned buffer (which keeps its capacity) with `window`'s, each
    /// `(pair, option)` at most once — a pair-sharded caller's shards hold
    /// disjoint cells.
    pub fn close(&mut self, window: Window) -> &mut Vec<GroupedCell> {
        self.window = Some(window);
        self.cells.clear();
        &mut self.cells
    }

    /// The predictor that serves `opening`: fitted on the cells if they
    /// belong to the window before it, or else on none — across an idle gap
    /// or a clock jump, which yields the empty-window predictor and leaves
    /// that empty window as the one held — or the prior-only cold predictor
    /// when `opening` is window 0 and has no predecessor.
    pub fn fit(
        &mut self,
        opening: Window,
        prior: GeoPrior,
        backbone: &BackboneFn,
        cfg: PredictorConfig,
    ) -> Predictor {
        let backbone = Arc::clone(backbone);
        let Some(training) = opening.prev() else {
            return Predictor::cold(prior, backbone);
        };
        if self.window != Some(training) {
            self.close(training);
        }
        // The cells arrive in no order; the fit reads them sorted (every key
        // is there once, so any sort will do) and without any that holds no
        // RTT sample (a non-finite report's). Dropping those after the sort
        // measured cheaper than before it: a first pass over the cells added
        // ~15 % to `replay.refit_ms`.
        let mut cells: Vec<CellRef<'_>> =
            self.cells.iter().map(|(key, stats)| (key, stats)).collect();
        cells.sort_unstable_by_key(|(key, _)| **key);
        cells.retain(|(_, stats)| stats.count() > 0);
        Predictor::fit_sorted(&cells, training, prior, backbone, cfg)
    }

    /// Folds one mock call into the held window, as a report of that window
    /// would have been (§7 active probes).
    pub(crate) fn record(&mut self, pair: KeyPair, option: RelayOption, m: &PathMetrics) {
        record_grouped(&mut self.cells, 0, pair, option, m);
    }

    /// The held window's image, or `None` before any window closed.
    pub fn snapshot(&self) -> Option<RefitSnapshot> {
        let window = self.window?;
        let cells = self.cells.iter().map(CellSnapshot::from).collect();
        Some(RefitSnapshot::new(window, 0, cells))
    }

    /// The `Trained` whose [`Trained::snapshot`] `snap` is. A `(pair,
    /// option)` listed twice is one cell, its statistics Chan-merged in
    /// listed order.
    pub fn restore(snap: RefitSnapshot) -> Trained {
        let mut cells: Vec<GroupedCell> = snap
            .cells
            .into_iter()
            .map(|c| ((c.pair, c.option.canonical()), c.stats))
            .collect();
        cells.sort_by_key(|(key, _)| *key);
        cells.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1.merge(&later.1);
            }
            same
        });
        Trained {
            window: Some(snap.window),
            cells,
        }
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

impl From<&GroupedCell> for CellSnapshot {
    fn from(((pair, option), stats): &GroupedCell) -> CellSnapshot {
        CellSnapshot {
            pair: *pair,
            option: *option,
            stats: stats.clone(),
        }
    }
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
    /// Sorts `cells` into canonical order: the order shards hold them in
    /// must not leak into the snapshot bytes (restores and byte-compares
    /// depend on it).
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
    use crate::history::CallHistory;
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

    fn roll(trained: &mut Trained, opening: Window) -> Predictor {
        trained.fit(opening, prior(), &backbone(), PredictorConfig::default())
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

    /// `stream` recorded into `shards` pair-sharded cell lists, then closed
    /// as `window` from their concatenation — the live controller's roll.
    fn closed(
        stream: &[(KeyPair, RelayOption, PathMetrics)],
        window: Window,
        shards: usize,
    ) -> Trained {
        let mut parts: Vec<Vec<GroupedCell>> = vec![Vec::new(); shards];
        for (pair, option, m) in stream {
            let part = &mut parts[(pair.lo + pair.hi) as usize % shards];
            record_grouped(part, 0, *pair, *option, m);
        }
        let mut trained = Trained::default();
        let cells = trained.close(window);
        for mut part in parts {
            cells.append(&mut part);
        }
        trained
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

    fn fit_history(history: &CallHistory, training: Window) -> Predictor {
        Predictor::fit(
            history,
            training,
            prior(),
            backbone(),
            PredictorConfig::default(),
        )
    }

    #[test]
    fn rolling_over_an_idle_gap_trains_on_the_empty_window() {
        let stream = reports(7, 50);
        // The per-call store the replay shards and the server shards stand in
        // for: the fit must not tell them apart.
        let mut history = CallHistory::new();
        for (pair, option, m) in &stream {
            history.record(w(0), *pair, *option, m);
        }
        let whole = fit_history(&history, w(0));
        assert!(whole.empirical_cells() > 0);
        for shards in [1usize, 2] {
            // The next window trains on what was closed, however it was
            // sharded.
            assert_bit_identical(&roll(&mut closed(&stream, w(0), shards), w(1)), &whole);
            // Jumping from window 0 straight to window 3 trains on window 2,
            // which saw no traffic, and that empty window is what is held.
            let mut trained = closed(&stream, w(0), shards);
            let rolled = roll(&mut trained, w(3));
            assert_eq!(rolled.empirical_cells(), 0);
            assert_bit_identical(&fit_history(&CallHistory::new(), w(2)), &rolled);
            let held = trained.snapshot().unwrap();
            assert_eq!((held.window, held.cells.len()), (w(2), 0));
        }
    }

    #[test]
    fn window_zero_opens_cold_whatever_the_cells_hold() {
        let mut trained = closed(&reports(11, 50), w(0), 1);
        let opened = roll(&mut trained, w(0));
        let cold = Predictor::cold(prior(), backbone());
        assert_bit_identical(&cold, &opened);
        let pred = opened.predict(0, 1, RelayOption::Direct);
        assert_eq!(pred.source, PredictionSource::Prior);
        assert_eq!(Trained::default().snapshot().map(|s| s.window), None);
    }

    #[test]
    fn snapshot_restore_round_trips_the_closed_window() {
        let mut trained = closed(&reports(99, 250), w(4), 2);
        let bytes = serde_json::to_vec(&trained.snapshot().unwrap()).unwrap();
        let decoded: RefitSnapshot = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(decoded.window, w(4));
        assert_eq!(
            decoded.cells.iter().map(|c| c.stats.count()).sum::<u64>(),
            250
        );
        let mut restored = Trained::restore(decoded);

        // Snapshot bytes are canonical: re-snapshotting the restored window
        // reproduces them exactly, and it refits to the same predictor.
        assert_eq!(
            serde_json::to_vec(&restored.snapshot().unwrap()).unwrap(),
            bytes
        );
        assert_bit_identical(&roll(&mut trained, w(5)), &roll(&mut restored, w(5)));
    }

    #[test]
    fn mirrored_transit_records_land_in_one_snapshot_cell() {
        let mut trained = Trained::default();
        trained.close(w(0));
        let pair = KeyPair::new(0, 1);
        let m = PathMetrics::new(80.0, 0.5, 3.0);
        trained.record(pair, RelayOption::Transit(RelayId(1), RelayId(0)), &m);
        trained.record(pair, RelayOption::Transit(RelayId(0), RelayId(1)), &m);
        let snap = trained.snapshot().unwrap();
        assert_eq!(snap.cells.len(), 1);
        assert_eq!(snap.cells[0].stats.count(), 2);
    }

    #[test]
    fn a_cell_listed_twice_restores_as_one_chan_merged_cell() {
        let (p1, p2) = (KeyPair::new(1, 2), KeyPair::new(0, 2));
        let cell = |pair, option, rtt: f64| {
            let mut stats = MetricStats::default();
            stats.push(&PathMetrics::new(rtt, 1.0, 5.0));
            CellSnapshot {
                pair,
                option,
                stats,
            }
        };
        let snap = RefitSnapshot {
            window: w(0),
            pending: 0,
            cells: vec![
                cell(p1, RelayOption::Transit(RelayId(1), RelayId(0)), 100.0),
                cell(p2, RelayOption::Direct, 50.0),
                cell(p1, RelayOption::Transit(RelayId(0), RelayId(1)), 200.0),
            ],
        };
        let restored = Trained::restore(snap).snapshot().unwrap();
        assert_eq!(restored.cells.len(), 2);
        let merged = &restored.cells[1];
        assert_eq!(merged.pair, p1);
        assert_eq!(merged.stats.count(), 2);
        assert_eq!(merged.stats.metric(Metric::Rtt).mean(), Some(150.0));
        assert_eq!(restored.cells[0].stats.count(), 1);
    }
}
