//! The `Pred` module of Algorithm 1: per-(pair, option) performance
//! prediction with 95 % confidence bounds.
//!
//! For every queried (source key, destination key, relaying option) the
//! predictor returns a [`Prediction`] carrying, per metric, a mean and a
//! standard error in *linearized* space (see [`crate::tomography`]), from
//! which the `Pred_lower` / `Pred_upper` bounds of §4.4 are derived as
//! `mean ± 1.96·SEM`. Sources, in order of preference:
//!
//! 1. **Empirical** — the cell was observed in the training window with
//!    enough samples; mean and SEM come straight from the data.
//! 2. **Tomography** — the cell is a *hole*, but both client-side segments
//!    were solved from other pairs' calls; the path is stitched (Figure 11).
//! 3. **Prior** — nothing relevant was observed. The controller still knows
//!    client and relay geography (GeoIP), so the prior predicts
//!    inflation-scaled fiber latency and global typical loss/jitter, with a
//!    deliberately wide SEM so priors lose to any data-backed estimate in
//!    the top-k pruning.

use std::sync::Arc;
use via_model::ids::RelayId;
use via_model::metrics::Metric;
use via_model::options::RelayOption;
use via_model::table::Table;
use via_model::time::Window;
use via_netsim::GeoPoint;

use crate::history::{CallHistory, KeyPair, MetricStats};
use crate::online::BackboneFn;
use crate::tomography::{
    delinearize, fit_order, linearize, linearize_sem, stitch_rows, CellRef, KeyRow, Tomography,
    TomographyConfig,
};

/// Where a prediction came from (diagnostics and the Figure 11 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionSource {
    /// Directly observed with this many samples.
    Empirical(u64),
    /// Stitched from tomography segments.
    Tomography,
    /// Geography-based prior.
    Prior,
}

/// A prediction with confidence bounds, per metric.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    lin_mean: [f64; 3],
    lin_sem: [f64; 3],
    /// Provenance of the estimate.
    pub source: PredictionSource,
}

impl Prediction {
    /// Builds a prediction from linearized means and SEMs.
    pub fn from_linear(lin_mean: [f64; 3], lin_sem: [f64; 3], source: PredictionSource) -> Self {
        Self {
            lin_mean,
            lin_sem,
            source,
        }
    }

    /// Predicted mean of a metric, in metric units.
    pub fn mean(&self, m: Metric) -> f64 {
        delinearize(m, self.lin_mean[idx(m)])
    }

    /// `Pred_lower`: lower 95 % confidence bound, metric units.
    pub fn lower(&self, m: Metric) -> f64 {
        delinearize(m, self.lin_mean[idx(m)] - 1.96 * self.lin_sem[idx(m)])
    }

    /// `Pred_upper`: upper 95 % confidence bound, metric units.
    pub fn upper(&self, m: Metric) -> f64 {
        delinearize(m, self.lin_mean[idx(m)] + 1.96 * self.lin_sem[idx(m)])
    }
}

fn idx(m: Metric) -> usize {
    match m {
        Metric::Rtt => 0,
        Metric::Loss => 1,
        Metric::Jitter => 2,
    }
}

/// Minimum samples for an empirical cell to be trusted over tomography.
const MIN_EMPIRICAL_SAMPLES: u64 = 3;
/// Relative SEM substitute when a cell has a mean but too few samples
/// for a variance estimate.
const SPARSE_REL_SEM: f64 = 0.5;
/// Relative SEM of the geographic prior (wide on purpose).
const PRIOR_REL_SEM: f64 = 0.6;
/// Prior inflation over fiber RTT for unknown paths.
pub const PRIOR_INFLATION: f64 = 1.9;
/// Prior loss (percent) for unknown paths.
const PRIOR_LOSS_PCT: f64 = 0.6;
/// Prior jitter (ms) for unknown paths.
const PRIOR_JITTER_MS: f64 = 5.0;

/// The empirical fit of one cell that carried calls, from its Welford
/// sufficient statistics.
fn fit_cell(stats: &MetricStats) -> Prediction {
    let n = stats.count();
    let mut lin_mean = [0.0; 3];
    let mut lin_sem = [0.0; 3];
    for &metric in Metric::ALL.iter() {
        let s = stats.metric(metric);
        let mean = s.mean().unwrap_or(0.0);
        let sem = s
            .sem()
            .unwrap_or_else(|| mean.abs() * SPARSE_REL_SEM)
            .max(1e-9);
        lin_mean[idx(metric)] = linearize(metric, mean);
        // Floor the SEM for sparse cells (a relative uncertainty
        // decaying as 1/n) so one lucky sample cannot look
        // authoritative, without chaining every interval together
        // once a handful of samples exist.
        lin_sem[idx(metric)] = linearize_sem(metric, mean, sem)
            .max(SPARSE_REL_SEM / n as f64 * linearize(metric, mean).max(1e-6));
    }
    Prediction::from_linear(lin_mean, lin_sem, PredictionSource::Empirical(n))
}

/// The prior's linearized `(mean, sem)` for one metric predicted at `mean`.
fn prior_slot(metric: Metric, mean: f64) -> (f64, f64) {
    let lin = linearize(metric, mean);
    (lin, (PRIOR_REL_SEM * lin).max(1e-6))
}

/// Predictor configuration, which the fit does not read: the fit is one
/// sequential pass whatever the settings.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredictorConfig {
    /// Tomography solver settings.
    pub tomography: TomographyConfig,
}

/// Geography the controller knows: one representative position per spatial
/// key and per relay, reduced at construction to the fiber-bound RTT of
/// every key↔relay and relay↔relay leg. Built once per world by the replay
/// engine / server / testbed; cloning shares the tables.
#[derive(Debug, Clone)]
pub struct GeoPrior {
    tables: Arc<GeoTables>,
}

#[derive(Debug)]
struct GeoTables {
    /// Per-key positions, for the one leg that is not tabulated (`Direct`:
    /// a key×key table would be quadratic in the key count).
    key_pos: Vec<GeoPoint>,
    /// `key_relay_ms[(k, r)]` = `min_rtt_ms` between key `k` and relay `r`;
    /// `min_rtt_ms` is bit-symmetric, so one orientation serves both.
    key_relay_ms: Table<f64>,
    /// `relay_ms[(i, j)]` = `min_rtt_ms` from relay `i` to relay `j`.
    relay_ms: Table<f64>,
    /// The prior's linearized `(mean, sem)` for loss and for jitter:
    /// constants, so their `ln` and `powi` are paid once per run, not per
    /// prediction or per refit.
    loss_jitter: [(f64, f64); 2],
}

impl GeoPrior {
    /// Builds a prior from per-key and per-relay positions (indexable by key
    /// value / relay id).
    pub fn new(key_pos: Vec<GeoPoint>, relay_pos: Vec<GeoPoint>) -> Self {
        let n = relay_pos.len();
        let key_relay_ms = Table::from_fn(key_pos.len(), n, |k, r| {
            key_pos[k].min_rtt_ms(&relay_pos[r])
        });
        let relay_ms = Table::from_fn(n, n, |i, j| relay_pos[i].min_rtt_ms(&relay_pos[j]));
        Self {
            tables: Arc::new(GeoTables {
                key_pos,
                key_relay_ms,
                relay_ms,
                loss_jitter: [
                    prior_slot(Metric::Loss, PRIOR_LOSS_PCT),
                    prior_slot(Metric::Jitter, PRIOR_JITTER_MS),
                ],
            }),
        }
    }

    /// Number of relays in the fleet this prior was built from.
    pub fn n_relays(&self) -> usize {
        self.tables.relay_ms.rows()
    }

    /// Prior fiber-bound RTT of an option, ms; `None` if a key or relay is
    /// outside the geography this prior was built from.
    fn path_rtt_floor(&self, a: u32, b: u32, option: RelayOption) -> Option<f64> {
        let t = &*self.tables;
        let (a, b) = (a as usize, b as usize);
        let leg = |key: usize, r: RelayId| t.key_relay_ms.get(key, r.index()).copied();
        Some(match option.canonical() {
            RelayOption::Direct => t.key_pos.get(a)?.min_rtt_ms(t.key_pos.get(b)?),
            RelayOption::Bounce(r) => leg(a, r)? + leg(b, r)?,
            RelayOption::Transit(r1, r2) => {
                // Orient for the shorter on-ramps, like the managed network.
                let fwd = leg(a, r1)? + leg(b, r2)?;
                let rev = leg(a, r2)? + leg(b, r1)?;
                fwd.min(rev) + *t.relay_ms.get(r1.index(), r2.index())?
            }
        })
    }

    /// The prior's prediction of `option` between keys `a` and `b`: the
    /// inflated fiber bound (250 ms outside the geography) and the constant
    /// loss and jitter, all with the prior's wide SEM.
    fn predict(&self, a: u32, b: u32, option: RelayOption) -> Prediction {
        let rtt = self
            .path_rtt_floor(a, b, option)
            .map(|floor| floor * PRIOR_INFLATION + 20.0)
            .unwrap_or(250.0);
        let (rtt, rtt_sem) = prior_slot(Metric::Rtt, rtt);
        let [(loss, loss_sem), (jitter, jitter_sem)] = self.tables.loss_jitter;
        Prediction::from_linear(
            [rtt, loss, jitter],
            [rtt_sem, loss_sem, jitter_sem],
            PredictionSource::Prior,
        )
    }
}

/// One fitted cell of the training window; its pair is the same index of
/// [`Predictor::pairs`].
#[derive(Debug, Clone, Copy)]
struct FittedCell {
    option: RelayOption,
    prediction: Prediction,
}

/// The fitted predictor for one control window. Between two refits it is a
/// read-only table, laid out for its reader: cells sorted so a pair's are one
/// contiguous run, found through a dense column of their pairs, solved
/// segments in per-key rows (see [`Tomography`]), and [`Predictor::pair`] to
/// resolve both once per pair.
pub struct Predictor {
    /// Each fitted cell's pair, sorted: the column [`Predictor::pair`]
    /// binary-searches, 8 bytes a cell instead of a whole cell.
    pairs: Vec<KeyPair>,
    /// The window's fitted cells, sorted by `(pair, option)`.
    empirical: Vec<FittedCell>,
    tomography: Tomography,
    prior: GeoPrior,
    backbone: BackboneFn,
}

impl std::fmt::Debug for Predictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Predictor")
            .field("empirical_cells", &self.empirical.len())
            .field("tomography_segments", &self.tomography.len())
            .finish()
    }
}

impl Predictor {
    /// Fits a predictor on the history of `training_window` (stage 1 + 2 of
    /// Algorithm 1). `backbone` supplies known inter-relay metrics.
    pub fn fit(
        history: &CallHistory,
        training_window: Window,
        prior: GeoPrior,
        backbone: impl Into<BackboneFn>,
        _cfg: PredictorConfig,
    ) -> Predictor {
        let cells = fit_order(history.window_cells(training_window));
        Self::fit_sorted(cells, prior, backbone.into())
    }

    /// The fit, over the training window's cells in
    /// [`crate::tomography::fit_order`] — `(pair, option)` ascending, each
    /// once, none empty. Each cell is fitted in that order, which is also
    /// the order they are kept in.
    pub(crate) fn fit_sorted(
        cells: Vec<CellRef<'_>>,
        prior: GeoPrior,
        backbone: BackboneFn,
    ) -> Predictor {
        let empirical = cells
            .iter()
            .map(|&(&(_, option), stats)| FittedCell {
                option,
                prediction: fit_cell(stats),
            })
            .collect();
        let pairs = cells.iter().map(|&(&(pair, _), _)| pair).collect();
        let tomography = Tomography::fit_sorted(cells, &*backbone);
        Predictor {
            pairs,
            empirical,
            tomography,
            prior,
            backbone,
        }
    }

    /// A predictor with no history at all (cold start): the fit of no
    /// cells, prior-only.
    pub fn cold(prior: GeoPrior, backbone: impl Into<BackboneFn>) -> Predictor {
        Self::fit_sorted(Vec::new(), prior, backbone.into())
    }

    /// Number of empirical cells in the model.
    pub fn empirical_cells(&self) -> usize {
        self.empirical.len()
    }

    /// Number of tomography-solved segments.
    pub fn tomography_segments(&self) -> usize {
        self.tomography.len()
    }

    /// Resolves what depends only on the pair of spatial keys — its fitted
    /// cells and both keys' solved segments, slotted by relay — so that
    /// scoring the pair's candidates looks nothing up twice. The keys keep
    /// the order given: a transit stitch breaks its orientation tie by it.
    pub fn pair(&self, a: u32, b: u32) -> PairView<'_> {
        let pair = KeyPair::new(a, b);
        let from = self.pairs.partition_point(|p| *p < pair);
        let to = self.pairs.partition_point(|p| *p <= pair);
        let row_a = self.tomography.row(a);
        PairView {
            predictor: self,
            a,
            b,
            cells: self.empirical.get(from..to).unwrap_or_default(),
            row_a,
            row_b: if a == b {
                row_a
            } else {
                self.tomography.row(b)
            },
        }
    }

    /// Predicts performance of `option` between spatial keys `a` and `b`.
    /// Always succeeds: falls back to the geographic prior. One-shot form of
    /// [`Predictor::pair`]; score several options of a pair through one view.
    pub fn predict(&self, a: u32, b: u32, option: RelayOption) -> Prediction {
        self.pair(a, b).predict(option)
    }
}

/// One pair of spatial keys as a [`Predictor`] sees it. Borrows the
/// predictor, so a view can be neither stale nor outlive its window's model.
#[derive(Debug, Clone, Copy)]
pub struct PairView<'a> {
    predictor: &'a Predictor,
    a: u32,
    b: u32,
    /// The pair's fitted cells, sorted by option.
    cells: &'a [FittedCell],
    /// Both keys' rows, slotted by relay: a stitch is two or four loads.
    row_a: KeyRow<'a>,
    row_b: KeyRow<'a>,
}

impl PairView<'_> {
    /// Predicts performance of `option` for this pair. Always succeeds:
    /// falls back to the geographic prior.
    pub fn predict(&self, option: RelayOption) -> Prediction {
        let predictor = self.predictor;
        let option = option.canonical();
        let cell = self
            .cells
            .iter()
            .find(|c| c.option == option)
            .map(|c| c.prediction);
        if let Some(p) = cell {
            if let PredictionSource::Empirical(n) = p.source {
                if n >= MIN_EMPIRICAL_SAMPLES {
                    return p;
                }
            }
        }
        if let Some((lin_mean, lin_sem)) =
            stitch_rows(&self.row_a, &self.row_b, option, &*predictor.backbone)
        {
            return Prediction::from_linear(lin_mean, lin_sem, PredictionSource::Tomography);
        }
        // Sparse empirical beats pure prior.
        if let Some(p) = cell {
            return p;
        }
        predictor.prior.predict(self.a, self.b, option)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::Trained;
    use crate::tomography::reference;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use via_model::metrics::PathMetrics;
    use via_model::seed::{fnv1a, FNV_BASIS};
    use via_model::time::{SimTime, WindowLen};

    fn window() -> Window {
        WindowLen::DAY.window_of(SimTime::ZERO)
    }

    fn prior() -> GeoPrior {
        GeoPrior::new(
            vec![
                GeoPoint::new(40.7, -74.0), // key 0: NYC
                GeoPoint::new(51.5, -0.1),  // key 1: London
                GeoPoint::new(35.7, 139.7), // key 2: Tokyo
            ],
            vec![
                GeoPoint::new(38.9, -77.5), // R0: Virginia
                GeoPoint::new(50.1, 8.7),   // R1: Frankfurt
            ],
        )
    }

    fn bb() -> Box<dyn Fn(RelayId, RelayId) -> PathMetrics + Send + Sync> {
        Box::new(|_, _| PathMetrics::new(80.0, 0.01, 0.4))
    }

    /// The predictor as it was before the window model was laid out for its
    /// reader: both tables `HashMap`s, probed per option, the prior
    /// linearized per prediction. The pair view must reproduce every bit.
    struct Reference {
        empirical: HashMap<(KeyPair, RelayOption), Prediction>,
        tomography: reference::Tomography,
        prior: GeoPrior,
        backbone: BackboneFn,
    }

    impl Reference {
        fn fit(
            history: &CallHistory,
            window: Window,
            prior: GeoPrior,
            backbone: BackboneFn,
        ) -> Reference {
            let empirical = history
                .window_cells(window)
                .filter(|(_, stats)| stats.count() > 0)
                .map(|(key, stats)| (*key, fit_cell(stats)))
                .collect();
            let tomography = reference::Tomography::fit(history, window, &*backbone);
            Reference {
                empirical,
                tomography,
                prior,
                backbone,
            }
        }

        fn predict(&self, a: u32, b: u32, option: RelayOption) -> Prediction {
            let option = option.canonical();
            let pair = KeyPair::new(a, b);
            if let Some(p) = self.empirical.get(&(pair, option)) {
                if let PredictionSource::Empirical(n) = p.source {
                    if n >= MIN_EMPIRICAL_SAMPLES {
                        return *p;
                    }
                }
            }
            if let Some((lin_mean, lin_sem)) = self.tomography.stitch(a, b, option, &*self.backbone)
            {
                return Prediction::from_linear(lin_mean, lin_sem, PredictionSource::Tomography);
            }
            if let Some(p) = self.empirical.get(&(pair, option)) {
                return *p;
            }
            let rtt = self
                .prior
                .path_rtt_floor(a, b, option)
                .map(|floor| floor * PRIOR_INFLATION + 20.0)
                .unwrap_or(250.0);
            let mut lin_mean = [0.0; 3];
            let mut lin_sem = [0.0; 3];
            let means = [rtt, PRIOR_LOSS_PCT, PRIOR_JITTER_MS];
            for (i, &metric) in Metric::ALL.iter().enumerate() {
                lin_mean[i] = linearize(metric, means[i]);
                lin_sem[i] = (PRIOR_REL_SEM * lin_mean[i]).max(1e-6);
            }
            Prediction::from_linear(lin_mean, lin_sem, PredictionSource::Prior)
        }
    }

    /// `history` fitted both ways, the solved segments already compared bit
    /// for bit.
    struct BothWays {
        new: Predictor,
        old: Reference,
    }

    impl BothWays {
        fn fit(history: &CallHistory, prior: GeoPrior, backbone: BackboneFn) -> BothWays {
            let cfg = PredictorConfig::default();
            let new = Predictor::fit(history, window(), prior.clone(), backbone.clone(), cfg);
            let old = Reference::fit(history, window(), prior, backbone);
            assert_eq!(new.empirical_cells(), old.empirical.len());
            assert_eq!(new.tomography_segments(), old.tomography.segments.len());
            #[expect(
                clippy::iter_over_hash_type,
                reason = "every segment is checked; the order picks only which mismatch is reported"
            )]
            for (seg, want) in &old.tomography.segments {
                let got = new.tomography.segment(seg.key, seg.relay).expect("solved");
                assert_eq!(
                    (
                        got.value.map(f64::to_bits),
                        got.sem.map(f64::to_bits),
                        got.n_obs
                    ),
                    (
                        want.value.map(f64::to_bits),
                        want.sem.map(f64::to_bits),
                        want.n_obs
                    ),
                    "{seg:?}"
                );
            }
            BothWays { new, old }
        }

        /// Every option of a pair, through one view and through the one-shot
        /// wrapper, against the reference, bit for bit.
        fn check(&self, a: u32, b: u32, options: &[RelayOption]) {
            let view = self.new.pair(a, b);
            for &option in options {
                let want = self.old.predict(a, b, option);
                for got in [view.predict(option), self.new.predict(a, b, option)] {
                    assert_eq!(got.source, want.source, "({a}, {b}) {option}");
                    assert_eq!(
                        (
                            got.lin_mean.map(f64::to_bits),
                            got.lin_sem.map(f64::to_bits)
                        ),
                        (
                            want.lin_mean.map(f64::to_bits),
                            want.lin_sem.map(f64::to_bits)
                        ),
                        "({a}, {b}) {option} from {:?}",
                        want.source
                    );
                }
            }
        }
    }

    /// One paper-scale day in which every call measures one candidate of its
    /// pair, cycling through them, so a busy pair holds dense cells, a quiet
    /// one sparse cells and holes.
    struct PaperDay {
        world: via_netsim::World,
        history: CallHistory,
        pairs: std::collections::BTreeSet<(via_model::ids::AsId, via_model::ids::AsId)>,
        prior: GeoPrior,
        backbone: BackboneFn,
    }

    fn paper_day() -> PaperDay {
        let world = via_netsim::World::generate(&via_netsim::WorldConfig::paper_scale(), 7);
        let trace_cfg = via_trace::TraceConfig {
            days: 1,
            ..via_trace::TraceConfig::paper_scale()
        };
        let generator = via_trace::TraceGenerator::new(&world, trace_cfg, 7);
        let mut calls = generator.stream();
        let mut scratch = via_netsim::CandidateScratch::default();
        let mut options = Vec::new();
        let mut history = CallHistory::new();
        let mut pairs = std::collections::BTreeSet::new();
        while let Some(call) = calls.next_record() {
            let (src, dst) = (call.src_as, call.dst_as);
            world.candidate_options_into(src, dst, &mut scratch, &mut options);
            let option = options[call.id.0 as usize % options.len()];
            let m = world.perf().option_mean(src, dst, option, call.t);
            history.record(window(), KeyPair::new(src.0, dst.0), option, &m);
            pairs.insert((src, dst));
        }
        let relays = &world.relays;
        let legs = Table::from_fn(relays.len(), relays.len(), |i, j| {
            world.perf().backbone_metrics(relays[i].id, relays[j].id)
        });
        let backbone: BackboneFn =
            Arc::new(move |a: RelayId, b: RelayId| legs[(a.index(), b.index())]);
        let prior = GeoPrior::new(
            world.ases.iter().map(|a| a.pos).collect(),
            relays.iter().map(|r| r.pos).collect(),
        );
        PaperDay {
            world,
            history,
            pairs,
            prior,
            backbone,
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "a paper-scale window: tens of thousands of calls")]
    fn pair_view_is_bit_identical_to_the_hash_map_reference_at_paper_scale() {
        let PaperDay {
            world,
            history: h,
            pairs,
            prior,
            backbone,
        } = paper_day();
        let mut scratch = via_netsim::CandidateScratch::default();
        let mut options = Vec::new();
        let both = BothWays::fit(&h, prior, backbone);
        let fitted = &both.new;
        // [dense cell, sparse cell, stitched, prior]: the window must reach
        // every rung of the decision order, or the identity is vacuous.
        let mut rungs = [0usize; 4];
        for &(src, dst) in &pairs {
            world.candidate_options_into(src, dst, &mut scratch, &mut options);
            both.check(src.0, dst.0, &options);
            // The callee's side of the same pair: same cells, rows swapped.
            both.check(dst.0, src.0, &options);
            for &option in &options {
                rungs[match fitted.predict(src.0, dst.0, option).source {
                    PredictionSource::Empirical(n) if n >= 3 => 0,
                    PredictionSource::Empirical(_) => 1,
                    PredictionSource::Tomography => 2,
                    PredictionSource::Prior => 3,
                }] += 1;
            }
        }
        assert!(rungs.iter().all(|&n| n > 1_000), "{rungs:?} of {fitted:?}");
    }

    /// FNV-1a over the bits of every candidate's prediction, both sides of
    /// every pair of `day`, in pair order.
    fn prediction_bits(day: &PaperDay, fitted: &Predictor) -> u64 {
        let mut scratch = via_netsim::CandidateScratch::default();
        let mut options = Vec::new();
        let mut h = FNV_BASIS;
        let mut fold = |v: u64| {
            h = fnv1a(h, &v.to_le_bytes());
        };
        for &(src, dst) in &day.pairs {
            day.world
                .candidate_options_into(src, dst, &mut scratch, &mut options);
            for (a, b) in [(src.0, dst.0), (dst.0, src.0)] {
                let view = fitted.pair(a, b);
                for &option in &options {
                    let p = view.predict(option);
                    p.lin_mean
                        .iter()
                        .chain(&p.lin_sem)
                        .for_each(|v| fold(v.to_bits()));
                    fold(match p.source {
                        PredictionSource::Empirical(n) => n,
                        PredictionSource::Tomography => u64::MAX,
                        PredictionSource::Prior => u64::MAX - 1,
                    });
                }
            }
        }
        h
    }

    /// Captured at the commit before `Predictor::fit` grew a second way to
    /// be handed its cells; every way must reproduce it.
    const PAPER_DAY_PREDICTION_BITS: u64 = 0xc4a4_56c4_7479_3f4a;

    #[test]
    #[cfg_attr(miri, ignore = "a paper-scale window: tens of thousands of calls")]
    fn fit_over_a_paper_scale_day_is_pinned_bit_for_bit() {
        let day = paper_day();
        let cfg = PredictorConfig::default();
        let from_history = Predictor::fit(
            &day.history,
            window(),
            day.prior.clone(),
            day.backbone.clone(),
            cfg,
        );
        let bits = prediction_bits(&day, &from_history);
        assert_eq!(
            bits, PAPER_DAY_PREDICTION_BITS,
            "fit over the history: {bits:#018x}"
        );

        // The same cells held outside a history, as the replay engine and
        // the live controller hold them: owned by a `Trained`, in whatever
        // order they arrived, fitted for the window after.
        let mut owned: Vec<crate::history::GroupedCell> = day
            .history
            .window_cells(window())
            .map(|(key, stats)| (*key, stats.clone()))
            .collect();
        owned.reverse();
        let mut trained = Trained::default();
        trained.close(window()).append(&mut owned);
        let opening = Window {
            index: window().index + 1,
            ..window()
        };
        let from_slice = trained.fit(opening, day.prior.clone(), &day.backbone);
        assert_eq!(from_slice.empirical_cells(), from_history.empirical_cells());
        assert_eq!(
            from_slice.tomography_segments(),
            from_history.tomography_segments()
        );
        let bits = prediction_bits(&day, &from_slice);
        assert_eq!(
            bits, PAPER_DAY_PREDICTION_BITS,
            "fit over the sorted slice: {bits:#018x}"
        );
    }

    #[test]
    fn hostile_key_and_relay_values_cost_no_memory() {
        // A key and a relay id at the top of their range reach `fit` through
        // the in-process API; the model must be sized by how many cells and
        // segments there are, not by their values.
        let backbone: BackboneFn = Arc::new(|_, _| PathMetrics::new(80.0, 0.01, 0.4));
        let fit = |key: u32, relay: RelayId| {
            let mut h = CallHistory::new();
            let m = PathMetrics::new(120.0, 0.4, 3.0);
            for _ in 0..4 {
                h.record(
                    window(),
                    KeyPair::new(0, key),
                    RelayOption::Bounce(relay),
                    &m,
                );
                h.record(
                    window(),
                    KeyPair::new(1, key),
                    RelayOption::Bounce(relay),
                    &m,
                );
                h.record(
                    window(),
                    KeyPair::new(0, 1),
                    RelayOption::Transit(RelayId(0), relay),
                    &m,
                );
            }
            let both = BothWays::fit(&h, prior(), backbone.clone());
            let fitted = &both.new;
            let options = [
                RelayOption::Direct,
                RelayOption::Bounce(relay),
                RelayOption::Bounce(RelayId(0)),
                RelayOption::Transit(relay, RelayId(0)),
            ];
            for (a, b) in [(0, key), (key, 1), (0, 1), (key, key), (2, key)] {
                both.check(a, b, &options);
            }
            let stitched = fitted.predict(1, 0, RelayOption::Bounce(relay));
            assert_eq!(stitched.source, PredictionSource::Tomography);
            assert_eq!(fitted.empirical.capacity(), fitted.empirical_cells());
            assert_eq!(fitted.pairs.capacity(), fitted.empirical_cells());
            (
                fitted.empirical_cells(),
                fitted.tomography_segments(),
                fitted.tomography.reserved(),
            )
        };
        let hostile = fit(u32::MAX, RelayId(u32::MAX));
        assert_eq!(hostile, fit(2, RelayId(1)));
        // Three keys and their row bounds, five segments.
        assert_eq!(hostile, (3, 5, 3 + 4 + 5));
    }

    proptest! {
        // Runs under miri too (the CI job covers the row arithmetic): keep
        // the histories tiny.
        #[test]
        fn pair_view_matches_the_reference_on_tiny_histories(
            reports in prop::collection::vec(
                (0u32..4, 0u32..4, 0u32..8, 0usize..5, 0usize..5, 1u64..6),
                0..10,
            ),
        ) {
            // Keys 0–2 and relays 0–1 are inside the prior; key 3 and the
            // other relays are not, and key 4 is never observed. The last
            // slotted relay id, the first past the slots and `u32::MAX` take
            // the slot and the fallback path of a key row alike. Counts
            // straddle `min_empirical_samples` (3).
            let cap = crate::tomography::ROW_SLOTS as u32;
            let relays = [0, 1, cap - 1, cap, u32::MAX].map(RelayId);
            let option_of = |kind: u32, r1: usize, r2: usize| match kind {
                0 => RelayOption::Direct,
                1..=3 => RelayOption::Bounce(relays[r1]),
                _ => RelayOption::Transit(relays[r1], relays[r2]),
            };
            let mut h = CallHistory::new();
            for (i, &(a, b, kind, r1, r2, n)) in reports.iter().enumerate() {
                for k in 0..n {
                    let m = PathMetrics::new(
                        60.0 + 17.0 * i as f64 + 3.0 * k as f64,
                        0.1 * (1 + i) as f64,
                        1.0 + k as f64,
                    );
                    h.record(window(), KeyPair::new(a, b), option_of(kind, r1, r2), &m);
                }
            }
            let backbone: BackboneFn = Arc::new(|a: RelayId, b: RelayId| {
                PathMetrics::new(20.0 + 5.0 * f64::from(a.0 % 7 + 2 * (b.0 % 7)), 0.02, 0.5)
            });
            let both = BothWays::fit(&h, prior(), backbone);
            let mut options = vec![RelayOption::Direct];
            for r1 in relays {
                options.push(RelayOption::Bounce(r1));
                options.extend(relays.map(|r2| RelayOption::Transit(r1, r2)));
            }
            for a in 0..5 {
                for b in 0..5 {
                    both.check(a, b, &options);
                }
            }
        }
    }

    /// `path_rtt_floor` as it was before the tables: haversine per leg.
    fn path_rtt_floor_trig(
        key_pos: &[GeoPoint],
        relay_pos: &[GeoPoint],
        a: u32,
        b: u32,
        option: RelayOption,
    ) -> Option<f64> {
        let pa = key_pos.get(a as usize)?;
        let pb = key_pos.get(b as usize)?;
        Some(match option.canonical() {
            RelayOption::Direct => pa.min_rtt_ms(pb),
            RelayOption::Bounce(r) => {
                let pr = relay_pos.get(r.index())?;
                pa.min_rtt_ms(pr) + pr.min_rtt_ms(pb)
            }
            RelayOption::Transit(r1, r2) => {
                let p1 = relay_pos.get(r1.index())?;
                let p2 = relay_pos.get(r2.index())?;
                let fwd = pa.min_rtt_ms(p1) + p2.min_rtt_ms(pb);
                let rev = pa.min_rtt_ms(p2) + p1.min_rtt_ms(pb);
                fwd.min(rev) + p1.min_rtt_ms(p2)
            }
        })
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of thousands of haversines")]
    fn tabulated_rtt_floor_is_bit_identical_to_trig_for_every_candidate() {
        let world = via_netsim::World::generate(&via_netsim::WorldConfig::paper_scale(), 7);
        let key_pos: Vec<GeoPoint> = world.ases.iter().map(|a| a.pos).collect();
        let relay_pos: Vec<GeoPoint> = world.relays.iter().map(|r| r.pos).collect();
        let prior = GeoPrior::new(key_pos.clone(), relay_pos.clone());
        let mut scratch = via_netsim::CandidateScratch::default();
        let mut options = Vec::new();
        let mut checked = 0u64;
        for a in &world.ases {
            for b in &world.ases {
                world.candidate_options_into(a.id, b.id, &mut scratch, &mut options);
                for &opt in &options {
                    let table = prior.path_rtt_floor(a.id.0, b.id.0, opt);
                    let trig = path_rtt_floor_trig(&key_pos, &relay_pos, a.id.0, b.id.0, opt);
                    assert_eq!(
                        table.map(f64::to_bits),
                        trig.map(f64::to_bits),
                        "{} -> {} over {opt}",
                        a.id,
                        b.id
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 500_000, "only {checked} options checked");
    }

    #[test]
    fn rtt_floor_is_none_outside_the_geography() {
        let p = prior(); // 3 keys, 2 relays
        let (r0, r1, r_out) = (RelayId(0), RelayId(1), RelayId(2));
        assert!(p.path_rtt_floor(0, 1, RelayOption::Direct).is_some());
        assert!(p.path_rtt_floor(0, 1, RelayOption::Bounce(r1)).is_some());
        assert!(p
            .path_rtt_floor(0, 1, RelayOption::Transit(r0, r1))
            .is_some());
        for (a, b) in [(3, 0), (0, 3), (u32::MAX, u32::MAX)] {
            for opt in [
                RelayOption::Direct,
                RelayOption::Bounce(r0),
                RelayOption::Transit(r0, r1),
            ] {
                assert_eq!(p.path_rtt_floor(a, b, opt), None, "keys ({a}, {b}) {opt}");
            }
        }
        // Relay 2 of a 2-relay fleet: under raw stride math (key 0, relay 2)
        // is (key 1, relay 0) — it must be rejected, not aliased.
        for opt in [
            RelayOption::Bounce(r_out),
            RelayOption::Transit(r0, r_out),
            RelayOption::Bounce(RelayId(u32::MAX)),
        ] {
            assert_eq!(p.path_rtt_floor(0, 1, opt), None, "{opt}");
        }
        // The prediction still answers, from the 250 ms fallback.
        let cold = Predictor::cold(p, bb());
        let pred = cold.predict(0, 1, RelayOption::Bounce(r_out));
        assert_eq!(pred.source, PredictionSource::Prior);
        assert!((pred.mean(Metric::Rtt) - 250.0).abs() < 1e-6);
    }

    #[test]
    fn empirical_preferred_when_dense() {
        let mut h = CallHistory::new();
        let pair = KeyPair::new(0, 1);
        for i in 0..10 {
            h.record(
                window(),
                pair,
                RelayOption::Direct,
                &PathMetrics::new(100.0 + i as f64, 1.0, 5.0),
            );
        }
        let p = Predictor::fit(&h, window(), prior(), bb(), PredictorConfig::default());
        let pred = p.predict(0, 1, RelayOption::Direct);
        assert!(matches!(pred.source, PredictionSource::Empirical(10)));
        assert!((pred.mean(Metric::Rtt) - 104.5).abs() < 0.5);
        assert!(pred.lower(Metric::Rtt) < pred.mean(Metric::Rtt));
        assert!(pred.upper(Metric::Rtt) > pred.mean(Metric::Rtt));
    }

    #[test]
    fn tomography_fills_holes() {
        let mut h = CallHistory::new();
        let r = RelayId(0);
        // Observe 0↔1 and 1↔2 bounces; 0↔2 is a hole.
        for _ in 0..10 {
            h.record(
                window(),
                KeyPair::new(0, 1),
                RelayOption::Bounce(r),
                &PathMetrics::new(100.0, 0.5, 4.0),
            );
            h.record(
                window(),
                KeyPair::new(1, 2),
                RelayOption::Bounce(r),
                &PathMetrics::new(140.0, 0.7, 5.0),
            );
        }
        let p = Predictor::fit(&h, window(), prior(), bb(), PredictorConfig::default());
        let pred = p.predict(0, 2, RelayOption::Bounce(r));
        assert_eq!(pred.source, PredictionSource::Tomography);
        let rtt = pred.mean(Metric::Rtt);
        // Under-determined with two equations and three unknowns, but the
        // stitched value must land in a plausible range around 120.
        assert!((60.0..200.0).contains(&rtt), "stitched RTT {rtt}");
    }

    #[test]
    fn prior_used_when_nothing_known() {
        let h = CallHistory::new();
        let p = Predictor::fit(&h, window(), prior(), bb(), PredictorConfig::default());
        let pred = p.predict(0, 2, RelayOption::Direct);
        assert_eq!(pred.source, PredictionSource::Prior);
        // NYC–Tokyo fiber bound ≈ 108 ms; prior applies inflation.
        let rtt = pred.mean(Metric::Rtt);
        assert!(rtt > 150.0 && rtt < 400.0, "prior RTT {rtt}");
        // Prior must be wide.
        assert!(pred.upper(Metric::Rtt) / pred.lower(Metric::Rtt).max(1.0) > 1.5);
    }

    #[test]
    fn prior_ranks_nearby_relay_better() {
        let h = CallHistory::new();
        let p = Predictor::fit(&h, window(), prior(), bb(), PredictorConfig::default());
        // NYC↔London via Virginia (on the way) vs via... a bounce through
        // Frankfurt (detour past the destination).
        let via_virginia = p.predict(0, 1, RelayOption::Bounce(RelayId(0)));
        let via_frankfurt = p.predict(0, 1, RelayOption::Bounce(RelayId(1)));
        assert!(
            via_virginia.mean(Metric::Rtt) < via_frankfurt.mean(Metric::Rtt) + 30.0,
            "prior should not wildly prefer the detour"
        );
    }

    #[test]
    fn cold_predictor_always_answers() {
        let p = Predictor::cold(prior(), bb());
        for option in [
            RelayOption::Direct,
            RelayOption::Bounce(RelayId(1)),
            RelayOption::Transit(RelayId(0), RelayId(1)),
        ] {
            let pred = p.predict(0, 2, option);
            assert_eq!(pred.source, PredictionSource::Prior);
            assert!(pred.mean(Metric::Rtt).is_finite());
            assert!(pred.mean(Metric::Loss) >= 0.0);
        }
    }

    #[test]
    fn bounds_bracket_mean_for_all_sources() {
        let mut h = CallHistory::new();
        h.record(
            window(),
            KeyPair::new(0, 1),
            RelayOption::Direct,
            &PathMetrics::new(90.0, 0.2, 2.0),
        );
        let p = Predictor::fit(&h, window(), prior(), bb(), PredictorConfig::default());
        for (a, b, opt) in [
            (0, 1, RelayOption::Direct),
            (0, 2, RelayOption::Direct),
            (1, 2, RelayOption::Bounce(RelayId(0))),
        ] {
            let pred = p.predict(a, b, opt);
            for m in Metric::ALL {
                assert!(pred.lower(m) <= pred.mean(m) + 1e-9);
                assert!(pred.upper(m) + 1e-9 >= pred.mean(m));
            }
        }
    }

    #[test]
    fn sparse_empirical_beats_prior_but_not_tomography() {
        let mut h = CallHistory::new();
        // One single sample — below min_empirical_samples.
        h.record(
            window(),
            KeyPair::new(0, 1),
            RelayOption::Direct,
            &PathMetrics::new(90.0, 0.2, 2.0),
        );
        let p = Predictor::fit(&h, window(), prior(), bb(), PredictorConfig::default());
        let pred = p.predict(0, 1, RelayOption::Direct);
        // Direct has no tomography; sparse empirical should win over prior.
        assert!(matches!(pred.source, PredictionSource::Empirical(1)));
    }
}
