//! The live selection plane: sharded controller state, rolled forward one
//! window at a time in one step.
//!
//! The batch replay engine (`via_core::replay`) advances through a trace
//! window by window: at each barrier it fits the predictor on the closed
//! window with [`Trained::fit`], rebuilds per-pair bandit state lazily, and
//! replays the next window. A long-running controller runs the same schedule
//! with the same [`Trained`], but answers `select` RPCs continuously, so its
//! state is split two ways:
//!
//! * **Shards** — per-pair mutable state, partitioned by spatial key pair so
//!   concurrent selects for different pairs never contend: the epoch (window
//!   index and [`Predictor`]) the shard serves, this window's report cells
//!   with their `(pair, option)` index, per-pair [`PairArms`], the shard's
//!   [`Selector`], and a selection-latency histogram.
//! * **Roll state** — the [`Trained`] window behind the served predictor
//!   (what a snapshot carries and a restore refits), and the roll telemetry.
//!
//! A roll is one step. Under the roll lock and every shard's lock, taken in
//! index order, the shards' cells are copied into a staged `Trained` and
//! fitted; only once the fit has returned does each shard take the new
//! epoch, clear its arms and give up its cells. So no select sees a drained
//! shard beside the old predictor, and a fit that panics changes nothing.
//! The price is that every select waits out one fit per window, where only
//! same-shard selects used to wait for a drain. Lock order is roll → shards
//! in index order → gate; a call that finds its shard behind releases it
//! before it rolls.
//!
//! The decision itself is `via_core::selector`'s: each shard carries a
//! [`Selector`] running the `Via` row — `ViaBudgeted` when the config has a
//! budget — whose [`Selector::arms`] builds a pair's [`PairArms`] from the
//! epoch's predictor and whose [`Selector::decide`] plays them; a report
//! teaches them through [`PairArms::learn`]. `select` admits through the
//! same [`GateState`] the replay engine walks, whose non-finite-benefit rule
//! (admit, charge nothing) is the one both planes share. What stays here:
//! the per-pair arms map, the one gate behind its mutex, the per-call RNG,
//! and dropping candidates from outside the fleet before arms are built.
//! The regression tests in `tests/server_determinism.rs` pin selections
//! against an independent reference loop built on `Predictor::fit`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use via_core::budget::BudgetGate;
use via_core::history::{GroupedCell, KeyPair, MetricStats};
use via_core::online::{BackboneFn, CellSnapshot, RefitSnapshot, Trained};
use via_core::predictor::{GeoPrior, Predictor, PredictorConfig};
use via_core::selector::{GateState, PairArms, Plan, Selector};
use via_core::strategy::StrategyKind;
use via_model::ids::RelayId;
use via_model::metrics::{Metric, PathMetrics};
use via_model::options::RelayOption;
use via_model::seed::{self, splitmix64};
use via_model::time::{SimTime, Window, WindowLen};

use crate::lock::lock;

/// Static configuration of a [`Controller`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Root seed for the ε-exploration RNG (derived per `call_id`, so a
    /// replayed request stream re-derives identical coin flips).
    pub seed: u64,
    /// Objective metric selections optimize.
    pub objective: Metric,
    /// Control-window length.
    pub window: WindowLen,
    /// ε general-exploration fraction (Algorithm 3's uniform escape hatch).
    pub epsilon: f64,
    /// Budget-gate fraction in (0, 1], or `None` to disable gating.
    pub budget: Option<f64>,
    /// Number of pair shards (clamped to at least 1).
    pub shards: usize,
    /// Simulation clock at startup; decides the first accumulating window.
    pub start: SimTime,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            seed: 0,
            objective: Metric::Rtt,
            window: WindowLen::DAY,
            epsilon: 0.05,
            budget: None,
            shards: 8,
            start: SimTime::ZERO,
        }
    }
}

/// One selection decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// The chosen option.
    pub option: RelayOption,
    /// False when the budget gate forced the direct path.
    pub admitted: bool,
    /// True when ε exploration picked a uniform random candidate.
    pub explored: bool,
    /// Window index the decision was made in.
    pub window: u64,
}

/// What the shards serve between two rolls: the accumulating window and the
/// predictor trained on the window before it. One per roll, shared by every
/// shard.
struct Epoch {
    window: Window,
    predictor: Predictor,
}

/// One pair shard: every mutable per-call structure for the pairs hashed
/// here. Locked per select/report; different pairs in different shards
/// proceed concurrently.
struct Shard {
    /// The epoch this shard serves: the same one in every shard outside a
    /// roll.
    epoch: Arc<Epoch>,
    /// This window's report cells, one per `(pair, option)`, where each sits
    /// in `cells`, and how many reports they hold: all emptied at rollover,
    /// capacity kept.
    cells: Vec<GroupedCell>,
    index: HashMap<(KeyPair, RelayOption), usize>,
    pending: u64,
    /// Per-pair arms for the current window: built lazily from the epoch's
    /// predictor, cleared whenever the epoch moves.
    pairs: HashMap<KeyPair, PairArms>,
    /// The shard's decision pipeline, and the current select's in-fleet
    /// candidates (reused across selects).
    selector: Selector,
    candidates: Vec<RelayOption>,
    /// Wall-clock select latency, microseconds (nondeterministic; only the
    /// observability snapshot carries it).
    latency: via_obs::Histogram,
}

impl Shard {
    fn new(epoch: Arc<Epoch>, selector: Selector) -> Shard {
        Shard {
            epoch,
            cells: Vec::new(),
            index: HashMap::new(),
            pending: 0,
            pairs: HashMap::new(),
            selector,
            candidates: Vec::new(),
            latency: via_obs::Histogram::new(via_obs::LATENCY_US),
        }
    }

    /// Folds into this window's cell for `key` (canonical option), opened
    /// empty on its first report.
    fn file(&mut self, key: (KeyPair, RelayOption), fold: impl FnOnce(&mut MetricStats)) {
        let Shard { cells, index, .. } = self;
        let slot = *index.entry(key).or_insert_with(|| {
            cells.push((key, MetricStats::default()));
            cells.len() - 1
        });
        if let Some((_, stats)) = cells.get_mut(slot) {
            fold(stats);
        }
    }
}

/// State mutated only at window rollover, behind one mutex so rolls are
/// serialized.
struct RollState {
    /// The window behind the served predictor — what a restart needs to
    /// refit an identical predictor.
    trained: Trained,
    /// Deterministic roll telemetry (one span per rollover).
    obs: via_obs::MetricSink,
}

/// Serializable image of the controller's entire selection state: enough
/// to restart and keep serving bit-identical predictions.
///
/// `trained` carries the per-cell statistics of the window behind the live
/// predictor; restore refits them with the same [`Trained::fit`] the
/// rollover called. `current` is the accumulating window in the same
/// canonical cell order. Per-pair bandit arms are *not* carried: they rebuild
/// lazily from the restored predictor's predictions (a prediction-warm-started
/// bandit, exactly what the batch engine builds at a pair's first call in a
/// window), trading the closed-over-restart in-window arm observations for a
/// snapshot that stays small and deterministic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectionSnapshot {
    /// The accumulating window's cells, pending count, and window id.
    pub current: RefitSnapshot,
    /// The training window behind the live predictor, if any.
    pub trained: Option<RefitSnapshot>,
    /// Budget-gate estimator and counters, when gating is enabled.
    pub gate: Option<BudgetGate>,
}

/// The live controller: the in-process API the socket plane, the load
/// generator, and the tests all drive.
pub struct Controller {
    cfg: ServerConfig,
    prior: GeoPrior,
    backbone: BackboneFn,
    shards: Vec<Mutex<Shard>>,
    gate: Mutex<GateState>,
    roll: Mutex<RollState>,
    /// The next session id to issue (ids start at 1 and are never reused),
    /// and how many sessions are open.
    next_session: AtomicU64,
    live_sessions: AtomicUsize,
    selections: AtomicU64,
    reports: AtomicU64,
    reports_rejected: AtomicU64,
    gated: AtomicU64,
    explored: AtomicU64,
    /// Predictor publishes since startup: the refit epoch.
    rolls: AtomicU64,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("window", &self.window_index())
            .field("shards", &self.shards.len())
            .field("selections", &self.selections.load(Ordering::Relaxed))
            .field("reports", &self.reports.load(Ordering::Relaxed))
            .finish()
    }
}

/// True when every relay `option` names is one of a fleet's `n_relays`.
fn names_fleet_relays(n_relays: usize, option: RelayOption) -> bool {
    let known = |r: RelayId| r.index() < n_relays;
    match option {
        RelayOption::Direct => true,
        RelayOption::Bounce(r) => known(r),
        RelayOption::Transit(a, b) => known(a) && known(b),
    }
}

impl Controller {
    /// Builds a controller serving from `cfg.start`. Before the first
    /// rollover it serves what the batch engine would at the same window:
    /// a predictor fitted on the (empty) preceding window, or the prior-only
    /// cold predictor when starting at window 0.
    pub fn new(cfg: ServerConfig, prior: GeoPrior, backbone: BackboneFn) -> Controller {
        let start = cfg.window.window_of(cfg.start);
        Controller::opening(cfg, prior, backbone, start, Trained::default())
    }

    /// A controller accumulating into `current` and serving the predictor
    /// `trained` fits for it.
    fn opening(
        cfg: ServerConfig,
        prior: GeoPrior,
        backbone: BackboneFn,
        current: Window,
        mut trained: Trained,
    ) -> Controller {
        let fit_cfg = PredictorConfig::default();
        let predictor = trained.fit(current, prior.clone(), &backbone, fit_cfg);
        let epoch = Arc::new(Epoch {
            window: current,
            predictor,
        });
        let n_shards = cfg.shards.max(1);
        // The `Via` row, or `ViaBudgeted` when the config carries a budget.
        let plan = Plan::from(match cfg.budget {
            None => StrategyKind::Via,
            Some(budget) => StrategyKind::ViaBudgeted { budget },
        });
        Controller {
            prior,
            backbone,
            shards: (0..n_shards)
                .map(|_| {
                    let selector = Selector::new(plan, cfg.objective, cfg.epsilon);
                    Mutex::new(Shard::new(Arc::clone(&epoch), selector))
                })
                .collect(),
            gate: Mutex::new(GateState::new(&plan)),
            roll: Mutex::new(RollState {
                trained,
                obs: via_obs::MetricSink::new(),
            }),
            next_session: AtomicU64::new(1),
            live_sessions: AtomicUsize::new(0),
            selections: AtomicU64::new(0),
            reports: AtomicU64::new(0),
            reports_rejected: AtomicU64::new(0),
            gated: AtomicU64::new(0),
            explored: AtomicU64::new(0),
            rolls: AtomicU64::new(0),
            cfg,
        }
    }

    /// Rebuilds a controller from a [`SelectionSnapshot`] (graceful
    /// restart). The caller must pass the same `cfg`, `prior`, and
    /// `backbone` the snapshotting controller ran with; the restored
    /// controller then serves bit-identical predictions, carries the same
    /// accumulating statistics, and re-snapshots to the same bytes.
    /// `snap.trained` is read as the window before `snap.current` — what
    /// every snapshot [`Controller::selection_snapshot`] writes holds. A cell
    /// whose option is not in the fleet, or of a trained window labelled
    /// otherwise, is dropped and counted as a refused report.
    pub fn restore(
        cfg: ServerConfig,
        prior: GeoPrior,
        backbone: BackboneFn,
        mut snap: SelectionSnapshot,
    ) -> Controller {
        // A snapshot is outside input like a report is: checked where it
        // enters, before the trained window's refit reads a relay id.
        let n_relays = prior.n_relays();
        let mut rejected = 0;
        for image in [Some(&mut snap.current), snap.trained.as_mut()]
            .into_iter()
            .flatten()
        {
            let held = image.cells.len();
            image
                .cells
                .retain(|c| names_fleet_relays(n_relays, c.option));
            rejected += (held - image.cells.len()) as u64;
        }
        let current = snap.current.window;
        let trained = match snap.trained {
            Some(image) if Some(image.window) != current.prev() => {
                rejected += image.cells.len() as u64;
                Trained::default()
            }
            image => image.map(Trained::restore).unwrap_or_default(),
        };
        let ctrl = Controller::opening(cfg, prior, backbone, current, trained);
        for cell in snap.current.cells {
            // A cell listed twice is one cell, Chan-merged in listed order.
            let mut shard = lock(&ctrl.shards[ctrl.shard_of(cell.pair)]);
            shard.pending += cell.stats.count();
            shard.file((cell.pair, cell.option.canonical()), |stats| {
                stats.merge(&cell.stats);
            });
        }
        ctrl.reports_rejected.store(rejected, Ordering::Relaxed);
        *lock(&ctrl.gate) = GateState::from(snap.gate);
        ctrl
    }

    /// The controller's static configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Number of relays in the fleet the controller selects over.
    pub fn n_relays(&self) -> usize {
        self.prior.n_relays()
    }

    /// True when every relay `option` names is in that fleet. Relay ids
    /// index the relay×relay backbone table at the next refit, so an option
    /// from outside the program — a frame, an in-process report, a snapshot
    /// cell — is checked with this before it is recorded.
    pub fn in_fleet(&self, option: RelayOption) -> bool {
        names_fleet_relays(self.n_relays(), option)
    }

    /// Index of the currently accumulating window.
    pub fn window_index(&self) -> u64 {
        self.current_window().index
    }

    /// Number of predictor publishes since startup (the refit epoch).
    pub fn refit_epoch(&self) -> u64 {
        self.rolls.load(Ordering::Relaxed)
    }

    fn shard_of(&self, pair: KeyPair) -> usize {
        let h = splitmix64((u64::from(pair.lo) << 32) | u64::from(pair.hi));
        (h % self.shards.len() as u64) as usize
    }

    /// The accumulating window: every shard's outside a roll. (There is
    /// always a shard; the start window would stand in for none.)
    fn current_window(&self) -> Window {
        self.shards.first().map_or_else(
            || self.cfg.window.window_of(self.cfg.start),
            |shard| lock(shard).epoch.window,
        )
    }

    /// Locks `pair`'s shard once it serves `t`'s window or a later one. A
    /// shard still behind is released, and every shard rolled forward,
    /// first.
    fn shard_at(&self, pair: KeyPair, t: SimTime) -> MutexGuard<'_, Shard> {
        let window = self.cfg.window.window_of(t);
        let shard = &self.shards[self.shard_of(pair)];
        let guard = lock(shard);
        if guard.epoch.window.index >= window.index {
            return guard;
        }
        drop(guard);
        self.roll_to(window);
        lock(shard)
    }

    /// Decides the relay option for one call. `call_id` seeds the
    /// ε-exploration RNG, so identical request streams select identically.
    /// A candidate naming a relay outside the fleet is dropped first: the
    /// predictor could score it only from the prior's fallback.
    pub fn select(
        &self,
        call_id: u64,
        t: SimTime,
        src_key: u32,
        dst_key: u32,
        candidates: &[RelayOption],
    ) -> Selection {
        let started = Instant::now();
        let pair = KeyPair::new(src_key, dst_key);
        let mut shard = self.shard_at(pair, t);
        let Shard {
            epoch,
            pairs,
            selector,
            candidates: in_fleet,
            ..
        } = &mut *shard;
        let window = epoch.window.index;
        in_fleet.clear();
        in_fleet.extend(candidates.iter().filter(|&&o| self.in_fleet(o)));
        let candidates: &[RelayOption] = in_fleet;
        if candidates.is_empty() {
            // Nothing to choose between; don't charge the budget gate.
            self.selections.fetch_add(1, Ordering::Relaxed);
            return Selection {
                option: RelayOption::Direct,
                admitted: true,
                explored: false,
                window,
            };
        }
        let arms = pairs.entry(pair).or_insert_with(|| {
            let view = epoch.predictor.pair(pair.lo, pair.hi);
            selector.arms(|o| view.predict(o), candidates, false)
        });
        let admitted = lock(&self.gate).admit(arms.benefit());
        let decision = selector.decide(
            arms,
            !admitted,
            || {
                StdRng::seed_from_u64(seed::derive_indexed(
                    self.cfg.seed,
                    "server.select",
                    call_id,
                ))
            },
            || candidates,
        );
        let micros = started.elapsed().as_secs_f64() * 1e6;
        shard.latency.record(micros);
        self.selections.fetch_add(1, Ordering::Relaxed);
        if decision.explored {
            self.explored.fetch_add(1, Ordering::Relaxed);
        }
        if !admitted {
            self.gated.fetch_add(1, Ordering::Relaxed);
        }
        Selection {
            option: decision.option,
            admitted,
            explored: decision.explored,
            window,
        }
    }

    /// Absorbs the measured outcome of one call: one Welford push and one
    /// bandit update. Returns the window index the report was filed under.
    /// A report whose option is not [`Controller::in_fleet`] is refused: it
    /// is counted, changes nothing else, and gets the accumulating window's
    /// index back.
    pub fn report(
        &self,
        t: SimTime,
        src_key: u32,
        dst_key: u32,
        option: RelayOption,
        metrics: &PathMetrics,
    ) -> u64 {
        if !self.in_fleet(option) {
            self.count_rejected_report();
            return self.window_index();
        }
        let pair = KeyPair::new(src_key, dst_key);
        let option = option.canonical();
        let mut shard = self.shard_at(pair, t);
        shard.file((pair, option), |stats| stats.push(metrics));
        shard.pending += 1;
        if let Some(arms) = shard.pairs.get_mut(&pair) {
            arms.learn(option, metrics[self.cfg.objective]);
        }
        self.reports.fetch_add(1, Ordering::Relaxed);
        shard.epoch.window.index
    }

    /// Counts a refused report: one the socket plane stopped before it
    /// reached [`Controller::report`] (out-of-range or non-finite metrics, or
    /// an option naming a relay outside the fleet), or one `report` refused
    /// itself.
    pub fn count_rejected_report(&self) {
        self.reports_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// The window rollover, one step: under the roll lock and every shard's
    /// lock, the shards' cells are staged and fitted, and only after the fit
    /// returns does every shard take the new epoch, clear its arms and give
    /// up its cells. A select waits out the fit; a fit that panics leaves
    /// every shard, the trained window and the counters as they were.
    fn roll_to(&self, next: Window) {
        let mut roll = lock(&self.roll);
        let mut shards: Vec<MutexGuard<'_, Shard>> = self.shards.iter().map(lock).collect();
        let Some(current) = shards.first().map(|shard| shard.epoch.window) else {
            return; // unreachable: there is always a shard
        };
        if next.index <= current.index {
            return; // another thread rolled first
        }
        let mut staged = Trained::default();
        let cells = staged.close(current);
        cells.reserve(shards.iter().map(|s| s.cells.len()).sum());
        let mut refit_lag = 0u64;
        for shard in &shards {
            cells.extend_from_slice(&shard.cells);
            refit_lag += shard.pending;
        }
        let fit_cfg = PredictorConfig::default();
        let predictor = staged.fit(next, self.prior.clone(), &self.backbone, fit_cfg);
        let empirical = predictor.empirical_cells() as u64;
        let segments = predictor.tomography_segments() as u64;
        let epoch = Arc::new(Epoch {
            window: next,
            predictor,
        });
        for shard in &mut shards {
            shard.epoch = Arc::clone(&epoch);
            shard.pairs.clear();
            shard.cells.clear();
            shard.index.clear();
            shard.pending = 0;
        }
        roll.trained = staged;
        roll.obs.span(
            "server.roll",
            next.index,
            &[
                ("training_window", next.index - 1),
                ("empirical_cells", empirical),
                ("tomography_segments", segments),
                ("refit_lag_reports", refit_lag),
            ],
        );
        self.rolls.fetch_add(1, Ordering::Relaxed);
    }

    /// Deterministic image of the full selection state, in canonical cell
    /// order: equal request streams produce byte-equal snapshots.
    pub fn selection_snapshot(&self) -> SelectionSnapshot {
        // The roll lock keeps every shard on one epoch while they are read.
        let roll = lock(&self.roll);
        let current = self.current_window();
        let mut cells = Vec::new();
        let mut pending = 0;
        for shard in &self.shards {
            let shard = lock(shard);
            cells.extend(shard.cells.iter().map(CellSnapshot::from));
            pending += shard.pending;
        }
        SelectionSnapshot {
            current: RefitSnapshot::new(current, pending, cells),
            trained: roll.trained.snapshot(),
            gate: lock(&self.gate).percentile().cloned(),
        }
    }

    /// [`Controller::selection_snapshot`] as a JSON document (the
    /// `Snapshot` RPC payload and the metrics snapshot's `app_state`).
    pub fn selection_snapshot_json(&self) -> String {
        // SelectionSnapshot contains no maps or non-finite floats that
        // could fail serialization; an empty document would only indicate a
        // serializer bug, and the deterministic tests would catch it.
        serde_json::to_string(&self.selection_snapshot()).unwrap_or_default()
    }

    /// Counters and roll spans — the deterministic metric core.
    fn base_sink(&self) -> via_obs::MetricSink {
        let mut sink = via_obs::MetricSink::new();
        sink.inc(
            "server_selections_total",
            self.selections.load(Ordering::Relaxed),
        );
        sink.inc("server_reports_total", self.reports.load(Ordering::Relaxed));
        sink.inc(
            "server_reports_rejected_total",
            self.reports_rejected.load(Ordering::Relaxed),
        );
        sink.inc("server_gated_total", self.gated.load(Ordering::Relaxed));
        sink.inc(
            "server_explored_total",
            self.explored.load(Ordering::Relaxed),
        );
        sink.inc("server_rolls_total", self.rolls.load(Ordering::Relaxed));
        sink.inc("server_window_index", self.window_index());
        let pending: u64 = self.shards.iter().map(|s| lock(s).pending).sum();
        sink.inc("server_refit_pending_reports", pending);
        if let Some(g) = lock(&self.gate).percentile() {
            sink.inc("server_gate_calls_total", g.total());
            // Stored as parts-per-million so the gauge stays integral (span
            // and counter values are u64 by design).
            sink.inc(
                "server_gate_relayed_ppm",
                (g.relayed_fraction() * 1e6).round() as u64,
            );
        }
        sink.merge(&lock(&self.roll).obs);
        sink
    }

    /// Deterministic metrics snapshot with the selection state embedded as
    /// `app_state`: counters, roll spans, no wall-clock histograms. Equal
    /// request streams serialize to equal bytes.
    pub fn metrics_snapshot(&self) -> via_obs::MetricsSnapshot {
        let app_state = self.selection_snapshot_json();
        let mut snap = self.base_sink().snapshot();
        snap.app_state = Some(app_state);
        snap
    }

    /// Operator-facing snapshot: the deterministic core *plus* the merged
    /// wall-clock selection-latency histogram. Not byte-stable across runs.
    pub fn observability_snapshot(&self) -> via_obs::MetricsSnapshot {
        let app_state = self.selection_snapshot_json();
        let mut sink = self.base_sink();
        sink.merge_histogram("server_select_latency_us", &self.latency_histogram());
        let mut snap = sink.snapshot();
        snap.app_state = Some(app_state);
        snap
    }

    /// The merged per-shard selection-latency histogram (microseconds).
    pub fn latency_histogram(&self) -> via_obs::Histogram {
        let mut merged = via_obs::Histogram::new(via_obs::LATENCY_US);
        for shard in &self.shards {
            merged.merge(&lock(shard).latency);
        }
        merged
    }

    /// Opens a session (socket plane) and returns its id: 1, 2, … in
    /// opening order, never reused. The connection that opened it owns the
    /// id and is the only one that checks or ends it.
    pub fn open_session(&self) -> u64 {
        self.live_sessions.fetch_add(1, Ordering::Relaxed);
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// Ends a session its connection opened (the connection closed).
    pub fn end_session(&self, _id: u64) {
        self.live_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    /// Number of open sessions.
    pub fn live_sessions(&self) -> usize {
        self.live_sessions.load(Ordering::Relaxed)
    }
}
