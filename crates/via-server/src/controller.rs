//! The live selection plane: sharded controller state behind an epoch
//! pointer, refitted once per window.
//!
//! The batch replay engine (`via_core::replay`) advances through a trace
//! window by window: at each barrier it refits the predictor over the
//! closed window, rebuilds per-pair bandit state lazily, and replays the
//! next window. A long-running controller runs the same schedule with the
//! same [`refit`], but answers `select` RPCs continuously and must not stall
//! them behind that whole-window fit, so this module splits the state three
//! ways:
//!
//! * **Published predictor** — an [`EpochPtr`] holding the immutable
//!   [`Predictor`] trained on the last closed window. The select path
//!   clones the `Arc` under a shared read-lock; rollover fits outside the
//!   lock and takes it exclusively for the one pointer store.
//! * **Shards** — per-pair mutable state (the [`CallHistory`] accumulating
//!   this window's reports, per-pair [`PairArms`], a selection-latency
//!   histogram), partitioned by spatial key pair so concurrent selects for
//!   different pairs never contend.
//! * **Roll state** — the once-per-window merge: shard histories are
//!   drained into one (disjoint by construction — each pair lives in exactly
//!   one shard) and [`refit`] trains the next predictor on it while the
//!   previous one keeps serving.
//!
//! The decision itself is `via_core::selector`'s: `select` and `report` call
//! the same `PairArms::{build, decide, learn}` the replay engine does, under
//! the `Via` plan. The budget gate and the per-call RNG stay here. The
//! regression tests in `tests/server_determinism.rs` pin selections against
//! an independent reference loop built on `Predictor::fit`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use via_core::budget::BudgetGate;
use via_core::history::{CallHistory, KeyPair};
use via_core::online::{refit, snapshot_cells, BackboneFn, RefitSnapshot};
use via_core::predictor::{GeoPrior, Predictor, PredictorConfig};
use via_core::selector::{ArmsScratch, PairArms, Plan};
use via_core::strategy::StrategyKind;
use via_model::ids::RelayId;
use via_model::metrics::{Metric, PathMetrics};
use via_model::options::RelayOption;
use via_model::seed::{self, splitmix64};
use via_model::time::{SimTime, Window, WindowLen};

use crate::epoch::EpochPtr;
use crate::lock::lock;
use crate::session::{SessionExhausted, SessionTable};

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

/// One pair shard: every mutable per-call structure for the pairs hashed
/// here. Locked per select/report; different pairs in different shards
/// proceed concurrently.
struct Shard {
    /// Window index the shard's live state belongs to.
    window: u64,
    /// Reports accumulating for the current window, and how many: both
    /// drained at rollover.
    history: CallHistory,
    pending: u64,
    /// Per-pair arms for the current window: built lazily from the published
    /// predictor, cleared (under this shard's lock) whenever `window` moves.
    pairs: HashMap<KeyPair, PairArms>,
    /// Arm-building buffers and the decided path set, reused across selects.
    scratch: ArmsScratch,
    set: Vec<RelayOption>,
    /// Wall-clock select latency, microseconds (nondeterministic; only the
    /// observability snapshot carries it).
    latency: via_obs::Histogram,
}

impl Shard {
    fn new(window: u64) -> Shard {
        Shard {
            window,
            history: CallHistory::new(),
            pending: 0,
            pairs: HashMap::new(),
            scratch: ArmsScratch::default(),
            set: Vec::new(),
            latency: via_obs::Histogram::new(via_obs::LATENCY_US),
        }
    }
}

/// State mutated only at window rollover, behind one mutex so rolls are
/// serialized and the select path never waits on a whole-window pass.
struct RollState {
    /// History of the training window behind the live predictor — what a
    /// restart needs to refit an identical predictor.
    trained: CallHistory,
    /// The training window, or `None` before any history exists (cold
    /// start at window 0).
    trained_window: Option<Window>,
    /// Deterministic roll telemetry (one span per rollover).
    obs: via_obs::MetricSink,
}

/// Serializable image of the controller's entire selection state: enough
/// to restart and keep serving bit-identical predictions.
///
/// `trained` carries the per-cell statistics of the window behind the live
/// predictor; restore refits them with the same [`refit`] the rollover
/// called. `current` is the accumulating window in the same canonical cell
/// order. Per-pair bandit arms are *not* carried: they rebuild lazily from
/// the restored predictor's predictions (a prediction-warm-started bandit,
/// exactly what the batch engine builds at a pair's first call in a
/// window), trading the closed-over-restart in-window arm observations for
/// a snapshot that stays small and deterministic.
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
    /// The decision pipeline's settings: the live plane runs plain `Via`
    /// (its budget gate is the controller's own).
    plan: Plan,
    prior: GeoPrior,
    backbone: BackboneFn,
    predictor: EpochPtr<Predictor>,
    /// Index of the accumulating window (shards lag only inside a roll).
    window: AtomicU64,
    shards: Vec<Mutex<Shard>>,
    gate: Mutex<Option<BudgetGate>>,
    roll: Mutex<RollState>,
    sessions: Mutex<SessionTable>,
    selections: AtomicU64,
    reports: AtomicU64,
    reports_rejected: AtomicU64,
    gated: AtomicU64,
    explored: AtomicU64,
    rolls: AtomicU64,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("window", &self.window.load(Ordering::Relaxed))
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
        Controller::opening(cfg, prior, backbone, start, CallHistory::new())
    }

    /// A controller accumulating into `current` and serving the predictor
    /// trained on what `trained` holds for the window before it.
    fn opening(
        cfg: ServerConfig,
        prior: GeoPrior,
        backbone: BackboneFn,
        current: Window,
        trained: CallHistory,
    ) -> Controller {
        let fit_cfg = PredictorConfig::default();
        let initial = refit(&trained, current, prior.clone(), &backbone, fit_cfg);
        let n_shards = cfg.shards.max(1);
        Controller {
            plan: Plan::from(StrategyKind::Via),
            prior,
            backbone,
            predictor: EpochPtr::new(Arc::new(initial)),
            window: AtomicU64::new(current.index),
            shards: (0..n_shards)
                .map(|_| Mutex::new(Shard::new(current.index)))
                .collect(),
            gate: Mutex::new(cfg.budget.map(BudgetGate::new)),
            roll: Mutex::new(RollState {
                trained,
                trained_window: current.prev(),
                obs: via_obs::MetricSink::new(),
            }),
            sessions: Mutex::new(SessionTable::new()),
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
    /// whose option is not in the fleet is dropped and counted as a refused
    /// report.
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
        let mut trained = CallHistory::new();
        if let Some(behind) = snap.trained {
            for cell in behind.cells {
                trained.insert_cell(behind.window, cell.pair, cell.option, cell.stats);
            }
        }
        let ctrl = Controller::opening(cfg, prior, backbone, current, trained);
        for cell in snap.current.cells {
            let mut shard = lock(&ctrl.shards[ctrl.shard_of(cell.pair)]);
            shard.pending += cell.stats.count();
            shard
                .history
                .insert_cell(current, cell.pair, cell.option, cell.stats);
        }
        ctrl.reports_rejected.store(rejected, Ordering::Relaxed);
        *lock(&ctrl.gate) = snap.gate;
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
        self.window.load(Ordering::Acquire)
    }

    /// Number of predictor publishes since startup (the refit epoch).
    pub fn refit_epoch(&self) -> u64 {
        self.predictor.epoch()
    }

    fn shard_of(&self, pair: KeyPair) -> usize {
        let h = splitmix64((u64::from(pair.lo) << 32) | u64::from(pair.hi));
        (h % self.shards.len() as u64) as usize
    }

    fn current_window(&self) -> Window {
        Window {
            index: self.window.load(Ordering::Acquire),
            len: self.cfg.window,
        }
    }

    /// Decides the relay option for one call. `call_id` seeds the
    /// ε-exploration RNG, so identical request streams select identically.
    pub fn select(
        &self,
        call_id: u64,
        t: SimTime,
        src_key: u32,
        dst_key: u32,
        candidates: &[RelayOption],
    ) -> Selection {
        let started = Instant::now();
        self.ensure_window(self.cfg.window.window_of(t));
        if candidates.is_empty() {
            // Nothing to choose between; don't charge the budget gate.
            self.selections.fetch_add(1, Ordering::Relaxed);
            return Selection {
                option: RelayOption::Direct,
                admitted: true,
                explored: false,
                window: self.window.load(Ordering::Acquire),
            };
        }
        let pred = self.predictor.load();
        let pair = KeyPair::new(src_key, dst_key);
        let mut shard = lock(&self.shards[self.shard_of(pair)]);
        let Shard {
            window: wi,
            pairs,
            scratch,
            set,
            ..
        } = &mut *shard;
        let wi = *wi;
        let arms = pairs.entry(pair).or_insert_with(|| {
            let view = pred.pair(pair.lo, pair.hi);
            PairArms::build(
                &self.plan,
                |o| view.predict(o),
                candidates,
                self.cfg.objective,
                scratch,
            )
        });
        // Budget gate (§4.6). A non-finite benefit (no direct candidate, or a
        // prior-only ∞ direct mean) bypasses the gate — such calls must
        // relay regardless and must not poison the percentile estimator.
        let benefit = arms.benefit();
        let mut admitted = true;
        if benefit.is_finite() {
            let mut gate = lock(&self.gate);
            if let Some(g) = gate.as_mut() {
                admitted = g.admit(benefit);
                g.validate();
            }
        }
        let decision = arms.decide(
            &self.plan,
            !admitted,
            self.cfg.epsilon,
            || {
                StdRng::seed_from_u64(seed::derive_indexed(
                    self.cfg.seed,
                    "server.select",
                    call_id,
                ))
            },
            || candidates,
            set,
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
            window: wi,
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
        self.ensure_window(self.cfg.window.window_of(t));
        let pair = KeyPair::new(src_key, dst_key);
        let option = option.canonical();
        let mut shard = lock(&self.shards[self.shard_of(pair)]);
        let window = Window {
            index: shard.window,
            len: self.cfg.window,
        };
        shard.history.record(window, pair, option, metrics);
        shard.pending += 1;
        if let Some(arms) = shard.pairs.get_mut(&pair) {
            arms.learn(option, metrics[self.cfg.objective]);
        }
        self.reports.fetch_add(1, Ordering::Relaxed);
        window.index
    }

    /// Counts a refused report: one the socket plane stopped before it
    /// reached [`Controller::report`] (out-of-range or non-finite metrics, or
    /// an option naming a relay outside the fleet), or one `report` refused
    /// itself.
    pub fn count_rejected_report(&self) {
        self.reports_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Rolls forward when `w` is ahead of the accumulating window.
    fn ensure_window(&self, w: Window) {
        if w.index <= self.window.load(Ordering::Acquire) {
            return;
        }
        self.roll_to(w);
    }

    /// The window rollover: drains every shard's history into one, refits
    /// on it, and publishes the next predictor — all off the select path
    /// (selects keep serving the old epoch; only same-shard calls wait,
    /// briefly, for the drain).
    fn roll_to(&self, next: Window) {
        let mut roll = lock(&self.roll);
        let cur = self.window.load(Ordering::Acquire);
        if next.index <= cur {
            return; // another thread rolled first
        }
        let Some(training) = next.prev() else {
            return; // unreachable: next.index > cur >= 0
        };
        let mut merged = CallHistory::new();
        let mut refit_lag = 0u64;
        for shard in &self.shards {
            let mut shard = lock(shard);
            merged.merge(std::mem::take(&mut shard.history));
            refit_lag += std::mem::take(&mut shard.pending);
            shard.pairs.clear();
            shard.window = next.index;
        }
        let published = refit(
            &merged,
            next,
            self.prior.clone(),
            &self.backbone,
            PredictorConfig::default(),
        );
        let empirical = published.empirical_cells() as u64;
        let segments = published.tomography_segments() as u64;
        self.predictor.publish(Arc::new(published));
        self.window.store(next.index, Ordering::Release);
        merged.prune_before(training.index);
        roll.trained = merged;
        roll.trained_window = Some(training);
        roll.obs.span(
            "server.roll",
            next.index,
            &[
                ("training_window", training.index),
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
        let roll = lock(&self.roll);
        let current = self.current_window();
        let mut cells = Vec::new();
        let mut pending = 0;
        for shard in &self.shards {
            let shard = lock(shard);
            snapshot_cells(&shard.history, current, &mut cells);
            pending += shard.pending;
        }
        let trained = roll.trained_window.map(|tw| {
            let mut cells = Vec::new();
            snapshot_cells(&roll.trained, tw, &mut cells);
            RefitSnapshot::new(tw, 0, cells)
        });
        SelectionSnapshot {
            current: RefitSnapshot::new(current, pending, cells),
            trained,
            gate: lock(&self.gate).clone(),
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
        sink.inc("server_window_index", self.window.load(Ordering::Acquire));
        let pending: u64 = self.shards.iter().map(|s| lock(s).pending).sum();
        sink.inc("server_refit_pending_reports", pending);
        if let Some(g) = lock(&self.gate).as_ref() {
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

    /// Opens a session (socket plane).
    ///
    /// # Errors
    /// [`SessionExhausted`] when the id space under the probe bound is full.
    pub fn open_session(&self) -> Result<u64, SessionExhausted> {
        lock(&self.sessions).open()
    }

    /// True when `id` names a live session.
    pub fn session_live(&self, id: u64) -> bool {
        lock(&self.sessions).is_live(id)
    }

    /// Ends a session (connection closed); stale ids are then rejected.
    pub fn end_session(&self, id: u64) -> bool {
        lock(&self.sessions).close(id)
    }

    /// Number of open sessions.
    pub fn live_sessions(&self) -> usize {
        lock(&self.sessions).live_count()
    }
}
