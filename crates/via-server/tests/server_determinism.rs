//! The live controller's acceptance pins:
//!
//! 1. **Server ≡ batch.** Selections from the sharded controller are
//!    byte-identical to an independent reference loop (its own top-k and
//!    bandit wiring) that refits with `Predictor::fit` at every window
//!    barrier — the batch replay engine's training schedule — over the same
//!    seeded closed-loop trace.
//! 2. **Snapshot/restore.** A restored controller re-snapshots to the same
//!    bytes and, from the next window rollover on, selects identically to
//!    the uninterrupted original.
//!
//! Socket ≡ in-process is pinned in the root `tests/server_batch_equivalence.rs`,
//! where tier-1 `cargo test -q` runs it.

// Test code: panicking on a broken fixture or a failed round trip is the
// right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use via_core::budget::BudgetGate;
use via_core::history::{CallHistory, KeyPair};
use via_core::predictor::{GeoPrior, Predictor, PredictorConfig};
use via_core::topk::{top_k_into, ScoredOption};
use via_core::{BackboneFn, UcbBandit};
use via_model::ids::RelayId;
use via_model::metrics::{Metric, PathMetrics};
use via_model::options::RelayOption;
use via_model::seed;
use via_model::time::{SimTime, Window, WindowLen};
use via_server::{Controller, Selection, SelectionSnapshot, ServerConfig};

const N_KEYS: u32 = 4;
const N_RELAYS: u32 = 3;

fn config() -> ServerConfig {
    ServerConfig {
        seed: 42,
        objective: Metric::Rtt,
        window: WindowLen::hours(1),
        epsilon: 0.1,
        budget: Some(0.5),
        shards: 4,
    }
}

fn prior() -> GeoPrior {
    GeoPrior::new(
        vec![
            via_netsim::GeoPoint::new(40.7, -74.0),
            via_netsim::GeoPoint::new(51.5, -0.1),
            via_netsim::GeoPoint::new(35.7, 139.7),
            via_netsim::GeoPoint::new(-33.9, 151.2),
        ],
        vec![
            via_netsim::GeoPoint::new(38.9, -77.5),
            via_netsim::GeoPoint::new(50.1, 8.7),
            via_netsim::GeoPoint::new(1.3, 103.8),
        ],
    )
}

fn backbone() -> BackboneFn {
    Arc::new(|a: RelayId, b: RelayId| {
        let d = (a.0 as f64 - b.0 as f64).abs();
        PathMetrics::new(15.0 + 12.0 * d, 0.04, 0.8)
    })
}

fn candidates() -> Vec<RelayOption> {
    let mut c = vec![RelayOption::Direct];
    c.extend((0..N_RELAYS).map(|r| RelayOption::Bounce(RelayId(r))));
    c.push(RelayOption::Transit(RelayId(0), RelayId(1)));
    c
}

/// One synthetic call of the closed-loop trace.
struct Call {
    id: u64,
    t: SimTime,
    src: u32,
    dst: u32,
}

/// `calls_per_window` calls per window for `windows` windows, evenly spaced.
fn trace(windows: u64, calls_per_window: u64) -> Vec<Call> {
    let mut rng = StdRng::seed_from_u64(7);
    let spacing = WindowLen::hours(1).secs() / calls_per_window;
    let mut calls = Vec::new();
    for w in 0..windows {
        for i in 0..calls_per_window {
            let src = rng.random_range(0..N_KEYS);
            let dst = (src + rng.random_range(1..N_KEYS)) % N_KEYS;
            calls.push(Call {
                id: w * calls_per_window + i,
                t: SimTime(w * WindowLen::hours(1).secs() + i * spacing),
                src,
                dst,
            });
        }
    }
    calls
}

/// Deterministic ground-truth metrics for the option a call took.
fn measure(call: &Call, option: RelayOption) -> PathMetrics {
    let mut rng = StdRng::seed_from_u64(seed::derive_indexed(99, "truth", call.id));
    let base = match option.canonical() {
        RelayOption::Direct => 90.0 + 15.0 * ((call.src + call.dst) % 5) as f64,
        RelayOption::Bounce(r) => 70.0 + 20.0 * (r.0 % 3) as f64,
        RelayOption::Transit(a, b) => 65.0 + 8.0 * ((a.0 + b.0) % 4) as f64,
    };
    PathMetrics::new(
        base + rng.random::<f64>() * 25.0,
        rng.random::<f64>() * 1.5,
        1.0 + rng.random::<f64>() * 6.0,
    )
}

/// The batch-schedule reference: everything the controller does, but with
/// the predictor refitted by `Predictor::fit` at each window barrier — no
/// shards, no epochs. Selections must match the server bit for bit.
struct BatchReference {
    cfg: ServerConfig,
    prior: GeoPrior,
    backbone: BackboneFn,
    history: CallHistory,
    window: u64,
    predictor: Predictor,
    pairs: HashMap<KeyPair, (UcbBandit, f64, f64)>,
    gate: Option<BudgetGate>,
}

impl BatchReference {
    fn new(cfg: ServerConfig, prior: GeoPrior, backbone: BackboneFn) -> BatchReference {
        let start = cfg.window.window_of(SimTime::ZERO);
        let predictor = match start.prev() {
            Some(training) => Predictor::fit(
                &CallHistory::new(),
                training,
                prior.clone(),
                boxed(&backbone),
                PredictorConfig::default(),
            ),
            None => Predictor::cold(prior.clone(), boxed(&backbone)),
        };
        BatchReference {
            prior,
            backbone,
            history: CallHistory::new(),
            window: start.index,
            predictor,
            pairs: HashMap::new(),
            gate: cfg.budget.map(BudgetGate::new),
            cfg,
        }
    }

    fn ensure_window(&mut self, w: Window) {
        if w.index <= self.window {
            return;
        }
        let training = w.prev().unwrap();
        // The batch barrier: whole-window refit.
        self.predictor = Predictor::fit(
            &self.history,
            training,
            self.prior.clone(),
            boxed(&self.backbone),
            PredictorConfig::default(),
        );
        self.history.prune_before(w.index.saturating_sub(1));
        self.pairs.clear();
        self.window = w.index;
    }

    fn select(&mut self, call: &Call, cands: &[RelayOption]) -> Selection {
        self.ensure_window(self.cfg.window.window_of(call.t));
        let pair = KeyPair::new(call.src, call.dst);
        let objective = self.cfg.objective;
        let (predictor, cfg) = (&self.predictor, &self.cfg);
        let (bandit, best_mean, direct_mean) = self.pairs.entry(pair).or_insert_with(|| {
            let scored: Vec<ScoredOption> = cands
                .iter()
                .map(|&o| {
                    ScoredOption::from_prediction(
                        o,
                        &predictor.predict(pair.lo, pair.hi, o),
                        objective,
                    )
                })
                .collect();
            let direct_mean = scored
                .iter()
                .find(|s| s.option == RelayOption::Direct)
                .map_or(f64::INFINITY, |s| s.mean);
            let mut order = Vec::new();
            let mut selected = Vec::new();
            top_k_into(&scored, &mut order, &mut selected);
            let best_mean = selected.first().map_or(direct_mean, |s| s.mean);
            let w = selected.iter().map(|s| s.upper).sum::<f64>() / selected.len().max(1) as f64;
            let bandit = UcbBandit::with_priors(selected.iter().map(|s| (s.option, s.mean)), w, 3);
            (bandit, best_mean, direct_mean)
        });
        let benefit = *direct_mean - *best_mean;
        let mut admitted = true;
        if benefit.is_finite() {
            if let Some(g) = self.gate.as_mut() {
                admitted = g.admit(benefit);
            }
        }
        let mut explored = false;
        let option = if admitted {
            let mut rng =
                StdRng::seed_from_u64(seed::derive_indexed(cfg.seed, "server.select", call.id));
            if cfg.epsilon > 0.0 && rng.random::<f64>() < cfg.epsilon {
                explored = true;
                cands[rng.random_range(0..cands.len())]
            } else {
                bandit.choose().unwrap_or(RelayOption::Direct)
            }
        } else {
            RelayOption::Direct
        };
        Selection {
            option,
            admitted,
            explored,
            window: self.window,
        }
    }

    fn report(&mut self, call: &Call, option: RelayOption, m: &PathMetrics) {
        self.ensure_window(self.cfg.window.window_of(call.t));
        let pair = KeyPair::new(call.src, call.dst);
        let window = Window {
            index: self.window,
            len: self.cfg.window,
        };
        let option = option.canonical();
        self.history.record(window, pair, option, m);
        if let Some((bandit, _, _)) = self.pairs.get_mut(&pair) {
            bandit.update(option, m[self.cfg.objective]);
        }
    }
}

fn boxed(bb: &BackboneFn) -> Box<dyn Fn(RelayId, RelayId) -> PathMetrics + Send + Sync> {
    let bb = Arc::clone(bb);
    Box::new(move |a, b| bb(a, b))
}

#[test]
fn incremental_server_selects_byte_identically_to_the_batch_reference() {
    let cfg = config();
    let server = Controller::new(cfg, prior(), backbone());
    let mut reference = BatchReference::new(cfg, prior(), backbone());
    let cands = candidates();

    let (mut relayed, mut gated, mut explored) = (0u64, 0u64, 0u64);
    for call in &trace(3, 300) {
        let a = server.select(call.id, call.t, call.src, call.dst, &cands);
        let b = reference.select(call, &cands);
        assert_eq!(a, b, "selection diverged at call {}", call.id);
        // Report a cycled option rather than only the selected one, so every
        // cell accumulates measurements (a cold prior would otherwise pick
        // Direct forever, never measure a relay, and the identity above
        // would hold vacuously over an all-Direct stream).
        let probed = cands[(call.id % cands.len() as u64) as usize];
        let m = measure(call, probed);
        server.report(call.t, call.src, call.dst, probed, &m);
        reference.report(call, probed, &m);
        if a.option != RelayOption::Direct {
            relayed += 1;
        }
        if !a.admitted {
            gated += 1;
        }
        if a.explored {
            explored += 1;
        }
    }
    // The trace must actually exercise every decision path, or the identity
    // above is vacuous.
    assert!(relayed > 50, "only {relayed} relayed calls");
    assert!(gated > 50, "budget gate never engaged ({gated})");
    assert!(explored > 10, "ε exploration never fired ({explored})");
    assert_eq!(server.window_index(), 2);
    assert_eq!(server.refit_epoch(), 2, "one publish per window rollover");
}

#[test]
fn snapshot_restore_roundtrips_and_reconverges_at_the_next_rollover() {
    let cfg = config();
    let original = Controller::new(cfg, prior(), backbone());
    let cands = candidates();

    // Run one full window plus half of the next, closed loop.
    let calls = trace(2, 200);
    let (first_half, second_half) = calls.split_at(300);
    for call in first_half {
        original.select(call.id, call.t, call.src, call.dst, &cands);
        let probed = cands[(call.id % cands.len() as u64) as usize];
        let m = measure(call, probed);
        original.report(call.t, call.src, call.dst, probed, &m);
    }

    // Restart mid-window from the serialized snapshot.
    let json = original.selection_snapshot_json();
    let snap: SelectionSnapshot = serde_json::from_str(&json).unwrap();
    let restored = Controller::restore(cfg, prior(), backbone(), snap);
    assert_eq!(
        restored.selection_snapshot_json(),
        json,
        "restore must re-snapshot to identical bytes"
    );
    assert_eq!(restored.window_index(), original.window_index());

    // Within the interrupted window, per-pair bandit arm counts are
    // deliberately not carried (documented trade-off), so selections may
    // differ until the next rollover discards per-window state on both
    // sides. From the first call of the next window on, the two must agree
    // on every decision — the restored history, gate, and predictor are
    // bit-identical.
    for call in second_half {
        original.select(call.id, call.t, call.src, call.dst, &cands);
        restored.select(call.id, call.t, call.src, call.dst, &cands);
        let probed = cands[(call.id % cands.len() as u64) as usize];
        let m = measure(call, probed);
        original.report(call.t, call.src, call.dst, probed, &m);
        restored.report(call.t, call.src, call.dst, probed, &m);
    }
    let tail = trace(3, 200);
    for call in tail
        .iter()
        .filter(|c| c.t.0 >= 2 * WindowLen::hours(1).secs())
    {
        let a = original.select(call.id, call.t, call.src, call.dst, &cands);
        let b = restored.select(call.id, call.t, call.src, call.dst, &cands);
        assert_eq!(a, b, "post-rollover selection diverged at call {}", call.id);
        let probed = cands[(call.id % cands.len() as u64) as usize];
        let m = measure(call, probed);
        original.report(call.t, call.src, call.dst, probed, &m);
        restored.report(call.t, call.src, call.dst, probed, &m);
    }
}
