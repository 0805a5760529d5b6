//! The live controller's window roll, pinned.
//!
//! **One digest over a whole schedule.** A seeded select/report stream over
//! windows 0–2 and 5–7 — an idle gap of two windows, selects and reports
//! whose `t` lies in a window that already closed, a mid-stream
//! `selection_snapshot` → `restore` → continue, and a restore whose
//! `current` lists one `(pair, option)` twice (the two cells Chan-merge) —
//! is folded into one FNV-1a digest: every `Selection`, every window index
//! `report` returns, the final snapshot document and the deterministic
//! counters. The digest is the same at 1 and at 8 shards.
//!
//! **The roll is one step.** Two forced schedules, each driven from inside
//! the refit by a backbone closure that fires once, while the window that
//! holds a `Transit` cell is being fitted:
//! - a select for the same pair, issued mid-roll on another thread, must be
//!   answered from the new predictor, not cache arms built from the old one
//!   for the whole next window;
//! - a fit that panics must leave the controller exactly as it was, so the
//!   retry trains on the window's reports.
//!
//! A restore that would silently drop a mislabelled trained window counts
//! its cells as refused, and four threads racing selects and reports across
//! twenty-odd rolls lose and double-count no report.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a broken fixture panics"
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use via::core::predictor::GeoPrior;
use via::core::BackboneFn;
use via::model::ids::RelayId;
use via::model::metrics::{Metric, PathMetrics};
use via::model::options::RelayOption;
use via::model::seed::{self, fnv1a, FNV_BASIS};
use via::model::time::{SimTime, Window, WindowLen};
use via::netsim::GeoPoint;
use via::server::{Controller, Selection, SelectionSnapshot, ServerConfig};

const N_KEYS: u32 = 4;
const N_RELAYS: usize = 3;
const HOUR: u64 = 3600;

fn config(shards: usize) -> ServerConfig {
    ServerConfig {
        seed: 11,
        objective: Metric::Rtt,
        window: WindowLen::hours(1),
        epsilon: 0.05,
        budget: Some(0.3),
        shards,
    }
}

fn prior() -> GeoPrior {
    GeoPrior::new(
        vec![
            GeoPoint::new(40.7, -74.0),
            GeoPoint::new(51.5, -0.1),
            GeoPoint::new(35.7, 139.7),
            GeoPoint::new(-33.9, 151.2),
        ],
        vec![
            GeoPoint::new(38.9, -77.5),
            GeoPoint::new(50.1, 8.7),
            GeoPoint::new(1.3, 103.8),
        ],
    )
}

fn backbone_metrics(a: RelayId, b: RelayId) -> PathMetrics {
    let d = a.index().abs_diff(b.index()) as f64;
    PathMetrics::new(15.0 + 12.0 * d, 0.04, 0.8)
}

fn backbone() -> BackboneFn {
    Arc::new(backbone_metrics)
}

fn candidates() -> Vec<RelayOption> {
    let mut cands = vec![RelayOption::Direct];
    cands.extend((0..N_RELAYS as u32).map(|r| RelayOption::Bounce(RelayId(r))));
    cands.push(RelayOption::Transit(RelayId(0), RelayId(1)));
    cands
}

/// Deterministic ground-truth metrics for the option call `id` took.
fn measure(id: u64, src: u32, dst: u32, option: RelayOption) -> PathMetrics {
    let mut rng = StdRng::seed_from_u64(seed::derive_indexed(99, "truth", id));
    let base = match option.canonical() {
        RelayOption::Direct => 90.0 + 15.0 * f64::from((src + dst) % 5),
        RelayOption::Bounce(r) => 70.0 + 20.0 * f64::from(r.0 % 3),
        RelayOption::Transit(a, b) => 65.0 + 8.0 * f64::from((a.0 + b.0) % 4),
    };
    PathMetrics::new(
        base + rng.random::<f64>() * 25.0,
        rng.random::<f64>() * 1.5,
        1.0 + rng.random::<f64>() * 6.0,
    )
}

/// FNV-1a, folded over whatever the schedule produces.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
}

/// A restart: the controller is replaced by one restored from its own
/// snapshot, optionally doctored first.
fn restart(
    ctrl: Controller,
    h: &mut Fnv,
    doctor: impl FnOnce(&mut SelectionSnapshot),
) -> Controller {
    let json = ctrl.selection_snapshot_json();
    h.eat(json.as_bytes());
    let mut snap: SelectionSnapshot = serde_json::from_str(&json).expect("snapshot parses");
    doctor(&mut snap);
    Controller::restore(*ctrl.config(), prior(), backbone(), snap)
}

/// The pinned schedule at `shards` shards; returns its digest and how many
/// selections relayed, were gated and explored (so the digest is known to
/// cover every decision path).
fn schedule_digest(shards: usize) -> (u64, [u64; 3]) {
    let cands = candidates();
    let mut ctrl = Controller::new(config(shards), prior(), backbone());
    let mut h = Fnv(FNV_BASIS);
    let mut rng = StdRng::seed_from_u64(2026);
    let mut paths = [0u64; 3];
    let per_window = 150u64;
    let mut id = 0u64;
    for w in [0u64, 1, 2, 5, 6, 7] {
        for i in 0..per_window {
            let src = rng.random_range(0..N_KEYS);
            let dst = (src + rng.random_range(1..N_KEYS)) % N_KEYS;
            let t = SimTime(w * HOUR + i * (HOUR / per_window));
            // Every so often the message carries a timestamp from a window
            // that has already closed (or, across the gap, never opened).
            let late = SimTime(t.0.saturating_sub(HOUR));
            let t_select = if i % 13 == 7 { late } else { t };
            let t_report = if i % 11 == 5 { late } else { t };
            let probed = if i % 3 == 0 {
                None
            } else {
                Some(cands[(id % cands.len() as u64) as usize])
            };
            // The gap's far side opens with a report, not a select.
            if i == 0 && w == 5 {
                let option = probed.unwrap_or(RelayOption::Direct);
                let m = measure(id, src, dst, option);
                let filed = ctrl.report(t_report, src, dst, option, &m);
                h.eat(&filed.to_le_bytes());
            }
            let sel = ctrl.select(id, t_select, src, dst, &cands);
            h.eat(serde_json::to_string(&sel).expect("selection").as_bytes());
            paths[0] += u64::from(sel.option != RelayOption::Direct);
            paths[1] += u64::from(!sel.admitted);
            paths[2] += u64::from(sel.explored);
            let option = probed.unwrap_or(sel.option);
            let m = measure(id, src, dst, option);
            let filed = ctrl.report(t_report, src, dst, option, &m);
            h.eat(&filed.to_le_bytes());
            id += 1;
            if w == 1 && i == per_window / 2 {
                ctrl = restart(ctrl, &mut h, |_| {});
            }
            if w == 6 && i == per_window / 2 {
                ctrl = restart(ctrl, &mut h, |snap| {
                    let twice = snap.current.cells[0].clone();
                    snap.current.cells.push(twice);
                });
            }
        }
    }
    assert_eq!(ctrl.window_index(), 7);
    h.eat(ctrl.selection_snapshot_json().as_bytes());
    for c in &ctrl.metrics_snapshot().counters {
        h.eat(c.name.as_bytes());
        h.eat(&c.value.to_le_bytes());
    }
    (h.0, paths)
}

#[test]
fn the_roll_schedule_digest_is_pinned() {
    for shards in [1, 8] {
        let (digest, [relayed, gated, explored]) = schedule_digest(shards);
        println!("shards {shards}: digest {digest:#018x}, relayed {relayed}, gated {gated}, explored {explored}");
        assert!(relayed > 20 && gated > 20 && explored > 0);
        assert_eq!(digest, 0xbbbd_6a5b_9afd_18da, "shards {shards}");
    }
}

/// The forced schedules' pair and candidates: the cold prior serves
/// `Direct`, the window-0 reports make `Bounce(0)` the clear best.
const PAIR: (u32, u32) = (0, 1);
const ROLL_CANDIDATES: [RelayOption; 3] = [
    RelayOption::Direct,
    RelayOption::Bounce(RelayId(0)),
    RelayOption::Transit(RelayId(0), RelayId(1)),
];

fn quiet_config() -> ServerConfig {
    ServerConfig {
        epsilon: 0.0,
        budget: None,
        ..config(8)
    }
}

/// 90 window-0 reports for [`PAIR`], 30 on each candidate: three cells.
fn feed_window_zero(ctrl: &Controller) {
    for i in 0..90u64 {
        let option = ROLL_CANDIDATES[(i % 3) as usize];
        let rtt = match option {
            RelayOption::Direct => 150.0,
            RelayOption::Bounce(_) => 60.0,
            RelayOption::Transit(..) => 110.0,
        } + (i % 7) as f64;
        let m = PathMetrics::new(rtt, 0.2, 2.0);
        assert_eq!(ctrl.report(SimTime(i * 10), PAIR.0, PAIR.1, option, &m), 0);
    }
}

fn select_at(ctrl: &Controller, id: u64, t: SimTime) -> Selection {
    ctrl.select(id, t, PAIR.0, PAIR.1, &ROLL_CANDIDATES)
}

/// A controller fed [`feed_window_zero`] with a plain backbone, and its first
/// window-1 selection: what the controllers under test must match.
fn twin() -> (Controller, Selection) {
    let twin = Controller::new(quiet_config(), prior(), backbone());
    feed_window_zero(&twin);
    let sel = select_at(&twin, 1, SimTime(HOUR));
    assert_eq!(sel.option, RelayOption::Bounce(RelayId(0)));
    (twin, sel)
}

/// A backbone that runs `fire` on its first call after `armed` is set, then
/// behaves as [`backbone`].
fn trapped_backbone(
    armed: &Arc<AtomicBool>,
    fire: impl Fn() + Send + Sync + 'static,
) -> BackboneFn {
    let armed = Arc::clone(armed);
    Arc::new(move |a, b| {
        if armed.swap(false, Ordering::SeqCst) {
            fire();
        }
        backbone_metrics(a, b)
    })
}

#[test]
fn a_select_issued_mid_roll_is_answered_from_the_new_predictor() {
    let (_, want) = twin();
    let armed = Arc::new(AtomicBool::new(false));
    let subject: Arc<Mutex<Option<Arc<Controller>>>> = Arc::new(Mutex::new(None));
    let racer: Arc<Mutex<Option<JoinHandle<Selection>>>> = Arc::new(Mutex::new(None));
    let (subject_in, racer_in) = (Arc::clone(&subject), Arc::clone(&racer));
    let bb = trapped_backbone(&armed, move || {
        // Inside the refit: another thread selects for the same pair with a
        // window-0 timestamp. Wait for it, but only so long: under a roll
        // that holds the shards it cannot finish until the roll commits.
        let ctrl = subject_in.lock().unwrap().take().expect("subject set");
        let handle = std::thread::spawn(move || select_at(&ctrl, 2, SimTime(10)));
        let deadline = Instant::now() + Duration::from_millis(250);
        while !handle.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        *racer_in.lock().unwrap() = Some(handle);
    });
    let ctrl = Arc::new(Controller::new(quiet_config(), prior(), bb));
    feed_window_zero(&ctrl);
    *subject.lock().unwrap() = Some(Arc::clone(&ctrl));
    armed.store(true, Ordering::SeqCst);

    let rolling = select_at(&ctrl, 1, SimTime(HOUR));
    let mid_roll = racer
        .lock()
        .unwrap()
        .take()
        .expect("the backbone fired inside the refit")
        .join()
        .unwrap();
    assert_eq!(mid_roll, want, "the mid-roll select");
    assert_eq!(rolling, want, "the rolling select");
}

#[test]
fn a_fit_that_panics_changes_nothing_and_the_retry_trains_on_the_window() {
    let (twin, want) = twin();
    let armed = Arc::new(AtomicBool::new(false));
    let bb = trapped_backbone(&armed, || panic!("backbone table unavailable"));
    let ctrl = Controller::new(quiet_config(), prior(), bb);
    feed_window_zero(&ctrl);
    let before = ctrl.selection_snapshot_json();
    armed.store(true, Ordering::SeqCst);

    let rolled = catch_unwind(AssertUnwindSafe(|| select_at(&ctrl, 1, SimTime(HOUR))));
    assert!(rolled.is_err(), "the fit panicked");
    assert_eq!(ctrl.selection_snapshot_json(), before);
    assert_eq!(ctrl.window_index(), 0);
    assert_eq!(ctrl.refit_epoch(), 0);

    let retried = select_at(&ctrl, 1, SimTime(HOUR));
    assert_eq!(retried, want);
    let trained = |c: &Controller| serde_json::to_string(&c.selection_snapshot().trained).unwrap();
    assert_eq!(twin.selection_snapshot().trained.unwrap().cells.len(), 3);
    assert_eq!(trained(&ctrl), trained(&twin));
}

#[test]
fn a_mislabelled_trained_window_is_refused_not_dropped() {
    let (original, _) = twin();
    let mut snap = original.selection_snapshot();
    let trained = snap.trained.as_mut().expect("window 0 trained");
    assert_eq!(trained.cells.len(), 3);
    trained.window = Window {
        index: 7,
        len: trained.window.len,
    };
    let restored = Controller::restore(quiet_config(), prior(), backbone(), snap);
    assert_eq!(
        restored
            .metrics_snapshot()
            .counter("server_reports_rejected_total"),
        3,
        "every cell of the mislabelled window is a refused report"
    );
    let kept = restored.selection_snapshot().trained.expect("window 0");
    assert_eq!((kept.window.index, kept.cells.len()), (0, 0));
}

#[test]
fn racing_selects_and_reports_lose_no_report_across_rolls() {
    const THREADS: u64 = 4;
    const WINDOWS: u64 = 24;
    const PER_WINDOW: u64 = 30;
    let ctrl = Arc::new(Controller::new(config(8), prior(), backbone()));
    let cands = candidates();
    let workers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let (ctrl, cands) = (Arc::clone(&ctrl), cands.clone());
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(thread);
                for w in 0..WINDOWS {
                    for i in 0..PER_WINDOW {
                        let id = (thread * WINDOWS + w) * PER_WINDOW + i;
                        let t = SimTime(w * HOUR + i * (HOUR / PER_WINDOW));
                        let src = rng.random_range(0..N_KEYS);
                        let dst = (src + rng.random_range(1..N_KEYS)) % N_KEYS;
                        let sel = ctrl.select(id, t, src, dst, &cands);
                        let option = if i % 2 == 0 {
                            sel.option
                        } else {
                            cands[(id % cands.len() as u64) as usize]
                        };
                        ctrl.report(t, src, dst, option, &measure(id, src, dst, option));
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    let snap = ctrl.metrics_snapshot();
    let rolls: Vec<_> = snap.spans_named("server.roll").collect();
    let lag: u64 = rolls
        .iter()
        .flat_map(|span| &span.fields)
        .filter(|f| f.key == "refit_lag_reports")
        .map(|f| f.value)
        .sum();
    let reports = snap.counter("server_reports_total");
    assert_eq!(reports, THREADS * WINDOWS * PER_WINDOW);
    assert_eq!(
        lag + snap.counter("server_refit_pending_reports"),
        reports,
        "every report is trained on once or still pending"
    );
    assert_eq!(rolls.len() as u64, WINDOWS - 1);
    assert_eq!(ctrl.refit_epoch(), rolls.len() as u64);
    assert_eq!(ctrl.window_index(), WINDOWS - 1);
}
