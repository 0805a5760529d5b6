//! The live controller's per-call path, pinned.
//!
//! One FNV-1a digest over every `Selection` of a seeded in-process
//! select/report stream across four windows, run at budget `None`,
//! `Some(1.0)` and `Some(0.3)`, each at ε = 0.05 and ε = 1. The stream holds
//! the two calls the gate must wave through without a charge:
//! - a candidate list with no `Direct` (the pair's benefit is non-finite):
//!   admitted, and the gate's call count does not move;
//! - an empty candidate list: `Direct`, admitted, no gate charge.
//!
//! An in-process caller's candidate naming a relay outside the fleet is
//! dropped before the arms are built, so not even ε exploration returns it.

#![allow(clippy::expect_used)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use via::core::predictor::GeoPrior;
use via::core::BackboneFn;
use via::model::ids::RelayId;
use via::model::metrics::{Metric, PathMetrics};
use via::model::options::RelayOption;
use via::model::seed::{self, fnv1a, FNV_BASIS};
use via::model::time::{SimTime, WindowLen};
use via::netsim::GeoPoint;
use via::server::{Controller, ServerConfig};

const N_KEYS: u32 = 4;
const HOUR: u64 = 3600;
/// The pair that only ever offers relays: its arms carry no direct mean.
const RELAY_ONLY_PAIR: (u32, u32) = (4, 5);

fn config(budget: Option<f64>, epsilon: f64) -> ServerConfig {
    ServerConfig {
        seed: 5,
        objective: Metric::Rtt,
        window: WindowLen::hours(1),
        epsilon,
        budget,
        shards: 4,
    }
}

fn prior() -> GeoPrior {
    GeoPrior::new(
        vec![
            GeoPoint::new(40.7, -74.0),
            GeoPoint::new(51.5, -0.1),
            GeoPoint::new(35.7, 139.7),
            GeoPoint::new(-33.9, 151.2),
            GeoPoint::new(19.4, -99.1),
            GeoPoint::new(-23.5, -46.6),
        ],
        vec![
            GeoPoint::new(38.9, -77.5),
            GeoPoint::new(50.1, 8.7),
            GeoPoint::new(1.3, 103.8),
        ],
    )
}

fn backbone() -> BackboneFn {
    Arc::new(|a: RelayId, b: RelayId| {
        let d = a.index().abs_diff(b.index()) as f64;
        PathMetrics::new(15.0 + 12.0 * d, 0.04, 0.8)
    })
}

fn relays_only() -> Vec<RelayOption> {
    vec![
        RelayOption::Bounce(RelayId(0)),
        RelayOption::Bounce(RelayId(1)),
        RelayOption::Bounce(RelayId(2)),
        RelayOption::Transit(RelayId(0), RelayId(1)),
    ]
}

/// Deterministic ground-truth metrics for the option call `id` took.
fn measure(id: u64, src: u32, dst: u32, option: RelayOption) -> PathMetrics {
    let mut rng = StdRng::seed_from_u64(seed::derive_indexed(31, "truth", id));
    let base = match option.canonical() {
        RelayOption::Direct => 120.0 + 60.0 * f64::from((src + dst) % 4),
        RelayOption::Bounce(r) => 70.0 + 15.0 * f64::from(r.0 % 3),
        RelayOption::Transit(a, b) => 66.0 + 9.0 * f64::from((a.0 + b.0) % 4),
    };
    PathMetrics::new(
        base + rng.random::<f64>() * 30.0,
        rng.random::<f64>() * 1.5,
        1.0 + rng.random::<f64>() * 6.0,
    )
}

/// FNV-1a, folded over whatever the stream produces.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
}

/// Calls the gate has counted so far (zero when there is no gate).
fn gate_calls(ctrl: &Controller) -> u64 {
    ctrl.selection_snapshot().gate.map_or(0, |g| g.total())
}

/// How many selections of one run relayed, were gated and explored.
#[derive(Default)]
struct Paths {
    relayed: u64,
    gated: u64,
    explored: u64,
}

/// One run of the stream, folded into `h`.
fn run(budget: Option<f64>, epsilon: f64, h: &mut Fnv) -> Paths {
    let ctrl = Controller::new(config(budget, epsilon), prior(), backbone());
    let mut full = vec![RelayOption::Direct];
    full.extend(relays_only());
    let relays = relays_only();
    let mut rng = StdRng::seed_from_u64(2028);
    let mut paths = Paths::default();
    let per_window = 120u64;
    let mut id = 0u64;
    for w in 0..4u64 {
        for i in 0..per_window {
            let t = SimTime(w * HOUR + i * (HOUR / per_window));
            let src = rng.random_range(0..N_KEYS);
            let dst = (src + rng.random_range(1..N_KEYS)) % N_KEYS;
            let (src, dst, cands): (u32, u32, &[RelayOption]) = match i % 10 {
                3 => (RELAY_ONLY_PAIR.0, RELAY_ONLY_PAIR.1, &relays),
                7 => (src, dst, &[]),
                _ => (src, dst, &full),
            };
            let charged_before = gate_calls(&ctrl);
            let sel = ctrl.select(id, t, src, dst, cands);
            h.eat(serde_json::to_string(&sel).expect("selection").as_bytes());
            if cands.len() != full.len() {
                assert!(sel.admitted, "call {id}: waved through");
                assert_eq!(gate_calls(&ctrl), charged_before, "call {id}: no charge");
            }
            if cands.is_empty() {
                assert_eq!(sel.option, RelayOption::Direct);
                assert!(!sel.explored);
            } else {
                assert!(cands.contains(&sel.option), "call {id}: a candidate");
            }
            paths.relayed += u64::from(sel.option != RelayOption::Direct);
            paths.gated += u64::from(!sel.admitted);
            paths.explored += u64::from(sel.explored);
            // Every fourth call reports a probe of another candidate, so the
            // relays are measured even while the gate holds calls direct.
            let option = match cands.len() {
                0 => sel.option,
                n if i % 4 == 1 => cands[(id % n as u64) as usize],
                _ => sel.option,
            };
            ctrl.report(t, src, dst, option, &measure(id, src, dst, option));
            id += 1;
        }
    }
    assert_eq!(ctrl.window_index(), 3);
    let gate = serde_json::to_string(&ctrl.selection_snapshot().gate).expect("gate");
    h.eat(gate.as_bytes());
    paths
}

#[test]
fn the_select_stream_digest_is_pinned() {
    let mut h = Fnv(FNV_BASIS);
    for budget in [None, Some(1.0), Some(0.3)] {
        for epsilon in [0.05, 1.0] {
            let p = run(budget, epsilon, &mut h);
            println!(
                "budget {budget:?} ε {epsilon}: relayed {}, gated {}, explored {}",
                p.relayed, p.gated, p.explored
            );
            // 48 calls are the relay-only pair's; the rest relayed a full list.
            assert!(p.relayed > 60 && p.explored > 0);
            assert_eq!(p.gated > 0, budget.is_some(), "{budget:?}");
        }
    }
    println!("digest {:#018x}", h.0);
    assert_eq!(h.0, 0x4377_b048_fe17_e21f, "the select stream's digest");
}

#[test]
fn an_out_of_fleet_candidate_is_never_selected() {
    let ctrl = Controller::new(config(None, 1.0), prior(), backbone());
    let unknown = RelayOption::Bounce(RelayId(ctrl.n_relays() as u32));
    let cands = [RelayOption::Direct, unknown];
    let mut explored = 0;
    for id in 0..200u64 {
        let sel = ctrl.select(id, SimTime(id), 0, 1, &cands);
        assert_eq!(sel.option, RelayOption::Direct, "call {id}");
        explored += u64::from(sel.explored);
    }
    assert_eq!(explored, 200, "ε = 1 explores every call");
}
