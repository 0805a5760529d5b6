//! Tier-1 reach into the live controller.
//!
//! 1. **Server ≡ batch schedule.** Selections from the sharded [`Controller`]
//!    are identical to a single-threaded loop that refits with
//!    `Predictor::fit` at every window barrier — the batch replay engine's
//!    training schedule — over the same seeded closed-loop trace. Both sides
//!    decide through the shared `Selector::{arms, decide}` and learn through
//!    `PairArms::learn`, so what this pins is everything *around* the
//!    decision: the sharded report histories and their rollover drain, the
//!    epoch pointer and the live gate.
//! 2. **Socket ≡ in-process.** Driving the same trace through `serve` +
//!    `Client` on a loopback port yields the same selections and a
//!    byte-identical `Snapshot` reply.
//! 3. **One hostile frame costs one frame.** A `Report` or a `Select`
//!    candidate naming a relay outside the fleet is a typed `BadRequest`;
//!    the connection, the window's learning and the next rollover are as if
//!    it had never been sent. So is a well-framed body that is not a request
//!    at all: answered, and the same connection serves the next frame.
//! 4. **Frames are found by the cursor, not by the read.** Many requests in
//!    one write are answered in order, and a frame split across two writes
//!    behind them still decodes.
//!
//! The fully independent reference (its own top-k and bandit wiring) and
//! snapshot/restore are pinned in
//! `crates/via-server/tests/server_determinism.rs`.

#![allow(clippy::expect_used, reason = "test code: a broken fixture panics")]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use via::core::budget::BudgetGate;
use via::core::history::{CallHistory, KeyPair};
use via::core::predictor::{GeoPrior, Predictor, PredictorConfig};
use via::core::selector::{PairArms, Plan, Selector};
use via::core::strategy::StrategyKind;
use via::core::BackboneFn;
use via::model::ids::RelayId;
use via::model::metrics::{Metric, PathMetrics};
use via::model::options::RelayOption;
use via::model::seed;
use via::model::time::{SimTime, Window, WindowLen};
use via::netsim::GeoPoint;
use via::server::{
    serve, Client, ClientError, Controller, ErrorKind, Request, Response, Selection,
    SelectionSnapshot, ServerConfig,
};

const N_KEYS: u32 = 4;
const N_RELAYS: usize = 3;

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

/// A relay×relay table, as production callers build it — the shape an
/// out-of-fleet relay id indexes out of bounds.
fn backbone() -> BackboneFn {
    let legs: Vec<PathMetrics> = (0..N_RELAYS * N_RELAYS)
        .map(|i| {
            let d = (i / N_RELAYS).abs_diff(i % N_RELAYS) as f64;
            PathMetrics::new(15.0 + 12.0 * d, 0.04, 0.8)
        })
        .collect();
    Arc::new(move |a: RelayId, b: RelayId| legs[a.index() * N_RELAYS + b.index()])
}

fn boxed(bb: &BackboneFn) -> Box<dyn Fn(RelayId, RelayId) -> PathMetrics + Send + Sync> {
    let bb = Arc::clone(bb);
    Box::new(move |a, b| bb(a, b))
}

fn candidates() -> Vec<RelayOption> {
    let mut cands = vec![RelayOption::Direct];
    cands.extend((0..3).map(|r| RelayOption::Bounce(RelayId(r))));
    cands.push(RelayOption::Transit(RelayId(0), RelayId(1)));
    cands
}

struct Call {
    id: u64,
    t: SimTime,
    src: u32,
    dst: u32,
}

/// `per_window` evenly spaced calls in each of `windows` windows.
fn trace(windows: u64, per_window: u64) -> Vec<Call> {
    let mut rng = StdRng::seed_from_u64(7);
    let hour = WindowLen::hours(1).secs();
    let mut calls = Vec::new();
    for w in 0..windows {
        for i in 0..per_window {
            let src = rng.random_range(0..N_KEYS);
            calls.push(Call {
                id: w * per_window + i,
                t: SimTime(w * hour + i * (hour / per_window)),
                src,
                dst: (src + rng.random_range(1..N_KEYS)) % N_KEYS,
            });
        }
    }
    calls
}

/// Deterministic ground-truth metrics for the option a call took.
fn measure(call: &Call, option: RelayOption) -> PathMetrics {
    let mut rng = StdRng::seed_from_u64(seed::derive_indexed(99, "truth", call.id));
    let base = match option.canonical() {
        RelayOption::Direct => 90.0 + 15.0 * f64::from((call.src + call.dst) % 5),
        RelayOption::Bounce(r) => 70.0 + 20.0 * f64::from(r.0 % 3),
        RelayOption::Transit(a, b) => 65.0 + 8.0 * f64::from((a.0 + b.0) % 4),
    };
    PathMetrics::new(
        base + rng.random::<f64>() * 25.0,
        rng.random::<f64>() * 1.5,
        1.0 + rng.random::<f64>() * 6.0,
    )
}

/// The batch schedule: one history, one whole-window `Predictor::fit` per
/// barrier, no shards, no epochs.
struct BatchReference {
    cfg: ServerConfig,
    selector: Selector,
    history: CallHistory,
    window: u64,
    predictor: Predictor,
    pairs: HashMap<KeyPair, PairArms>,
    gate: Option<BudgetGate>,
}

impl BatchReference {
    fn new(cfg: ServerConfig) -> BatchReference {
        BatchReference {
            selector: Selector::new(Plan::from(StrategyKind::Via), cfg.objective, cfg.epsilon),
            history: CallHistory::new(),
            window: 0,
            predictor: Predictor::cold(prior(), boxed(&backbone())),
            pairs: HashMap::new(),
            gate: cfg.budget.map(BudgetGate::new),
            cfg,
        }
    }

    fn ensure_window(&mut self, w: Window) {
        if w.index <= self.window {
            return;
        }
        let training = w.prev().expect("a later window has a predecessor");
        self.predictor = Predictor::fit(
            &self.history,
            training,
            prior(),
            boxed(&backbone()),
            PredictorConfig::default(),
        );
        self.history.prune_before(training.index);
        self.pairs.clear();
        self.window = w.index;
    }

    fn select(&mut self, call: &Call, cands: &[RelayOption]) -> Selection {
        self.ensure_window(self.cfg.window.window_of(call.t));
        let pair = KeyPair::new(call.src, call.dst);
        let (cfg, predictor, selector) = (&self.cfg, &self.predictor, &mut self.selector);
        let arms = self.pairs.entry(pair).or_insert_with(|| {
            selector.arms(|o| predictor.predict(pair.lo, pair.hi, o), cands, false)
        });
        let benefit = arms.benefit();
        let admitted = match self.gate.as_mut() {
            Some(gate) if benefit.is_finite() => gate.admit(benefit),
            _ => true,
        };
        let d = selector.decide(
            arms,
            !admitted,
            || StdRng::seed_from_u64(seed::derive_indexed(cfg.seed, "server.select", call.id)),
            || cands,
        );
        Selection {
            option: d.option,
            admitted,
            explored: d.explored,
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
        self.history.record(window, pair, option, m);
        if let Some(arms) = self.pairs.get_mut(&pair) {
            arms.learn(option, m[self.cfg.objective]);
        }
    }
}

#[test]
fn incremental_server_selects_identically_to_the_batch_schedule() {
    let cfg = config();
    let server = Controller::new(cfg, prior(), backbone());
    let mut reference = BatchReference::new(cfg);
    let cands = candidates();

    let (mut relayed, mut gated, mut explored) = (0u64, 0u64, 0u64);
    for call in &trace(3, 300) {
        let a = server.select(call.id, call.t, call.src, call.dst, &cands);
        let b = reference.select(call, &cands);
        assert_eq!(a, b, "selection diverged at call {}", call.id);
        // Report a cycled option rather than only the selected one, so every
        // cell accumulates measurements (a cold prior would otherwise pick
        // Direct forever and the identity would hold vacuously).
        let probed = cands[(call.id % cands.len() as u64) as usize];
        let m = measure(call, probed);
        server.report(call.t, call.src, call.dst, probed, &m);
        reference.report(call, probed, &m);
        relayed += u64::from(a.option != RelayOption::Direct);
        gated += u64::from(!a.admitted);
        explored += u64::from(a.explored);
    }
    // The trace must exercise every decision path.
    assert!(relayed > 50, "only {relayed} relayed calls");
    assert!(gated > 50, "budget gate never engaged ({gated})");
    assert!(explored > 10, "ε exploration never fired ({explored})");
    assert_eq!(server.window_index(), 2);
    assert_eq!(server.refit_epoch(), 2, "one publish per window rollover");
}

/// One call through the socket and through the in-process control: the two
/// must select alike, and both absorb the same cycled-option report.
fn drive_both(client: &mut Client, local: &Controller, call: &Call, cands: &[RelayOption]) {
    let over_socket = client
        .select(call.id, call.t, call.src, call.dst, cands)
        .expect("select reply");
    let in_process = local.select(call.id, call.t, call.src, call.dst, cands);
    assert_eq!(over_socket, in_process, "diverged at call {}", call.id);
    let probed = cands[(call.id % cands.len() as u64) as usize];
    let m = measure(call, probed);
    let filed = client
        .report(call.t, call.src, call.dst, probed, m)
        .expect("report reply");
    assert_eq!(filed, local.report(call.t, call.src, call.dst, probed, &m));
}

#[test]
fn socket_plane_selects_and_snapshots_identically_to_the_in_process_controller() {
    let cfg = config();
    let handle = serve(Arc::new(Controller::new(cfg, prior(), backbone()))).expect("bind loopback");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).expect("connect");
    let local = Controller::new(cfg, prior(), backbone());
    let cands = candidates();

    for call in &trace(3, 300) {
        drive_both(&mut client, &local, call, &cands);
    }

    let remote = client.snapshot().expect("snapshot reply");
    assert_eq!(
        remote,
        local.selection_snapshot_json(),
        "socket-driven selection state diverged from the in-process API"
    );
    let decoded: SelectionSnapshot = serde_json::from_str(&remote).expect("snapshot is JSON");
    assert_eq!(decoded.current.window.index, 2);
    assert_eq!(decoded.trained.map(|t| t.window.index), Some(1));
    assert!(decoded.gate.is_some());

    client.shutdown().expect("shutdown reply");
    handle.wait();
}

#[test]
fn out_of_fleet_relay_is_refused_and_costs_the_window_nothing() {
    let cfg = config();
    let handle = serve(Arc::new(Controller::new(cfg, prior(), backbone()))).expect("bind loopback");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).expect("connect");
    // The control never sees the hostile frames.
    let local = Controller::new(cfg, prior(), backbone());
    let cands = candidates();
    let outsider = RelayOption::Transit(RelayId(9999), RelayId(0));
    let is_bad_request = |e: &ClientError| {
        matches!(
            e,
            ClientError::Remote {
                kind: ErrorKind::BadRequest,
                ..
            }
        )
    };

    // Two windows, so the rollover refits on the window the frames arrived in.
    for call in &trace(2, 40) {
        if call.id == 20 {
            // In-range metrics: only the relay id is wrong.
            let m = measure(call, RelayOption::Direct);
            let err = client
                .report(call.t, call.src, call.dst, outsider, m)
                .expect_err("out-of-fleet report accepted");
            assert!(is_bad_request(&err), "{err:?}");
            let err = client
                .select(call.id, call.t, call.src, call.dst, &[cands[0], outsider])
                .expect_err("out-of-fleet candidate accepted");
            assert!(is_bad_request(&err), "{err:?}");
        }
        drive_both(&mut client, &local, call, &cands);
    }

    let remote = client.snapshot().expect("snapshot reply");
    assert_eq!(remote, local.selection_snapshot_json());
    let decoded: SelectionSnapshot = serde_json::from_str(&remote).expect("snapshot is JSON");
    let trained = decoded.trained.expect("window 0 trained");
    assert_eq!(trained.window.index, 0);
    assert_eq!(
        trained.cells.iter().map(|c| c.stats.count()).sum::<u64>(),
        40,
        "the rollover lost honest reports"
    );
    let metrics = handle.controller().metrics_snapshot();
    assert_eq!(metrics.counter("server_reports_rejected_total"), 1);
    assert_eq!(metrics.counter("server_reports_total"), 80);

    client.shutdown().expect("shutdown reply");
    handle.wait();
}

/// A peer that writes the plane's frames by hand — what `Client` cannot be
/// made to send.
struct RawPeer {
    stream: TcpStream,
    session: u64,
}

fn frame(body: &[u8]) -> Vec<u8> {
    let len = u32::try_from(body.len()).expect("a test body fits a frame");
    [&len.to_be_bytes()[..], body].concat()
}

impl RawPeer {
    fn connect(addr: SocketAddr) -> RawPeer {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut peer = RawPeer { stream, session: 0 };
        peer.send(&peer.request(&Request::Hello));
        match peer.reply() {
            Response::Welcome { session } => peer.session = session,
            other => panic!("handshake answered {other:?}"),
        }
        peer
    }

    fn request(&self, req: &Request) -> Vec<u8> {
        let mut body = Vec::new();
        req.encode(&mut body).expect("encode");
        frame(&body)
    }

    fn select(&self, call: &Call, cands: &[RelayOption]) -> Vec<u8> {
        self.request(&Request::Select {
            session: self.session,
            call_id: call.id,
            t: call.t,
            src_key: call.src,
            dst_key: call.dst,
            candidates: cands.to_vec(),
        })
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
    }

    fn reply(&mut self) -> Response {
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix).expect("reply prefix");
        let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
        self.stream.read_exact(&mut body).expect("reply body");
        Response::decode(&body).expect("reply decodes")
    }

    fn selection(&mut self) -> Selection {
        match self.reply() {
            Response::Selected {
                option,
                admitted,
                explored,
                window,
            } => Selection {
                option,
                admitted,
                explored,
                window,
            },
            other => panic!("a Select answered {other:?}"),
        }
    }
}

#[test]
fn a_body_that_is_not_a_request_is_answered_and_the_connection_keeps_serving() {
    let cfg = config();
    let handle = serve(Arc::new(Controller::new(cfg, prior(), backbone()))).expect("bind loopback");
    let mut peer = RawPeer::connect(handle.addr());
    let local = Controller::new(cfg, prior(), backbone());
    let cands = candidates();
    let calls = trace(1, 5);

    let valid = peer.select(&calls[0], &cands);
    let cut_short = frame(&valid[4..valid.len() - 5]);
    let one_too_many = frame(&[&valid[4..], &[0u8][..]].concat());
    // What this plane spoke before it went binary: no fallback reads it.
    let json = frame(b"\"Hello\"");
    let garbage = [
        frame(b""),
        frame(&[0xFF; 64]),
        cut_short,
        one_too_many,
        json,
    ];
    for (garbage, call) in garbage.iter().zip(&calls) {
        peer.send(garbage);
        match peer.reply() {
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            } => {}
            other => panic!("{garbage:?} answered {other:?}"),
        }
        // The frame boundary held, so the very next frame is served, and
        // served as if nothing had come before it.
        peer.send(&peer.select(call, &cands));
        assert_eq!(
            peer.selection(),
            local.select(call.id, call.t, call.src, call.dst, &cands)
        );
    }
    assert_eq!(handle.controller().live_sessions(), 1);
    handle.stop();
}

#[test]
fn pipelined_selects_are_answered_in_order_and_a_split_frame_behind_them_decodes() {
    let cfg = config();
    let piped = serve(Arc::new(Controller::new(cfg, prior(), backbone()))).expect("bind loopback");
    let twin = serve(Arc::new(Controller::new(cfg, prior(), backbone()))).expect("bind loopback");
    let mut peer = RawPeer::connect(piped.addr());
    let mut client = Client::connect(twin.addr(), Duration::from_secs(10)).expect("connect");
    let cands = candidates();
    let calls = trace(1, 65);
    let (batch, last) = calls.split_at(64);

    // 64 whole frames and the head of a 65th, in one write: more than one
    // server read's worth, so frames straddle its reads too.
    let tail = peer.select(&last[0], &cands);
    let (head, rest) = tail.split_at(tail.len() / 2);
    let mut burst: Vec<u8> = batch.iter().flat_map(|c| peer.select(c, &cands)).collect();
    assert!(burst.len() > 4096);
    burst.extend_from_slice(head);
    peer.send(&burst);

    for call in batch {
        let sequential = client
            .select(call.id, call.t, call.src, call.dst, &cands)
            .expect("select reply");
        assert_eq!(peer.selection(), sequential, "diverged at call {}", call.id);
    }
    // 64 replies in: the server has consumed 64 frames and holds at most the
    // head of the 65th. The rest completes it behind the consumed ones.
    peer.send(rest);
    let call = &last[0];
    let sequential = client
        .select(call.id, call.t, call.src, call.dst, &cands)
        .expect("select reply");
    assert_eq!(peer.selection(), sequential);

    client.shutdown().expect("shutdown reply");
    twin.wait();
    piped.stop();
}
