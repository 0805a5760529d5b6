//! Session lifecycle over the real socket plane: distinct ids per
//! connection, typed rejection of stale/foreign session ids (the
//! cross-wiring bug class fixed in `via-testbed`'s allocator), and clean
//! client-initiated shutdown.

// Test code: panicking on a failed connect or round trip is the right
// behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use via_core::predictor::GeoPrior;
use via_core::BackboneFn;
use via_model::ids::RelayId;
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::time::SimTime;
use via_server::{serve, Client, ClientError, Controller, ErrorKind, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(10);

/// A three-relay controller whose backbone is a relay×relay table, as every
/// production caller builds it — the shape an out-of-fleet relay id indexes
/// out of bounds.
fn controller() -> Arc<Controller> {
    let (prior, backbone) = fleet();
    Arc::new(Controller::new(ServerConfig::default(), prior, backbone))
}

fn fleet() -> (GeoPrior, BackboneFn) {
    let n = 3usize;
    let legs: Vec<PathMetrics> = (0..n * n)
        .map(|i| PathMetrics::new(15.0 + (i / n).abs_diff(i % n) as f64 * 12.0, 0.04, 0.8))
        .collect();
    let prior = GeoPrior::new(
        vec![
            via_netsim::GeoPoint::new(40.7, -74.0),
            via_netsim::GeoPoint::new(51.5, -0.1),
        ],
        (0..n)
            .map(|r| via_netsim::GeoPoint::new(10.0 * r as f64, 20.0 * r as f64))
            .collect(),
    );
    let backbone: BackboneFn =
        Arc::new(move |a: RelayId, b: RelayId| legs[a.index() * n + b.index()]);
    (prior, backbone)
}

fn assert_bad_request<T: std::fmt::Debug>(result: Result<T, ClientError>, what: &str) {
    assert!(
        matches!(
            result,
            Err(ClientError::Remote {
                kind: ErrorKind::BadRequest,
                ..
            })
        ),
        "{what} must be a typed BadRequest, got {result:?}"
    );
}

/// Polls until `cond` holds or panics after 10 s — connection teardown is
/// only observed by the server within a read-poll slice.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn concurrent_connections_get_distinct_live_sessions() {
    let handle = serve(controller()).unwrap();
    let a = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let b = Client::connect(handle.addr(), TIMEOUT).unwrap();
    assert_ne!(a.session(), b.session());
    assert_ne!(a.session(), 0);
    assert_ne!(b.session(), 0);
    let ctrl = Arc::clone(handle.controller());
    wait_for(|| ctrl.live_sessions() == 2, "both sessions live");
    drop(a);
    wait_for(|| ctrl.live_sessions() == 1, "session A reaped");
    drop(b);
    wait_for(|| ctrl.live_sessions() == 0, "session B reaped");
    handle.stop();
}

#[test]
fn sequential_connections_get_ids_in_order_and_end_every_session() {
    let handle = serve(controller()).unwrap();
    let ctrl = Arc::clone(handle.controller());
    let ids: Vec<u64> = (0..200)
        .map(|_| Client::connect(handle.addr(), TIMEOUT).unwrap().session())
        .collect();
    assert_eq!(
        ids,
        (1..=200).collect::<Vec<u64>>(),
        "1, 2, … and none repeated"
    );
    wait_for(|| ctrl.live_sessions() == 0, "every session ended");
    handle.stop();
}

#[test]
fn never_issued_session_id_is_rejected_with_typed_error() {
    let handle = serve(controller()).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    client.set_session(0xDEAD_BEEF);
    let err = client
        .select(0, SimTime::ZERO, 0, 1, &[RelayOption::Direct])
        .unwrap_err();
    match err {
        ClientError::Remote { kind, .. } => assert_eq!(kind, ErrorKind::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    handle.stop();
}

#[test]
fn reconnect_with_stale_session_id_is_rejected() {
    let handle = serve(controller()).unwrap();
    let ctrl = Arc::clone(handle.controller());

    // Client A opens a session, works, and disconnects.
    let mut a = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let stale = a.session();
    a.select(0, SimTime::ZERO, 0, 1, &[RelayOption::Direct])
        .unwrap();
    drop(a);
    wait_for(|| ctrl.live_sessions() == 0, "stale session reaped");

    // Client B reconnects and replays A's old id — the pre-fix allocator
    // bug class: a stale id silently adopting live state. It must be a
    // typed rejection instead.
    let mut b = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let own = b.session();
    assert_ne!(own, stale, "a session id is never re-issued");
    b.set_session(stale);
    let err = b
        .select(1, SimTime::ZERO, 0, 1, &[RelayOption::Direct])
        .unwrap_err();
    match err {
        ClientError::Remote { kind, .. } => assert_eq!(kind, ErrorKind::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }

    // The connection survives the rejection: restoring its own id works.
    b.set_session(own);
    b.select(2, SimTime::ZERO, 0, 1, &[RelayOption::Direct])
        .unwrap();
    handle.stop();
}

#[test]
fn one_session_cannot_speak_for_another_live_session() {
    let handle = serve(controller()).unwrap();
    let a = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let mut b = Client::connect(handle.addr(), TIMEOUT).unwrap();
    // A's id is live, but it is not B's connection's id — still rejected.
    b.set_session(a.session());
    let err = b
        .select(0, SimTime::ZERO, 0, 1, &[RelayOption::Direct])
        .unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Remote {
                kind: ErrorKind::UnknownSession,
                ..
            }
        ),
        "cross-session id must be rejected, got {err:?}"
    );
    drop(a);
    handle.stop();
}

#[test]
fn client_shutdown_request_stops_the_server() {
    let handle = serve(controller()).unwrap();
    let addr = handle.addr();
    let client = Client::connect(addr, TIMEOUT).unwrap();
    client.shutdown().unwrap();
    // Returns only when the accept loop exited cleanly.
    handle.wait();
    // New connections now fail (refused, or reset mid-Hello): a socket
    // failure is a frame error like any other.
    let refused = Client::connect(addr, Duration::from_millis(500));
    assert!(
        matches!(
            refused,
            Err(ClientError::Frame(via_testbed::protocol::FrameError::Io(_)))
        ),
        "{refused:?}"
    );
}

#[test]
fn out_of_range_report_metrics_are_rejected_before_any_state_is_touched() {
    let handle = serve(controller()).unwrap();
    let ctrl = Arc::clone(handle.controller());
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let option = RelayOption::Bounce(RelayId(0));
    let good = PathMetrics::new(80.0, 0.5, 3.0);
    // The selected pair holds live arms, so a bad cost would reach them.
    client
        .select(0, SimTime::ZERO, 0, 1, &[RelayOption::Direct, option])
        .unwrap();
    client.report(SimTime::ZERO, 0, 1, option, good).unwrap();
    let before = ctrl.selection_snapshot_json();

    // The binary body carries every bit pattern as it is, so the values JSON
    // had no spelling for reach `check_metrics` too.
    let hostile = [
        PathMetrics {
            rtt_ms: f64::NAN,
            ..good
        },
        PathMetrics {
            loss_pct: f64::from_bits(0xFFF8_0000_DEAD_BEEF), // NaN, sign and payload set
            ..good
        },
        PathMetrics {
            rtt_ms: f64::INFINITY,
            ..good
        },
        PathMetrics {
            jitter_ms: f64::NEG_INFINITY,
            ..good
        },
        PathMetrics {
            rtt_ms: -1.0,
            ..good
        },
        PathMetrics {
            loss_pct: 101.0,
            ..good
        },
        PathMetrics {
            jitter_ms: 1e308,
            ..good
        },
        PathMetrics {
            rtt_ms: 1e308,
            ..good
        },
    ];
    for bad in hostile {
        assert_bad_request(
            client.report(SimTime::ZERO, 0, 1, option, bad),
            &format!("{bad:?}"),
        );
    }
    assert_eq!(
        ctrl.selection_snapshot_json(),
        before,
        "a rejected report must not touch the selection state"
    );
    let snap = ctrl.metrics_snapshot();
    assert_eq!(
        snap.counter("server_reports_rejected_total"),
        hostile.len() as u64
    );
    assert_eq!(snap.counter("server_reports_total"), 1);

    // The session survives the rejections.
    client.report(SimTime::ZERO, 0, 1, option, good).unwrap();
    client
        .select(1, SimTime::ZERO, 0, 1, &[RelayOption::Direct, option])
        .unwrap();
    handle.stop();
}

#[test]
fn out_of_fleet_relay_costs_one_report_not_a_window() {
    let handle = serve(controller()).unwrap();
    let ctrl = Arc::clone(handle.controller());
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let good = PathMetrics::new(80.0, 0.5, 3.0);
    let honest = [
        RelayOption::Direct,
        RelayOption::Bounce(RelayId(1)),
        RelayOption::Transit(RelayId(0), RelayId(2)),
    ];
    for (i, &option) in honest.iter().cycle().take(10).enumerate() {
        client
            .report(SimTime(i as u64), 0, 1, option, good)
            .unwrap();
    }

    // In-range metrics, so only the relay id is wrong.
    for hostile in [
        RelayOption::Transit(RelayId(9999), RelayId(0)),
        RelayOption::Transit(RelayId(0), RelayId(3)),
        RelayOption::Bounce(RelayId(3)),
    ] {
        assert_bad_request(
            client.report(SimTime(10), 0, 1, hostile, good),
            "an out-of-fleet report",
        );
        assert_bad_request(
            client.select(0, SimTime(10), 0, 1, &[RelayOption::Direct, hostile]),
            "an out-of-fleet candidate",
        );
    }
    let snap = ctrl.metrics_snapshot();
    assert_eq!(snap.counter("server_reports_rejected_total"), 3);
    assert_eq!(snap.counter("server_reports_total"), 10);
    assert_eq!(snap.counter("server_selections_total"), 0);

    // The same connection rolls the window over: the refit sees only the
    // honest reports and keeps every one of their cells.
    let next = SimTime(ctrl.config().window.secs());
    let sel = client.select(1, next, 0, 1, &honest).unwrap();
    assert_eq!(sel.window, 1);
    let trained = ctrl.selection_snapshot().trained.expect("window 0 trained");
    assert_eq!(trained.cells.len(), honest.len());
    assert_eq!(
        trained.cells.iter().map(|c| c.stats.count()).sum::<u64>(),
        10
    );
    handle.stop();
}

#[test]
fn in_process_report_and_restore_refuse_out_of_fleet_relays() {
    let ctrl = controller();
    let window = ctrl.config().window.secs();
    let good = PathMetrics::new(80.0, 0.5, 3.0);
    let honest = [
        RelayOption::Direct,
        RelayOption::Bounce(RelayId(1)),
        RelayOption::Transit(RelayId(0), RelayId(2)),
    ];
    let hostile = RelayOption::Transit(RelayId(0), RelayId(9999));
    for (i, &option) in honest.iter().cycle().take(10).enumerate() {
        assert_eq!(ctrl.report(SimTime(i as u64), 0, 1, option, &good), 0);
    }

    // No socket plane in front: `report` itself must refuse the option, and
    // a refused report must not move the clock either.
    assert_eq!(ctrl.report(SimTime(window), 0, 1, hostile, &good), 0);
    let counters = ctrl.metrics_snapshot();
    assert_eq!(counters.counter("server_reports_rejected_total"), 1);
    assert_eq!(counters.counter("server_reports_total"), 10);

    // The rollover refits on the honest reports alone.
    assert_eq!(ctrl.select(1, SimTime(window), 0, 1, &honest).window, 1);
    ctrl.report(SimTime(window), 0, 1, RelayOption::Direct, &good);
    let clean = ctrl.selection_snapshot();
    let trained = clean.trained.as_ref().expect("window 0 trained");
    assert_eq!(trained.cells.len(), honest.len());
    assert_eq!(
        trained.cells.iter().map(|c| c.stats.count()).sum::<u64>(),
        10
    );

    // The same option smuggled into both windows of a snapshot: restore fits
    // the trained window at once and the current one at the next rollover.
    let mut poisoned = clean.clone();
    for image in [Some(&mut poisoned.current), poisoned.trained.as_mut()] {
        let cells = &mut image.expect("both windows hold cells").cells;
        let mut cell = cells[0].clone();
        cell.option = hostile;
        cells.push(cell);
    }
    let (prior, backbone) = fleet();
    let restored = Controller::restore(*ctrl.config(), prior, backbone, poisoned);
    assert_eq!(
        restored
            .metrics_snapshot()
            .counter("server_reports_rejected_total"),
        2
    );
    assert_eq!(
        restored.selection_snapshot_json(),
        ctrl.selection_snapshot_json(),
        "every honest cell survives, nothing else does"
    );
    let sel = restored.select(2, SimTime(2 * window), 0, 1, &honest);
    assert_eq!(sel.window, 2);
    let trained = restored.selection_snapshot().trained.expect("window 1");
    assert_eq!(trained.cells.len(), 1);
}

#[test]
fn snapshot_beyond_one_frame_is_a_typed_error_and_the_connection_keeps_serving() {
    // No budget gate and enough distinct (pair, option) cells that the
    // snapshot document cannot fit a frame.
    let ctrl = controller();
    let options = [
        RelayOption::Direct,
        RelayOption::Bounce(RelayId(0)),
        RelayOption::Bounce(RelayId(1)),
        RelayOption::Bounce(RelayId(2)),
        RelayOption::Transit(RelayId(0), RelayId(1)),
        RelayOption::Transit(RelayId(0), RelayId(2)),
        RelayOption::Transit(RelayId(1), RelayId(2)),
    ];
    for src in 0..24u32 {
        for dst in 0..24u32 {
            for (i, &option) in options.iter().enumerate() {
                let metrics = PathMetrics::new(80.0 + f64::from(src + dst) + i as f64, 0.3, 4.0);
                ctrl.report(SimTime::ZERO, src, dst, option, &metrics);
            }
        }
    }
    let document = ctrl.selection_snapshot_json().len();
    assert!(
        document > via_testbed::protocol::MAX_FRAME as usize,
        "{document}-byte snapshot fits a frame: the test no longer reaches the refusal"
    );

    let handle = serve(ctrl).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    match client.snapshot() {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, ErrorKind::ReplyTooLarge, "{detail}");
        }
        other => panic!("expected ReplyTooLarge, got {other:?}"),
    }
    // Nothing of the refused reply went out: the stream is still in step.
    let sel = client
        .select(1, SimTime::ZERO, 0, 1, &options)
        .expect("select after the refused snapshot");
    assert!(options.contains(&sel.option));
    client.shutdown().unwrap();
    handle.wait();
}
