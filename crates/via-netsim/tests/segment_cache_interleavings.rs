//! Exhaustive-interleaving harness for the segment-state memo tables.
//!
//! `PerfModel` memoizes per-segment latent state on first touch: all four
//! families (access, backbone, direct-WAN, AS→relay) live in pre-sized
//! `OnceLock` slot tables, indexed by their dense id/pair codes. The
//! contract under concurrent first touch is **build exactly once, observe
//! identical state** — a duplicated build would burn a second RNG stream
//! and a torn read would leak schedule order into results.
//!
//! Two layers of evidence:
//!
//! 1. [`two_thread_first_touch_schedules_are_exhaustive`] enumerates every
//!    interleaving of two logical threads each performing (build, read)
//!    against the same segment. `OnceLock::get_or_init` is a single atomic
//!    protocol step — any real schedule is equivalent to one sequential
//!    order of those steps — so running the six orders sequentially
//!    explores the whole coarse-grained schedule space for each segment
//!    family.
//! 2. [`racing_first_touch_builds_once_per_segment`] races real threads
//!    through the same first touch behind a barrier. This is the test the
//!    nightly ThreadSanitizer workflow runs under `-Zsanitizer=thread`.
//!
//! `World`'s candidate table is a fifth slot table under the same contract
//! (enumerate each touched AS pair once, every reader sees the same set);
//! [`racing_first_touch_enumerates_each_pair_once`] races it the same way.

// Test-harness helpers outside #[test] fns: panicking on a broken schedule
// generator is the correct behavior here, as in any test.
#![allow(clippy::expect_used)]

use std::sync::{Arc, Barrier};

use via_model::ids::{AsId, RelayId};
use via_model::options::RelayOption;
use via_model::time::SimTime;
use via_netsim::{SegMetrics, Segment, World, WorldConfig};

/// One segment per memo family: each lives in its own dense slot table.
fn family_segments() -> Vec<(&'static str, Segment)> {
    vec![
        ("access/OnceLock", Segment::Access(AsId(1))),
        (
            "backbone/OnceLock",
            Segment::backbone(RelayId(0), RelayId(2)),
        ),
        ("direct-wan/OnceLock", Segment::direct(AsId(0), AsId(3))),
        ("relay-wan/OnceLock", Segment::RelayWan(AsId(2), RelayId(1))),
    ]
}

/// A logical thread's program: build (a first touch whose value is
/// discarded) then read.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Build(usize),
    Read(usize),
}

/// All interleavings of two two-step threads that preserve each thread's
/// program order: C(4, 2) = 6 schedules.
fn two_thread_schedules() -> Vec<Vec<Step>> {
    let mut schedules = Vec::new();
    // Choose the positions of thread 0's (Build, Read) among four slots.
    for a in 0..4 {
        for b in (a + 1)..4 {
            let mut sched = vec![None; 4];
            sched[a] = Some(Step::Build(0));
            sched[b] = Some(Step::Read(0));
            let mut other = [Step::Build(1), Step::Read(1)].into_iter();
            let sched: Vec<Step> = sched
                .into_iter()
                .map(|s| s.unwrap_or_else(|| other.next().expect("two free slots")))
                .collect();
            schedules.push(sched);
        }
    }
    assert_eq!(schedules.len(), 6);
    schedules
}

#[test]
fn two_thread_first_touch_schedules_are_exhaustive() {
    let t0 = SimTime(0);
    for (family, seg) in family_segments() {
        // Reference state from an undisputed sequential first touch.
        let reference = {
            let world = World::generate(&WorldConfig::tiny(), 7);
            world.perf().segment_mean(seg, t0)
        };

        for sched in two_thread_schedules() {
            // Fresh world per schedule: same seed, so every schedule starts
            // from an identical cold cache.
            let world = World::generate(&WorldConfig::tiny(), 7);
            let perf = world.perf();
            let mut reads: [Option<SegMetrics>; 2] = [None, None];
            for step in &sched {
                match *step {
                    Step::Build(_) => {
                        let _ = perf.segment_mean(seg, SimTime::from_days(1));
                    }
                    Step::Read(t) => reads[t] = Some(perf.segment_mean(seg, t0)),
                }
            }
            assert_eq!(
                perf.segment_builds(),
                1,
                "{family}: schedule {sched:?} built the segment more than once"
            );
            for (t, read) in reads.iter().enumerate() {
                assert_eq!(
                    read.expect("both threads read"),
                    reference,
                    "{family}: thread {t} under schedule {sched:?} observed a \
                     state differing from the sequential reference"
                );
            }
        }
    }
}

/// Real-thread race over the same first touches. Eight workers all hit the
/// same four segments (one per memo family) back-to-back from a barrier;
/// the memo must build each exactly once and every worker must observe the
/// same state the sequential reference does.
#[test]
fn racing_first_touch_builds_once_per_segment() {
    let segments: Vec<Segment> = family_segments().into_iter().map(|(_, s)| s).collect();
    let t0 = SimTime(0);
    let reference: Vec<SegMetrics> = {
        let world = World::generate(&WorldConfig::tiny(), 7);
        segments
            .iter()
            .map(|&s| world.perf().segment_mean(s, t0))
            .collect()
    };

    let world = Arc::new(World::generate(&WorldConfig::tiny(), 7));
    let workers = 8;
    let barrier = Arc::new(Barrier::new(workers));
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let world = Arc::clone(&world);
            let barrier = Arc::clone(&barrier);
            let segments = segments.clone();
            std::thread::spawn(move || {
                barrier.wait();
                // Half the workers touch every segment first (build step),
                // half go straight to the reads: every table is raced by
                // both programs.
                if w % 2 == 0 {
                    for &s in &segments {
                        let _ = world.perf().segment_mean(s, SimTime::from_days(1));
                    }
                }
                segments
                    .iter()
                    .map(|&s| world.perf().segment_mean(s, t0))
                    .collect::<Vec<SegMetrics>>()
            })
        })
        .collect();

    for h in handles {
        let reads = h.join().expect("worker panicked");
        assert_eq!(reads, reference, "racing reader observed divergent state");
    }
    assert_eq!(
        world.perf().segment_builds(),
        segments.len() as u64,
        "concurrent first touches duplicated a segment build"
    );
}

/// The candidate table under the same race: eight workers first-touch the
/// same AS pairs from a barrier, half in reverse order so different slots
/// are contended by different threads. Each pair must be enumerated once
/// and every worker must read the sets a sequential world produces.
#[test]
fn racing_first_touch_enumerates_each_pair_once() {
    let pairs: Vec<(AsId, AsId)> = vec![
        (AsId(0), AsId(3)),
        (AsId(3), AsId(0)),
        (AsId(1), AsId(1)),
        (AsId(2), AsId(5)),
        (AsId(4), AsId(2)),
    ];
    let reference: Vec<Vec<RelayOption>> = {
        let world = World::generate(&WorldConfig::tiny(), 7);
        pairs
            .iter()
            .map(|&(a, b)| world.candidate_options(a, b))
            .collect()
    };

    let world = World::generate(&WorldConfig::tiny(), 7);
    assert_eq!(world.candidate_sets_built(), 0);
    let workers = 8;
    let barrier = Barrier::new(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (world, barrier, pairs) = (&world, &barrier, &pairs);
                scope.spawn(move || {
                    let mut order: Vec<usize> = (0..pairs.len()).collect();
                    if w % 2 == 1 {
                        order.reverse();
                    }
                    barrier.wait();
                    let mut reads = vec![Vec::new(); pairs.len()];
                    for i in order {
                        reads[i] = world.candidate_options(pairs[i].0, pairs[i].1);
                    }
                    reads
                })
            })
            .collect();
        for h in handles {
            let reads = h.join().expect("worker panicked");
            assert_eq!(reads, reference, "racing reader observed a divergent set");
        }
    });
    assert_eq!(
        world.candidate_sets_built(),
        pairs.len() as u64,
        "concurrent first touches duplicated an enumeration"
    );
    // A warm read enumerates nothing.
    let _ = world.candidate_options(pairs[0].0, pairs[0].1);
    assert_eq!(world.candidate_sets_built(), pairs.len() as u64);
}
