//! Property tests for the receiver-side multipath merge stage.
//!
//! The merge contract the replay engine leans on: `receive` conserves
//! packets (every copy is either the first of its sequence or a counted
//! dedup drop), is idempotent (re-receiving a merged stream is a no-op),
//! and is order-independent (any permutation of the per-path inputs merges
//! to the same stream). `simulate_set` inherits the permutation invariance
//! because every per-path draw comes from the path's own keyed stream.

#![allow(clippy::expect_used, reason = "test code: a broken fixture panics")]

use proptest::prelude::*;
use via_media::merge::{
    receive, simulate_set, MergeConfig, MergeMode, MergeScratch, MergedStream, PathArrivals,
    PathSpec,
};
use via_model::metrics::PathMetrics;

/// Turns raw generated `(time, tag)` pairs into per-path arrival vectors:
/// tag 0 marks the copy lost (`INFINITY`), anything else delivers at `time`.
fn build_paths(raw: &[Vec<(f64, u32)>]) -> Vec<PathArrivals> {
    raw.iter()
        .enumerate()
        .map(|(i, path)| PathArrivals {
            key: i as u64,
            arrivals: path
                .iter()
                .map(|&(t, tag)| if tag == 0 { f64::INFINITY } else { t })
                .collect(),
        })
        .collect()
}

proptest! {
    #[test]
    fn receive_conserves_packets(
        raw in prop::collection::vec(
            prop::collection::vec((0f64..2000.0, 0u32..4), 0..25),
            0..6,
        ),
    ) {
        let paths = build_paths(&raw);
        let mut merged = MergedStream::default();
        receive(&paths, &mut merged);

        // Sequence space is the longest path's.
        let n = paths.iter().map(|p| p.arrivals.len()).max().unwrap_or(0);
        prop_assert_eq!(merged.arrivals.len(), n);

        // Copies: every finite per-path entry, nothing more, nothing less.
        let copies = paths
            .iter()
            .flat_map(|p| &p.arrivals)
            .filter(|a| a.is_finite())
            .count() as u64;
        prop_assert_eq!(merged.copies_received, copies);

        // Each merged slot is exactly the earliest copy of its sequence
        // (or INFINITY when no path delivered one).
        for s in 0..n {
            let earliest = paths
                .iter()
                .filter_map(|p| p.arrivals.get(s))
                .copied()
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(merged.arrivals[s], earliest);
        }
        let unique = merged.arrivals.iter().filter(|a| a.is_finite()).count() as u64;
        prop_assert_eq!(merged.unique_received, unique);

        // Conservation: every received copy is either the kept first copy
        // of its sequence or a counted dedup drop.
        prop_assert_eq!(merged.dedup_drops(), copies - unique);
        prop_assert!(merged.unique_received <= merged.copies_received);
    }

    #[test]
    fn receive_is_idempotent(
        raw in prop::collection::vec(
            prop::collection::vec((0f64..2000.0, 0u32..4), 0..25),
            0..6,
        ),
    ) {
        let paths = build_paths(&raw);
        let mut merged = MergedStream::default();
        receive(&paths, &mut merged);

        // Feed the merged stream back in as a single path: the arrivals
        // must come out unchanged and every copy must be unique.
        let folded = [PathArrivals { key: 0, arrivals: merged.arrivals.clone() }];
        let mut again = MergedStream::default();
        receive(&folded, &mut again);
        prop_assert_eq!(&again.arrivals, &merged.arrivals);
        prop_assert_eq!(again.copies_received, merged.unique_received);
        prop_assert_eq!(again.unique_received, merged.unique_received);
        prop_assert_eq!(again.dedup_drops(), 0);
    }

    #[test]
    fn receive_is_order_independent(
        raw in prop::collection::vec(
            prop::collection::vec((0f64..2000.0, 0u32..4), 0..25),
            0..6,
        ),
        seed in any::<u64>(),
    ) {
        let paths = build_paths(&raw);
        let mut merged = MergedStream::default();
        receive(&paths, &mut merged);

        // A deterministic Fisher-Yates driven by the generated seed — no
        // external RNG, so failures replay exactly.
        let mut permuted = paths.clone();
        let mut state = seed | 1;
        for i in (1..permuted.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            permuted.swap(i, j);
        }
        let mut merged_permuted = MergedStream::default();
        receive(&permuted, &mut merged_permuted);
        prop_assert_eq!(merged, merged_permuted);
    }

    #[test]
    fn simulate_set_is_permutation_invariant_and_conserving(
        rtts in prop::collection::vec(20f64..400.0, 1..4),
        loss in 0f64..10.0,
        jitter in 0.5f64..20.0,
        call_seed in any::<u64>(),
        stripe in any::<bool>(),
    ) {
        let specs: Vec<PathSpec> = rtts
            .iter()
            .enumerate()
            .map(|(i, &rtt)| PathSpec::alive(PathMetrics::new(rtt, loss, jitter), i as u64 + 1))
            .collect();
        let mode = if stripe { MergeMode::Stripe } else { MergeMode::Duplicate };
        let cfg = MergeConfig { frames: 12, ..MergeConfig::default() };

        let mut scratch = MergeScratch::default();
        let report = simulate_set(&specs, mode, &cfg, call_seed, &mut scratch);

        // Conservation at the call level: per-sequence copies are bounded
        // by the carrier count (1 for stripe, |paths| for duplicate), and
        // dedup drops are exactly the redundant copies.
        prop_assert_eq!(report.sent, 12);
        let carriers = if stripe { 1 } else { specs.len() as u64 };
        prop_assert!(report.copies_received <= report.sent * carriers);
        prop_assert!(report.unique_received <= report.sent);
        prop_assert_eq!(report.dedup_drops, report.copies_received - report.unique_received);
        if stripe {
            prop_assert_eq!(report.dedup_drops, 0);
        }

        // Reversing the spec order must not change the merged call at all.
        let reversed: Vec<PathSpec> = specs.iter().rev().copied().collect();
        let report_rev = simulate_set(&reversed, mode, &cfg, call_seed, &mut scratch);
        prop_assert_eq!(report, report_rev);
    }
}
