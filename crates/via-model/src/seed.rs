//! Deterministic sub-seed derivation.
//!
//! Every stochastic component of the reproduction (topology generation,
//! per-segment performance processes, workload arrivals, per-call noise,
//! bandit tie-breaking, …) draws from its own RNG, seeded by mixing the single
//! top-level experiment seed with a stable label. This gives two properties
//! that matter for a simulator:
//!
//! 1. **Reproducibility** — the same top-level seed always yields the same
//!    world and the same trace, regardless of evaluation order.
//! 2. **Independence between components** — adding one more random draw in,
//!    say, the workload generator does not shift the random stream seen by
//!    the performance model.
//!
//! Mixing uses the SplitMix64 finalizer, which is a well-studied bijective
//! avalanche function; it is *not* cryptographic and does not need to be.
//!
//! The module also holds the workspace's one FNV-1a 64-bit digest
//! ([`fnv1a`]): the `.vbt` header check, the replay outcome digest and every
//! test that pins a run's bits fold their bytes through it.

/// SplitMix64 finalization step: a bijective mixer with full avalanche.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a parent seed and a string label.
///
/// The label is folded in bytewise through repeated mixing, so `"workload"`
/// and `"topology"` produce unrelated streams even under the same parent.
pub fn derive(parent: u64, label: &str) -> u64 {
    let mut h = splitmix64(parent ^ 0xA076_1D64_78BD_642F);
    for &b in label.as_bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// Derives a child seed from a parent seed and a numeric index, for
/// per-entity streams (e.g. one stream per AS-pair segment).
pub fn derive_indexed(parent: u64, label: &str, index: u64) -> u64 {
    derive_indexed_from(derive(parent, label), index)
}

/// The index-mixing half of [`derive_indexed`], for hot paths that derive
/// many per-entity seeds under one label: hoist `base = derive(parent,
/// label)` out of the loop (the label fold costs one mix round per byte) and
/// mix each index against it. By construction
/// `derive_indexed_from(derive(p, l), i) == derive_indexed(p, l, i)` for
/// every input — same bits, not just same distribution.
#[inline]
pub fn derive_indexed_from(base: u64, index: u64) -> u64 {
    splitmix64(base ^ splitmix64(index))
}

/// FNV-1a 64-bit offset basis: the digest of no bytes, where every fold
/// through [`fnv1a`] starts.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64-bit digest `h`; start from
/// [`FNV_BASIS`]. Folding two slices in turn equals folding their
/// concatenation. Chosen for zero dependencies and total determinism, not
/// cryptographic strength.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derive_is_deterministic() {
        assert_eq!(derive(42, "workload"), derive(42, "workload"));
        assert_eq!(
            derive_indexed(42, "segment", 7),
            derive_indexed(42, "segment", 7)
        );
    }

    #[test]
    fn labels_separate_streams() {
        assert_ne!(derive(42, "workload"), derive(42, "topology"));
        assert_ne!(derive(42, "a"), derive(42, "b"));
    }

    #[test]
    fn parents_separate_streams() {
        assert_ne!(derive(1, "x"), derive(2, "x"));
    }

    #[test]
    fn hoisted_base_matches_derive_indexed_exactly() {
        for parent in [0u64, 42, u64::MAX] {
            for label in ["realize", "call", ""] {
                let base = derive(parent, label);
                for index in [0u64, 1, 7, 1 << 34, u64::MAX] {
                    assert_eq!(
                        derive_indexed_from(base, index),
                        derive_indexed(parent, label, index),
                        "hoist diverges for parent {parent} label {label:?} index {index}"
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_streams_are_distinct() {
        let seeds: HashSet<u64> = (0..1000).map(|i| derive_indexed(7, "segment", i)).collect();
        assert_eq!(seeds.len(), 1000, "indexed seeds must not collide");
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        // Spot-check injectivity on a contiguous range; SplitMix64 is a
        // bijection so no two inputs may map to the same output.
        let outs: HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors_and_folds_in_pieces() {
        assert_eq!(fnv1a(FNV_BASIS, b""), FNV_BASIS);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_BASIS, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn empty_label_differs_from_parent() {
        assert_ne!(derive(42, ""), 42);
    }
}
