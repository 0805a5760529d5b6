//! Vivaldi network coordinates (Dabek et al., SIGCOMM 2004) — the classic
//! alternative to tomography for latency prediction, cited by the paper's
//! related work (§6, "Internet performance prediction", reference 18).
//!
//! Each node (spatial key or relay) carries a Euclidean coordinate plus a
//! non-negative *height* modeling its access link. The predicted RTT between
//! nodes is `‖x_i − x_j‖ + h_i + h_j`. Observations adjust coordinates by a
//! spring-relaxation step weighted by relative confidence, per the original
//! algorithm.
//!
//! VIA chose tomography over coordinates because passive measurements cover
//! path *segments* with known structure; the `ext_vivaldi` experiment
//! quantifies that choice by comparing the two predictors' accuracy on the
//! same training data.

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Dimensionality of the coordinate space (2-D + height is the standard
/// effective configuration).
pub const VIVALDI_DIM: usize = 2;

/// One node's coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Coord {
    /// Euclidean components.
    pub x: [f64; VIVALDI_DIM],
    /// Height (access-link latency), always ≥ 0.
    pub height: f64,
    /// Relative error estimate in [0, 1]; 1 = no confidence.
    pub error: f64,
}

impl Coord {
    /// A fresh node at the origin with no confidence.
    pub fn origin() -> Coord {
        Coord {
            x: [0.0; VIVALDI_DIM],
            height: 1.0,
            error: 1.0,
        }
    }

    /// Predicted RTT to another coordinate, ms.
    pub fn distance(&self, other: &Coord) -> f64 {
        let mut sq = 0.0;
        for d in 0..VIVALDI_DIM {
            let diff = self.x[d] - other.x[d];
            sq += diff * diff;
        }
        sq.sqrt() + self.height + other.height
    }
}

/// Error-averaging constant `c_e` (paper value 0.25).
const CE: f64 = 0.25;
/// Coordinate step constant `c_c` (paper value 0.25).
const CC: f64 = 0.25;
/// Minimum height, ms (keeps heights physical).
const MIN_HEIGHT: f64 = 0.1;

/// A Vivaldi coordinate system over a fixed set of nodes.
#[derive(Debug)]
pub struct Vivaldi {
    nodes: Vec<Coord>,
    rng: StdRng,
    samples: u64,
}

impl Vivaldi {
    /// Creates a system with `n` nodes at the origin. `seed` drives the
    /// random initial kick that breaks symmetry.
    pub fn new(n: usize, seed: u64) -> Vivaldi {
        Vivaldi {
            nodes: vec![Coord::origin(); n],
            rng: StdRng::seed_from_u64(seed),
            samples: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the system has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Observations folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Current coordinate of a node.
    pub fn coord(&self, i: usize) -> &Coord {
        &self.nodes[i]
    }

    /// Predicted RTT between two nodes, ms.
    pub fn predict(&self, i: usize, j: usize) -> f64 {
        self.nodes[i].distance(&self.nodes[j])
    }

    /// Mean relative error estimate across nodes (diagnostic).
    pub fn mean_error(&self) -> f64 {
        if self.nodes.is_empty() {
            return 1.0;
        }
        self.nodes.iter().map(|n| n.error).sum::<f64>() / self.nodes.len() as f64
    }

    /// Folds in one measured RTT between nodes `i` and `j`, updating *both*
    /// endpoints (centralized variant: the controller holds all
    /// measurements, so both ends of an observation can move).
    pub fn observe(&mut self, i: usize, j: usize, rtt_ms: f64) {
        if i == j || !rtt_ms.is_finite() || rtt_ms <= 0.0 {
            return;
        }
        self.samples += 1;
        self.update_one(i, j, rtt_ms);
        self.update_one(j, i, rtt_ms);
    }

    fn update_one(&mut self, i: usize, j: usize, rtt: f64) {
        let (xi, xj) = (self.nodes[i], self.nodes[j]);
        let dist = xi.distance(&xj);

        // Confidence weighting.
        let w = if xi.error + xj.error > 0.0 {
            xi.error / (xi.error + xj.error)
        } else {
            0.5
        };
        let es = (dist - rtt).abs() / rtt;
        let node = &mut self.nodes[i];
        node.error = (es * CE * w + node.error * (1.0 - CE * w)).clamp(0.0, 1.0);

        // Unit vector from j toward i; random direction if coincident.
        let mut u = [0.0; VIVALDI_DIM];
        let mut norm = 0.0;
        for (d, item) in u.iter_mut().enumerate() {
            *item = xi.x[d] - xj.x[d];
            norm += *item * *item;
        }
        norm = norm.sqrt();
        if norm < 1e-9 {
            for item in u.iter_mut() {
                *item = self.rng.random_range(-1.0..1.0);
            }
            norm = u.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
        }
        for item in u.iter_mut() {
            *item /= norm;
        }

        // Spring force: positive when the measured RTT exceeds the estimate
        // (nodes should move apart).
        let delta = CC * w;
        let force = delta * (rtt - dist);
        let node = &mut self.nodes[i];
        for (x, &dir) in node.x.iter_mut().zip(&u) {
            *x += force * dir;
        }
        // Height absorbs a share of the residual, never going below min.
        node.height = (node.height + force * 0.1).max(MIN_HEIGHT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_model::seed::{fnv1a, FNV_BASIS};

    /// Synthetic ground truth: nodes on a line, RTT = |i − j| × 20 ms + 4 ms
    /// of per-node height.
    fn truth(i: usize, j: usize) -> f64 {
        (i as f64 - j as f64).abs() * 20.0 + 8.0
    }

    fn train(n: usize, rounds: usize, seed: u64) -> Vivaldi {
        let mut v = Vivaldi::new(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
        for _ in 0..rounds {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..n);
            if i != j {
                v.observe(i, j, truth(i, j));
            }
        }
        v
    }

    #[test]
    fn converges_on_line_topology() {
        let n = 8;
        let v = train(n, 20_000, 3);
        let mut rel_err = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let pred = v.predict(i, j);
                rel_err.push((pred - truth(i, j)).abs() / truth(i, j));
            }
        }
        let mean: f64 = rel_err.iter().sum::<f64>() / rel_err.len() as f64;
        assert!(mean < 0.15, "mean relative error {mean}");
        assert!(v.mean_error() < 0.3, "confidence did not improve");
    }

    #[test]
    fn prediction_is_symmetric() {
        let v = train(6, 5_000, 9);
        for i in 0..6 {
            for j in 0..6 {
                assert!((v.predict(i, j) - v.predict(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_in_coordinate_space() {
        // Euclidean + heights ⇒ predicted distances satisfy a relaxed
        // triangle inequality (heights add, so the bound includes them).
        let v = train(6, 5_000, 4);
        for a in 0..6 {
            for b in 0..6 {
                for c in 0..6 {
                    let direct = v.predict(a, c);
                    let detour = v.predict(a, b) + v.predict(b, c);
                    assert!(direct <= detour + 1e-6, "{a}->{c} {direct} vs {detour}");
                }
            }
        }
    }

    #[test]
    fn ignores_degenerate_observations() {
        let mut v = Vivaldi::new(3, 1);
        v.observe(0, 0, 50.0);
        v.observe(0, 1, f64::NAN);
        v.observe(0, 1, -5.0);
        assert_eq!(v.samples(), 0);
    }

    #[test]
    fn heights_stay_positive() {
        let v = train(5, 10_000, 6);
        for i in 0..5 {
            assert!(v.coord(i).height >= MIN_HEIGHT);
        }
    }

    #[test]
    fn error_estimates_shrink_with_data() {
        let fresh = Vivaldi::new(6, 2);
        let trained = train(6, 10_000, 2);
        assert!(trained.mean_error() < fresh.mean_error() * 0.6);
    }

    #[test]
    fn coordinates_after_a_seeded_sequence_are_pinned() {
        // Every bit of every node after 2 000 seeded updates (the first ones
        // take the random kick off the shared origin), folded FNV-1a into
        // one constant.
        let v = train(8, 2_000, 3);
        let mut h = FNV_BASIS;
        for i in 0..v.len() {
            let c = v.coord(i);
            for value in [c.x[0], c.x[1], c.height, c.error] {
                h = fnv1a(h, &value.to_bits().to_le_bytes());
            }
        }
        assert_eq!(h, 0xb745_c082_46ac_fb01, "Vivaldi bits moved");
    }
}
