//! Network segments and their latent performance parameters.
//!
//! The performance model decomposes every end-to-end path into segments
//! (§4.4 of the paper uses the same decomposition for tomography):
//!
//! ```text
//! direct:        access(src) + wan_direct(src, dst)            + access(dst)
//! bounce(r):     access(src) + wan_relay(src,r) + wan_relay(dst,r) + access(dst)
//! transit(r1,r2):access(src) + wan_relay(src,r1) + backbone(r1,r2)
//!                            + wan_relay(dst,r2) + access(dst)
//! ```
//!
//! Each WAN segment carries *static latents* (inflation over the fiber bound,
//! base loss, base jitter) drawn once per world seed, and a *daily episode
//! process* (a two-state Markov chain over days with per-episode severity)
//! that produces the persistence/prevalence structure of §2.4. Access
//! segments model the last mile and are shared by every relaying option for
//! the same endpoint — which is exactly why relaying cannot fix a poor last
//! hop (§2.2).

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use via_model::ids::{AsId, RelayId};
use via_model::seed;

/// A key identifying one segment of the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Segment {
    /// Last-mile + intra-AS component of an endpoint AS.
    Access(AsId),
    /// Public-Internet WAN path between two ASes (direct/default route).
    /// Stored canonically (lo, hi).
    DirectWan(AsId, AsId),
    /// Public-Internet leg between an AS and a relay datacenter.
    RelayWan(AsId, RelayId),
    /// Private backbone segment between two relays. Stored canonically.
    Backbone(RelayId, RelayId),
}

impl Segment {
    /// Canonical direct-WAN segment (order independent).
    pub fn direct(a: AsId, b: AsId) -> Segment {
        if a <= b {
            Segment::DirectWan(a, b)
        } else {
            Segment::DirectWan(b, a)
        }
    }

    /// Canonical backbone segment (order independent).
    pub fn backbone(a: RelayId, b: RelayId) -> Segment {
        if a <= b {
            Segment::Backbone(a, b)
        } else {
            Segment::Backbone(b, a)
        }
    }

    /// A stable 64-bit code for seeding this segment's random streams.
    pub fn seed_code(&self) -> u64 {
        match *self {
            Segment::Access(a) => 0x01_0000_0000 | u64::from(a.0),
            Segment::DirectWan(a, b) => 0x02_0000_0000 | (u64::from(a.0) << 20) | u64::from(b.0),
            Segment::RelayWan(a, r) => 0x03_0000_0000 | (u64::from(a.0) << 20) | u64::from(r.0),
            Segment::Backbone(a, b) => 0x04_0000_0000 | (u64::from(a.0) << 20) | u64::from(b.0),
        }
    }
}

/// The segments traversed by one relaying option, stored inline.
///
/// Every option decomposes into at most five segments (transit:
/// `access + relay-wan + backbone + relay-wan + access`), so the path fits
/// in a fixed-capacity array — the per-call sample path never touches the
/// heap. Returned by `PerfModel::segments_of`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPath {
    segs: [Segment; SegmentPath::MAX],
    len: u8,
    hops: u8,
}

impl SegmentPath {
    /// Maximum number of segments any option decomposes into.
    pub const MAX: usize = 5;

    /// Builds a path from up to [`SegmentPath::MAX`] segments and a relay
    /// hop count. Segments beyond the capacity are ignored (no option
    /// produces them; callers are the perf model's own decompositions).
    pub fn new(segments: &[Segment], hops: u8) -> Self {
        // Pad unused slots with a neutral value; `len` masks them off.
        let mut segs = [Segment::Access(AsId(0)); Self::MAX];
        let len = segments.len().min(Self::MAX);
        segs[..len].copy_from_slice(&segments[..len]);
        Self {
            segs,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`len` is `min`-clamped to `Self::MAX` (= 5) above, so this narrowing can never truncate"
            )]
            len: len as u8,
            hops,
        }
    }

    /// The traversed segments, in path order.
    pub fn segments(&self) -> &[Segment] {
        &self.segs[..usize::from(self.len)]
    }

    /// Number of relay hops (0 direct, 1 bounce, 2 transit), for the fixed
    /// forwarding cost.
    pub fn hops(&self) -> usize {
        usize::from(self.hops)
    }

    /// Number of segments in the path.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True when the path holds no segments.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> IntoIterator for &'a SegmentPath {
    type Item = &'a Segment;
    type IntoIter = std::slice::Iter<'a, Segment>;

    fn into_iter(self) -> Self::IntoIter {
        self.segments().iter()
    }
}

/// Mean performance contribution of one segment at one instant
/// (round-trip, both directions of the call traverse it).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegMetrics {
    /// Round-trip latency contribution in ms.
    pub rtt_ms: f64,
    /// Loss probability contribution in percent.
    pub loss_pct: f64,
    /// Jitter contribution in ms (composed in quadrature).
    pub jitter_ms: f64,
}

impl SegMetrics {
    /// Composes two independent segments in series: RTT adds, loss combines
    /// through complements (1−(1−p)(1−q)), jitter adds in quadrature
    /// (independent delay-variation processes).
    pub fn chain(&self, other: &SegMetrics) -> SegMetrics {
        let p1 = (self.loss_pct / 100.0).clamp(0.0, 1.0);
        let p2 = (other.loss_pct / 100.0).clamp(0.0, 1.0);
        SegMetrics {
            rtt_ms: self.rtt_ms + other.rtt_ms,
            loss_pct: 100.0 * (1.0 - (1.0 - p1) * (1.0 - p2)),
            jitter_ms: (self.jitter_ms.powi(2) + other.jitter_ms.powi(2)).sqrt(),
        }
    }
}

/// How episode-prone a segment is. Drawn per segment from tier-dependent
/// class probabilities; the three classes reproduce the skewed
/// persistence/prevalence distributions of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stability {
    /// ~10 % of segments: long-lived, near-permanent congestion.
    Chronic,
    /// ~25 %: short episodes a few times a month.
    Flaky,
    /// The rest: rare, brief episodes.
    Stable,
}

impl Stability {
    /// Daily probability of entering an episode when currently normal.
    pub fn enter_prob(self) -> f64 {
        match self {
            Stability::Chronic => 0.65,
            Stability::Flaky => 0.12,
            Stability::Stable => 0.025,
        }
    }

    /// Daily probability of remaining in an ongoing episode.
    pub fn stay_prob(self) -> f64 {
        match self {
            Stability::Chronic => 0.85,
            Stability::Flaky => 0.50,
            Stability::Stable => 0.35,
        }
    }
}

/// The daily episode-severity series of one segment.
///
/// `severity[d] ∈ [0, 1]`: 0 means normal operation on day `d`; positive
/// values scale the episode's RTT/loss/jitter penalties. Generated once per
/// segment by walking the Markov chain from day 0, so any query order yields
/// identical results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeSeries {
    severity: Vec<f32>,
}

impl EpisodeSeries {
    /// Walks the two-state chain for `days` days. `world_seed` and the
    /// segment's stable code determine the stream; `stability` sets the
    /// transition probabilities.
    pub fn generate(world_seed: u64, segment: Segment, stability: Stability, days: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed::derive_indexed(
            world_seed,
            "episodes",
            segment.seed_code(),
        ));
        let mut severity = Vec::with_capacity(usize::try_from(days).unwrap_or(0));
        let mut current: f32 = 0.0;
        for _ in 0..days {
            if current == 0.0 {
                if rng.random::<f64>() < stability.enter_prob() {
                    current = rng.random_range(0.25..=1.0);
                }
            } else if rng.random::<f64>() < stability.stay_prob() {
                // Severity drifts a little within an episode.
                let drift: f32 = rng.random_range(-0.1..=0.1);
                current = (current + drift).clamp(0.15, 1.0);
            } else {
                current = 0.0;
            }
            severity.push(current);
        }
        Self { severity }
    }

    /// Severity on day `d`; days beyond the horizon repeat the final day so
    /// queries never panic.
    pub fn on_day(&self, d: u64) -> f64 {
        if self.severity.is_empty() {
            return 0.0;
        }
        let last = self.severity.len() - 1;
        let idx = usize::try_from(d).map_or(last, |d| d.min(last));
        f64::from(self.severity[idx])
    }

    /// Fraction of days with an active episode (the "prevalence" of §2.4).
    pub fn prevalence(&self) -> f64 {
        if self.severity.is_empty() {
            return 0.0;
        }
        self.severity.iter().filter(|&&s| s > 0.0).count() as f64 / self.severity.len() as f64
    }

    /// Median length (in days) of maximal runs of consecutive episode days
    /// (the "persistence" of §2.4). Returns 0.0 when no episodes occur.
    pub fn persistence(&self) -> f64 {
        let mut runs = Vec::new();
        let mut run = 0u64;
        for &s in &self.severity {
            if s > 0.0 {
                run += 1;
            } else if run > 0 {
                runs.push(run as f64);
                run = 0;
            }
        }
        if run > 0 {
            runs.push(run as f64);
        }
        via_model::stats::percentile(&runs, 50.0).unwrap_or(0.0)
    }
}

/// Draws a stability class for a segment given its quality tier (1 best … 4
/// worst) and the configured class fractions. Worse tiers shift probability
/// mass toward `Chronic`/`Flaky`.
pub fn draw_stability(
    rng: &mut StdRng,
    tier: u8,
    chronic_fraction: f64,
    flaky_fraction: f64,
) -> Stability {
    let tier_shift = f64::from(tier.saturating_sub(1)) / 3.0; // 0 (tier1) .. 1 (tier4)
    let p_chronic = chronic_fraction * (0.5 + tier_shift);
    let p_flaky = flaky_fraction * (0.6 + 0.8 * tier_shift);
    let u: f64 = rng.random();
    if u < p_chronic {
        Stability::Chronic
    } else if u < p_chronic + p_flaky {
        Stability::Flaky
    } else {
        Stability::Stable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seg() -> Segment {
        Segment::direct(AsId(3), AsId(7))
    }

    #[test]
    fn segment_canonicalization() {
        assert_eq!(Segment::direct(AsId(7), AsId(3)), seg());
        assert_eq!(
            Segment::backbone(RelayId(5), RelayId(1)),
            Segment::Backbone(RelayId(1), RelayId(5))
        );
    }

    #[test]
    fn seed_codes_distinguish_kinds() {
        let a = Segment::Access(AsId(1)).seed_code();
        let d = Segment::direct(AsId(0), AsId(1)).seed_code();
        let r = Segment::RelayWan(AsId(0), RelayId(1)).seed_code();
        let b = Segment::backbone(RelayId(0), RelayId(1)).seed_code();
        let all = [a, d, r, b];
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn segment_path_is_inline_and_ordered() {
        let segs = [
            Segment::Access(AsId(1)),
            Segment::direct(AsId(1), AsId(2)),
            Segment::Access(AsId(2)),
        ];
        let path = SegmentPath::new(&segs, 0);
        assert_eq!(path.len(), 3);
        assert!(!path.is_empty());
        assert_eq!(path.hops(), 0);
        assert_eq!(path.segments(), &segs);
        let collected: Vec<Segment> = path.into_iter().copied().collect();
        assert_eq!(collected, segs);
        // Oversized input clamps to capacity instead of panicking.
        let many = [Segment::Access(AsId(0)); 9];
        assert_eq!(SegmentPath::new(&many, 2).len(), SegmentPath::MAX);
    }

    #[test]
    fn chain_composition_rules() {
        let a = SegMetrics {
            rtt_ms: 100.0,
            loss_pct: 1.0,
            jitter_ms: 3.0,
        };
        let b = SegMetrics {
            rtt_ms: 50.0,
            loss_pct: 2.0,
            jitter_ms: 4.0,
        };
        let c = a.chain(&b);
        assert_eq!(c.rtt_ms, 150.0);
        // 1 - 0.99*0.98 = 0.0298.
        assert!((c.loss_pct - 2.98).abs() < 1e-9);
        assert!((c.jitter_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn chain_with_zero_is_identity() {
        let a = SegMetrics {
            rtt_ms: 10.0,
            loss_pct: 0.5,
            jitter_ms: 2.0,
        };
        let z = SegMetrics::default();
        let c = a.chain(&z);
        assert!((c.rtt_ms - a.rtt_ms).abs() < 1e-12);
        assert!((c.loss_pct - a.loss_pct).abs() < 1e-9);
        assert!((c.jitter_ms - a.jitter_ms).abs() < 1e-9);
    }

    #[test]
    fn episodes_are_deterministic() {
        let e1 = EpisodeSeries::generate(42, seg(), Stability::Flaky, 30);
        let e2 = EpisodeSeries::generate(42, seg(), Stability::Flaky, 30);
        assert_eq!(e1, e2);
        let e3 = EpisodeSeries::generate(43, seg(), Stability::Flaky, 30);
        assert_ne!(e1, e3, "different world seeds must differ");
    }

    #[test]
    fn chronic_has_higher_prevalence_than_stable() {
        // Average over many segments to wash out noise.
        let mut chronic = 0.0;
        let mut stable = 0.0;
        for i in 0..50 {
            let s = Segment::direct(AsId(i), AsId(i + 1));
            chronic += EpisodeSeries::generate(7, s, Stability::Chronic, 60).prevalence();
            stable += EpisodeSeries::generate(7, s, Stability::Stable, 60).prevalence();
        }
        assert!(
            chronic / 50.0 > 3.0 * (stable / 50.0).max(0.01),
            "chronic {chronic} vs stable {stable}"
        );
    }

    #[test]
    fn on_day_clamps_beyond_horizon() {
        let e = EpisodeSeries::generate(1, seg(), Stability::Chronic, 5);
        assert_eq!(e.on_day(100), e.on_day(4));
    }

    #[test]
    fn persistence_of_known_series() {
        let e = EpisodeSeries {
            severity: vec![0.0, 0.5, 0.5, 0.0, 0.6, 0.0, 0.7, 0.7, 0.7, 0.0],
        };
        // Runs: 2, 1, 3 → median 2.
        assert_eq!(e.persistence(), 2.0);
        assert!((e.prevalence() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn draw_stability_respects_tiers() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut chronic_t4 = 0;
        let mut chronic_t1 = 0;
        for _ in 0..5000 {
            if draw_stability(&mut rng, 4, 0.10, 0.25) == Stability::Chronic {
                chronic_t4 += 1;
            }
            if draw_stability(&mut rng, 1, 0.10, 0.25) == Stability::Chronic {
                chronic_t1 += 1;
            }
        }
        assert!(
            chronic_t4 > 2 * chronic_t1,
            "tier 4 should be chronic far more often ({chronic_t4} vs {chronic_t1})"
        );
    }

    proptest! {
        #[test]
        fn severity_stays_in_unit_range(seed in 0u64..1000, days in 1u64..100) {
            let e = EpisodeSeries::generate(seed, seg(), Stability::Flaky, days);
            for d in 0..days {
                let s = e.on_day(d);
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }

        #[test]
        fn chain_is_commutative(
            r1 in 0f64..500.0, l1 in 0f64..20.0, j1 in 0f64..50.0,
            r2 in 0f64..500.0, l2 in 0f64..20.0, j2 in 0f64..50.0,
        ) {
            let a = SegMetrics { rtt_ms: r1, loss_pct: l1, jitter_ms: j1 };
            let b = SegMetrics { rtt_ms: r2, loss_pct: l2, jitter_ms: j2 };
            let ab = a.chain(&b);
            let ba = b.chain(&a);
            prop_assert!((ab.rtt_ms - ba.rtt_ms).abs() < 1e-9);
            prop_assert!((ab.loss_pct - ba.loss_pct).abs() < 1e-9);
            prop_assert!((ab.jitter_ms - ba.jitter_ms).abs() < 1e-9);
        }

        #[test]
        fn chain_never_exceeds_bounds(
            r1 in 0f64..500.0, l1 in 0f64..100.0, j1 in 0f64..50.0,
            r2 in 0f64..500.0, l2 in 0f64..100.0, j2 in 0f64..50.0,
        ) {
            let a = SegMetrics { rtt_ms: r1, loss_pct: l1, jitter_ms: j1 };
            let b = SegMetrics { rtt_ms: r2, loss_pct: l2, jitter_ms: j2 };
            let c = a.chain(&b);
            prop_assert!(c.loss_pct <= 100.0 + 1e-9);
            prop_assert!(c.loss_pct + 1e-9 >= l1.min(100.0).max(l2.min(100.0)) - 1e-9);
            prop_assert!(c.jitter_ms + 1e-9 >= j1.max(j2));
        }
    }
}
