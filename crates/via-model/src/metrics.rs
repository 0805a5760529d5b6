//! Network path performance metrics and the poor-performance thresholds.
//!
//! Each call in the paper's dataset carries three network metrics averaged over
//! the call's duration: round-trip time, packet loss rate, and jitter (§2.1).
//! §2.2 derives thresholds beyond which user-perceived quality degrades
//! markedly: RTT ≥ 320 ms, loss ≥ 1.2 %, jitter ≥ 12 ms. A call is "poor on a
//! metric" if that metric crosses its threshold, and poor on the combined
//! "at least one bad" criterion if any of the three does.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// The three network performance axes tracked per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Round-trip time in milliseconds.
    Rtt,
    /// Packet loss rate in percent (0–100).
    Loss,
    /// Interarrival jitter in milliseconds (RFC 3550 estimator).
    Jitter,
}

impl Metric {
    /// All metrics, in the paper's presentation order.
    pub const ALL: [Metric; 3] = [Metric::Rtt, Metric::Loss, Metric::Jitter];

    /// Unit suffix used when printing values of this metric.
    pub fn unit(self) -> &'static str {
        match self {
            Metric::Rtt => "ms",
            Metric::Loss => "%",
            Metric::Jitter => "ms",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Metric::Rtt => "RTT",
            Metric::Loss => "loss",
            Metric::Jitter => "jitter",
        };
        f.write_str(s)
    }
}

/// Average network performance of one call over one path.
///
/// Semantics follow §2.1 of the paper: values are averages over the whole call
/// (transient spikes are modelled by `via-media` at the packet level but
/// summarized here). Lower is better for every metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathMetrics {
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Packet loss rate in percent (0–100).
    pub loss_pct: f64,
    /// Jitter in milliseconds.
    pub jitter_ms: f64,
}

impl PathMetrics {
    /// Builds a metrics triple, clamping each component to be non-negative
    /// (and loss to at most 100 %). The generative models can occasionally
    /// produce tiny negative excursions through floating-point subtraction;
    /// physical metrics cannot be negative.
    pub fn new(rtt_ms: f64, loss_pct: f64, jitter_ms: f64) -> Self {
        Self {
            rtt_ms: rtt_ms.max(0.0),
            loss_pct: loss_pct.clamp(0.0, 100.0),
            jitter_ms: jitter_ms.max(0.0),
        }
    }

    /// The all-zero (perfect) metrics triple.
    pub const ZERO: PathMetrics = PathMetrics {
        rtt_ms: 0.0,
        loss_pct: 0.0,
        jitter_ms: 0.0,
    };

    /// Component-wise sum; useful for naive path composition in tests.
    /// (The tomography module composes loss and jitter non-linearly; this is
    /// only correct for RTT.)
    pub fn component_sum(&self, other: &PathMetrics) -> PathMetrics {
        PathMetrics::new(
            self.rtt_ms + other.rtt_ms,
            self.loss_pct + other.loss_pct,
            self.jitter_ms + other.jitter_ms,
        )
    }

    /// True if every component is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.rtt_ms.is_finite() && self.loss_pct.is_finite() && self.jitter_ms.is_finite()
    }
}

impl Index<Metric> for PathMetrics {
    type Output = f64;

    fn index(&self, m: Metric) -> &f64 {
        match m {
            Metric::Rtt => &self.rtt_ms,
            Metric::Loss => &self.loss_pct,
            Metric::Jitter => &self.jitter_ms,
        }
    }
}

impl IndexMut<Metric> for PathMetrics {
    fn index_mut(&mut self, m: Metric) -> &mut f64 {
        match m {
            Metric::Rtt => &mut self.rtt_ms,
            Metric::Loss => &mut self.loss_pct,
            Metric::Jitter => &mut self.jitter_ms,
        }
    }
}

impl fmt::Display for PathMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rtt={:.1}ms loss={:.2}% jitter={:.1}ms",
            self.rtt_ms, self.loss_pct, self.jitter_ms
        )
    }
}

/// Poor-performance thresholds from §2.2 of the paper.
///
/// A metric value is *poor* when it is greater than or equal to the threshold.
/// The paper chose them (320 ms RTT, 1.2 % loss, 12 ms jitter) so that
/// roughly the worst 15 % of default-routed calls cross each one, and they
/// align with ITU G.114 / industry guidance. They are constants: every PNR in
/// the workspace counts against the same three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Thresholds;

impl Thresholds {
    /// RTT poor threshold in milliseconds.
    pub const RTT_MS: f64 = 320.0;
    /// Loss poor threshold in percent.
    pub const LOSS_PCT: f64 = 1.2;
    /// Jitter poor threshold in milliseconds.
    pub const JITTER_MS: f64 = 12.0;

    /// Threshold for a single metric axis.
    pub fn for_metric(&self, m: Metric) -> f64 {
        match m {
            Metric::Rtt => Self::RTT_MS,
            Metric::Loss => Self::LOSS_PCT,
            Metric::Jitter => Self::JITTER_MS,
        }
    }

    /// True if `metrics` is poor on the given axis (value ≥ threshold).
    pub fn is_poor(&self, metrics: &PathMetrics, m: Metric) -> bool {
        metrics[m] >= self.for_metric(m)
    }

    /// True if at least one of the three metrics is poor — the combined
    /// criterion the paper calls "at least one bad" (§2.2, Figure 8b).
    pub fn any_poor(&self, metrics: &PathMetrics) -> bool {
        Metric::ALL.iter().any(|&m| self.is_poor(metrics, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps_negative_and_overflow() {
        let m = PathMetrics::new(-5.0, 150.0, -0.1);
        assert_eq!(m.rtt_ms, 0.0);
        assert_eq!(m.loss_pct, 100.0);
        assert_eq!(m.jitter_ms, 0.0);
    }

    #[test]
    fn index_by_metric() {
        let mut m = PathMetrics::new(100.0, 1.0, 5.0);
        assert_eq!(m[Metric::Rtt], 100.0);
        assert_eq!(m[Metric::Loss], 1.0);
        assert_eq!(m[Metric::Jitter], 5.0);
        m[Metric::Jitter] = 9.0;
        assert_eq!(m.jitter_ms, 9.0);
    }

    #[test]
    fn thresholds_match_paper() {
        assert_eq!(Thresholds.for_metric(Metric::Rtt), 320.0);
        assert_eq!(Thresholds.for_metric(Metric::Loss), 1.2);
        assert_eq!(Thresholds.for_metric(Metric::Jitter), 12.0);
    }

    #[test]
    fn poor_is_inclusive_at_threshold() {
        let at = PathMetrics::new(320.0, 0.0, 0.0);
        assert!(Thresholds.is_poor(&at, Metric::Rtt));
        let below = PathMetrics::new(319.999, 0.0, 0.0);
        assert!(!Thresholds.is_poor(&below, Metric::Rtt));
    }

    #[test]
    fn any_poor() {
        let good = PathMetrics::new(50.0, 0.1, 2.0);
        assert!(!Thresholds.any_poor(&good));
        let poor_loss = PathMetrics::new(50.0, 2.0, 2.0);
        assert!(Thresholds.any_poor(&poor_loss));
        let poor_jitter = PathMetrics::new(50.0, 0.1, 12.0);
        assert!(Thresholds.any_poor(&poor_jitter));
    }

    #[test]
    fn component_sum_adds() {
        let a = PathMetrics::new(10.0, 0.5, 1.0);
        let b = PathMetrics::new(20.0, 0.25, 2.0);
        let s = a.component_sum(&b);
        assert_eq!(s.rtt_ms, 30.0);
        assert_eq!(s.loss_pct, 0.75);
        assert_eq!(s.jitter_ms, 3.0);
    }

    #[test]
    fn metric_display_and_units() {
        assert_eq!(Metric::Rtt.to_string(), "RTT");
        assert_eq!(Metric::Loss.unit(), "%");
        assert_eq!(Metric::Jitter.unit(), "ms");
    }
}
