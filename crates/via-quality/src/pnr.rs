//! Poor Network Rate (PNR) aggregation and improvement accounting.
//!
//! §2.2 of the paper defines the PNR of a call population, per metric, as the
//! fraction of calls whose average value of that metric crosses the poor
//! threshold; the combined criterion counts calls with *at least one* poor
//! metric. §3.2 defines relative improvement of a statistic going from `b`
//! (baseline) to `a` as `100·(b−a)/b`.

use serde::{Deserialize, Serialize};
use via_model::metrics::{Metric, PathMetrics, Thresholds};

/// Which of one call's metrics cross the §2.2 poor thresholds: the one
/// per-call rule every PNR in the workspace is counted with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoorAxes {
    /// RTT at or above [`Thresholds::RTT_MS`].
    pub rtt: bool,
    /// Loss at or above [`Thresholds::LOSS_PCT`].
    pub loss: bool,
    /// Jitter at or above [`Thresholds::JITTER_MS`].
    pub jitter: bool,
}

impl PoorAxes {
    /// The poor axes of one call's metrics.
    #[inline]
    pub fn of(m: &PathMetrics) -> PoorAxes {
        let poor = |metric| Thresholds.is_poor(m, metric);
        PoorAxes {
            rtt: poor(Metric::Rtt),
            loss: poor(Metric::Loss),
            jitter: poor(Metric::Jitter),
        }
    }

    /// Whether the call is poor on one axis.
    #[inline]
    pub fn on(self, m: Metric) -> bool {
        match m {
            Metric::Rtt => self.rtt,
            Metric::Loss => self.loss,
            Metric::Jitter => self.jitter,
        }
    }

    /// Whether the call is poor on at least one axis (the combined
    /// "at least one bad" criterion).
    #[inline]
    pub fn any(self) -> bool {
        self.rtt || self.loss || self.jitter
    }
}

/// PNR of a call population, per metric and combined.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PnrReport {
    /// Number of calls aggregated.
    pub calls: usize,
    /// Fraction of calls with poor RTT.
    pub rtt: f64,
    /// Fraction of calls with poor loss.
    pub loss: f64,
    /// Fraction of calls with poor jitter.
    pub jitter: f64,
    /// Fraction of calls with at least one poor metric.
    pub any: f64,
}

impl PnrReport {
    /// Computes the PNR of a population of per-call metrics.
    pub fn from_calls<'a>(calls: impl IntoIterator<Item = &'a PathMetrics>) -> PnrReport {
        let mut n = 0u64;
        let mut poor = [0u64; 3];
        let mut any = 0u64;
        for m in calls {
            let axes = PoorAxes::of(m);
            n += 1;
            for (count, metric) in poor.iter_mut().zip(Metric::ALL) {
                *count += u64::from(axes.on(metric));
            }
            any += u64::from(axes.any());
        }
        PnrReport::from_counts(n, poor, any)
    }

    /// The PNR of `calls` calls of which `poor[i]` were poor on
    /// `Metric::ALL[i]` and `any` on at least one metric: each count over
    /// `calls`, and all zeros when there are no calls.
    pub fn from_counts(calls: u64, poor: [u64; 3], any: u64) -> PnrReport {
        if calls == 0 {
            return PnrReport::default();
        }
        let f = |c: u64| c as f64 / calls as f64;
        let [rtt, loss, jitter] = poor;
        PnrReport {
            calls: usize::try_from(calls).unwrap_or(usize::MAX),
            rtt: f(rtt),
            loss: f(loss),
            jitter: f(jitter),
            any: f(any),
        }
    }

    /// PNR on one axis.
    pub fn for_metric(&self, m: Metric) -> f64 {
        match m {
            Metric::Rtt => self.rtt,
            Metric::Loss => self.loss,
            Metric::Jitter => self.jitter,
        }
    }
}

/// Relative improvement `100·(b−a)/b` of a statistic that went from `b`
/// (baseline, e.g. default routing) to `a` (treatment, e.g. VIA), as defined
/// in §3.2. Positive means the treatment is better; zero when the baseline
/// is already zero.
pub fn relative_improvement(baseline: f64, treatment: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        100.0 * (baseline - treatment) / baseline
    }
}

/// Per-metric and combined PNR improvements of a treatment over a baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PnrImprovement {
    /// Improvement (%) of the RTT PNR.
    pub rtt: f64,
    /// Improvement (%) of the loss PNR.
    pub loss: f64,
    /// Improvement (%) of the jitter PNR.
    pub jitter: f64,
    /// Improvement (%) of the "at least one bad" PNR.
    pub any: f64,
}

impl PnrImprovement {
    /// Improvement of `treatment` over `baseline`.
    pub fn between(baseline: &PnrReport, treatment: &PnrReport) -> PnrImprovement {
        PnrImprovement {
            rtt: relative_improvement(baseline.rtt, treatment.rtt),
            loss: relative_improvement(baseline.loss, treatment.loss),
            jitter: relative_improvement(baseline.jitter, treatment.jitter),
            any: relative_improvement(baseline.any, treatment.any),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calls() -> Vec<PathMetrics> {
        vec![
            PathMetrics::new(50.0, 0.1, 2.0),   // good
            PathMetrics::new(400.0, 0.1, 2.0),  // poor rtt
            PathMetrics::new(50.0, 3.0, 2.0),   // poor loss
            PathMetrics::new(400.0, 3.0, 20.0), // poor all
        ]
    }

    #[test]
    fn pnr_counts_each_axis() {
        let r = PnrReport::from_calls(calls().iter());
        assert_eq!(r.calls, 4);
        assert_eq!(r.rtt, 0.5);
        assert_eq!(r.loss, 0.5);
        assert_eq!(r.jitter, 0.25);
        assert_eq!(r.any, 0.75);
    }

    #[test]
    fn any_is_at_least_max_axis() {
        let r = PnrReport::from_calls(calls().iter());
        for m in Metric::ALL {
            assert!(r.any >= r.for_metric(m));
        }
    }

    #[test]
    fn empty_population() {
        let r = PnrReport::from_calls([].iter());
        assert_eq!(r.calls, 0);
        assert_eq!(r.any, 0.0);
    }

    #[test]
    fn relative_improvement_formula() {
        assert_eq!(relative_improvement(0.4, 0.2), 50.0);
        assert_eq!(relative_improvement(0.4, 0.4), 0.0);
        assert_eq!(relative_improvement(0.0, 0.1), 0.0);
        // A regression yields a negative improvement.
        assert_eq!(relative_improvement(0.2, 0.4), -100.0);
    }

    #[test]
    fn improvement_between_reports() {
        let base = PnrReport {
            calls: 100,
            rtt: 0.2,
            loss: 0.1,
            jitter: 0.4,
            any: 0.5,
        };
        let treat = PnrReport {
            calls: 100,
            rtt: 0.1,
            loss: 0.1,
            jitter: 0.1,
            any: 0.2,
        };
        let imp = PnrImprovement::between(&base, &treat);
        assert_eq!(imp.rtt, 50.0);
        assert_eq!(imp.loss, 0.0);
        assert_eq!(imp.jitter, 75.0);
        assert_eq!(imp.any, 60.0);
    }
}
