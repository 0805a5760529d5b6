//! Poor Network Rate (PNR) aggregation and improvement accounting.
//!
//! §2.2 of the paper defines the PNR of a call population, per metric, as the
//! fraction of calls whose average value of that metric crosses the poor
//! threshold; the combined criterion counts calls with *at least one* poor
//! metric. §3.2 defines relative improvement of a statistic going from `b`
//! (baseline) to `a` as `100·(b−a)/b`.

use serde::{Deserialize, Serialize};
use via_model::metrics::{Metric, PathMetrics, Thresholds};

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
        let mut n = 0usize;
        let mut poor = [0usize; 3];
        let mut any = 0usize;
        for m in calls {
            n += 1;
            let mut this_any = false;
            for (i, &metric) in Metric::ALL.iter().enumerate() {
                if Thresholds.is_poor(m, metric) {
                    poor[i] += 1;
                    this_any = true;
                }
            }
            if this_any {
                any += 1;
            }
        }
        if n == 0 {
            return PnrReport::default();
        }
        let f = |c: usize| c as f64 / n as f64;
        PnrReport {
            calls: n,
            rtt: f(poor[0]),
            loss: f(poor[1]),
            jitter: f(poor[2]),
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
