//! What a replay folds its calls into, in trace order: one
//! [`CallOutcome`] per call and the running [`ReplayAggregate`] (PNR
//! counters, option mix and the FNV-1a outcome digest).

use serde::{Deserialize, Serialize};
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::seed::{fnv1a, FNV_BASIS};
use via_quality::{PnrReport, PoorAxes};

#[cfg(doc)]
use super::{Outcome, ReplayConfig};

/// Outcome of one call under some strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CallOutcome {
    /// Index of the call in the trace.
    pub call_index: u32,
    /// The option the strategy assigned.
    pub option: RelayOption,
    /// Realized end-to-end metrics (access extras included).
    pub metrics: PathMetrics,
}

/// The population figures of a replay: call and option-mix counters, the
/// §2.2 poor-call counters and an order-sensitive digest, folded in the
/// sequential window merge (trace order) — so it is worker-count invariant
/// by construction and byte-identical between the streamed and
/// materialized engines. It is the one place a run's PNR, option mix and
/// relayed fraction come from, whether or not
/// [`ReplayConfig::collect_calls`] kept the per-call [`Outcome::calls`]
/// (off is the bounded-memory paper-scale mode, where materializing a
/// `Vec<CallOutcome>` would defeat streaming).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayAggregate {
    /// Calls replayed.
    pub calls: u64,
    /// Calls sent on the direct path.
    pub direct: u64,
    /// Calls sent through one relay.
    pub bounce: u64,
    /// Calls sent through two relays.
    pub transit: u64,
    /// Calls with poor RTT (the [`PoorAxes`] rule of §2.2).
    pub poor_rtt: u64,
    /// Calls with poor loss.
    pub poor_loss: u64,
    /// Calls with poor jitter.
    pub poor_jitter: u64,
    /// Calls with at least one poor metric.
    pub poor_any: u64,
    /// FNV-1a digest over every call's `(call_index, option, metric bits)`
    /// in trace order — one number that differs if any call's outcome,
    /// option, or position differs.
    pub digest: u64,
}

impl Default for ReplayAggregate {
    fn default() -> Self {
        ReplayAggregate {
            calls: 0,
            direct: 0,
            bounce: 0,
            transit: 0,
            poor_rtt: 0,
            poor_loss: 0,
            poor_jitter: 0,
            poor_any: 0,
            digest: FNV_BASIS,
        }
    }
}

impl ReplayAggregate {
    /// Folds one call outcome in. Must be called in trace order — the
    /// digest is order-sensitive on purpose.
    pub(super) fn update(&mut self, co: &CallOutcome) {
        self.calls += 1;
        if co.option == RelayOption::Direct {
            self.direct += 1;
        } else if co.option.is_bounce() {
            self.bounce += 1;
        } else {
            self.transit += 1;
        }
        let m = &co.metrics;
        let poor = PoorAxes::of(m);
        self.poor_rtt += u64::from(poor.rtt);
        self.poor_loss += u64::from(poor.loss);
        self.poor_jitter += u64::from(poor.jitter);
        self.poor_any += u64::from(poor.any());
        let mut h = self.digest;
        h = fnv1a(h, &co.call_index.to_le_bytes());
        h = fnv1a(h, &co.option.stable_code().to_le_bytes());
        h = fnv1a(h, &m.rtt_ms.to_bits().to_le_bytes());
        h = fnv1a(h, &m.loss_pct.to_bits().to_le_bytes());
        h = fnv1a(h, &m.jitter_ms.to_bits().to_le_bytes());
        self.digest = h;
    }

    /// The PNR this aggregate counted.
    pub fn pnr(&self) -> PnrReport {
        PnrReport::from_counts(
            self.calls,
            [self.poor_rtt, self.poor_loss, self.poor_jitter],
            self.poor_any,
        )
    }

    /// Fractions of calls sent direct / bounced / transited (§5.2 reports
    /// 8 % / 54 % / 38 % for VIA).
    pub fn option_mix(&self) -> (f64, f64, f64) {
        let n = self.calls.max(1) as f64;
        (
            self.direct as f64 / n,
            self.bounce as f64 / n,
            self.transit as f64 / n,
        )
    }

    /// Fraction of calls relayed (non-direct); zero for an empty run.
    pub fn relayed_fraction(&self) -> f64 {
        let n = self.calls.max(1) as f64;
        (self.bounce + self.transit) as f64 / n
    }
}
