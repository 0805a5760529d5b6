//! What a replay folds its calls into, in trace order: one
//! [`CallOutcome`] per call and the running [`ReplayAggregate`] (PNR
//! counters, option mix, metric sums and the FNV-1a outcome digest).

use serde::{Deserialize, Serialize};
use via_model::metrics::{Metric, PathMetrics, Thresholds};
use via_model::options::RelayOption;
use via_quality::PnrReport;

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

/// Running digest + population counters over the replayed calls, updated in
/// the sequential window merge (trace order) — so it is worker-count
/// invariant by construction and byte-identical between the streamed and
/// materialized engines. It is the whole summary when
/// [`ReplayConfig::collect_calls`] is off (the bounded-memory paper-scale
/// mode, where materializing a `Vec<CallOutcome>` would defeat streaming);
/// [`Outcome::pnr`] reads its PNR counters either way.
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
    /// Calls with poor RTT (the [`Thresholds`] of §2.2).
    pub poor_rtt: u64,
    /// Calls with poor loss.
    pub poor_loss: u64,
    /// Calls with poor jitter.
    pub poor_jitter: u64,
    /// Calls with at least one poor metric.
    pub poor_any: u64,
    /// Trace-order sum of realized RTT, ms.
    pub sum_rtt_ms: f64,
    /// Trace-order sum of realized loss, percent.
    pub sum_loss_pct: f64,
    /// Trace-order sum of realized jitter, ms.
    pub sum_jitter_ms: f64,
    /// FNV-1a digest over every call's `(call_index, option, metric bits)`
    /// in trace order — one number that differs if any call's outcome,
    /// option, or position differs.
    pub digest: u64,
}

/// FNV-1a 64-bit offset basis (digest accumulator start).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds bytes into an FNV-1a 64-bit accumulator.
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
            sum_rtt_ms: 0.0,
            sum_loss_pct: 0.0,
            sum_jitter_ms: 0.0,
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
        let mut any = false;
        if Thresholds.is_poor(m, Metric::Rtt) {
            self.poor_rtt += 1;
            any = true;
        }
        if Thresholds.is_poor(m, Metric::Loss) {
            self.poor_loss += 1;
            any = true;
        }
        if Thresholds.is_poor(m, Metric::Jitter) {
            self.poor_jitter += 1;
            any = true;
        }
        if any {
            self.poor_any += 1;
        }
        self.sum_rtt_ms += m.rtt_ms;
        self.sum_loss_pct += m.loss_pct;
        self.sum_jitter_ms += m.jitter_ms;
        let mut h = self.digest;
        h = fnv1a_fold(h, &co.call_index.to_le_bytes());
        h = fnv1a_fold(h, &co.option.stable_code().to_le_bytes());
        h = fnv1a_fold(h, &m.rtt_ms.to_bits().to_le_bytes());
        h = fnv1a_fold(h, &m.loss_pct.to_bits().to_le_bytes());
        h = fnv1a_fold(h, &m.jitter_ms.to_bits().to_le_bytes());
        self.digest = h;
    }

    /// The PNR this aggregate counted.
    pub fn pnr(&self) -> PnrReport {
        let n = self.calls.max(1) as f64;
        PnrReport {
            calls: usize::try_from(self.calls).unwrap_or(usize::MAX),
            rtt: self.poor_rtt as f64 / n,
            loss: self.poor_loss as f64 / n,
            jitter: self.poor_jitter as f64 / n,
            any: self.poor_any as f64 / n,
        }
    }

    /// Mean of one metric across all calls.
    pub fn mean(&self, m: Metric) -> f64 {
        let n = self.calls.max(1) as f64;
        match m {
            Metric::Rtt => self.sum_rtt_ms / n,
            Metric::Loss => self.sum_loss_pct / n,
            Metric::Jitter => self.sum_jitter_ms / n,
        }
    }

    /// Fractions of calls sent direct / bounced / transited.
    pub fn option_mix(&self) -> (f64, f64, f64) {
        let n = self.calls.max(1) as f64;
        (
            self.direct as f64 / n,
            self.bounce as f64 / n,
            self.transit as f64 / n,
        )
    }

    /// Fraction of calls relayed (non-direct).
    pub fn relayed_fraction(&self) -> f64 {
        let n = self.calls.max(1) as f64;
        (self.bounce + self.transit) as f64 / n
    }
}
