//! The ITU-T E-model (G.107) as simplified by Cole & Rosenbluth for VoIP
//! monitoring — the MOS model the paper cites (its reference 17) and uses in §2.2.
//!
//! The transmission rating factor `R` starts from a base of 94.2 (G.711
//! defaults) and is reduced by a delay impairment `Id` and an
//! equipment/loss impairment `Ie`:
//!
//! ```text
//! R   = 94.2 − Id − Ie
//! Id  = 0.024·d + 0.11·(d − 177.3)·H(d − 177.3)
//! Ie  = γ₁ + γ₂·ln(1 + γ₃·e)        (G.711: γ = 0, 30, 15)
//! MOS = 1 + 0.035·R + 7·10⁻⁶·R·(R − 60)·(100 − R)   clamped to [1, 4.5]
//! ```
//!
//! where `d` is the one-way mouth-to-ear delay in milliseconds and `e` the
//! effective loss fraction. Jitter enters through the playout buffer: a
//! deeper buffer adds delay, a shallower one discards late packets and adds
//! to the effective loss (§ "jitter mapping" below, following common
//! E-model practice).

use serde::{Deserialize, Serialize};
use via_model::metrics::PathMetrics;

/// Configuration of the E-model evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EModelConfig {
    /// Base rating factor (G.711 default transmission chain).
    pub r_base: f64,
    /// Codec + packetization + playout base delay added to the network
    /// one-way delay, ms.
    pub codec_delay_ms: f64,
    /// Playout (jitter) buffer depth as a multiple of the measured jitter.
    pub jitter_buffer_mult: f64,
    /// Fraction of packets arriving later than the buffer depth per ms of
    /// jitter beyond the absorbed amount — converts residual jitter into
    /// effective loss.
    pub late_loss_per_ms: f64,
    /// Loss-impairment curve γ₂ (G.711: 30).
    pub gamma2: f64,
    /// Loss-impairment curve γ₃ (G.711: 15).
    pub gamma3: f64,
}

impl Default for EModelConfig {
    fn default() -> Self {
        Self {
            r_base: 94.2,
            codec_delay_ms: 25.0,
            jitter_buffer_mult: 2.0,
            late_loss_per_ms: 0.0025,
            gamma2: 30.0,
            gamma3: 15.0,
        }
    }
}

impl EModelConfig {
    /// Delay impairment `Id` for a one-way delay `d` ms.
    pub fn delay_impairment(&self, d_ms: f64) -> f64 {
        let d = d_ms.max(0.0);
        let knee = if d > 177.3 { 0.11 * (d - 177.3) } else { 0.0 };
        0.024 * d + knee
    }

    /// Loss impairment `Ie` for an effective loss fraction `e ∈ [0, 1]`.
    pub fn loss_impairment(&self, e: f64) -> f64 {
        self.gamma2 * (1.0 + self.gamma3 * e.clamp(0.0, 1.0)).ln()
    }

    /// Maps the R factor to MOS on the standard 1–4.5 scale.
    pub fn r_to_mos(&self, r: f64) -> f64 {
        if r <= 0.0 {
            return 1.0;
        }
        if r >= 100.0 {
            return 4.5;
        }
        let mos = 1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r);
        mos.clamp(1.0, 4.5)
    }

    /// Full pipeline: averaged per-call network metrics → MOS.
    ///
    /// The one-way network delay is half the measured RTT. The playout buffer
    /// is sized at `jitter_buffer_mult × jitter`, contributing both delay and
    /// (for the jitter the buffer cannot absorb) late-discard loss.
    pub fn mos(&self, m: &PathMetrics) -> f64 {
        let one_way = m.rtt_ms / 2.0;
        let buffer_delay = self.jitter_buffer_mult * m.jitter_ms;
        let d = one_way + self.codec_delay_ms + buffer_delay;

        // Residual late loss: the tail of the jitter distribution beyond the
        // buffer. Approximated as linear in the jitter magnitude.
        let late = (self.late_loss_per_ms * m.jitter_ms).min(0.2);
        let network_loss = (m.loss_pct / 100.0).clamp(0.0, 1.0);
        let e = 1.0 - (1.0 - network_loss) * (1.0 - late);

        let r = self.r_base - self.delay_impairment(d) - self.loss_impairment(e);
        self.r_to_mos(r)
    }
}

/// Convenience: MOS with the default configuration.
pub fn mos(metrics: &PathMetrics) -> f64 {
    EModelConfig::default().mos(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_network_is_toll_quality() {
        let m = PathMetrics::new(20.0, 0.0, 0.5);
        let s = mos(&m);
        assert!(s > 4.2, "near-perfect call scored {s}");
    }

    #[test]
    fn terrible_network_is_bad() {
        let m = PathMetrics::new(800.0, 10.0, 60.0);
        let s = mos(&m);
        assert!(s < 2.0, "terrible call scored {s}");
    }

    #[test]
    fn delay_impairment_knee_at_177ms() {
        let c = EModelConfig::default();
        let below = c.delay_impairment(177.0);
        let above = c.delay_impairment(277.0);
        // Slope below the knee is 0.024/ms; above it 0.134/ms.
        assert!((below - 0.024 * 177.0).abs() < 1e-9);
        assert!((above - (0.024 * 277.0 + 0.11 * (277.0 - 177.3))).abs() < 1e-9);
    }

    #[test]
    fn loss_impairment_matches_g711_curve() {
        let c = EModelConfig::default();
        assert_eq!(c.loss_impairment(0.0), 0.0);
        // 5% loss: 30·ln(1+0.75) ≈ 16.79.
        assert!((c.loss_impairment(0.05) - 30.0 * 1.75f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn r_to_mos_anchors() {
        let c = EModelConfig::default();
        assert_eq!(c.r_to_mos(-5.0), 1.0);
        assert_eq!(c.r_to_mos(150.0), 4.5);
        // R = 93 → MOS ≈ 4.41 (textbook anchor ~4.4).
        let m = c.r_to_mos(93.0);
        assert!((m - 4.4).abs() < 0.05, "R=93 gave MOS {m}");
        // R = 50 → MOS ≈ 2.58.
        let m50 = c.r_to_mos(50.0);
        assert!((m50 - 2.6).abs() < 0.1, "R=50 gave MOS {m50}");
    }

    #[test]
    fn mos_monotone_in_each_metric() {
        let base = PathMetrics::new(150.0, 0.5, 5.0);
        let worse_rtt = PathMetrics::new(400.0, 0.5, 5.0);
        let worse_loss = PathMetrics::new(150.0, 4.0, 5.0);
        let worse_jit = PathMetrics::new(150.0, 0.5, 30.0);
        let b = mos(&base);
        assert!(mos(&worse_rtt) < b);
        assert!(mos(&worse_loss) < b);
        assert!(mos(&worse_jit) < b);
    }

    #[test]
    fn mos_bits_are_pinned() {
        // The goldens see MOS only through buckets; this is every bit of it
        // over a grid that crosses the 177.3 ms knee, the 0.2 late-loss cap
        // and both MOS clamps, folded FNV-1a into one constant.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for rtt in [0.0, 40.0, 150.0, 320.0, 600.0, 1200.0] {
            for loss in [0.0, 0.3, 1.2, 5.0, 40.0, 100.0] {
                for jitter in [0.0, 2.0, 12.0, 40.0, 90.0, 200.0] {
                    let s = mos(&PathMetrics::new(rtt, loss, jitter));
                    for byte in s.to_bits().to_le_bytes() {
                        h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
        }
        assert_eq!(h, 0xd1f6_402a_5b1c_316f, "E-model bits moved");
    }

    proptest! {
        #[test]
        fn mos_in_valid_range(rtt in 0f64..2000.0, loss in 0f64..100.0, jitter in 0f64..200.0) {
            let s = mos(&PathMetrics::new(rtt, loss, jitter));
            prop_assert!((1.0..=4.5).contains(&s));
        }

        #[test]
        fn mos_never_improves_with_more_loss(rtt in 0f64..600.0, jitter in 0f64..40.0, l1 in 0f64..20.0, l2 in 0f64..20.0) {
            let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
            let a = mos(&PathMetrics::new(rtt, lo, jitter));
            let b = mos(&PathMetrics::new(rtt, hi, jitter));
            prop_assert!(b <= a + 1e-9);
        }
    }
}
