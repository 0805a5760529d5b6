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

use via_model::metrics::PathMetrics;

/// Base rating factor (G.711 default transmission chain).
const R_BASE: f64 = 94.2;
/// Codec + packetization + playout base delay added to the network
/// one-way delay, ms.
const CODEC_DELAY_MS: f64 = 25.0;
/// Playout (jitter) buffer depth as a multiple of the measured jitter.
const JITTER_BUFFER_MULT: f64 = 2.0;
/// Fraction of packets arriving later than the buffer depth per ms of
/// jitter beyond the absorbed amount — converts residual jitter into
/// effective loss.
const LATE_LOSS_PER_MS: f64 = 0.0025;
/// Loss-impairment curve γ₂ (G.711: 30).
const GAMMA2: f64 = 30.0;
/// Loss-impairment curve γ₃ (G.711: 15).
const GAMMA3: f64 = 15.0;

/// Delay impairment `Id` for a one-way delay `d` ms.
pub fn delay_impairment(d_ms: f64) -> f64 {
    let d = d_ms.max(0.0);
    let knee = if d > 177.3 { 0.11 * (d - 177.3) } else { 0.0 };
    0.024 * d + knee
}

/// Loss impairment `Ie` for an effective loss fraction `e ∈ [0, 1]`.
pub fn loss_impairment(e: f64) -> f64 {
    GAMMA2 * (1.0 + GAMMA3 * e.clamp(0.0, 1.0)).ln()
}

/// Maps the R factor to MOS on the standard 1–4.5 scale.
pub fn r_to_mos(r: f64) -> f64 {
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
/// is sized at `JITTER_BUFFER_MULT × jitter`, contributing both delay and
/// (for the jitter the buffer cannot absorb) late-discard loss.
pub fn mos(m: &PathMetrics) -> f64 {
    let one_way = m.rtt_ms / 2.0;
    let buffer_delay = JITTER_BUFFER_MULT * m.jitter_ms;
    let d = one_way + CODEC_DELAY_MS + buffer_delay;

    // Residual late loss: the tail of the jitter distribution beyond the
    // buffer. Approximated as linear in the jitter magnitude.
    let late = (LATE_LOSS_PER_MS * m.jitter_ms).min(0.2);
    let network_loss = (m.loss_pct / 100.0).clamp(0.0, 1.0);
    let e = 1.0 - (1.0 - network_loss) * (1.0 - late);

    let r = R_BASE - delay_impairment(d) - loss_impairment(e);
    r_to_mos(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use via_model::seed::{fnv1a, FNV_BASIS};

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
        let below = delay_impairment(177.0);
        let above = delay_impairment(277.0);
        // Slope below the knee is 0.024/ms; above it 0.134/ms.
        assert!((below - 0.024 * 177.0).abs() < 1e-9);
        assert!((above - (0.024 * 277.0 + 0.11 * (277.0 - 177.3))).abs() < 1e-9);
    }

    #[test]
    fn loss_impairment_matches_g711_curve() {
        assert_eq!(loss_impairment(0.0), 0.0);
        // 5% loss: 30·ln(1+0.75) ≈ 16.79.
        assert!((loss_impairment(0.05) - 30.0 * 1.75f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn r_to_mos_anchors() {
        assert_eq!(r_to_mos(-5.0), 1.0);
        assert_eq!(r_to_mos(150.0), 4.5);
        // R = 93 → MOS ≈ 4.41 (textbook anchor ~4.4).
        let m = r_to_mos(93.0);
        assert!((m - 4.4).abs() < 0.05, "R=93 gave MOS {m}");
        // R = 50 → MOS ≈ 2.58.
        let m50 = r_to_mos(50.0);
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
        let mut h = FNV_BASIS;
        for rtt in [0.0, 40.0, 150.0, 320.0, 600.0, 1200.0] {
            for loss in [0.0, 0.3, 1.2, 5.0, 40.0, 100.0] {
                for jitter in [0.0, 2.0, 12.0, 40.0, 90.0, 200.0] {
                    let s = mos(&PathMetrics::new(rtt, loss, jitter));
                    h = fnv1a(h, &s.to_bits().to_le_bytes());
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
