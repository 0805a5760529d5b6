//! RFC 3550 interarrival jitter estimation and the adaptive playout buffer.

use crate::packet::AUDIO_CLOCK_HZ;

/// The interarrival jitter estimator of RFC 3550 §6.4.1.
///
/// For packets `i−1, i` with RTP timestamps `S` and arrival times `R`
/// (both in media-clock units), the transit difference is
/// `D(i−1,i) = (R_i − R_{i−1}) − (S_i − S_{i−1})`, and the running estimate
/// is `J += (|D| − J) / 16`. This is exactly what a Skype-like client
/// reports, so the simulator's jitter numbers mean the same thing as the
/// paper's.
#[derive(Debug, Clone, Default)]
pub struct JitterEstimator {
    j_clock: f64,
    prev: Option<(f64, u32)>, // (arrival_clock, rtp_timestamp)
    samples: u64,
}

impl JitterEstimator {
    /// Fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one received packet: arrival time in milliseconds and RTP
    /// timestamp in media-clock units.
    ///
    /// The RTP timestamp is a modular u32 (it wraps every ~53.7 h at the
    /// 22.05 kHz audio clock), so the inter-packet timestamp delta is taken
    /// with wrapping arithmetic and reinterpreted as `i32` — a wrap between
    /// consecutive packets then yields the small signed step the sender
    /// actually took, not a ±2³² glitch that would saturate the estimate.
    pub fn on_packet(&mut self, arrival_ms: f64, rtp_timestamp: u32) {
        let arrival_clock = arrival_ms / 1_000.0 * f64::from(AUDIO_CLOCK_HZ);
        if let Some((prev_arrival, prev_ts)) = self.prev {
            let ts_step = f64::from(rtp_timestamp.wrapping_sub(prev_ts) as i32);
            let d = (arrival_clock - prev_arrival) - ts_step;
            self.j_clock += (d.abs() - self.j_clock) / 16.0;
            self.samples += 1;
        }
        self.prev = Some((arrival_clock, rtp_timestamp));
    }

    /// Current jitter estimate, in milliseconds.
    pub fn jitter_ms(&self) -> f64 {
        self.j_clock / f64::from(AUDIO_CLOCK_HZ) * 1_000.0
    }

    /// Number of interarrival samples folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Playout margin as a multiple of estimated jitter.
const DEPTH_MULT: f64 = 2.0;
/// Minimum playout margin, ms.
const MIN_DEPTH_MS: f64 = 10.0;
/// Maximum playout margin, ms.
const MAX_DEPTH_MS: f64 = 200.0;

/// An adaptive playout (jitter) buffer.
///
/// The receiver delays playout by a margin proportional to the current
/// jitter estimate; packets arriving after their playout deadline are
/// discarded (late loss). The margin adapts slowly, as real implementations
/// do between talkspurts.
#[derive(Debug, Clone)]
pub struct JitterBuffer {
    current_depth_ms: f64,
    late: u64,
    played: u64,
}

impl JitterBuffer {
    /// Standard adaptive buffer: margin = 2× jitter, clamped to 10–200 ms.
    pub fn new() -> Self {
        Self {
            current_depth_ms: MIN_DEPTH_MS,
            late: 0,
            played: 0,
        }
    }

    /// Offers a packet that arrived `lateness_ms` after the *earliest*
    /// possible arrival (i.e. its queueing component: delay − min delay so
    /// far). Returns true if played, false if discarded as late. The margin
    /// adapts toward `DEPTH_MULT × jitter_estimate_ms`.
    pub fn offer(&mut self, lateness_ms: f64, jitter_estimate_ms: f64) -> bool {
        let target = (DEPTH_MULT * jitter_estimate_ms).clamp(MIN_DEPTH_MS, MAX_DEPTH_MS);
        // Slow adaptation: 5% per packet toward the target.
        self.current_depth_ms += 0.05 * (target - self.current_depth_ms);
        if lateness_ms <= self.current_depth_ms {
            self.played += 1;
            true
        } else {
            self.late += 1;
            false
        }
    }

    /// Current playout margin, ms.
    pub fn depth_ms(&self) -> f64 {
        self.current_depth_ms
    }

    /// Fraction of offered packets discarded as late.
    pub fn late_fraction(&self) -> f64 {
        let total = self.late + self.played;
        if total == 0 {
            0.0
        } else {
            self.late as f64 / total as f64
        }
    }

    /// Packets played.
    pub fn played(&self) -> u64 {
        self.played
    }

    /// Packets discarded late.
    pub fn late(&self) -> u64 {
        self.late
    }
}

impl Default for JitterBuffer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_model::seed::{fnv1a, FNV_BASIS};

    #[test]
    fn constant_spacing_yields_zero_jitter() {
        let mut j = JitterEstimator::new();
        for i in 0..100u32 {
            // 20 ms apart, timestamps 160 units apart: perfectly smooth.
            j.on_packet(f64::from(i) * 20.0, i * 160);
        }
        assert!(j.jitter_ms() < 1e-9);
        assert_eq!(j.samples(), 99);
    }

    #[test]
    fn alternating_offsets_converge_to_expected_jitter() {
        // Arrivals alternate ±5 ms around the nominal 20 ms grid: every
        // interarrival differs from nominal by 10 ms → J → 10 ms.
        let mut j = JitterEstimator::new();
        for i in 0..2_000u32 {
            let offset = if i % 2 == 0 { -5.0 } else { 5.0 };
            j.on_packet(f64::from(i) * 20.0 + offset, i * 160);
        }
        let est = j.jitter_ms();
        assert!((est - 10.0).abs() < 0.5, "estimate {est}");
    }

    #[test]
    fn timestamp_wraparound_is_not_jitter() {
        // A perfectly smooth stream whose RTP timestamps cross u32::MAX:
        // 20 ms apart, 160 ticks apart, starting just below the wrap point.
        // The broken (f64-subtraction) estimator saw one −2³² transit jump
        // here and pinned the estimate at ~hours of jitter.
        let mut j = JitterEstimator::new();
        let start = u32::MAX - 160 * 50;
        for i in 0..100u32 {
            j.on_packet(f64::from(i) * 20.0, start.wrapping_add(i * 160));
        }
        assert!(
            j.jitter_ms() < 1e-9,
            "wrap leaked into estimate: {}",
            j.jitter_ms()
        );
        assert_eq!(j.samples(), 99);
    }

    #[test]
    fn real_jitter_still_measured_across_the_wrap() {
        // The ±5 ms alternating pattern must read ~10 ms whether or not the
        // timestamps wrap mid-stream.
        let mut j = JitterEstimator::new();
        let start = u32::MAX - 160 * 1_000;
        for i in 0..2_000u32 {
            let offset = if i % 2 == 0 { -5.0 } else { 5.0 };
            j.on_packet(f64::from(i) * 20.0 + offset, start.wrapping_add(i * 160));
        }
        let est = j.jitter_ms();
        assert!((est - 10.0).abs() < 0.5, "estimate {est}");
    }

    #[test]
    fn estimator_ignores_media_gaps() {
        // A silence gap (timestamp jump matching the arrival gap) is not
        // jitter.
        let mut j = JitterEstimator::new();
        j.on_packet(0.0, 0);
        j.on_packet(20.0, 160);
        j.on_packet(1_020.0, 160 + 8_000); // 1 s silence, consistent
        assert!(j.jitter_ms() < 1e-9);
    }

    #[test]
    fn buffer_plays_on_time_packets() {
        let mut b = JitterBuffer::new();
        for _ in 0..100 {
            assert!(b.offer(2.0, 5.0));
        }
        assert_eq!(b.late(), 0);
        assert_eq!(b.played(), 100);
        assert_eq!(b.late_fraction(), 0.0);
    }

    #[test]
    fn buffer_discards_very_late_packets() {
        let mut b = JitterBuffer::new();
        // Let the margin settle around 2×5 = 10ms → min clamp 10ms.
        for _ in 0..200 {
            b.offer(1.0, 5.0);
        }
        assert!(!b.offer(500.0, 5.0), "a 500 ms-late packet must be dropped");
        assert!(b.late_fraction() > 0.0);
    }

    #[test]
    fn buffer_adapts_to_jitter() {
        let mut b = JitterBuffer::new();
        for _ in 0..500 {
            b.offer(0.0, 40.0);
        }
        assert!(
            (b.depth_ms() - 80.0).abs() < 5.0,
            "depth {} should approach 2×40",
            b.depth_ms()
        );
        // And clamps at the max.
        for _ in 0..500 {
            b.offer(0.0, 500.0);
        }
        assert!(b.depth_ms() <= 200.0 + 1e-9);
    }

    #[test]
    fn buffer_depth_bits_at_the_clamp_edges_are_pinned() {
        // Jitter estimates either side of the 10 ms floor (2 × 5) and the
        // 200 ms ceiling (2 × 100), 40 packets each so the 5 % adaptation
        // is mid-flight at every switch; every depth and verdict folded
        // FNV-1a into one constant.
        let mut b = JitterBuffer::new();
        let mut h = FNV_BASIS;
        for jitter in [0.0, 4.9, 5.0, 5.1, 40.0, 99.9, 100.0, 100.1, 500.0, 3.0] {
            for i in 0..40u32 {
                let played = b.offer(f64::from(i % 8) * 6.0, jitter);
                h = fnv1a(h, &[u8::from(played)]);
                h = fnv1a(h, &b.depth_ms().to_bits().to_le_bytes());
            }
        }
        assert_eq!((b.played(), b.late()), (275, 125));
        assert_eq!(h, 0xdbda_f181_f89b_2e47, "jitter buffer bits moved");
    }
}
