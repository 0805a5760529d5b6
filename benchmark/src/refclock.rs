//! Reference time: every duration the benchmark reports is divided by how
//! long a small fixed kernel took on the same CPU just before and just after
//! the measured work, then scaled by the kernel's nominal duration.
//!
//! Why: on this shared 2-vCPU guest the same single-threaded work differs by
//! 10–35 % in wall time between back-to-back runs, in slowdowns that last
//! whole seconds and show equally in thread CPU time. A slowdown that long
//! covers a ~0.5 s round and the two kernel runs around it alike, so the
//! ratio cancels it where longer runs, minima and CPU time do not.
//!
//! The kernel has two parts because the slowdowns do not hit all code alike:
//! they take issue slots, so a chain of arithmetic on cache-resident data
//! slows by up to half while a chain of cache misses barely notices. The
//! workloads are a mix of the two and slow by less than the arithmetic part
//! alone (a round +29 % where that part read +48 %), so a run that sat in a
//! slow stretch read a few percent fast. With both parts the kernel slows as
//! the workloads do: over 30-round stretches of all four workloads the
//! ratio's spread fell from 1.1–1.9 % to 0.8–1.1 % (sd; plain wall clock
//! 3.5–8.9 %). Either part alone, or a larger share of misses, tracks worse.

use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on an undisturbed CPU of the host the bounds in
/// `BENCHMARK.json` were measured on. Only a scale: it turns ratios back
/// into seconds, so reported values read like wall-clock figures.
pub const NOMINAL_REF_S: f64 = 0.040;

/// Buffer the arithmetic part's loads walk: 32 Ki × 4 B = 128 KiB, inside L2.
const BUF_WORDS: usize = 32 * 1024;
/// Steps of the arithmetic part, about 18 ms.
const STEPS: u32 = 3_200_000;
/// Cycle the miss part chases: 2 Mi × 4 B = 8 MiB, four times the L2.
const CHASE_WORDS: usize = 2 * 1024 * 1024;
/// Loads of the miss part, about 16 ms.
const CHASE_STEPS: u32 = 200_000;

/// The reference kernel. First xorshift, a load whose address depends on
/// the previous load and one `ln` per step: integer ALU, L2 and FPU in one
/// serial chain, the mix the replay hot path leans on. Then a pointer chase
/// around one random cycle through a buffer the L2 cannot hold: nothing but
/// cache misses, as the engine's map lookups and the trace stream are.
pub struct RefKernel {
    buf: Vec<u32>,
    next: Vec<u32>,
}

impl RefKernel {
    pub fn new() -> RefKernel {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf = (0..BUF_WORDS)
            .map(|_| {
                x = xorshift(x);
                (x >> 32) as u32
            })
            .collect();
        // A shuffled visiting order, linked into a single cycle.
        let mut order: Vec<u32> = (0..CHASE_WORDS as u32).collect();
        for i in (1..CHASE_WORDS).rev() {
            x = xorshift(x);
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; CHASE_WORDS];
        for (i, &at) in order.iter().enumerate() {
            next[at as usize] = order[(i + 1) % CHASE_WORDS];
        }
        RefKernel { buf, next }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut prev = 0u32;
        let mut acc = 0.0f64;
        for _ in 0..STEPS {
            x = xorshift(x);
            let idx = (x as u32 ^ prev) as usize & (BUF_WORDS - 1);
            prev = self.buf[idx];
            acc += (1.0 + f64::from(prev)).ln();
        }
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        black_box((acc, at));
        start.elapsed().as_secs_f64()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One measured round: its wall time, the kernel times bracketing it, and
/// how many units of work (calls) it completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    pub wall_s: f64,
    pub ref_before_s: f64,
    pub ref_after_s: f64,
    pub units: u64,
}

impl Round {
    /// Mean of the two bracketing kernel times.
    pub fn bracket_s(&self) -> f64 {
        0.5 * (self.ref_before_s + self.ref_after_s)
    }

    /// This round's duration in reference seconds.
    pub fn ref_time_s(&self) -> f64 {
        self.wall_s / self.bracket_s() * NOMINAL_REF_S
    }
}

/// Times `work` between two kernel runs. `ref_before_s` is the kernel time
/// the previous call returned as its `ref_after_s`, so consecutive rounds
/// share the kernel run between them; pass `None` to take a fresh one.
pub fn bracketed<T>(
    kernel: &RefKernel,
    ref_before_s: Option<f64>,
    work: impl FnOnce() -> (T, u64),
) -> (T, Round) {
    let ref_before_s = ref_before_s.unwrap_or_else(|| kernel.run());
    let start = Instant::now();
    let (out, units) = work();
    let wall_s = start.elapsed().as_secs_f64();
    let round = Round {
        wall_s,
        ref_before_s,
        ref_after_s: kernel.run(),
        units,
    };
    (out, round)
}

/// Units of work per reference second: the median over rounds of each
/// round's own rate. A round's ratio cancels a slowdown that covers the
/// work and both kernel runs; the host's speed also moves within a round
/// (its correlation time here is about half a second), which leaves each
/// ratio ±6 % of noise, and the median over 30–50 rounds averages that out
/// without letting the rounds a speed change cut through pull the result.
/// Σ wall ÷ Σ kernel steadies as well on these rounds (sd over 30-round
/// stretches 0.7–1.2 % against the median's 0.8–1.1 %) but one interfered
/// round moves it by its share of the run; the median it does not move.
pub fn rate_per_ref_s(rounds: &[Round]) -> f64 {
    let mut rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.units as f64 / r.ref_time_s())
        .collect();
    median(&mut rates)
}

/// Median duration of a round in reference seconds.
pub fn round_ref_time_s(rounds: &[Round]) -> f64 {
    let mut times: Vec<f64> = rounds.iter().map(Round::ref_time_s).collect();
    median(&mut times)
}

/// Units per plain wall-clock second, for readers comparing with a stopwatch.
pub fn rate_per_wall_s(rounds: &[Round]) -> f64 {
    let units: u64 = rounds.iter().map(|r| r.units).sum();
    units as f64 / rounds.iter().map(|r| r.wall_s).sum::<f64>()
}

/// Share of the measured interval spent in the kernel rather than the work.
pub fn ref_share(rounds: &[Round]) -> f64 {
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let kernel: f64 = rounds.iter().map(Round::bracket_s).sum();
    kernel / (wall + kernel)
}

/// Host speed seen by each kernel run (nominal ÷ measured; 1.0 = the host
/// the bounds were measured on, undisturbed): median and interquartile
/// range over the kernel runs of `rounds`.
pub fn host_speed(rounds: &[Round]) -> (f64, f64) {
    let mut speeds: Vec<f64> = rounds
        .first()
        .map(|r| r.ref_before_s)
        .into_iter()
        .chain(rounds.iter().map(|r| r.ref_after_s))
        .map(|s| NOMINAL_REF_S / s)
        .collect();
    speeds.sort_by(f64::total_cmp);
    let q = |p: f64| percentile_sorted(&speeds, p);
    (q(0.5), q(0.75) - q(0.25))
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p` of the samples at or below it. With fewer than `1 / (1 - p)`
/// samples that is the maximum.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns their nearest-rank percentile.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, p)
}

/// Median by nearest rank.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rounds(n: usize, wall_s: f64, ref_s: f64) -> Vec<Round> {
        (0..n)
            .map(|_| Round {
                wall_s,
                ref_before_s: ref_s,
                ref_after_s: ref_s,
                units: 1000,
            })
            .collect()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
    }

    #[test]
    fn a_host_slowdown_that_covers_work_and_kernel_cancels() {
        let base = rate_per_ref_s(&rounds(30, 0.5, NOMINAL_REF_S));
        let slowed = rate_per_ref_s(&rounds(30, 0.5 * 1.3, NOMINAL_REF_S * 1.3));
        assert!(close(base, slowed), "{base} vs {slowed}");
        assert!(
            close(base, 1000.0 / 0.5),
            "nominal host reads as wall clock"
        );
    }

    #[test]
    fn doubling_the_work_alone_halves_the_rate() {
        let base = rate_per_ref_s(&rounds(30, 0.5, NOMINAL_REF_S));
        let doubled = rate_per_ref_s(&rounds(30, 1.0, NOMINAL_REF_S));
        assert!(close(base, 2.0 * doubled), "{base} vs {doubled}");
    }

    #[test]
    fn one_slow_round_moves_the_rate_by_less_than_its_share() {
        // Round 7 of 30 runs on a host ten times slower: work and kernel
        // both scale, so its ratio does not move at all.
        let mut rs = rounds(30, 0.5, NOMINAL_REF_S);
        let base = rate_per_ref_s(&rs);
        rs[7].wall_s *= 10.0;
        rs[7].ref_before_s *= 10.0;
        rs[7].ref_after_s *= 10.0;
        assert!(close(base, rate_per_ref_s(&rs)));
        // The worse case: the slowdown hits the work and neither kernel run.
        // The round is 10/39 of the run's wall time and a wall-clock rate
        // drops by 9/39; the median of the rounds' rates does not move.
        let mut rs = rounds(30, 0.5, NOMINAL_REF_S);
        rs[7].wall_s *= 10.0;
        let moved = (rate_per_ref_s(&rs) / base - 1.0).abs();
        let raw =
            (rate_per_wall_s(&rs) / rate_per_wall_s(&rounds(30, 0.5, NOMINAL_REF_S)) - 1.0).abs();
        assert!(moved < 1.0 / 30.0, "moved {moved}");
        assert!((raw - 9.0 / 39.0).abs() < 1e-9, "raw moved {raw}");
    }

    #[test]
    fn bracketed_rounds_share_the_kernel_run_between_them() {
        let kernel = RefKernel::new();
        let ((), first) = bracketed(&kernel, None, || ((), 1));
        let ((), second) = bracketed(&kernel, Some(first.ref_after_s), || ((), 1));
        assert_eq!(first.ref_after_s, second.ref_before_s);
        assert!(first.ref_before_s > 0.0 && second.ref_after_s > 0.0);
    }

    #[test]
    fn the_kernel_is_deterministic_work_of_about_its_nominal_length() {
        let kernel = RefKernel::new();
        let fastest = (0..5).map(|_| kernel.run()).fold(f64::INFINITY, f64::min);
        // A debug build or a loaded host may be much slower; a kernel that
        // finishes in under a tenth of nominal was optimised away.
        assert!(fastest > NOMINAL_REF_S / 10.0, "kernel ran in {fastest} s");
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 100.0);
        assert_eq!(percentile(&mut v, 0.99), 198.0);
        assert_eq!(percentile(&mut v, 1.0), 200.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        let mut few = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut few), 2.0);
        assert_eq!(
            percentile(&mut few, 0.99),
            3.0,
            "under 100 samples p99 is the max"
        );
    }

    #[test]
    fn host_speed_reads_one_on_the_nominal_host() {
        let (speed, iqr) = host_speed(&rounds(10, 0.5, NOMINAL_REF_S));
        assert!(close(speed, 1.0) && iqr == 0.0);
        let (speed, _) = host_speed(&rounds(10, 0.5, 2.0 * NOMINAL_REF_S));
        assert!(close(speed, 0.5));
    }
}
