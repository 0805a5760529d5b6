//! The sanctioned wall-clock facade.
//!
//! Crates under `crates/` must not read `Instant::now()` directly — wall-clock
//! reads are inherently nondeterministic, and scattering them makes it
//! impossible to audit which results depend on time. Clippy's
//! `disallowed_methods` enforces this (`crates/clippy.toml`); [`Stopwatch`]
//! is the one blessed way to measure elapsed time, and everything it
//! measures lands in the timing layer that serialized snapshots exclude.

use std::time::Instant;

/// A started (or deliberately inert) wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts a stopwatch reading the real clock.
    #[expect(
        clippy::disallowed_methods,
        reason = "the single sanctioned wall-clock read: everything it feeds stays in the nondeterministic timing layer"
    )]
    pub fn started() -> Stopwatch {
        Stopwatch(Some(Instant::now()))
    }

    /// A stopwatch that never ran; `elapsed_ms` reports 0. Lets callers
    /// thread one code path through timed and untimed configurations.
    pub fn disabled() -> Stopwatch {
        Stopwatch(None)
    }

    /// Milliseconds since the stopwatch started (0 when disabled).
    pub fn elapsed_ms(&self) -> f64 {
        self.0.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_stopwatch_reads_zero() {
        let s = Stopwatch::disabled();
        assert_eq!(s.elapsed_ms(), 0.0);
    }

    #[test]
    fn started_stopwatch_is_monotone() {
        let s = Stopwatch::started();
        let a = s.elapsed_ms();
        let b = s.elapsed_ms();
        assert!(a >= 0.0 && b >= a);
    }
}
