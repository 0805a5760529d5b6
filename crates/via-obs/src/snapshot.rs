//! Serializable snapshot of a [`MetricSink`](crate::MetricSink).
//!
//! The snapshot is the *deterministic core* of the observability layer:
//! everything serialized here is byte-identical across worker counts and
//! reruns of the same seeded workload. Wall-clock timings ride along in
//! memory for operator summaries but are `#[serde(skip)]` — they never
//! reach a serialized snapshot, so snapshot diffing is a sound determinism
//! check.

use serde::{Deserialize, Serialize};

use crate::hist::HistogramSnapshot;

/// One monotonically increasing event count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    /// Metric name (e.g. `replay_calls_total`).
    pub name: String,
    /// Accumulated count.
    pub value: u64,
}

/// One deterministic key/value annotation on a span event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanField {
    /// Field key (e.g. `gate_admitted`).
    pub key: String,
    /// Field value. Only integral values are allowed so span streams stay
    /// byte-stable; durations belong in the wall-clock timing layer.
    pub value: u64,
}

/// A structured event describing one unit of engine progress (for the
/// replay engine: one window). Span events are emitted only from sequential
/// code — the window barrier, not the parallel shards — so their order and
/// content are independent of the worker count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span name (e.g. `replay.window`).
    pub name: String,
    /// Ordinal within the stream of same-named spans (e.g. window index).
    pub index: u64,
    /// Deterministic annotations, in emission order.
    pub fields: Vec<SpanField>,
}

/// Aggregated wall-clock timing for one label — the opt-in nondeterministic
/// layer. Never serialized.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Timing {
    /// Number of timed intervals.
    pub count: u64,
    /// Total elapsed wall-clock time, milliseconds.
    pub total_ms: f64,
}

/// Serializable timing entry (in-memory only; see [`Timing`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingEntry {
    /// Timing label (e.g. `replay.refit`).
    pub name: String,
    /// Aggregated wall-clock numbers.
    pub timing: Timing,
}

/// The full serialized form of a metric sink. Field order is fixed and all
/// sequences are sorted (counters/histograms by name, spans by emission
/// order), so equal recordings serialize to equal bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<Counter>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// All span events, in emission order.
    pub spans: Vec<SpanEvent>,
    /// Wall-clock timings, sorted by label. Excluded from serialization:
    /// two byte-identical snapshots may carry different timings.
    #[serde(skip)]
    pub timings: Vec<TimingEntry>,
    /// Opaque application-state payload riding with the snapshot — e.g. a
    /// controller's serialized selection state, so one snapshot file carries
    /// everything a graceful restart needs. The payload must itself be
    /// deterministic for snapshot diffing to stay a sound determinism check.
    /// `None` (serialized as `null`) unless a producer sets it; replay
    /// snapshots never do.
    pub app_state: Option<String>,
}

impl MetricsSnapshot {
    /// The value of a counter, or 0 if it was never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// The histogram recorded under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// All spans with the given name, in emission order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanEvent> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// One-line human summary: sizes of each section plus total wall time,
    /// for CLI footers.
    pub fn brief(&self) -> String {
        // `Iterator::sum` of `f64` starts at −0.0, which prints as "-0".
        let wall = self
            .timings
            .iter()
            .fold(0.0, |acc, t| acc + t.timing.total_ms);
        format!(
            "{} counters, {} histograms, {} spans, {} timings ({:.0} ms timed)",
            self.counters.len(),
            self.histograms.len(),
            self.spans.len(),
            self.timings.len(),
            wall
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brief_of_an_empty_snapshot_times_zero_ms() {
        let brief = MetricsSnapshot::default().brief();
        assert!(brief.ends_with("(0 ms timed)"), "{brief}");
    }
}
