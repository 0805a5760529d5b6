//! # via-obs — deterministic observability for the VIA reproduction
//!
//! A dependency-light metrics/tracing layer (std + serde only) threaded
//! through the replay engine, the predictor/tomography fit pipeline, the
//! bandit, and the §5.5 testbed control plane. It is split in two:
//!
//! * **Deterministic core** — counters (`u64`), fixed-bucket histograms
//!   ([`Histogram`]: `u64` bucket counts plus exact extremes), and
//!   structured [`SpanEvent`]s. Everything here is a pure function of the
//!   seeded workload: merging per-worker sinks at a barrier yields
//!   byte-identical [`MetricsSnapshot`]s for every worker count and rerun.
//! * **Wall-clock timing layer** — opt-in aggregated timings measured via
//!   the [`Stopwatch`] facade. Available in memory for operator summaries,
//!   excluded from serialized snapshots so snapshot diffing remains a sound
//!   determinism check.
//!
//! The parallel recording contract mirrors the replay engine's history-cell
//! merge: each worker records into its own [`MetricSink`] (no shared state,
//! no locks), and the sequential barrier merges shard sinks in shard-index
//! order. Because the core's merge algebra is associative and commutative
//! ([`Histogram::merge`]), the partition does not affect the result.

mod hist;
mod prom;
mod snapshot;
mod time;

pub use hist::{
    BucketLut, Buckets, Histogram, HistogramSnapshot, CI_WIDTH, FRACTION, LATENCY_MS, LATENCY_US,
    MAX_BOUNDS, MOS_DELTA, REGRET,
};
pub use prom::to_prometheus;
pub use snapshot::{Counter, MetricsSnapshot, SpanEvent, SpanField, Timing, TimingEntry};
pub use time::Stopwatch;

use std::collections::BTreeMap;

/// An accumulating metric recorder. Cheap to create per worker/shard;
/// recording never locks. Merge sinks at a sequential point and call
/// [`MetricSink::snapshot`] to freeze the result.
#[derive(Debug, Clone, Default)]
pub struct MetricSink {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    spans: Vec<SpanEvent>,
    timings: BTreeMap<String, Timing>,
    timing_enabled: bool,
}

impl MetricSink {
    /// A sink recording only the deterministic core; [`MetricSink::start`]
    /// hands out disabled stopwatches and timing records are dropped.
    pub fn new() -> MetricSink {
        MetricSink::default()
    }

    /// A sink that additionally aggregates wall-clock timings (the opt-in
    /// nondeterministic layer).
    pub fn with_timing() -> MetricSink {
        MetricSink {
            timing_enabled: true,
            ..MetricSink::default()
        }
    }

    /// Whether the wall-clock timing layer is active.
    pub fn timing_enabled(&self) -> bool {
        self.timing_enabled
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Records `v` into the histogram `name`, creating it over `buckets` on
    /// first use. Call sites must pair each name with one preset.
    pub fn observe(&mut self, name: &str, buckets: Buckets, v: f64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::new(buckets);
            h.record(v);
            self.hists.insert(name.to_string(), h);
        }
    }

    /// Emits a structured span event. Only call from sequential code (e.g.
    /// the window barrier): span order and content must not depend on how
    /// work was partitioned across workers.
    pub fn span(&mut self, name: &str, index: u64, fields: &[(&str, u64)]) {
        self.spans.push(SpanEvent {
            name: name.to_string(),
            index,
            fields: fields
                .iter()
                .map(|(k, v)| SpanField {
                    key: (*k).to_string(),
                    value: *v,
                })
                .collect(),
        });
    }

    /// Starts a stopwatch: live when the timing layer is enabled, inert
    /// otherwise. Pair with [`MetricSink::time`].
    pub fn start(&self) -> Stopwatch {
        if self.timing_enabled {
            Stopwatch::started()
        } else {
            Stopwatch::disabled()
        }
    }

    /// Folds the stopwatch's elapsed time into the timing aggregate `name`.
    /// Dropped (not recorded) when the timing layer is disabled.
    pub fn time(&mut self, name: &str, sw: Stopwatch) {
        if !self.timing_enabled {
            return;
        }
        let t = self.timings.entry(name.to_string()).or_default();
        t.count += 1;
        t.total_ms += sw.elapsed_ms();
    }

    /// Folds another sink into this one: counters and histogram buckets
    /// add, spans append in call order, timings add. For the deterministic
    /// core this is associative and commutative, so merging per-worker
    /// sinks in any fixed sequential order reproduces the single-worker
    /// recording exactly.
    pub fn merge(&mut self, other: &MetricSink) {
        for (name, v) in &other.counters {
            self.inc(name, *v);
        }
        for (name, h) in &other.hists {
            if let Some(mine) = self.hists.get_mut(name) {
                mine.merge(h);
            } else {
                self.hists.insert(name.clone(), h.clone());
            }
        }
        self.spans.extend(other.spans.iter().cloned());
        for (name, t) in &other.timings {
            let mine = self.timings.entry(name.clone()).or_default();
            mine.count += t.count;
            mine.total_ms += t.total_ms;
        }
    }

    /// Folds a standalone histogram into the histogram `name`, creating it
    /// by clone on first use. Equivalent to replaying every `observe` call
    /// the histogram absorbed.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        if let Some(mine) = self.hists.get_mut(name) {
            mine.merge(h);
        } else {
            self.hists.insert(name.to_string(), h.clone());
        }
    }

    /// Folds a [`HotSink`]'s slots into this sink under the schema's names.
    /// Untouched slots (zero counters, empty histograms) are skipped, so the
    /// result is identical to a sink whose counters/histograms were created
    /// lazily on first record — byte-identical snapshots either way.
    pub fn fold_hot(&mut self, schema: &HotSchema, hot: &HotSink) {
        for (name, &v) in schema.counters.iter().zip(&hot.counters) {
            if v > 0 {
                self.inc(name, v);
            }
        }
        for ((name, _), h) in schema.hists.iter().zip(&hot.hists) {
            if h.count() > 0 || h.dropped_nonfinite() > 0 {
                self.merge_histogram(name, h);
            }
        }
    }

    /// The current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The live histogram recorded under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// True when nothing has been recorded (timings included).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.hists.is_empty()
            && self.spans.is_empty()
            && self.timings.is_empty()
    }

    /// Freezes the sink into its serializable snapshot. Counters and
    /// histograms come out sorted by name (`BTreeMap` order), spans in
    /// emission order — equal recordings yield byte-equal serializations.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, value)| Counter {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            histograms: self
                .hists
                .iter()
                .map(|(name, h)| HistogramSnapshot::of(name, h))
                .collect(),
            spans: self.spans.clone(),
            timings: self
                .timings
                .iter()
                .map(|(name, t)| TimingEntry {
                    name: name.clone(),
                    timing: *t,
                })
                .collect(),
            app_state: None,
        }
    }
}

/// A fixed registry of hot-path metrics, built once before the hot loop.
/// Each registered counter/histogram gets a dense slot index; workers record
/// through [`HotSink`]s cut from the schema and the barrier folds them back
/// into a [`MetricSink`] by name via [`MetricSink::fold_hot`].
#[derive(Debug, Clone, Default)]
pub struct HotSchema {
    counters: Vec<&'static str>,
    hists: Vec<(&'static str, Buckets)>,
}

impl HotSchema {
    /// An empty schema.
    pub fn new() -> HotSchema {
        HotSchema::default()
    }

    /// Registers a counter and returns its slot index.
    pub fn counter(&mut self, name: &'static str) -> usize {
        debug_assert!(!self.counters.contains(&name), "duplicate slot {name}");
        self.counters.push(name);
        self.counters.len() - 1
    }

    /// Registers a histogram over `buckets` and returns its slot index.
    pub fn histogram(&mut self, name: &'static str, buckets: Buckets) -> usize {
        debug_assert!(
            self.hists.iter().all(|(n, _)| *n != name),
            "duplicate slot {name}"
        );
        self.hists.push((name, buckets));
        self.hists.len() - 1
    }

    /// Allocates an empty sink with one slot per registered metric. All
    /// allocation happens here; recording into the sink is allocation-free.
    pub fn make_sink(&self) -> HotSink {
        HotSink {
            counters: vec![0; self.counters.len()],
            hists: self.hists.iter().map(|(_, b)| Histogram::new(*b)).collect(),
        }
    }
}

/// A slot-indexed recorder for the per-call hot loop: counters are plain
/// `u64` bumps, histogram records go straight to the preset's bucket LUT.
/// No names, no map lookups, no enabled flag for a call site to test; a site
/// whose record costs work to compute may ask [`HotSink::keeps_records`].
/// Whether anything is recorded is decided by the sink itself: one cut from
/// a [`HotSchema`] has a slot per registered metric, the [`Default`] one has
/// none, and a record that finds no slot — every record into the default
/// sink, or a slot index from a different schema (a logic error, not
/// detected) — is dropped. A run with metrics off hands its workers the
/// default sink and leaves the call sites as they are.
#[derive(Debug, Clone, Default)]
pub struct HotSink {
    counters: Vec<u64>,
    hists: Vec<Histogram>,
}

impl HotSink {
    /// Adds `delta` to the counter in `slot`.
    #[inline]
    pub fn inc(&mut self, slot: usize, delta: u64) {
        if let Some(c) = self.counters.get_mut(slot) {
            *c += delta;
        }
    }

    /// Records `v` into the histogram in `slot`.
    #[inline]
    pub fn observe(&mut self, slot: usize, v: f64) {
        if let Some(h) = self.hists.get_mut(slot) {
            h.record(v);
        }
    }

    /// True when the sink has a slot to record into (false for the
    /// [`Default`] sink, which drops every record).
    pub fn keeps_records(&self) -> bool {
        !(self.counters.is_empty() && self.hists.is_empty())
    }

    /// Resets every slot to empty so the sink can be reused for the next
    /// batch without reallocating.
    pub fn clear(&mut self) {
        self.counters.fill(0);
        for h in &mut self.hists {
            *h = Histogram::new(h.buckets());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut s = MetricSink::new();
        assert_eq!(s.counter("x"), 0);
        s.inc("x", 2);
        s.inc("x", 3);
        assert_eq!(s.counter("x"), 5);
        assert_eq!(s.snapshot().counter("x"), 5);
        assert_eq!(s.snapshot().counter("absent"), 0);
    }

    #[test]
    fn sink_merge_matches_single_sink_recording() {
        // Two workers record disjoint halves; the merge must equal one
        // sink that saw everything, regardless of merge order.
        let record = |sink: &mut MetricSink, vals: &[f64]| {
            for &v in vals {
                sink.inc("calls", 1);
                sink.observe("lat", LATENCY_MS, v);
            }
        };
        let mut whole = MetricSink::new();
        record(&mut whole, &[3.0, 40.0, 90.0, 800.0]);

        let (mut a, mut b) = (MetricSink::new(), MetricSink::new());
        record(&mut a, &[3.0, 40.0]);
        record(&mut b, &[90.0, 800.0]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.snapshot(), whole.snapshot());
        assert_eq!(ba.snapshot(), whole.snapshot());
    }

    #[test]
    fn spans_keep_emission_order_and_fields() {
        let mut s = MetricSink::new();
        s.span("w", 0, &[("calls", 7), ("admits", 2)]);
        s.span("w", 1, &[("calls", 5)]);
        let snap = s.snapshot();
        let spans: Vec<_> = snap.spans_named("w").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].fields[0].key, "calls");
        assert_eq!(spans[0].fields[0].value, 7);
        assert_eq!(spans[1].index, 1);
    }

    #[test]
    fn timing_layer_is_opt_in_and_never_serialized() {
        let mut core_only = MetricSink::new();
        let sw = core_only.start();
        core_only.time("t", sw);
        assert!(core_only.is_empty(), "disabled timing must record nothing");

        let mut timed = MetricSink::with_timing();
        let sw = timed.start();
        timed.time("t", sw);
        timed.inc("c", 1);
        let snap = timed.snapshot();
        assert_eq!(snap.timings.len(), 1);

        // Serialized forms are identical whether or not timings were
        // collected — the wall-clock layer never reaches the wire.
        let mut untimed = MetricSink::new();
        untimed.inc("c", 1);
        assert_eq!(
            serde_json::to_string(&snap).ok(),
            serde_json::to_string(&untimed.snapshot()).ok()
        );
        // And a deserialized snapshot carries an empty timing section.
        let back: MetricsSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap_or_default())
                .unwrap_or_default();
        assert!(back.timings.is_empty());
        assert_eq!(back.counter("c"), 1);
    }

    #[test]
    fn hot_sink_fold_matches_direct_recording() {
        let mut schema = HotSchema::new();
        let calls = schema.counter("calls");
        let idle = schema.counter("idle"); // never bumped
        let lat = schema.histogram("lat", LATENCY_MS);
        let unused = schema.histogram("unused", CI_WIDTH); // never observed

        let mut direct = MetricSink::new();
        let mut hot = schema.make_sink();
        for v in [3.0, 40.0, 90.0] {
            hot.inc(calls, 1);
            hot.observe(lat, v);
            direct.inc("calls", 1);
            direct.observe("lat", LATENCY_MS, v);
        }
        let mut folded = MetricSink::new();
        folded.fold_hot(&schema, &hot);
        assert_eq!(folded.snapshot(), direct.snapshot());
        // Untouched slots must not materialize metrics.
        assert_eq!(folded.counter("idle"), 0);
        assert!(folded.histogram("unused").is_none());
        let _ = (idle, unused);

        // Clearing makes the sink reusable: a second batch folds cleanly.
        hot.clear();
        hot.inc(calls, 2);
        hot.observe(lat, 700.0);
        folded.fold_hot(&schema, &hot);
        direct.inc("calls", 2);
        direct.observe("lat", LATENCY_MS, 700.0);
        assert_eq!(folded.snapshot(), direct.snapshot());
    }

    #[test]
    fn default_hot_sink_records_nothing() {
        let mut schema = HotSchema::new();
        let calls = schema.counter("calls");
        let lat = schema.histogram("lat", LATENCY_MS);
        let mut off = HotSink::default();
        assert!(!off.keeps_records() && schema.make_sink().keeps_records());
        off.inc(calls, 1);
        off.observe(lat, 40.0);
        off.clear();
        let mut sink = MetricSink::new();
        sink.fold_hot(&schema, &off);
        assert!(sink.is_empty());
    }

    #[test]
    fn hot_sink_folds_dropped_only_histograms() {
        // A histogram that saw only non-finite values has count == 0 but
        // must still fold so the drop accounting survives the barrier.
        let mut schema = HotSchema::new();
        let lat = schema.histogram("lat", LATENCY_MS);
        let mut hot = schema.make_sink();
        hot.observe(lat, f64::NAN);
        let mut sink = MetricSink::new();
        sink.fold_hot(&schema, &hot);
        let h = sink.histogram("lat").expect("dropped-only hist folds");
        assert_eq!(h.count(), 0);
        assert_eq!(h.dropped_nonfinite(), 1);
    }

    #[test]
    fn snapshot_json_is_stable_across_reruns() {
        let build = || {
            let mut s = MetricSink::new();
            s.inc("b", 2);
            s.inc("a", 1);
            s.observe("h", CI_WIDTH, 3.5);
            s.span("w", 0, &[("n", 1)]);
            serde_json::to_string(&s.snapshot()).unwrap_or_default()
        };
        assert_eq!(build(), build());
        assert!(!build().is_empty());
    }
}
