//! Spans around the harness's own calls into each layer: name, start, end
//! and the span that caused it, kept in memory and written out as JSON when
//! the run ends. Spans inside the engine are a later change.

use serde::Value;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// All spans of one run; `run_id` is what they share.
#[derive(Debug)]
pub struct SpanLog {
    pub run_id: String,
    pub spans: Vec<Span>,
    origin: Instant,
    enabled: bool,
}

impl SpanLog {
    /// A log that records when `enabled`, and otherwise runs the work
    /// without reading the clock — the untraced run goes through the same
    /// code and pays only a branch.
    pub fn new(run_id: String, enabled: bool) -> SpanLog {
        SpanLog {
            run_id,
            spans: Vec::new(),
            origin: Instant::now(),
            enabled,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off; the traced run alternates rounds to
    /// measure what the spans cost.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn exit(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `work` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        work: impl FnOnce(&mut SpanLog, Option<SpanId>) -> T,
    ) -> T {
        let id = self.enter(name, parent);
        let out = work(self, id);
        self.exit(id);
        out
    }

    /// Self time per span: its duration minus the part of it that its direct
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// The log as a JSON value: the run id and every span with its self time.
    pub fn to_value(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .map(|(s, self_ns)| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    ("self_ns".into(), Value::U64(self_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            ("run_id".into(), Value::Str(self.run_id.clone())),
            ("spans".into(), Value::Seq(spans)),
        ])
    }

    /// Total self time per span name, descending.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut by_name: Vec<(&'static str, u64, usize)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(entry) => {
                    entry.1 += self_ns;
                    entry.2 += 1;
                }
                None => by_name.push((span.name, self_ns, 1)),
            }
        }
        by_name.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        by_name
    }
}

/// See [`SpanLog::self_times_ns`]. Children are clipped to their parent's
/// interval; children of one parent never overlap here, because one thread
/// records them in sequence.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        if let Some(p) = child.parent {
            let parent = &spans[p];
            let covered = child
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(child.start_ns.max(parent.start_ns));
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("run", 0, 1000, None),
            span("round", 100, 600, Some(0)),
            span("select", 150, 250, Some(1)),
            span("select", 300, 450, Some(1)),
            span("round", 600, 900, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![200, 250, 100, 150, 300]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span("p", 100, 200, None), span("c", 150, 400, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![50, 250]);
    }

    #[test]
    fn a_disabled_log_records_nothing_and_still_runs_the_work() {
        let mut log = SpanLog::new("t".into(), false);
        let out = log.scope("outer", None, |log, id| {
            assert!(id.is_none());
            log.scope("inner", id, |_, _| 7)
        });
        assert_eq!(out, 7);
        assert!(log.spans.is_empty());
    }

    #[test]
    fn nested_scopes_record_their_parent_and_group_by_name() {
        let mut log = SpanLog::new("t".into(), true);
        log.scope("outer", None, |log, outer| {
            log.scope("inner", outer, |_, _| ());
            log.scope("inner", outer, |_, _| ());
        });
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[1].parent, Some(0));
        assert!(log.spans[0].end_ns >= log.spans[2].end_ns);
        let by_name = log.self_time_by_name();
        let total: u64 = by_name.iter().map(|e| e.1).sum();
        assert_eq!(total, log.spans[0].duration_ns());
        assert_eq!(
            by_name.iter().find(|e| e.0 == "inner").map(|e| e.2),
            Some(2)
        );
    }
}
