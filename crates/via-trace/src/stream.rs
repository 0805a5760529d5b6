//! Streaming window pipeline: chronologically-contiguous call batches with
//! bounded lookahead, independent of how the trace is stored.
//!
//! The replay engine (via-core) advances one control window at a time; only
//! the window being processed needs to be resident. [`WindowStream`] turns
//! any [`RecordSource`] — a materialized [`Trace`], a JSONL file, a binary
//! `.vbt` file, or the trace generator itself — into a sequence of
//! [`WindowBatch`]es, holding at most one window plus a single lookahead
//! record in memory. Batch buffers are recycled through the stream
//! ([`WindowStream::recycle`]) so steady-state replay allocates nothing per
//! window.
//!
//! Chronology is validated incrementally as records flow: replay depends on
//! nondecreasing timestamps, and a streaming consumer cannot afford the
//! up-front O(n) scan a materialized trace gets. An out-of-order record is a
//! hard error ([`TraceError::NotChronological`]), never silently re-sorted.

// Bytes and ids from outside the program enter here: no index may panic.
#![deny(clippy::indexing_slicing)]
// The streamed replay's per-record path: no cast may truncate silently.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::path::Path;

use via_model::time::{SimTime, Window, WindowLen};

use crate::binfmt::BinReader;
use crate::error::TraceError;
use crate::io::JsonlReader;
use crate::record::{CallRecord, Trace};
use crate::workload::GenRecords;

/// Batch buffers kept for reuse; beyond this, recycled buffers are dropped.
const SPARE_BUFFERS: usize = 4;

/// A source of chronologically ordered call records, consumed one at a time.
///
/// Implementations exist for materialized traces ([`TraceRecords`]), JSONL
/// files ([`JsonlReader`]), binary files ([`BinReader`]), either file behind
/// [`FileSource`], and lazy generation ([`GenRecords`]). The trait carries
/// the trace provenance (seed, horizon) so a streaming consumer can seed its
/// per-call random streams without ever seeing the whole trace. A file
/// source's [`RecordSource::size_hint`] is its header's count, checked
/// against the file's length at open.
pub trait RecordSource {
    /// The next record, or `None` at the end of the source.
    fn next_record(&mut self) -> Result<Option<CallRecord>, TraceError>;

    /// Seed the trace was generated with.
    fn seed(&self) -> u64;

    /// Trace horizon in days.
    fn days(&self) -> u64;

    /// Total records this source will yield, when known up front.
    fn size_hint(&self) -> Option<u64> {
        None
    }

    /// Bytes consumed from backing storage so far; zero for sources that
    /// are not file-backed.
    fn bytes_read(&self) -> u64 {
        0
    }
}

/// Record source over a materialized [`Trace`] — the adapter that lets the
/// streamed replay path and the classic in-memory path share one engine.
pub struct TraceRecords<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl<'a> TraceRecords<'a> {
    /// Streams `trace`'s records in order.
    pub fn new(trace: &'a Trace) -> Self {
        TraceRecords { trace, pos: 0 }
    }
}

impl RecordSource for TraceRecords<'_> {
    fn next_record(&mut self) -> Result<Option<CallRecord>, TraceError> {
        let r = self.trace.records.get(self.pos).cloned();
        if r.is_some() {
            self.pos += 1;
        }
        Ok(r)
    }

    fn seed(&self) -> u64 {
        self.trace.seed
    }

    fn days(&self) -> u64 {
        self.trace.days
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.trace.records.len() as u64)
    }
}

impl RecordSource for GenRecords<'_> {
    fn next_record(&mut self) -> Result<Option<CallRecord>, TraceError> {
        Ok(GenRecords::next_record(self))
    }

    fn seed(&self) -> u64 {
        GenRecords::seed(self)
    }

    fn days(&self) -> u64 {
        GenRecords::days(self)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.record_count())
    }
}

/// A file-backed record source, dispatched by extension: `.jsonl` or `.vbt`
/// — the one way a trace file is read.
pub enum FileSource {
    /// JSON Lines trace.
    Jsonl(JsonlReader),
    /// Binary trace.
    Binary(BinReader),
}

impl FileSource {
    /// Opens a trace file for streaming, picking the format from the
    /// extension.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("jsonl") => Ok(FileSource::Jsonl(JsonlReader::open(path)?)),
            Some("vbt") => Ok(FileSource::Binary(BinReader::open(path)?)),
            _ => Err(TraceError::UnknownFormat(path.to_path_buf())),
        }
    }
}

impl RecordSource for FileSource {
    fn next_record(&mut self) -> Result<Option<CallRecord>, TraceError> {
        match self {
            FileSource::Jsonl(s) => s.next_record(),
            FileSource::Binary(s) => s.next_record(),
        }
    }

    fn seed(&self) -> u64 {
        match self {
            FileSource::Jsonl(s) => s.seed(),
            FileSource::Binary(s) => s.seed(),
        }
    }

    fn days(&self) -> u64 {
        match self {
            FileSource::Jsonl(s) => s.days(),
            FileSource::Binary(s) => s.days(),
        }
    }

    fn size_hint(&self) -> Option<u64> {
        match self {
            FileSource::Jsonl(s) => s.size_hint(),
            FileSource::Binary(s) => s.size_hint(),
        }
    }

    fn bytes_read(&self) -> u64 {
        match self {
            FileSource::Jsonl(s) => s.bytes_read(),
            FileSource::Binary(s) => s.bytes_read(),
        }
    }
}

/// One control window's worth of contiguous records.
#[derive(Debug)]
pub struct WindowBatch {
    /// The control window every record in this batch falls into.
    pub window: Window,
    /// Absolute (trace-order) index of the first record in the batch.
    pub base: u64,
    /// The records, in chronological order.
    pub records: Vec<CallRecord>,
}

/// Re-windows a record stream into chronologically-contiguous batches, one
/// control window per batch. Empty windows (no calls) yield no batch — the
/// consumer sees the gap in [`WindowBatch::window`] indices.
///
/// Memory: one batch under construction, one lookahead record (the first
/// record of the *next* window, which reveals the current window's end), and
/// up to four recycled buffers (`SPARE_BUFFERS`).
pub struct WindowStream<S> {
    source: S,
    window_len: WindowLen,
    pending: Option<CallRecord>,
    last_t: Option<SimTime>,
    next_base: u64,
    /// Records pulled from the source so far (for error positions).
    pulled: u64,
    spare: Vec<Vec<CallRecord>>,
    done: bool,
}

impl<S: RecordSource> WindowStream<S> {
    /// Streams `source` re-windowed by `window_len`.
    pub fn new(source: S, window_len: WindowLen) -> Self {
        WindowStream {
            source,
            window_len,
            pending: None,
            last_t: None,
            next_base: 0,
            pulled: 0,
            spare: Vec::new(),
            done: false,
        }
    }

    /// The underlying source (e.g. to read `bytes_read` after streaming).
    pub fn source(&self) -> &S {
        &self.source
    }

    /// The control window length batches are cut to.
    pub fn window_len(&self) -> WindowLen {
        self.window_len
    }

    /// Records yielded so far across all batches.
    pub fn records_yielded(&self) -> u64 {
        self.next_base
    }

    /// Returns a batch's buffer to the stream for reuse by a later
    /// [`Self::next_batch`], keeping steady-state streaming allocation-free.
    pub fn recycle(&mut self, batch: WindowBatch) {
        let mut buf = batch.records;
        if self.spare.len() < SPARE_BUFFERS {
            buf.clear();
            self.spare.push(buf);
        }
    }

    /// The next window's batch, or `None` once the source is exhausted.
    /// Verifies chronology incrementally; an out-of-order record is an error.
    pub fn next_batch(&mut self) -> Result<Option<WindowBatch>, TraceError> {
        if self.done && self.pending.is_none() {
            return Ok(None);
        }
        let first = match self.pending.take() {
            Some(r) => r,
            None => match self.pull()? {
                Some(r) => r,
                None => return Ok(None),
            },
        };
        let window = self.window_len.window_of(first.t);
        let mut records = self.spare.pop().unwrap_or_default();
        records.push(first);
        while let Some(r) = self.pull()? {
            if self.window_len.window_of(r.t).index != window.index {
                self.pending = Some(r);
                break;
            }
            records.push(r);
        }
        let base = self.next_base;
        self.next_base += records.len() as u64;
        Ok(Some(WindowBatch {
            window,
            base,
            records,
        }))
    }

    /// Pulls one record from the source, enforcing chronological order.
    fn pull(&mut self) -> Result<Option<CallRecord>, TraceError> {
        if self.done {
            return Ok(None);
        }
        match self.source.next_record()? {
            None => {
                self.done = true;
                Ok(None)
            }
            Some(r) => {
                if let Some(prev_t) = self.last_t {
                    if r.t < prev_t {
                        return Err(TraceError::NotChronological {
                            index: self.pulled,
                            prev_t,
                            next_t: r.t,
                        });
                    }
                }
                self.last_t = Some(r.t);
                self.pulled += 1;
                Ok(Some(r))
            }
        }
    }
}

impl<S: RecordSource> Iterator for WindowStream<S> {
    type Item = Result<WindowBatch, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_batch().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{TraceConfig, TraceGenerator};
    use crate::{save_trace, write_trace};
    use via_netsim::{World, WorldConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("via-trace-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn collect_batches<S: RecordSource>(
        mut stream: WindowStream<S>,
    ) -> Vec<(u64, u64, Vec<CallRecord>)> {
        let mut out = Vec::new();
        while let Some(b) = stream.next_batch().unwrap() {
            out.push((b.window.index, b.base, b.records));
        }
        out
    }

    #[test]
    fn windows_are_contiguous_and_complete() {
        let world = World::generate(&WorldConfig::tiny(), 17);
        let generator = TraceGenerator::new(&world, TraceConfig::tiny(), 17);
        let trace = generator.generate();
        let len = WindowLen::hours(6);
        let batches = collect_batches(WindowStream::new(TraceRecords::new(&trace), len));

        let mut reassembled = Vec::new();
        let mut next_base = 0u64;
        let mut last_window = None;
        for (window, base, records) in batches {
            assert_eq!(base, next_base, "batch bases must be contiguous");
            next_base += records.len() as u64;
            assert!(last_window.is_none_or(|w| w < window), "windows ascend");
            last_window = Some(window);
            for r in &records {
                assert_eq!(len.window_of(r.t).index, window);
            }
            reassembled.extend(records);
        }
        assert_eq!(reassembled, trace.records);
    }

    #[test]
    fn all_sources_yield_identical_windows() {
        let world = World::generate(&WorldConfig::tiny(), 18);
        let generator = TraceGenerator::new(&world, TraceConfig::tiny(), 18);
        let trace = generator.generate();
        let jsonl = tmp("sources.jsonl");
        let vbt = tmp("sources.vbt");
        save_trace(&trace, &jsonl).unwrap();
        // Odd on-disk framing: the stream must re-window to the control
        // period regardless of how frames were cut.
        write_trace(TraceRecords::new(&trace), &vbt, WindowLen::hours(7)).unwrap();

        let len = WindowLen::DAY;
        let from_trace = collect_batches(WindowStream::new(TraceRecords::new(&trace), len));
        let from_gen = collect_batches(WindowStream::new(generator.stream(), len));
        let from_jsonl =
            collect_batches(WindowStream::new(JsonlReader::open(&jsonl).unwrap(), len));
        let from_bin = collect_batches(WindowStream::new(BinReader::open(&vbt).unwrap(), len));
        let from_file = collect_batches(WindowStream::new(FileSource::open(&vbt).unwrap(), len));

        assert_eq!(from_trace, from_gen);
        assert_eq!(from_trace, from_jsonl);
        assert_eq!(from_trace, from_bin);
        assert_eq!(from_trace, from_file);
        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&vbt).ok();
    }

    #[test]
    fn non_chronological_source_is_rejected() {
        let world = World::generate(&WorldConfig::tiny(), 19);
        let mut trace = TraceGenerator::new(&world, TraceConfig::tiny(), 19).generate();
        trace.records.swap(5, 800);
        let trace = Trace::new(trace.seed, trace.days, trace.records);
        let mut stream = WindowStream::new(TraceRecords::new(&trace), WindowLen::DAY);
        let mut err = None;
        loop {
            match stream.next_batch() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(err, Some(TraceError::NotChronological { .. })),
            "out-of-order records must fail loudly: {err:?}"
        );
    }

    #[test]
    fn recycled_buffers_are_reused() {
        let world = World::generate(&WorldConfig::tiny(), 20);
        let generator = TraceGenerator::new(&world, TraceConfig::tiny(), 20);
        let mut stream = WindowStream::new(generator.stream(), WindowLen::DAY);
        let first = stream.next_batch().unwrap().unwrap();
        let expected_cap = first.records.capacity();
        let mut total = first.records.len();
        stream.recycle(first);
        while let Some(b) = stream.next_batch().unwrap() {
            assert!(
                b.records.capacity() >= expected_cap.min(b.records.len()),
                "recycled buffer should carry its capacity forward"
            );
            total += b.records.len();
            stream.recycle(b);
        }
        assert_eq!(total as u64, stream.records_yielded());
        assert_eq!(stream.records_yielded(), generator.record_count());
    }

    #[test]
    fn unknown_extension_is_rejected() {
        let Err(err) = FileSource::open(Path::new("/tmp/trace.parquet")) else {
            panic!("unknown extension must be rejected");
        };
        assert!(matches!(err, TraceError::UnknownFormat(_)));
    }
}
