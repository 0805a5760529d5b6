//! Trace serialization: JSON Lines persistence for call traces.
//!
//! Traces regenerate deterministically from a seed, so persistence is a
//! convenience (sharing a trace between experiment runs, inspecting records
//! with standard tooling) rather than a necessity. The format is one JSON
//! object per line — streamable, appendable, and diffable.
//!
//! Reading is line-streamed: [`JsonlReader`] is a [`RecordSource`] that
//! yields one record at a time with exact error positions (1-based line
//! number and the byte offset of the offending line), and never holds more
//! than one line in memory; a line longer than any record is an error, not
//! an allocation. Files are opened through
//! [`crate::stream::FileSource`] and written through [`crate::write_trace`];
//! every failure is a [`TraceError`] variant.

// Bytes and ids from outside the program enter here: no index may panic.
#![deny(clippy::indexing_slicing)]

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::TraceError;
use crate::record::CallRecord;
use crate::stream::RecordSource;

/// Header line: trace provenance, written as the first line of the file.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub(crate) struct JsonlHeader {
    /// Seed the trace was generated with.
    pub seed: u64,
    /// Trace horizon in days.
    pub days: u64,
    /// Number of records that follow.
    pub records: u64,
}

/// Streaming JSON Lines writer: the header goes out first (the record count
/// must therefore be known up front — trace generation is exact-count, and
/// conversions read it from the source header), then one record per `push`.
/// Only the line being written is ever buffered.
pub(crate) struct JsonlWriter {
    w: BufWriter<File>,
    expected: u64,
    written: u64,
}

impl JsonlWriter {
    /// Creates the file and writes the header line.
    pub(crate) fn create(
        path: &Path,
        seed: u64,
        days: u64,
        records: u64,
    ) -> Result<Self, TraceError> {
        let mut w = BufWriter::new(File::create(path)?);
        let header = JsonlHeader {
            seed,
            days,
            records,
        };
        serde_json::to_writer(&mut w, &header).map_err(|e| TraceError::Encode(e.to_string()))?;
        w.write_all(b"\n")?;
        Ok(JsonlWriter {
            w,
            expected: records,
            written: 0,
        })
    }

    /// Appends one record line.
    pub(crate) fn push(&mut self, r: &CallRecord) -> Result<(), TraceError> {
        serde_json::to_writer(&mut self.w, r).map_err(|e| TraceError::Encode(e.to_string()))?;
        self.w.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    /// Flushes and verifies the record count matches the header, so a file
    /// produced by a streaming writer is never silently short.
    pub(crate) fn finish(mut self) -> Result<u64, TraceError> {
        self.w.flush()?;
        if self.written != self.expected {
            return Err(TraceError::Encode(format!(
                "header promised {} records but {} were written",
                self.expected, self.written
            )));
        }
        Ok(self.written)
    }
}

/// The longest line a JSONL trace may hold, newline included. The widest
/// legal record — every id at its maximum, every float at its longest
/// rendering — takes under half of it (pinned by a test), so a longer line
/// is not a record, and reading no further than this keeps a newline-free
/// file from costing its own length in memory.
const MAX_LINE: usize = 8 << 10;

/// Reads the line numbered `line` (1-based), which starts at byte `offset`,
/// into `buf`, newline included; `None` at end of file. At most
/// `MAX_LINE + 1` bytes are read, so a longer line is a
/// [`TraceError::Parse`] that cost no more memory than a legal one; so is
/// a line that is not UTF-8.
fn read_line<'b>(
    reader: &mut BufReader<File>,
    buf: &'b mut Vec<u8>,
    line: usize,
    offset: u64,
) -> Result<Option<&'b str>, TraceError> {
    buf.clear();
    let n = reader.take(MAX_LINE as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    let parse_error = |msg: String| TraceError::Parse {
        line,
        byte_offset: offset,
        msg,
    };
    if n > MAX_LINE {
        return Err(parse_error(format!(
            "line is longer than {MAX_LINE} bytes, more than any record takes"
        )));
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|e| parse_error(e.to_string()))
}

/// Line-streamed JSON Lines reader: one record per
/// [`RecordSource::next_record`] call, one line of at most 8 KiB
/// (`MAX_LINE`) resident at a time. Parse failures report the 1-based line
/// number and the byte offset of the line start; a file that ends short of
/// its header's count is [`TraceError::CountMismatch`].
pub struct JsonlReader {
    reader: BufReader<File>,
    header: JsonlHeader,
    /// 1-based number of the last line consumed (the header is line 1).
    line: usize,
    /// Byte offset where the next line starts.
    offset: u64,
    /// Records yielded so far.
    records: u64,
    /// The current line; sized for the longest one at open, never grown.
    buf: Vec<u8>,
}

impl JsonlReader {
    /// Opens a JSONL trace and parses its header line. The header's record
    /// count is checked against the file's length (a record line is at
    /// least 2 bytes), so [`RecordSource::size_hint`] is bounded by the file.
    pub(crate) fn open(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut buf = Vec::with_capacity(MAX_LINE + 1);
        let Some(text) = read_line(&mut reader, &mut buf, 1, 0)? else {
            return Err(TraceError::MissingHeader);
        };
        let n = text.len() as u64;
        let header_error = |msg: String| TraceError::Parse {
            line: 1,
            byte_offset: 0,
            msg,
        };
        let header: JsonlHeader =
            serde_json::from_str(text.trim_end()).map_err(|e| header_error(e.to_string()))?;
        let body = len.saturating_sub(n);
        if header.records > body / 2 {
            return Err(header_error(format!(
                "header promises {} records but the {body} bytes after it hold at most {}",
                header.records,
                body / 2
            )));
        }
        Ok(JsonlReader {
            reader,
            header,
            line: 1,
            offset: n,
            records: 0,
            buf,
        })
    }
}

impl RecordSource for JsonlReader {
    /// The next record, skipping blank lines; `None` at end of file.
    fn next_record(&mut self) -> Result<Option<CallRecord>, TraceError> {
        loop {
            let line_start = self.offset;
            let Some(text) = read_line(&mut self.reader, &mut self.buf, self.line + 1, line_start)?
            else {
                if self.records != self.header.records {
                    return Err(TraceError::CountMismatch {
                        expected: self.header.records,
                        actual: self.records,
                    });
                }
                return Ok(None);
            };
            self.line += 1;
            self.offset += text.len() as u64;
            if text.trim().is_empty() {
                continue;
            }
            let record = serde_json::from_str(text.trim_end()).map_err(|e| TraceError::Parse {
                line: self.line,
                byte_offset: line_start,
                msg: e.to_string(),
            })?;
            self.records += 1;
            return Ok(Some(record));
        }
    }

    fn seed(&self) -> u64 {
        self.header.seed
    }

    fn days(&self) -> u64 {
        self.header.days
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.header.records)
    }

    fn bytes_read(&self) -> u64 {
        self.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{TraceConfig, TraceGenerator};
    use crate::{load_trace, save_trace};
    use via_netsim::{World, WorldConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("via-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The error a load ended in.
    fn load_err(path: &Path) -> TraceError {
        match load_trace(path) {
            Err(e) => e,
            Ok(t) => panic!("expected an error, loaded {} records", t.len()),
        }
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let world = World::generate(&WorldConfig::tiny(), 21);
        let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 21).generate();
        let path = tmp("trace.jsonl");
        save_trace(&trace, &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back.seed, trace.seed);
        assert_eq!(back.days, trace.days);
        assert_eq!(back.records, trace.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_err(Path::new("/nonexistent/via/trace.jsonl"));
        assert!(matches!(err, TraceError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }

    #[test]
    fn empty_file_is_missing_header() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(load_err(&path), TraceError::MissingHeader));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_reports_line_and_byte_offset() {
        let path = tmp("corrupt.jsonl");
        let header = b"{\"seed\":1,\"days\":1,\"records\":2}\n";
        let mut body = header.to_vec();
        body.extend_from_slice(b"\n"); // blank line: skipped, but counted
        body.extend_from_slice(b"not-json\n");
        std::fs::write(&path, &body).unwrap();
        match load_err(&path) {
            TraceError::Parse {
                line,
                byte_offset,
                msg,
            } => {
                assert_eq!(line, 3, "header is line 1, blank is 2, corrupt is 3");
                assert_eq!(byte_offset, header.len() as u64 + 1);
                assert!(!msg.is_empty());
            }
            other => panic!("unexpected error {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_widest_legal_record_takes_under_half_the_line_cap() {
        use via_model::ids::{AsId, CallId, ClientId, CountryId};
        use via_model::metrics::PathMetrics;
        use via_model::time::SimTime;
        // Floats print without an exponent, so the longest are tiny ones
        // with many significant digits, and huge ones.
        let rendering = |v: f64| serde_json::to_string(&v).unwrap().len();
        let wide = [
            -f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE * (1.0 - f64::EPSILON),
            -f64::from_bits(1),
            -1.234_567_890_123_456_7e-300,
            f64::MIN,
        ]
        .into_iter()
        .max_by_key(|&v| rendering(v))
        .unwrap();
        assert!(rendering(wide) > 300);
        let record = CallRecord {
            id: CallId(u32::MAX),
            t: SimTime(u64::MAX),
            src_as: AsId(u32::MAX),
            dst_as: AsId(u32::MAX),
            src_country: CountryId(u32::MAX),
            dst_country: CountryId(u32::MAX),
            caller: ClientId(u32::MAX),
            callee: ClientId(u32::MAX),
            wireless: false,
            duration_s: wide,
            access_extra: crate::record::AccessExtra {
                rtt_ms: wide,
                loss_pct: wide,
                jitter_ms: wide,
            },
            direct_metrics: PathMetrics {
                rtt_ms: wide,
                loss_pct: wide,
                jitter_ms: wide,
            },
            rating: Some(u8::MAX),
        };
        let line = serde_json::to_string(&record).unwrap().len() + 1;
        assert!(2 * line <= MAX_LINE, "{line}-byte record line");
    }

    #[test]
    fn a_line_past_the_cap_is_a_parse_error_that_costs_no_more_than_the_cap() {
        let header = b"{\"seed\":1,\"days\":1,\"records\":1}\n";
        let blob = vec![b'x'; 4 << 20];
        // A record line with no newline: the header opens, the next read
        // stops at the cap.
        let path = tmp("newline-free-record.jsonl");
        std::fs::write(&path, [&header[..], &blob].concat()).unwrap();
        let mut reader = JsonlReader::open(&path).unwrap();
        match reader.next_record() {
            Err(TraceError::Parse {
                line, byte_offset, ..
            }) => assert_eq!((line, byte_offset), (2, header.len() as u64)),
            other => panic!("expected a parse error, got {other:?}"),
        }
        assert!(
            reader.buf.capacity() <= MAX_LINE + 1,
            "{}",
            reader.buf.capacity()
        );
        // A file with no newline at all: the header line itself.
        std::fs::write(&path, &blob).unwrap();
        match load_err(&path) {
            TraceError::Parse {
                line, byte_offset, ..
            } => assert_eq!((line, byte_offset), (1, 0)),
            other => panic!("unexpected error {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_writer_rejects_count_mismatch() {
        let path = tmp("short.jsonl");
        let w = JsonlWriter::create(&path, 1, 1, 3).unwrap();
        let err = w.finish().unwrap_err();
        assert!(matches!(err, TraceError::Encode(_)));
        assert!(err.to_string().contains("promised 3"));
        std::fs::remove_file(&path).ok();
    }
}
