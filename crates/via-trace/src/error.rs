//! The one error type of the trace file plane.
//!
//! Every fallible function in via-trace — the JSONL reader and writer
//! ([`crate::io`]), the `.vbt` codec ([`crate::binfmt`]), every
//! [`crate::stream::RecordSource`] and [`crate::write_trace`] — returns a
//! [`TraceError`]. Each failure is its own variant with its position
//! detail; the two formats share only [`TraceError::Io`] and
//! [`TraceError::CountMismatch`].

use std::io;
use std::path::PathBuf;

use via_model::time::SimTime;

use crate::binfmt::SCHEMA_VERSION;

/// Any error arising while reading, streaming or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The path's extension matches no supported trace format.
    UnknownFormat(PathBuf),
    /// A record arrived with a timestamp before its predecessor's. Replay
    /// semantics require chronological order; the stream stops here.
    NotChronological {
        /// Absolute index of the offending record.
        index: u64,
        /// Timestamp of the preceding record.
        prev_t: SimTime,
        /// The offending (earlier) timestamp.
        next_t: SimTime,
    },
    /// A JSONL line failed to parse as a record, or the header line promises
    /// more records than the file has bytes for.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Byte offset of the start of the offending line.
        byte_offset: u64,
        /// Parser message.
        msg: String,
    },
    /// A JSONL record or header failed to serialize on write, or a writer
    /// was handed a different number of records than its header promised.
    Encode(String),
    /// The JSONL file had no header line.
    MissingHeader,
    /// The first 8 bytes of a `.vbt` file are not the `VIATRACE` magic.
    BadMagic,
    /// `.vbt` schema version this build does not understand.
    BadVersion(u32),
    /// `.vbt` header digest mismatch: truncated write or corrupted header.
    BadDigest {
        /// Digest stored in the file.
        stored: u64,
        /// Digest recomputed over the header bytes.
        computed: u64,
    },
    /// The `.vbt` file ends inside a header, frame prefix, or frame payload,
    /// or is too short for the records its header promises.
    Truncated {
        /// What the file is too short for.
        context: &'static str,
    },
    /// A `.vbt` frame prefix whose payload length disagrees with its record
    /// count.
    FrameMismatch {
        /// Records the prefix claims.
        count: u32,
        /// Payload bytes the prefix claims.
        payload_len: u32,
    },
    /// A `.vbt` field held a value the schema cannot represent (e.g. a
    /// rating outside 1–5 on encode).
    BadField(&'static str),
    /// The file ended after a different number of records than its header
    /// promised — a truncated (or padded) trace, never a shorter one.
    CountMismatch {
        /// Count the header promised.
        expected: u64,
        /// Records actually present.
        actual: u64,
    },
    /// A record that parsed but means nothing replay or analysis can use:
    /// see [`crate::CallRecord::check`].
    BadRecord {
        /// Absolute index of the offending record.
        index: u64,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::UnknownFormat(p) => write!(
                f,
                "unsupported trace format {:?} (expected .jsonl or .vbt)",
                p
            ),
            TraceError::NotChronological {
                index,
                prev_t,
                next_t,
            } => write!(
                f,
                "trace stream is not chronological: record {index} at {next_t} follows {prev_t}"
            ),
            TraceError::Parse {
                line,
                byte_offset,
                msg,
            } => write!(
                f,
                "trace parse error at line {line} (byte offset {byte_offset}): {msg}"
            ),
            TraceError::Encode(msg) => write!(f, "trace encode error: {msg}"),
            TraceError::MissingHeader => write!(f, "trace file is missing its header line"),
            TraceError::BadMagic => write!(f, "not a binary trace (bad magic)"),
            TraceError::BadVersion(v) => write!(
                f,
                "binary trace schema version {v} unsupported (this build reads {SCHEMA_VERSION})"
            ),
            TraceError::BadDigest { stored, computed } => write!(
                f,
                "binary trace header digest mismatch (stored {stored:#018x}, computed {computed:#018x}) — truncated write or corruption"
            ),
            TraceError::Truncated { context } => {
                write!(f, "binary trace truncated: too short for its {context}")
            }
            TraceError::FrameMismatch { count, payload_len } => write!(
                f,
                "binary trace frame prefix inconsistent: {count} records but {payload_len} payload bytes"
            ),
            TraceError::BadField(what) => {
                write!(f, "binary trace field out of encodable range: {what}")
            }
            TraceError::CountMismatch { expected, actual } => write!(
                f,
                "trace holds {actual} records but its header promised {expected}"
            ),
            TraceError::BadRecord { index, reason } => write!(f, "trace record {index}: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}
