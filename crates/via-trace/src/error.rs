//! Unified error type for trace files and record streams.
//!
//! [`crate::io`] and [`crate::binfmt`] each carry a format-specific error
//! with position detail; everything that opens, streams or writes a trace
//! ([`crate::stream::FileSource`], [`crate::stream::RecordSource`],
//! [`crate::write_trace`]) returns one [`TraceError`] covering both, plus
//! the cases that belong to neither format.

use std::path::PathBuf;

use via_model::time::SimTime;

use crate::binfmt::BinError;
use crate::io::TraceIoError;

/// Any error arising while reading, streaming or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// JSON Lines persistence failed.
    Jsonl(TraceIoError),
    /// Binary (`.vbt`) persistence failed.
    Binary(BinError),
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
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Jsonl(e) => write!(f, "{e}"),
            TraceError::Binary(e) => write!(f, "{e}"),
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
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Jsonl(e) => Some(e),
            TraceError::Binary(e) => Some(e),
            TraceError::UnknownFormat(_) | TraceError::NotChronological { .. } => None,
        }
    }
}

impl From<TraceIoError> for TraceError {
    fn from(e: TraceIoError) -> Self {
        TraceError::Jsonl(e)
    }
}

impl From<BinError> for TraceError {
    fn from(e: BinError) -> Self {
        TraceError::Binary(e)
    }
}
