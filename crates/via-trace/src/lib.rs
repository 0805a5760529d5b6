//! Call workload generation, trace records, and the paper's §2 dataset
//! analysis.
//!
//! * [`record`] — [`record::CallRecord`] / [`record::Trace`]: one row per
//!   call with endpoints, timing, wireless flag, default-path metrics, and an
//!   optional user rating.
//! * [`workload`] — [`workload::TraceGenerator`]: synthesizes chronological
//!   traces over a `via-netsim` world with the paper's composition (46.6 %
//!   international, 80.7 % inter-AS, 83 % wireless, diurnal arrivals).
//! * [`analysis`] — every statistic of §2: Table 1, the PCR curves of
//!   Figure 1, metric CDFs of Figure 2, pairwise correlations of Figure 3,
//!   international/domestic and per-country PNR of Figure 4, worst-AS-pair
//!   concentration of Figure 5, and the persistence/prevalence analysis of
//!   Figure 6.
//! * [`io`] — JSON Lines persistence; [`binfmt`] — the compact binary
//!   `.vbt` format. A trace file is read through one
//!   [`stream::FileSource`] and written through one [`write_trace`], both
//!   dispatching on the extension; [`load_trace`] and [`save_trace`] are
//!   their materialized forms.
//! * [`stream`] — the streaming window pipeline: any source (materialized
//!   trace, JSONL, binary, or lazy generation) re-windowed into bounded
//!   chronological batches for paper-scale replay in bounded memory.
//!
//! ```
//! use via_netsim::{World, WorldConfig};
//! use via_trace::workload::{TraceConfig, TraceGenerator};
//! use via_trace::analysis;
//!
//! let world = World::generate(&WorldConfig::tiny(), 1);
//! let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 1).generate();
//! let summary = analysis::dataset_summary(&trace);
//! assert_eq!(summary.calls, trace.len());
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod binfmt;
pub mod error;
pub mod io;
pub mod record;
pub mod stream;
pub mod workload;

pub use error::TraceError;
pub use record::{AccessExtra, CallRecord, Trace};
pub use stream::{RecordSource, WindowBatch, WindowStream};
pub use workload::{Scale, TraceConfig, TraceGenerator};

use std::path::Path;

use via_model::time::WindowLen;

use crate::stream::{FileSource, TraceRecords};

/// Reads a whole trace file into memory: a collect over
/// [`FileSource::open`], so `.jsonl` and `.vbt` are both accepted and every
/// reader check applies. The streaming pipeline ([`stream`]) replays
/// without this step.
///
/// # Errors
/// [`TraceError::UnknownFormat`] for any other extension, or the reader's
/// error on a read failure.
pub fn load_trace(path: &Path) -> Result<Trace, TraceError> {
    let mut source = FileSource::open(path)?;
    let hint = source
        .size_hint()
        .map_or(0, |n| usize::try_from(n).unwrap_or(0));
    let mut records = Vec::with_capacity(hint);
    while let Some(r) = source.next_record()? {
        records.push(r);
    }
    Ok(Trace::new(source.seed(), source.days(), records))
}

/// Saves a materialized trace: [`write_trace`] over its records, with the
/// default daily `.vbt` framing.
///
/// # Errors
/// As [`write_trace`].
pub fn save_trace(trace: &Trace, path: &Path) -> Result<(), TraceError> {
    write_trace(TraceRecords::new(trace), path, WindowLen::DAY).map(drop)
}

/// Streams every record of `source` into a trace file picked by extension —
/// `.jsonl`, or `.vbt` framed by `frame` — holding at most one record (plus
/// the binary frame buffer) resident. Returns the records written.
///
/// # Errors
/// [`TraceError::UnknownFormat`] for any other extension; a JSONL output
/// needs the source's [`RecordSource::size_hint`] for its header; otherwise
/// the source's or the writer's error.
pub fn write_trace(
    mut source: impl RecordSource,
    path: &Path,
    frame: WindowLen,
) -> Result<u64, TraceError> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("jsonl") => {
            let n = source.size_hint().ok_or_else(|| {
                TraceError::Encode("source does not know its record count up front".into())
            })?;
            let mut w = io::JsonlWriter::create(path, source.seed(), source.days(), n)?;
            while let Some(r) = source.next_record()? {
                w.push(&r)?;
            }
            w.finish()
        }
        Some("vbt") => {
            let mut w = binfmt::BinWriter::create(path, source.seed(), source.days(), frame)?;
            while let Some(r) = source.next_record()? {
                w.push(&r)?;
            }
            w.finish()
        }
        _ => Err(TraceError::UnknownFormat(path.to_path_buf())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_netsim::{World, WorldConfig};

    #[test]
    fn load_save_dispatch_on_extension() {
        let world = World::generate(&WorldConfig::tiny(), 41);
        let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 41).generate();
        let dir = std::env::temp_dir().join("via-trace-dispatch-test");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["t.jsonl", "t.vbt"] {
            let path = dir.join(name);
            save_trace(&trace, &path).unwrap();
            let back = load_trace(&path).unwrap();
            assert_eq!(back.records.len(), trace.records.len());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn unknown_extension_is_rejected() {
        let trace = Trace::new(0, 0, Vec::new());
        for name in ["via-trace-unknown.parquet", "via-trace-unknown.csv"] {
            let path = std::env::temp_dir().join(name);
            assert!(matches!(
                save_trace(&trace, &path),
                Err(TraceError::UnknownFormat(_))
            ));
            assert!(matches!(
                load_trace(&path),
                Err(TraceError::UnknownFormat(_))
            ));
            assert!(!path.exists(), "a refused write creates no file");
        }
    }

    #[test]
    fn errors_convert_and_display() {
        assert!(TraceError::MissingHeader.to_string().contains("header"));
        assert!(TraceError::BadMagic.to_string().contains("magic"));
        let err: TraceError = std::io::Error::other("disk full").into();
        assert!(err.to_string().contains("disk full"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
