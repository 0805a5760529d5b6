//! Compact binary on-disk trace format (`.vbt` — "via binary trace").
//!
//! The JSONL format (see [`crate::io`]) is convenient for inspection but
//! costs ~4× the bytes and a full JSON parse per record. At paper scale and
//! beyond, decode bandwidth and memory become the replay ceiling, so this
//! module defines a fixed-width little-endian record encoding framed into
//! length-prefixed window chunks:
//!
//! ```text
//! header (56 bytes)
//!   0   8  magic  b"VIATRACE"
//!   8   4  schema version (currently 1), u32 LE
//!   12  4  reserved (0)
//!   16  8  trace seed
//!   24  8  trace horizon, days
//!   32  8  record count
//!   40  8  frame window length, seconds
//!   48  8  header digest (FNV-1a over bytes 0..48)
//! frame (repeated until `record count` records have been read)
//!   0   8  window index (frame window length × index = start time)
//!   8   4  record count in this frame, u32 LE
//!   12  4  payload length in bytes (= count × 94), u32 LE
//!   16  …  fixed-width records
//! ```
//!
//! Each record is 94 bytes (`RECORD_BYTES`): ids and endpoints as `u32`,
//! the timestamp as `u64`, two flag/rating bytes, and seven `f64` metric
//! fields, all little-endian:
//!
//! ```text
//! record (94 bytes)
//!   0   4  call id
//!   4   8  start time, seconds
//!   12  4  source AS
//!   16  4  destination AS
//!   20  4  source country
//!   24  4  destination country
//!   28  4  caller
//!   32  4  callee
//!   36  1  wireless (any nonzero byte is true)
//!   37  1  rating 1–5, 0xFF for none
//!   38  8  duration, seconds
//!   46  8  access RTT, ms
//!   54  8  access loss, %
//!   62  8  access jitter, ms
//!   70  8  direct RTT, ms
//!   78  8  direct loss, %
//!   86  8  direct jitter, ms
//! ```
//!
//! Decoding is a straight pass over the frame payload into a caller-reused
//! `Vec<CallRecord>` — no allocation per record, no intermediate strings.
//!
//! Frames are keyed by the *file's* framing window (default 24 h). Readers
//! re-window the record stream to whatever control period the replay wants
//! (see [`crate::stream`]), so the on-disk framing only bounds reader memory:
//! a reader holds at most one frame's payload plus its decoded records.
//!
//! The header is written with a zero record count, then patched in place by
//! [`BinWriter::finish`] — so a crashed writer leaves a header promising no
//! records, which any frame it did flush overruns.
//!
//! What a reader detects, each as its own [`TraceError`] variant: header
//! corruption (the digest covers header bytes 0..48), truncation anywhere in
//! the file, a frame prefix whose count and payload length disagree, and a
//! record total that differs from the header's. The header's count is checked
//! against the file's length at open, and each frame's payload length
//! against the bytes left, before any buffer grows. What it does not
//! detect: a flipped bit inside a record payload (or in a frame's window
//! index, which readers ignore) decodes to a different, well-formed record.
//! The digest is an unkeyed check on the header, not a checksum of the data.

// Bytes and ids from outside the program enter here: no index may panic.
#![deny(clippy::indexing_slicing)]
// The streamed replay's per-record path: no cast may truncate silently.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use via_model::ids::{AsId, CallId, ClientId, CountryId};
use via_model::metrics::PathMetrics;
use via_model::seed::{fnv1a, FNV_BASIS};
use via_model::time::{SimTime, WindowLen};

use crate::error::TraceError;
use crate::record::{AccessExtra, CallRecord, Trace};
use crate::stream::RecordSource;

/// File magic, first 8 bytes of every binary trace.
pub const MAGIC: [u8; 8] = *b"VIATRACE";
/// Schema version this build reads and writes.
pub const SCHEMA_VERSION: u32 = 1;
/// Encoded size of one [`CallRecord`].
pub const RECORD_BYTES: usize = 94;
/// Encoded size of the file header.
pub const HEADER_BYTES: usize = 56;
/// Encoded size of a frame prefix (window index + count + payload length).
pub const FRAME_PREFIX_BYTES: usize = 16;
/// Sentinel in the rating byte meaning "no rating" (ratings are 1–5).
const NO_RATING: u8 = 0xFF;

/// The `N` bytes of `buf` starting at `at`, or zeros where `buf` ends
/// first. Every caller reads a fixed-size array at constant offsets inside
/// it, so the zeros are never returned.
fn le<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    buf.get(at..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .unwrap_or([0; N])
}

/// Decoded binary trace header: provenance and layout of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinHeader {
    /// Schema version of the file.
    pub version: u32,
    /// Seed the trace was generated with.
    pub seed: u64,
    /// Trace horizon in days.
    pub days: u64,
    /// Total records in the file.
    pub records: u64,
    /// On-disk framing window length.
    pub frame_len: WindowLen,
    /// Stored header digest (already verified on read).
    pub digest: u64,
}

impl BinHeader {
    fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut buf = [0u8; HEADER_BYTES];
        buf[0..8].copy_from_slice(&MAGIC);
        buf[8..12].copy_from_slice(&self.version.to_le_bytes());
        // bytes 12..16 reserved, zero.
        buf[16..24].copy_from_slice(&self.seed.to_le_bytes());
        buf[24..32].copy_from_slice(&self.days.to_le_bytes());
        buf[32..40].copy_from_slice(&self.records.to_le_bytes());
        buf[40..48].copy_from_slice(&self.frame_len.secs().to_le_bytes());
        let digest = fnv1a(FNV_BASIS, &buf[0..48]);
        buf[48..56].copy_from_slice(&digest.to_le_bytes());
        buf
    }

    fn decode(buf: &[u8; HEADER_BYTES]) -> Result<BinHeader, TraceError> {
        if buf[0..8] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let u32_at = |o| u32::from_le_bytes(le(buf, o));
        let u64_at = |o| u64::from_le_bytes(le(buf, o));
        let version = u32_at(8);
        if version != SCHEMA_VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let stored = u64_at(48);
        let computed = fnv1a(FNV_BASIS, &buf[0..48]);
        if stored != computed {
            return Err(TraceError::BadDigest { stored, computed });
        }
        let frame_secs = u64_at(40);
        if frame_secs == 0 {
            return Err(TraceError::BadField("frame window length of zero"));
        }
        Ok(BinHeader {
            version,
            seed: u64_at(16),
            days: u64_at(24),
            records: u64_at(32),
            frame_len: WindowLen::secs_checked(frame_secs)
                .ok_or(TraceError::BadField("frame window length of zero"))?,
            digest: stored,
        })
    }
}

/// Encodes one record into `out` (appends exactly [`RECORD_BYTES`] bytes).
fn encode_record(r: &CallRecord, out: &mut Vec<u8>) -> Result<(), TraceError> {
    let rating = match r.rating {
        None => NO_RATING,
        Some(v) if (1..=5).contains(&v) => v,
        Some(_) => return Err(TraceError::BadField("rating outside 1–5")),
    };
    out.extend_from_slice(&r.id.0.to_le_bytes());
    out.extend_from_slice(&r.t.secs().to_le_bytes());
    out.extend_from_slice(&r.src_as.0.to_le_bytes());
    out.extend_from_slice(&r.dst_as.0.to_le_bytes());
    out.extend_from_slice(&r.src_country.0.to_le_bytes());
    out.extend_from_slice(&r.dst_country.0.to_le_bytes());
    out.extend_from_slice(&r.caller.0.to_le_bytes());
    out.extend_from_slice(&r.callee.0.to_le_bytes());
    out.push(u8::from(r.wireless));
    out.push(rating);
    out.extend_from_slice(&r.duration_s.to_le_bytes());
    out.extend_from_slice(&r.access_extra.rtt_ms.to_le_bytes());
    out.extend_from_slice(&r.access_extra.loss_pct.to_le_bytes());
    out.extend_from_slice(&r.access_extra.jitter_ms.to_le_bytes());
    out.extend_from_slice(&r.direct_metrics.rtt_ms.to_le_bytes());
    out.extend_from_slice(&r.direct_metrics.loss_pct.to_le_bytes());
    out.extend_from_slice(&r.direct_metrics.jitter_ms.to_le_bytes());
    Ok(())
}

/// Decodes one encoded record.
fn decode_record(buf: &[u8; RECORD_BYTES]) -> CallRecord {
    let u32_at = |o| u32::from_le_bytes(le(buf, o));
    let u64_at = |o| u64::from_le_bytes(le(buf, o));
    let f64_at = |o| f64::from_bits(u64_at(o));
    CallRecord {
        id: CallId(u32_at(0)),
        t: SimTime(u64_at(4)),
        src_as: AsId(u32_at(12)),
        dst_as: AsId(u32_at(16)),
        src_country: CountryId(u32_at(20)),
        dst_country: CountryId(u32_at(24)),
        caller: ClientId(u32_at(28)),
        callee: ClientId(u32_at(32)),
        wireless: buf[36] != 0,
        rating: (buf[37] != NO_RATING).then_some(buf[37]),
        duration_s: f64_at(38),
        access_extra: AccessExtra {
            rtt_ms: f64_at(46),
            loss_pct: f64_at(54),
            jitter_ms: f64_at(62),
        },
        direct_metrics: PathMetrics::new(f64_at(70), f64_at(78), f64_at(86)),
    }
}

/// Streaming binary trace writer: records arrive in chronological order, are
/// framed by the configured window length, and only the current frame is
/// buffered. [`BinWriter::finish`] patches the header's record count in
/// place, so the header digest only verifies for completely written files.
pub struct BinWriter {
    file: BufWriter<File>,
    header: BinHeader,
    frame: Vec<u8>,
    frame_records: u32,
    frame_window: Option<u64>,
    written: u64,
}

impl BinWriter {
    /// Creates a writer, emitting a provisional header (zero records).
    pub fn create(
        path: &Path,
        seed: u64,
        days: u64,
        frame_len: WindowLen,
    ) -> Result<Self, TraceError> {
        let mut file = BufWriter::new(File::create(path)?);
        let header = BinHeader {
            version: SCHEMA_VERSION,
            seed,
            days,
            records: 0,
            frame_len,
            digest: 0,
        };
        file.write_all(&header.encode())?;
        Ok(BinWriter {
            file,
            header,
            frame: Vec::new(),
            frame_records: 0,
            frame_window: None,
            written: 0,
        })
    }

    /// Appends one record. Records must arrive in nondecreasing time order —
    /// frame boundaries are derived from the record stream.
    pub fn push(&mut self, r: &CallRecord) -> Result<(), TraceError> {
        let window = self.header.frame_len.window_of(r.t).index;
        if self.frame_window.is_some_and(|w| w != window) {
            self.flush_frame()?;
        }
        self.frame_window = Some(window);
        encode_record(r, &mut self.frame)?;
        self.frame_records += 1;
        self.written += 1;
        Ok(())
    }

    fn flush_frame(&mut self) -> Result<(), TraceError> {
        let Some(window) = self.frame_window.take() else {
            return Ok(());
        };
        let payload_len = u32::try_from(self.frame.len())
            .map_err(|_| TraceError::BadField("frame payload beyond u32 bytes"))?;
        self.file.write_all(&window.to_le_bytes())?;
        self.file.write_all(&self.frame_records.to_le_bytes())?;
        self.file.write_all(&payload_len.to_le_bytes())?;
        self.file.write_all(&self.frame)?;
        self.frame.clear();
        self.frame_records = 0;
        Ok(())
    }

    /// Flushes the last frame and patches the header with the final record
    /// count and digest. Consumes the writer; the file is only valid after
    /// this returns `Ok`.
    pub fn finish(mut self) -> Result<u64, TraceError> {
        self.flush_frame()?;
        self.header.records = self.written;
        let mut file = self
            .file
            .into_inner()
            .map_err(|e| TraceError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&self.header.encode())?;
        file.sync_data()?;
        Ok(self.written)
    }
}

/// Streaming binary trace reader: a [`RecordSource`] that holds one frame's
/// payload plus its decoded records at a time; both buffers are reused
/// across frames, and neither grows past what the file holds.
pub struct BinReader {
    file: BufReader<File>,
    header: BinHeader,
    /// File length at open: the bound every buffer is checked against.
    len: u64,
    payload: Vec<u8>,
    /// The current frame's decoded records, yielded from `pos` on.
    frame: Vec<CallRecord>,
    pos: usize,
    read_records: u64,
    bytes_read: u64,
}

impl BinReader {
    /// Opens a binary trace, verifying magic, version, and header digest,
    /// and that the file is long enough for the records the header promises.
    pub(crate) fn open(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut file = BufReader::new(file);
        let mut buf = [0u8; HEADER_BYTES];
        read_exact_or(&mut file, &mut buf, "header")?;
        let header = BinHeader::decode(&buf)?;
        if header.records > len.saturating_sub(HEADER_BYTES as u64) / RECORD_BYTES as u64 {
            return Err(TraceError::Truncated {
                context: "header's record count",
            });
        }
        Ok(BinReader {
            file,
            header,
            len,
            payload: Vec::new(),
            frame: Vec::new(),
            pos: 0,
            read_records: 0,
            bytes_read: HEADER_BYTES as u64,
        })
    }

    /// The file's header.
    pub fn header(&self) -> &BinHeader {
        &self.header
    }

    /// Reads and decodes the next frame into `self.frame`; `false` at a
    /// clean end of file (after exactly `header.records` records). Every
    /// length in the prefix is checked before a buffer grows.
    fn next_frame(&mut self) -> Result<bool, TraceError> {
        let mut prefix = [0u8; FRAME_PREFIX_BYTES];
        match self.file.read(&mut prefix[..1])? {
            0 => {
                if self.read_records != self.header.records {
                    return Err(TraceError::CountMismatch {
                        expected: self.header.records,
                        actual: self.read_records,
                    });
                }
                return Ok(false);
            }
            _ => read_exact_or(&mut self.file, &mut prefix[1..], "frame prefix")?,
        }
        let count = u32::from_le_bytes([prefix[8], prefix[9], prefix[10], prefix[11]]);
        let payload_len = u32::from_le_bytes([prefix[12], prefix[13], prefix[14], prefix[15]]);
        if payload_len as usize != count as usize * RECORD_BYTES {
            return Err(TraceError::FrameMismatch { count, payload_len });
        }
        let read_records = self.read_records + u64::from(count);
        if read_records > self.header.records {
            return Err(TraceError::CountMismatch {
                expected: self.header.records,
                actual: read_records,
            });
        }
        let frame_end = self.bytes_read + (FRAME_PREFIX_BYTES as u64) + u64::from(payload_len);
        if frame_end > self.len {
            return Err(TraceError::Truncated {
                context: "frame payload",
            });
        }
        self.payload.resize(payload_len as usize, 0);
        read_exact_or(&mut self.file, &mut self.payload, "frame payload")?;
        self.bytes_read += (FRAME_PREFIX_BYTES + payload_len as usize) as u64;
        self.read_records = read_records;
        let (records, _) = self.payload.as_chunks::<RECORD_BYTES>();
        self.frame.clear();
        self.frame.extend(records.iter().map(decode_record));
        self.pos = 0;
        Ok(true)
    }
}

impl RecordSource for BinReader {
    fn next_record(&mut self) -> Result<Option<CallRecord>, TraceError> {
        loop {
            if let Some(r) = self.frame.get(self.pos).cloned() {
                self.pos += 1;
                return Ok(Some(r));
            }
            if !self.next_frame()? {
                return Ok(None);
            }
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

    /// Total bytes consumed from the file so far (header, prefixes, and
    /// payloads) — the numerator of the bench's bytes-decoded/sec figure.
    fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

/// `read_exact` mapped to [`TraceError::Truncated`] on a premature EOF.
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { context }
        } else {
            TraceError::Io(e)
        }
    })
}

/// Writes a whole materialized trace with the default daily framing — the
/// `.vbt` half of [`crate::save_trace`] without the extension dispatch, as
/// the benchmark's writer layer times it.
pub fn write_binary(trace: &Trace, path: &Path) -> Result<(), TraceError> {
    let mut w = BinWriter::create(path, trace.seed, trace.days, WindowLen::DAY)?;
    for r in &trace.records {
        w.push(r)?;
    }
    w.finish().map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TraceRecords;
    use crate::workload::{TraceConfig, TraceGenerator};
    use crate::{load_trace, write_trace};
    use via_netsim::{World, WorldConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("via-trace-binfmt-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_trace() -> Trace {
        let world = World::generate(&WorldConfig::tiny(), 33);
        TraceGenerator::new(&world, TraceConfig::tiny(), 33).generate()
    }

    /// Four records spread over the sample trace, framed by the hour: a
    /// `.vbt` of four one-record frames, small enough to sweep byte by byte.
    fn few_record_file(path: &Path) -> Vec<u8> {
        let trace = sample_trace();
        let n = trace.len();
        let records = [0, n / 3, 2 * n / 3, n - 1].map(|i| trace.records[i].clone());
        let few = Trace::new(trace.seed, trace.days, records.to_vec());
        write_trace(TraceRecords::new(&few), path, WindowLen::hours(1)).unwrap();
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + 4 * (FRAME_PREFIX_BYTES + RECORD_BYTES),
            "four one-record frames"
        );
        bytes
    }

    /// The error a load ended in.
    fn load_err(path: &Path) -> TraceError {
        match load_trace(path) {
            Err(e) => e,
            Ok(t) => panic!("expected an error, loaded {} records", t.len()),
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let trace = sample_trace();
        let path = tmp("roundtrip.vbt");
        write_binary(&trace, &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back.seed, trace.seed);
        assert_eq!(back.days, trace.days);
        assert_eq!(back.records, trace.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_survives_odd_framing() {
        let trace = sample_trace();
        let path = tmp("framing.vbt");
        write_trace(TraceRecords::new(&trace), &path, WindowLen::hours(5)).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back.records, trace.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_codec_handles_field_extremes() {
        let mut r = sample_trace().records[0].clone();
        r.rating = None;
        r.duration_s = f64::MAX;
        r.access_extra.jitter_ms = f64::MIN_POSITIVE;
        let mut buf = Vec::new();
        encode_record(&r, &mut buf).unwrap();
        let buf: [u8; RECORD_BYTES] = buf.try_into().unwrap();
        assert_eq!(decode_record(&buf), r);
    }

    /// The record rows of the module doc's layout, in order: each field's
    /// name and width in bytes.
    const RECORD_LAYOUT: [(&str, usize); 17] = [
        ("call id", 4),
        ("start time", 8),
        ("source AS", 4),
        ("destination AS", 4),
        ("source country", 4),
        ("destination country", 4),
        ("caller", 4),
        ("callee", 4),
        ("wireless", 1),
        ("rating", 1),
        ("duration", 8),
        ("access RTT", 8),
        ("access loss", 8),
        ("access jitter", 8),
        ("direct RTT", 8),
        ("direct loss", 8),
        ("direct jitter", 8),
    ];

    /// Every field of `r` as bits, in [`RECORD_LAYOUT`]'s order.
    fn field_bits(r: &CallRecord) -> [u64; 17] {
        [
            r.id.0.into(),
            r.t.secs(),
            r.src_as.0.into(),
            r.dst_as.0.into(),
            r.src_country.0.into(),
            r.dst_country.0.into(),
            r.caller.0.into(),
            r.callee.0.into(),
            r.wireless.into(),
            r.rating.map_or(u64::MAX, u64::from),
            r.duration_s.to_bits(),
            r.access_extra.rtt_ms.to_bits(),
            r.access_extra.loss_pct.to_bits(),
            r.access_extra.jitter_ms.to_bits(),
            r.direct_metrics.rtt_ms.to_bits(),
            r.direct_metrics.loss_pct.to_bits(),
            r.direct_metrics.jitter_ms.to_bits(),
        ]
    }

    /// Flipping any one byte of an encoded record changes exactly the field
    /// the layout puts that byte in. A round trip misses an offset or a
    /// decode rule that happens to give the chosen value back (two equal
    /// fields swapped, a flag read as `== 1`); this pins every byte.
    #[test]
    fn each_record_byte_decodes_into_the_field_the_layout_gives_it() {
        let mut r = sample_trace().records[0].clone();
        // Values every all-bits flip visibly moves: `wireless` decodes any
        // nonzero byte as true, and the metric clamps send a flipped sign
        // to 0 or 100, so none of these may sit on a clamp.
        r.wireless = false;
        r.rating = Some(3);
        r.duration_s = 93.5;
        r.access_extra = AccessExtra {
            rtt_ms: 12.5,
            loss_pct: 0.75,
            jitter_ms: 3.25,
        };
        r.direct_metrics = PathMetrics::new(123.5, 2.25, 7.75);
        let mut buf = Vec::new();
        encode_record(&r, &mut buf).unwrap();
        let buf: [u8; RECORD_BYTES] = buf.try_into().unwrap();
        let want = field_bits(&r);

        let owners: Vec<usize> = RECORD_LAYOUT
            .iter()
            .enumerate()
            .flat_map(|(f, &(_, width))| std::iter::repeat_n(f, width))
            .collect();
        assert_eq!(owners.len(), RECORD_BYTES, "the layout covers the record");
        for (byte, &owner) in owners.iter().enumerate() {
            let mut flipped = buf;
            flipped[byte] ^= 0xFF;
            let got = field_bits(&decode_record(&flipped));
            for (f, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    w != g,
                    f == owner,
                    "byte {byte} belongs to {}, its flip {} {}",
                    RECORD_LAYOUT[owner].0,
                    if w == g { "left unchanged" } else { "changed" },
                    RECORD_LAYOUT[f].0
                );
            }
        }

        let rating_at = owners.iter().position(|&f| RECORD_LAYOUT[f].0 == "rating");
        let mut unrated = buf;
        unrated[rating_at.unwrap()] = NO_RATING;
        let decoded = decode_record(&unrated);
        assert_eq!(decoded.rating, None);
        assert_eq!(
            CallRecord {
                rating: Some(3),
                ..decoded
            },
            r
        );
    }

    #[test]
    fn out_of_range_rating_is_rejected() {
        let mut r = sample_trace().records[0].clone();
        r.rating = Some(6);
        let mut buf = Vec::new();
        assert!(matches!(
            encode_record(&r, &mut buf),
            Err(TraceError::BadField(_))
        ));
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error() {
        let path = tmp("prefix.vbt");
        let bytes = few_record_file(&path);
        // Cut anywhere — inside the header, a frame prefix, a payload, or
        // exactly between frames: never a silently short trace.
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = load_err(&path);
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. } | TraceError::CountMismatch { .. }
                ),
                "prefix of {cut} bytes: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_bit_flip_in_header_and_frame_prefixes_is_typed_and_bounded() {
        let path = tmp("flip.vbt");
        let bytes = few_record_file(&path);
        let frame = FRAME_PREFIX_BYTES + RECORD_BYTES;
        let prefixes = (0..4).flat_map(|f| {
            let start = HEADER_BYTES + f * frame;
            start..start + FRAME_PREFIX_BYTES
        });
        for pos in (0..HEADER_BYTES).chain(prefixes) {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                std::fs::write(&path, &flipped).unwrap();
                let outcome = BinReader::open(&path).and_then(|mut reader| {
                    let mut n = 0u64;
                    let drained = loop {
                        match reader.next_record() {
                            Ok(Some(_)) => n += 1,
                            Ok(None) => break Ok(n),
                            Err(e) => break Err(e),
                        }
                    };
                    assert!(
                        reader.payload.capacity() <= flipped.len()
                            && reader.frame.capacity() * RECORD_BYTES <= flipped.len(),
                        "byte {pos} bit {bit}: a buffer outgrew the file"
                    );
                    drained
                });
                // The digest covers the header, the prefix's count and
                // payload length must agree; only a frame's window index
                // (which readers ignore) flips without an error.
                let window_index = pos >= HEADER_BYTES && (pos - HEADER_BYTES) % frame < 8;
                match outcome {
                    Ok(n) => {
                        assert!(window_index, "byte {pos} bit {bit} flipped silently");
                        assert_eq!(n, 4);
                    }
                    Err(
                        TraceError::Io(_)
                        | TraceError::BadMagic
                        | TraceError::BadVersion(_)
                        | TraceError::BadDigest { .. }
                        | TraceError::Truncated { .. }
                        | TraceError::FrameMismatch { .. }
                        | TraceError::CountMismatch { .. }
                        | TraceError::BadField(_),
                    ) => {
                        assert!(!window_index, "byte {pos} bit {bit}: ignored field refused");
                    }
                    Err(other) => panic!("byte {pos} bit {bit}: untyped {other}"),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_lengths_are_refused_before_a_buffer_grows() {
        let path = tmp("hostile.vbt");
        let header = |records: u64| {
            BinHeader {
                version: SCHEMA_VERSION,
                seed: 1,
                days: 1,
                records,
                frame_len: WindowLen::DAY,
                digest: 0,
            }
            .encode()
        };
        let prefix = |count: u32| {
            let mut p = 0u64.to_le_bytes().to_vec();
            p.extend_from_slice(&count.to_le_bytes());
            p.extend_from_slice(&(count * RECORD_BYTES as u32).to_le_bytes());
            p
        };
        // The largest frame a prefix can describe: 45 691 141 records.
        let claim = u32::MAX / RECORD_BYTES as u32;

        // A valid header promising the claim on a 72-byte file: refused at
        // open, from the file's length.
        let mut file = header(u64::from(claim)).to_vec();
        file.extend(prefix(claim));
        assert_eq!(file.len(), 72);
        std::fs::write(&path, &file).unwrap();
        assert!(matches!(
            BinReader::open(&path),
            Err(TraceError::Truncated { .. })
        ));

        // A header promising nothing, then a prefix claiming 4.3 GB of
        // payload: refused before the payload buffer grows.
        let mut file = header(0).to_vec();
        file.extend(prefix(claim));
        std::fs::write(&path, &file).unwrap();
        let mut reader = BinReader::open(&path).unwrap();
        assert!(matches!(
            reader.next_frame(),
            Err(TraceError::CountMismatch { .. })
        ));
        assert_eq!(reader.payload.capacity(), 0);

        // A header and prefix promising two records, with 8 payload bytes
        // missing: the header's count fits the file, the frame does not.
        let mut file = header(2).to_vec();
        file.extend(prefix(2));
        file.resize(file.len() + 2 * RECORD_BYTES - 8, 0);
        std::fs::write(&path, &file).unwrap();
        let mut reader = BinReader::open(&path).unwrap();
        assert!(matches!(
            reader.next_frame(),
            Err(TraceError::Truncated {
                context: "frame payload"
            })
        ));
        assert_eq!(reader.payload.capacity(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_corruption_fails_digest() {
        let trace = sample_trace();
        let path = tmp("digest.vbt");
        write_binary(&trace, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[17] ^= 0x40; // flip a seed bit
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_err(&path), TraceError::BadDigest { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let path = tmp("magic.vbt");
        std::fs::write(
            &path,
            b"NOTATRCE________________________________________________",
        )
        .unwrap();
        assert!(matches!(load_err(&path), TraceError::BadMagic));
        let trace = sample_trace();
        write_binary(&trace, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99; // version
        let digest = fnv1a(FNV_BASIS, &bytes[0..48]);
        bytes[48..56].copy_from_slice(&digest.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_err(&path), TraceError::BadVersion(99)));
        std::fs::remove_file(&path).ok();
    }
}
