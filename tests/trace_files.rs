//! The trace file plane end to end: one trace read back equal from both
//! formats, and hostile files — header counts the file cannot hold, frames
//! claiming gigabytes, a truncated JSONL body — refused with a typed error
//! instead of an abort or a silently shorter trace.

#![allow(
    clippy::unwrap_used,
    reason = "test code: a fixture that cannot be written is the failure"
)]

use std::path::PathBuf;

use via::core::replay::{ReplayConfig, ReplaySim};
use via::core::strategy::StrategyKind;
use via::model::ids::{AsId, CountryId};
use via::model::seed::{fnv1a, FNV_BASIS};
use via::model::time::{SimTime, WindowLen, SECS_PER_DAY};
use via::netsim::{World, WorldConfig};
use via::trace::binfmt::RECORD_BYTES;
use via::trace::stream::{FileSource, TraceRecords};
use via::trace::{
    load_trace, save_trace, write_trace, CallRecord, RecordSource, Trace, TraceConfig, TraceError,
    TraceGenerator, WindowStream,
};

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("via-trace-files-{}-{name}", std::process::id()))
}

fn tiny_trace() -> Trace {
    let world = World::generate(&WorldConfig::tiny(), 7);
    TraceGenerator::new(&world, TraceConfig::tiny(), 7).generate()
}

/// Six records spread over the tiny trace: a file small enough to sweep
/// byte by byte.
fn six_records() -> Trace {
    let trace = tiny_trace();
    let n = trace.len();
    let records = (0..6).map(|i| trace.records[i * (n - 1) / 5].clone());
    Trace::new(trace.seed, trace.days, records.collect())
}

/// The bytes `save_trace` writes for `trace` under `name`'s extension.
fn saved_bytes(trace: &Trace, name: &str) -> Vec<u8> {
    let path = scratch(name);
    save_trace(trace, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// What loading `bytes` as a file called `name` ends in: the record count,
/// or the error.
fn load_bytes(name: &str, bytes: &[u8]) -> Result<usize, TraceError> {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    let outcome = load_trace(&path).map(|t| t.len());
    std::fs::remove_file(&path).ok();
    outcome
}

/// A digest-valid `.vbt` header with the given schema version, record count
/// and framing window.
fn vbt_header(version: u32, records: u64, frame_secs: u64) -> Vec<u8> {
    let mut h = b"VIATRACE".to_vec();
    h.extend_from_slice(&version.to_le_bytes());
    h.extend_from_slice(&[0; 4]);
    h.extend_from_slice(&7u64.to_le_bytes());
    h.extend_from_slice(&1u64.to_le_bytes());
    h.extend_from_slice(&records.to_le_bytes());
    h.extend_from_slice(&frame_secs.to_le_bytes());
    let digest = fnv1a(FNV_BASIS, &h);
    h.extend_from_slice(&digest.to_le_bytes());
    h
}

/// A `.vbt` frame prefix: window 0, `count` records, `payload_len` bytes.
fn vbt_prefix(count: u32, payload_len: u32) -> Vec<u8> {
    let mut p = 0u64.to_le_bytes().to_vec();
    p.extend_from_slice(&count.to_le_bytes());
    p.extend_from_slice(&payload_len.to_le_bytes());
    p
}

/// A record source that claims `hint` as its record count, whatever it
/// holds.
struct Claiming<'a> {
    records: TraceRecords<'a>,
    hint: Option<u64>,
}

impl RecordSource for Claiming<'_> {
    fn next_record(&mut self) -> Result<Option<CallRecord>, TraceError> {
        self.records.next_record()
    }

    fn seed(&self) -> u64 {
        self.records.seed()
    }

    fn days(&self) -> u64 {
        self.records.days()
    }

    fn size_hint(&self) -> Option<u64> {
        self.hint
    }
}

/// One row of the hostile-input table: what the input ended in must be an
/// error of the variant `expect` names.
fn row<T: std::fmt::Debug>(
    name: &str,
    outcome: Result<T, TraceError>,
    expect: impl Fn(&TraceError) -> bool,
) {
    match outcome {
        Err(e) => assert!(expect(&e), "{name}: wrong variant {e:?}"),
        Ok(n) => panic!("{name}: accepted, {n:?}"),
    }
}

#[test]
fn every_reader_and_writer_error_has_its_own_variant() {
    let six = six_records();
    let jsonl = saved_bytes(&six, "table.jsonl");
    let vbt = saved_bytes(&six, "table.vbt");
    let text = String::from_utf8(jsonl.clone()).unwrap();
    let header_line = text.lines().next().unwrap();
    let with_header = |records: u64, body: &[u8]| {
        let mut file = format!("{{\"seed\":7,\"days\":1,\"records\":{records}}}\n").into_bytes();
        file.extend_from_slice(body);
        file
    };
    let long_line = vec![b'x'; 9 << 10];
    let missing_dir = std::env::temp_dir().join("via-trace-files-no-such-dir");
    let write_to = |name: &str, source: Claiming<'_>| {
        let path = scratch(name);
        let outcome = write_trace(source, &path, WindowLen::DAY);
        std::fs::remove_file(&path).ok();
        outcome
    };
    let claiming = |trace, hint| Claiming {
        records: TraceRecords::new(trace),
        hint,
    };
    let mut shuffled = six.records.clone();
    shuffled.swap(1, 4);
    let shuffled = saved_bytes(&Trace::new(7, 1, shuffled), "shuffled.jsonl");
    let mut bad_rating = six.records.clone();
    bad_rating[2].rating = Some(6);
    let bad_rating = Trace::new(7, 1, bad_rating);

    // Either format.
    row(
        "unknown extension, read",
        load_bytes("table.csv", &jsonl),
        |e| matches!(e, TraceError::UnknownFormat(_)),
    );
    row(
        "unknown extension, write",
        write_to("table.parquet", claiming(&six, Some(6))),
        |e| matches!(e, TraceError::UnknownFormat(_)),
    );
    row(
        "records out of order, streamed",
        {
            let path = scratch("shuffled.jsonl");
            std::fs::write(&path, &shuffled).unwrap();
            let stream = WindowStream::new(FileSource::open(&path).unwrap(), WindowLen::DAY);
            let outcome = stream
                .map(|b| b.map(|b| b.records.len()))
                .sum::<Result<usize, _>>();
            std::fs::remove_file(&path).ok();
            outcome
        },
        |e| matches!(e, TraceError::NotChronological { index: 2, .. }),
    );
    // JSONL reader.
    row(
        "jsonl: no such file",
        load_trace(&missing_dir.join("t.jsonl")).map(|t| t.len()),
        |e| matches!(e, TraceError::Io(_)),
    );
    row("jsonl: empty file", load_bytes("t.jsonl", b""), |e| {
        matches!(e, TraceError::MissingHeader)
    });
    row(
        "jsonl: header is not JSON",
        load_bytes("t.jsonl", b"not a header\n"),
        |e| matches!(e, TraceError::Parse { line: 1, .. }),
    );
    row(
        "jsonl: header count beyond the file",
        load_bytes("t.jsonl", &with_header(1_000, b"")),
        |e| matches!(e, TraceError::Parse { line: 1, .. }),
    );
    row(
        "jsonl: header line past the cap",
        load_bytes("t.jsonl", &long_line),
        |e| {
            matches!(
                e,
                TraceError::Parse {
                    line: 1,
                    byte_offset: 0,
                    ..
                }
            )
        },
    );
    row(
        "jsonl: record is not JSON",
        load_bytes("t.jsonl", &with_header(1, b"not-json\n")),
        |e| matches!(e, TraceError::Parse { line: 2, .. }),
    );
    row(
        "jsonl: record is not UTF-8",
        load_bytes("t.jsonl", &with_header(1, b"\xff\xfe\n")),
        |e| matches!(e, TraceError::Parse { line: 2, .. }),
    );
    row(
        "jsonl: record line past the cap",
        load_bytes("t.jsonl", &with_header(1, &long_line)),
        |e| matches!(e, TraceError::Parse { line: 2, .. }),
    );
    row(
        "jsonl: fewer records than the header's count",
        load_bytes(
            "t.jsonl",
            &jsonl[..jsonl.len() - 1 - text.lines().last().unwrap().len()],
        ),
        |e| {
            matches!(
                e,
                TraceError::CountMismatch {
                    expected: 6,
                    actual: 5
                }
            )
        },
    );
    row(
        "jsonl: more records than the header's count",
        load_bytes(
            "t.jsonl",
            text.replacen(
                header_line,
                &header_line.replace("\"records\":6", "\"records\":5"),
                1,
            )
            .as_bytes(),
        ),
        |e| {
            matches!(
                e,
                TraceError::CountMismatch {
                    expected: 5,
                    actual: 6
                }
            )
        },
    );
    // JSONL writer.
    row(
        "jsonl: write into a missing directory",
        write_trace(
            TraceRecords::new(&six),
            &missing_dir.join("t.jsonl"),
            WindowLen::DAY,
        ),
        |e| matches!(e, TraceError::Io(_)),
    );
    row(
        "jsonl: write from a source with no count",
        write_to("nocount.jsonl", claiming(&six, None)),
        |e| matches!(e, TraceError::Encode(_)),
    );
    row(
        "jsonl: write from a source short of its count",
        write_to("short.jsonl", claiming(&six, Some(7))),
        |e| matches!(e, TraceError::Encode(_)),
    );
    // `.vbt` reader.
    row(
        "vbt: no such file",
        load_trace(&missing_dir.join("t.vbt")).map(|t| t.len()),
        |e| matches!(e, TraceError::Io(_)),
    );
    row("vbt: empty file", load_bytes("t.vbt", b""), |e| {
        matches!(e, TraceError::Truncated { context: "header" })
    });
    row(
        "vbt: bad magic",
        load_bytes("t.vbt", &[&b"NOTATRCE"[..], &vbt[8..]].concat()),
        |e| matches!(e, TraceError::BadMagic),
    );
    row(
        "vbt: unknown schema version",
        load_bytes("t.vbt", &vbt_header(2, 0, SECS_PER_DAY)),
        |e| matches!(e, TraceError::BadVersion(2)),
    );
    row(
        "vbt: header digest mismatch",
        load_bytes("t.vbt", &{
            let mut v = vbt.clone();
            v[17] ^= 0x40;
            v
        }),
        |e| matches!(e, TraceError::BadDigest { .. }),
    );
    row(
        "vbt: zero framing window",
        load_bytes("t.vbt", &vbt_header(1, 0, 0)),
        |e| matches!(e, TraceError::BadField(_)),
    );
    row(
        "vbt: header count beyond the file",
        load_bytes("t.vbt", &vbt_header(1, 1, SECS_PER_DAY)),
        |e| {
            matches!(
                e,
                TraceError::Truncated {
                    context: "header's record count"
                }
            )
        },
    );
    row(
        "vbt: file ends inside a frame prefix",
        load_bytes(
            "t.vbt",
            &[vbt_header(1, 0, SECS_PER_DAY), vec![0; 8]].concat(),
        ),
        |e| {
            matches!(
                e,
                TraceError::Truncated {
                    context: "frame prefix"
                }
            )
        },
    );
    row(
        "vbt: frame count and payload length disagree",
        load_bytes(
            "t.vbt",
            &[vbt_header(1, 0, SECS_PER_DAY), vbt_prefix(1, 93)].concat(),
        ),
        |e| {
            matches!(
                e,
                TraceError::FrameMismatch {
                    count: 1,
                    payload_len: 93
                }
            )
        },
    );
    row(
        "vbt: a frame past the header's count",
        load_bytes(
            "t.vbt",
            &[vbt_header(1, 0, SECS_PER_DAY), vbt_prefix(1, 94)].concat(),
        ),
        |e| {
            matches!(
                e,
                TraceError::CountMismatch {
                    expected: 0,
                    actual: 1
                }
            )
        },
    );
    row(
        "vbt: file ends inside a frame payload",
        load_bytes(
            "t.vbt",
            &[
                vbt_header(1, 1, SECS_PER_DAY),
                vbt_prefix(1, 94),
                vec![0; RECORD_BYTES - 1],
            ]
            .concat(),
        ),
        |e| {
            matches!(
                e,
                TraceError::Truncated {
                    context: "frame payload"
                }
            )
        },
    );
    row(
        "vbt: frames end short of the header's count",
        load_bytes(
            "t.vbt",
            &[vbt_header(1, 1, SECS_PER_DAY), vbt_prefix(0, 0).repeat(6)].concat(),
        ),
        |e| {
            matches!(
                e,
                TraceError::CountMismatch {
                    expected: 1,
                    actual: 0
                }
            )
        },
    );
    // `.vbt` writer.
    row(
        "vbt: write into a missing directory",
        write_trace(
            TraceRecords::new(&six),
            &missing_dir.join("t.vbt"),
            WindowLen::DAY,
        ),
        |e| matches!(e, TraceError::Io(_)),
    );
    row(
        "vbt: write a rating outside 1–5",
        write_to("rating.vbt", claiming(&bad_rating, Some(6))),
        |e| matches!(e, TraceError::BadField(_)),
    );
}

/// What replaying `trace`, written to a file called `name`, against `world`
/// ends in: the calls replayed, or the error.
fn replay_file(
    name: &str,
    trace: &Trace,
    world: &World,
    kind: StrategyKind,
) -> Result<u64, TraceError> {
    let path = scratch(name);
    save_trace(trace, &path).unwrap();
    let cfg = ReplayConfig {
        seed: 7,
        workers: 1,
        collect_calls: false,
        ..ReplayConfig::default()
    };
    let outcome = ReplaySim::streaming(world, cfg)
        .run_stream(FileSource::open(&path).unwrap(), kind)
        .map(|out| out.aggregate.calls);
    std::fs::remove_file(&path).ok();
    outcome
}

/// The hostile-input table's expectation for a record refused at `at`.
fn bad_record(at: u64) -> impl Fn(&TraceError) -> bool {
    move |e| matches!(e, TraceError::BadRecord { index, .. } if *index == at)
}

/// Records that parse but that the world they replay against cannot mean:
/// each is refused with the index of the first such record, before any
/// worker indexes a table with it. `via analyze` runs the world-free half of
/// the same check.
#[test]
fn every_record_its_world_cannot_mean_is_a_typed_error() {
    let tiny = World::generate(&WorldConfig::tiny(), 7);
    let edited = |edit: fn(&mut CallRecord)| {
        let mut six = six_records();
        edit(&mut six.records[3]);
        six
    };

    // A trace of a larger world replayed against the tiny one.
    let small = World::generate(&WorldConfig::small(), 5);
    let foreign = TraceGenerator::new(&small, TraceConfig::tiny(), 5).generate();
    let first = foreign
        .records
        .iter()
        .position(|r| r.check(0, foreign.days, Some(&tiny)).is_err())
        .unwrap() as u64;
    for kind in [StrategyKind::Via, StrategyKind::Default] {
        row(
            "another world's trace, replayed",
            replay_file("foreign.vbt", &foreign, &tiny, kind),
            bad_record(first),
        );
    }
    row(
        "jsonl: src_as 4 000 000 000, replayed",
        replay_file(
            "as.jsonl",
            &edited(|r| r.src_as = AsId(4_000_000_000)),
            &tiny,
            StrategyKind::Via,
        ),
        bad_record(3),
    );
    row(
        "jsonl: src_country 99 999, replayed",
        replay_file(
            "country.jsonl",
            &edited(|r| r.src_country = CountryId(99_999)),
            &tiny,
            StrategyKind::Via,
        ),
        bad_record(3),
    );
    let negative_rtt = edited(|r| r.direct_metrics.rtt_ms = -1e308);
    row(
        "jsonl: rtt_ms -1e308, replayed",
        replay_file("rtt.jsonl", &negative_rtt, &tiny, StrategyKind::Via),
        bad_record(3),
    );
    row(
        "jsonl: rtt_ms -1e308, analyzed",
        (0..)
            .zip(&negative_rtt.records)
            .try_for_each(|(i, r)| r.check(i, negative_rtt.days, None)),
        bad_record(3),
    );
    row(
        "vbt: a NaN access loss, replayed",
        replay_file(
            "nan.vbt",
            &edited(|r| r.access_extra.loss_pct = f64::NAN),
            &tiny,
            StrategyKind::Via,
        ),
        bad_record(3),
    );
    row(
        "jsonl: loss past 100 %, replayed",
        replay_file(
            "loss.jsonl",
            &edited(|r| r.direct_metrics.loss_pct = 100.5),
            &tiny,
            StrategyKind::Via,
        ),
        bad_record(3),
    );
    let mut late = six_records();
    late.records[5].t = SimTime(late.days * SECS_PER_DAY);
    row(
        "vbt: a call past the trace's days, replayed",
        replay_file("late.vbt", &late, &tiny, StrategyKind::Via),
        bad_record(5),
    );
}

/// Every strict prefix of a six-record JSONL file is a typed error, except
/// the one that drops only the final newline: a last line needs none.
#[test]
fn every_strict_jsonl_prefix_is_a_typed_error() {
    let six = six_records();
    let bytes = saved_bytes(&six, "prefix.jsonl");
    assert_eq!(bytes.last(), Some(&b'\n'));
    let (mut parse, mut count, mut missing) = (0, 0, 0);
    for cut in 0..bytes.len() {
        match load_bytes("prefix.jsonl", &bytes[..cut]) {
            Err(TraceError::Parse { .. }) => parse += 1,
            Err(TraceError::CountMismatch { .. }) => count += 1,
            Err(TraceError::MissingHeader) => missing += 1,
            Err(e) => panic!("prefix of {cut} bytes: {e}"),
            Ok(n) => {
                assert_eq!(cut, bytes.len() - 1, "prefix of {cut} bytes loaded {n}");
                let path = scratch("prefix-full.jsonl");
                std::fs::write(&path, &bytes[..cut]).unwrap();
                assert_eq!(load_trace(&path).unwrap().records, six.records);
                std::fs::remove_file(&path).ok();
            }
        }
    }
    // Only the empty file has no header. A cut just after a record line's
    // newline, or just before it, leaves whole records short of the count:
    // two such cuts for each of the first five records.
    assert_eq!(missing, 1);
    assert_eq!(count, 2 * 5);
    assert_eq!(parse + count + missing + 1, bytes.len());
}

/// Every single-bit flip of a six-record JSONL file loads (a flipped digit
/// is another well-formed record) or is a typed error; none panics.
#[test]
fn every_single_bit_flip_of_a_jsonl_file_is_ok_or_typed() {
    let bytes = saved_bytes(&six_records(), "flip.jsonl");
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            match load_bytes("flip.jsonl", &flipped) {
                Ok(n) => assert_eq!(n, 6, "byte {pos} bit {bit}"),
                Err(
                    TraceError::Parse { .. }
                    | TraceError::CountMismatch { .. }
                    | TraceError::MissingHeader,
                ) => {}
                Err(e) => panic!("byte {pos} bit {bit}: {e}"),
            }
        }
    }
}

#[test]
fn jsonl_and_vbt_load_the_same_trace() {
    let trace = tiny_trace();
    let jsonl = scratch("same.jsonl");
    let vbt = scratch("same.vbt");
    save_trace(&trace, &jsonl).unwrap();
    save_trace(&trace, &vbt).unwrap();
    let (a, b) = (load_trace(&jsonl).unwrap(), load_trace(&vbt).unwrap());
    assert_eq!((a.seed, a.days), (b.seed, b.days));
    assert_eq!((a.seed, a.days), (trace.seed, trace.days));
    assert_eq!(a.records, b.records);
    assert_eq!(a.records, trace.records);
    std::fs::remove_file(&jsonl).ok();
    std::fs::remove_file(&vbt).ok();
}

#[test]
fn a_jsonl_header_count_beyond_the_file_is_a_typed_error() {
    let path = scratch("hostile.jsonl");
    for records in [1_000_000_000_000u64, u64::MAX] {
        std::fs::write(
            &path,
            format!("{{\"seed\":7,\"days\":1,\"records\":{records}}}\n"),
        )
        .unwrap();
        match load_trace(&path) {
            Err(TraceError::Parse { line: 1, .. }) => {}
            other => panic!("{records}-record header: {:?}", other.map(|t| t.len())),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_vbt_claiming_more_than_the_file_holds_is_a_typed_error() {
    let path = scratch("hostile.vbt");
    save_trace(&Trace::new(7, 1, Vec::new()), &path).unwrap();
    let header = std::fs::read(&path).unwrap();
    // One frame prefix claiming 45 M records and the matching 4.3 GB payload
    // length, with no payload behind it.
    let claim = u32::MAX / RECORD_BYTES as u32;
    let mut prefix = 0u64.to_le_bytes().to_vec();
    prefix.extend_from_slice(&claim.to_le_bytes());
    prefix.extend_from_slice(&(claim * RECORD_BYTES as u32).to_le_bytes());

    // Behind the empty trace's honest header: more records than it promised.
    let mut file = header.clone();
    file.extend_from_slice(&prefix);
    std::fs::write(&path, &file).unwrap();
    assert!(matches!(
        load_trace(&path),
        Err(TraceError::CountMismatch { .. })
    ));

    // Behind a header re-digested to promise the claim: the 72-byte file
    // cannot hold it.
    file[32..40].copy_from_slice(&u64::from(claim).to_le_bytes());
    let digest = fnv1a(FNV_BASIS, &file[0..48]);
    file[48..56].copy_from_slice(&digest.to_le_bytes());
    assert_eq!(file.len(), 72);
    std::fs::write(&path, &file).unwrap();
    assert!(matches!(
        load_trace(&path),
        Err(TraceError::Truncated { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_truncated_jsonl_trace_is_a_count_mismatch() {
    let trace = tiny_trace();
    let path = scratch("truncated.jsonl");
    save_trace(&trace, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let kept = text.lines().count() - 100;
    let body: String = text.lines().take(kept).map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, body).unwrap();
    match load_trace(&path) {
        Err(TraceError::CountMismatch { expected, actual }) => {
            assert_eq!(expected, trace.len() as u64);
            assert_eq!(actual, trace.len() as u64 - 100);
        }
        other => panic!("truncated trace: {:?}", other.map(|t| t.len())),
    }
    std::fs::remove_file(&path).ok();
}
