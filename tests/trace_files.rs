//! The trace file plane end to end: one trace read back equal from both
//! formats, and hostile files — header counts the file cannot hold, frames
//! claiming gigabytes, a truncated JSONL body — refused with a typed error
//! instead of an abort or a silently shorter trace.

use std::path::PathBuf;

use via::netsim::{World, WorldConfig};
use via::trace::binfmt::{BinError, RECORD_BYTES};
use via::trace::io::TraceIoError;
use via::trace::{load_trace, save_trace, Trace, TraceConfig, TraceError, TraceGenerator};

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("via-trace-files-{}-{name}", std::process::id()))
}

fn tiny_trace() -> Trace {
    let world = World::generate(&WorldConfig::tiny(), 7);
    TraceGenerator::new(&world, TraceConfig::tiny(), 7).generate()
}

/// The `.vbt` header digest: FNV-1a over bytes 0..48, recomputable by
/// anyone — which is why the reader checks counts against the file too.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
            Err(TraceError::Jsonl(TraceIoError::Parse { line: 1, .. })) => {}
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
        Err(TraceError::Binary(BinError::CountMismatch { .. }))
    ));

    // Behind a header re-digested to promise the claim: the 72-byte file
    // cannot hold it.
    file[32..40].copy_from_slice(&u64::from(claim).to_le_bytes());
    let digest = fnv1a(&file[0..48]);
    file[48..56].copy_from_slice(&digest.to_le_bytes());
    assert_eq!(file.len(), 72);
    std::fs::write(&path, &file).unwrap();
    assert!(matches!(
        load_trace(&path),
        Err(TraceError::Binary(BinError::Truncated { .. }))
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
        Err(TraceError::Jsonl(TraceIoError::CountMismatch { expected, actual })) => {
            assert_eq!(expected, trace.len() as u64);
            assert_eq!(actual, trace.len() as u64 - 100);
        }
        other => panic!("truncated trace: {:?}", other.map(|t| t.len())),
    }
    std::fs::remove_file(&path).ok();
}
