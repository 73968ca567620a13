//! Cross-crate property: replaying a trace through the compact binary format — encode,
//! then stream-decode through `ReplayEngine::replay_reader` in bounded batches — yields
//! **bit-identical** run results to replaying the in-memory trace, for every backend
//! kind and arbitrary reference streams.

use column_caching::core::engine::ReplayEngine;
use column_caching::core::runner::{CacheMapping, RegionMapping};
use column_caching::sim::backend::BackendKind;
use column_caching::sim::{ColumnMask, SystemConfig};
use column_caching::trace::binfmt::{
    is_binary_trace_file, read_trace, write_trace, TraceReader, HEADER_LEN,
};
use column_caching::trace::{read_trace_file, MemAccess, Trace};
use proptest::prelude::*;

fn config() -> SystemConfig {
    SystemConfig {
        page_size: 256,
        ..SystemConfig::default()
    }
}

fn mapping() -> CacheMapping {
    let mut m = CacheMapping::new();
    m.map(
        0x0,
        512,
        RegionMapping::Exclusive {
            mask: ColumnMask::single(0),
            preload: true,
        },
    );
    m.map(
        0x10_0000,
        0x1_0000,
        RegionMapping::Columns {
            mask: ColumnMask::single(3),
        },
    );
    m.map(0x8000, 256, RegionMapping::Uncached);
    m
}

fn build_trace(ops: &[(u16, u8, bool)]) -> Trace {
    // Project the raw tuples onto the mapped regions so the replay exercises
    // exclusive/preloaded, column-restricted, uncached and default pages alike.
    ops.iter()
        .map(|&(off, region, w)| {
            let base = match region % 4 {
                0 => 0x0,
                1 => 0x10_0000,
                2 => 0x8000,
                _ => 0x4_0000,
            };
            let addr = base + u64::from(off) * 4;
            let size = 4;
            if w {
                MemAccess::write(addr, size)
            } else {
                MemAccess::read(addr, size)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streaming binary-format replay is bit-identical to in-memory replay, at every
    /// batch size, for every backend.
    #[test]
    fn binary_stream_replay_is_bit_identical_to_in_memory_replay(
        ops in prop::collection::vec((any::<u16>(), any::<u8>(), any::<bool>()), 1..600),
        batch in 1usize..512,
    ) {
        let trace = build_trace(&ops);
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();

        for kind in BackendKind::ALL {
            let mut engine = ReplayEngine::new(kind, config()).unwrap();
            engine.apply(&mapping()).unwrap();
            engine.set_batch_size(batch);
            engine.snapshot();

            let in_memory = engine.replay("run", &trace);

            engine.reset();
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let streamed = engine.replay_reader("run", &mut reader).unwrap();

            // RunResult derives PartialEq over every statistic — cycles, hit/miss
            // counts, writebacks, the cycle report — so equality here is bit-identity
            // of the whole result.
            prop_assert_eq!(in_memory, streamed, "backend {}", kind);
        }
    }
}

/// A `.cct` file cut anywhere in its header — inside its magic too — is a binary trace
/// cut short: the format sniffer reads it as binary, so `read_trace_file` names the
/// header, and a file cut right after the header names the first event. An empty file
/// stays an empty text trace.
#[test]
fn a_trace_file_cut_in_its_header_is_a_cut_binary_trace() {
    let trace = build_trace(&[(1, 0, false), (2, 1, true), (3, 2, false)]);
    let mut bytes = Vec::new();
    write_trace(&trace, &mut bytes).unwrap();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cut-header.cct");
    for cut in 1..=HEADER_LEN {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(is_binary_trace_file(&path).unwrap(), "cut at {cut}");
        let err = read_trace_file(&path).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof,
            "cut at {cut}"
        );
        let message = err.to_string();
        if cut < HEADER_LEN {
            assert_eq!(
                message,
                format!("header: the file ends after {cut} of its {HEADER_LEN} bytes")
            );
        } else {
            assert!(message.starts_with("event 1: "), "cut at {cut}: {message}");
        }
    }
    std::fs::write(&path, b"").unwrap();
    assert!(!is_binary_trace_file(&path).unwrap());
    assert!(read_trace_file(&path).unwrap().is_empty());
}

/// A `.cct` cut short at any byte fails with `UnexpectedEof` and an error that names
/// where: the header, or the event being decoded. That event number never falls as the
/// cut moves later, starts at 1 and ends one past the last event, where only the end
/// marker is missing. A streamed replay of a cut file fails with the same error.
#[test]
fn a_cut_binary_trace_names_the_header_or_the_event() {
    let ops: Vec<(u16, u8, bool)> = (0..40u16)
        .map(|i| (i.wrapping_mul(7919), (i % 7) as u8, i % 3 == 0))
        .collect();
    let trace = build_trace(&ops);
    let mut bytes = Vec::new();
    write_trace(&trace, &mut bytes).unwrap();

    let mut last_event = 0;
    for cut in 0..bytes.len() {
        let err = read_trace(&bytes[..cut]).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof,
            "cut at {cut}: {err}"
        );
        let message = err.to_string();
        if cut < HEADER_LEN {
            assert!(message.starts_with("header: "), "cut at {cut}: {message}");
            continue;
        }
        let event: u64 = message
            .strip_prefix("event ")
            .and_then(|rest| rest.split(':').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("cut at {cut}: {message}"));
        if cut == HEADER_LEN {
            assert_eq!(event, 1, "{message}");
        }
        assert!(event >= last_event, "cut at {cut}: {message}");
        last_event = event;

        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        let mut reader = TraceReader::new(&bytes[..cut]).unwrap();
        let streamed = engine.replay_reader("cut", &mut reader).unwrap_err();
        assert_eq!(streamed.to_string(), message, "cut at {cut}");
    }
    assert_eq!(last_event, trace.len() as u64 + 1);
}
