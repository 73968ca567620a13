//! Hostile-bytes properties of the two trace decoders: arbitrary bytes, arbitrary bodies
//! behind a well-formed binary header, and single-byte mutations of valid encodings are
//! fed to `binfmt::TraceReader` and `textfmt::read_trace`.
//!
//! Every input must decode or fail with an `io::Error`, never panic. The in-memory decode
//! (`TraceReader::read_to_trace`) and the streamed replay (`ReplayEngine::replay_reader`)
//! must accept exactly the same inputs. Every accepted trace must survive `Trace::stats`
//! and `infer_symbols`, whose address arithmetic runs under the test profile's overflow
//! checks.

use column_caching::core::engine::ReplayEngine;
use column_caching::sim::backend::BackendKind;
use column_caching::sim::SystemConfig;
use column_caching::trace::binfmt::{self, TraceReader, FORMAT_VERSION, MAGIC};
use column_caching::trace::infer::infer_symbols;
use column_caching::trace::{textfmt, MemAccess, Trace, ADDRESS_LIMIT};
use proptest::prelude::*;

/// What analysis downstream of the decoders assumes of an accepted trace.
fn survives_analysis(trace: &Trace) {
    let stats = trace.stats();
    assert_eq!(stats.events, trace.len());
    assert!(
        trace.is_empty() || stats.max_addr < ADDRESS_LIMIT,
        "{stats:?}"
    );
    for granularity in [1, 32, 4096] {
        let symbols = infer_symbols(trace, 4096, granularity);
        for ev in trace {
            assert!(symbols.resolve(ev.addr).is_some(), "{ev} has no region");
        }
    }
}

/// Decodes `bytes` as a binary trace, in memory and streamed through a replay.
fn check_binary(bytes: &[u8]) {
    let decoded = TraceReader::new(bytes).and_then(|mut reader| reader.read_to_trace());
    let mut engine = ReplayEngine::new(BackendKind::ColumnCache, SystemConfig::default())
        .expect("default configuration is valid");
    let streamed =
        TraceReader::new(bytes).and_then(|mut reader| engine.replay_reader("hostile", &mut reader));
    match (&decoded, &streamed) {
        (Ok(trace), Ok(result)) => {
            assert_eq!(result.references, trace.len() as u64);
            survives_analysis(trace);
        }
        (Err(_), Err(_)) => {}
        (decoded, streamed) => panic!(
            "in-memory and streamed decoding disagree: {:?} vs {:?}",
            decoded.as_ref().map(Trace::len),
            streamed.as_ref().map(|r| r.references)
        ),
    }
}

/// Decodes `bytes` as a text trace.
fn check_text(bytes: &[u8]) {
    if let Ok(trace) = textfmt::read_trace(bytes) {
        survives_analysis(&trace);
    }
}

fn header(events: u64) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&events.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_decode_or_fail_cleanly(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        check_binary(&bytes);
        check_text(&bytes);
    }

    /// Past the magic check, so the body decoder sees the hostile bytes; the declared
    /// event count ranges from 0 to far beyond anything allocatable.
    #[test]
    fn arbitrary_bodies_behind_a_valid_header_decode_or_fail_cleanly(
        declared in 0u64..64,
        shift in 0u32..64,
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = header(declared.wrapping_shl(shift));
        bytes.extend_from_slice(&body);
        check_binary(&bytes);
    }

    /// One byte of a valid binary or text encoding replaced; addresses run up to the
    /// address limit so a mutated delta, size or digit can push an access past it.
    #[test]
    fn single_byte_mutations_of_valid_encodings_decode_or_fail_cleanly(
        ops in prop::collection::vec((0u64..ADDRESS_LIMIT - 64, 1u32..64, any::<bool>()), 1..64),
        pos in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let trace: Trace = ops
            .iter()
            .map(|&(addr, size, w)| if w {
                MemAccess::write(addr, size)
            } else {
                MemAccess::read(addr, size)
            })
            .collect();
        let mut binary = binfmt::write_trace(&trace, Vec::new()).unwrap();
        let at = pos % binary.len();
        binary[at] ^= flip;
        check_binary(&binary);

        let mut text = textfmt::write_trace(&trace, Vec::new()).unwrap();
        let at = pos % text.len();
        text[at] ^= flip;
        check_text(&text);
    }
}
