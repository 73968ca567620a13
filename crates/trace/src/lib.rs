//! Memory reference traces for the column-caching reproduction.
//!
//! This crate provides the *trace substrate* used throughout the workspace:
//!
//! * [`event::MemAccess`] — a single memory reference (address, size, read/write,
//!   optional program-variable annotation).
//! * [`trace::Trace`] — an ordered sequence of references, the unit consumed by the
//!   cache simulator in `ccache-sim`.
//! * [`region::SymbolTable`] and [`region::VariableRegion`] — the mapping between program
//!   variables (arrays, scalars) and the address ranges they occupy.
//! * [`recorder::TraceRecorder`] — used by the instrumented workloads in
//!   `ccache-workloads` to emit a reference stream while real Rust kernels execute.
//! * [`lifetime::Interval`] — lifetime intervals `[first, last]` over trace positions.
//! * [`synth`] — synthetic reference-stream generators used by tests and ablations.
//! * [`infer`] — symbol-table inference for raw traces (cluster touched lines into
//!   synthetic regions), so file traces without annotations can still drive the layout
//!   and search tooling.
//! * [`binfmt`] — the compact binary on-disk trace format (magic + version header,
//!   varint delta-encoded addresses, run-length read/write flags) and the streaming
//!   [`binfmt::TraceReader`] that replays traces larger than memory.
//! * [`textfmt`] — the line-oriented text trace format (`R 0x1000 4`) for hand-written
//!   traces and inspection.
//! * [`read_trace_file`] — the one loader for trace files in either format.
//!
//! # Example
//!
//! ```
//! use ccache_trace::recorder::TraceRecorder;
//! use ccache_trace::event::AccessKind;
//!
//! let mut rec = TraceRecorder::new();
//! let a = rec.allocate("a", 64, 8);
//! let b = rec.allocate("b", 64, 8);
//! for i in 0..8u64 {
//!     rec.record(a, i * 8, 8, AccessKind::Read);
//!     rec.record(b, i * 8, 8, AccessKind::Write);
//! }
//! let (trace, symbols) = rec.finish();
//! assert_eq!(trace.len(), 16);
//! assert_eq!(symbols.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod binfmt;
pub mod error;
pub mod event;
pub mod infer;
pub mod lifetime;
pub mod recorder;
pub mod region;
pub mod synth;
pub mod textfmt;
pub mod trace;

pub use binfmt::{TraceHeader, TraceReader, TraceWriter};
pub use error::TraceError;
pub use event::{AccessKind, MemAccess, VarId, ADDRESS_LIMIT};
pub use infer::infer_symbols;
pub use lifetime::Interval;
pub use recorder::TraceRecorder;
pub use region::{SymbolTable, VariableRegion};
pub use trace::Trace;

/// Reads a whole trace file in either format: the magic is checked once, then the file
/// is rewound and a binary trace decodes through [`TraceReader::read_to_trace`] and
/// anything else through [`textfmt::read_trace`]. A file that is a non-empty proper prefix
/// of the magic is a binary trace cut short, and an empty file an empty text trace (as
/// [`binfmt::is_binary_trace_file`] sniffs them).
///
/// # Errors
///
/// Fails if the file cannot be read or rewound, or does not decode in the format its
/// magic selects.
pub fn read_trace_file<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Trace> {
    use std::io::{BufReader, Seek};
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; binfmt::MAGIC.len()];
    let filled = binfmt::read_head(&mut file, &mut head)?;
    // Rewound rather than chained back on: decoding through the `BufReader<File>` that
    // streamed replays also use keeps the per-byte varint reads inlined; a second reader
    // type slowed streamed `.cct` replays by a quarter.
    file.rewind()?;
    let source = BufReader::new(file);
    if binfmt::sniffs_binary(&head[..filled]) {
        TraceReader::new(source)?.read_to_trace()
    } else {
        textfmt::read_trace(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::pseudo_random;

    #[test]
    fn trace_files_load_in_either_format() {
        let dir = std::env::temp_dir().join(format!("ccache-trace-files-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = pseudo_random(0x4000, 4096, 4, 300, 5, None);
        let binary = dir.join("t.cct");
        let text = dir.join("t.trace");
        binfmt::write_trace(&trace, std::fs::File::create(&binary).unwrap()).unwrap();
        textfmt::write_trace(&trace, std::fs::File::create(&text).unwrap()).unwrap();
        assert_eq!(read_trace_file(&binary).unwrap(), trace);
        assert_eq!(read_trace_file(&text).unwrap(), trace);

        // Short files that are not a prefix of the magic are text, and so is an empty
        // file; a truncated binary header is an error, even inside the magic.
        let short = dir.join("short.trace");
        std::fs::write(&short, "\n\n").unwrap();
        assert!(read_trace_file(&short).unwrap().is_empty());
        std::fs::write(&short, "").unwrap();
        assert!(read_trace_file(&short).unwrap().is_empty());
        for cut in 1..=binfmt::MAGIC.len() {
            std::fs::write(&binary, &binfmt::MAGIC[..cut]).unwrap();
            assert!(read_trace_file(&binary).is_err());
        }
        assert!(read_trace_file(dir.join("missing.cct")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
