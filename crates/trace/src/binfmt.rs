//! The compact binary trace format (`.cct`) and its streaming reader/writer.
//!
//! Traces kept in memory as [`Trace`] values are convenient for experiments, but a trace
//! captured from a long-running program can be far larger than RAM. This module defines a
//! compact on-disk encoding plus a streaming [`TraceReader`] so such traces can be
//! replayed in bounded memory (the replay engine in `ccache-core` consumes the reader in
//! `run_batch`-sized chunks).
//!
//! # Format
//!
//! All multi-byte header fields are little-endian.
//!
//! ```text
//! Header (16 bytes):
//!   bytes 0..4   magic  b"CCTR"
//!   bytes 4..8   u32    format version (currently 1)
//!   bytes 8..16  u64    event count
//! Body: a sequence of runs, each holding consecutive events of one access kind:
//!   varint  h            h == 0 terminates the trace; otherwise
//!                        run length = h >> 1, is_write = h & 1
//!   then (h >> 1) times:
//!     varint  zigzag(addr - previous addr)   (wrapping u64 delta, first delta from 0)
//!     varint  size in bytes
//! ```
//!
//! Varints are LEB128 (7 data bits per byte, most-significant-bit continuation). Address
//! deltas are zigzag-encoded wrapping differences, so both ascending scans (tiny positive
//! deltas) and pointer chases (small negative deltas) stay short; the run-length header
//! amortises the read/write flag over every streak of same-kind accesses. Variable
//! annotations ([`MemAccess::var`]) are not preserved — the format records the address
//! stream the simulator replays, not the symbol table.
//!
//! Format violations — including an access extending past
//! [`ADDRESS_LIMIT`](crate::event::ADDRESS_LIMIT) — are reported as [`std::io::Error`]
//! with [`std::io::ErrorKind::InvalidData`].
//!
//! # Example
//!
//! ```
//! use ccache_trace::binfmt::{read_trace, write_trace};
//! use ccache_trace::synth::sequential_scan;
//!
//! let trace = sequential_scan(0x1000, 256, 32, 4, 2, None);
//! let mut bytes = Vec::new();
//! write_trace(&trace, &mut bytes)?;
//! let back = read_trace(&bytes[..])?;
//! assert_eq!(back.len(), trace.len());
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::event::{in_address_space, AccessKind, MemAccess};
use crate::trace::Trace;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// The four magic bytes that open every binary trace file.
pub const MAGIC: [u8; 4] = *b"CCTR";

/// The format version this module writes (and the only one it reads).
pub const FORMAT_VERSION: u32 = 1;

/// Size in bytes of the fixed file header.
pub const HEADER_LEN: usize = 16;

/// Maximum events the writer buffers into one run before flushing it; bounds writer
/// memory on uniform-kind streams (the format allows consecutive same-kind runs).
const MAX_RUN: usize = 4096;

/// Upper bound on the events [`TraceReader::read_to_trace`] reserves up front. The
/// header's event count is untrusted input, so it only sizes the first allocation up to
/// this cap; a longer trace grows the [`Trace`] as its body actually decodes.
const MAX_PREALLOC_EVENTS: u64 = 1 << 20;

/// The decoded fixed header of a binary trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version (see [`FORMAT_VERSION`]).
    pub version: u32,
    /// Number of events the body encodes.
    pub events: u64,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The error for the `index`-th (1-based) event extending past the address limit; kept
/// out of line so the per-event decode path stays small.
#[cold]
fn past_address_limit(index: u64, addr: u64, size: u32) -> io::Error {
    invalid(format!(
        "event {index}: access {addr:#x}+{size} extends past the 2^63 address limit"
    ))
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift == 63 && b > 1 {
            return Err(invalid("varint overflows 64 bits".to_owned()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(invalid("varint longer than 10 bytes".to_owned()));
        }
    }
}

fn zigzag(delta: u64) -> u64 {
    // Interpret the wrapping difference as signed and fold the sign into bit 0.
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    ((z >> 1) ^ (z & 1).wrapping_neg()) as i64 as u64
}

/// Incremental writer of the binary format.
///
/// The header carries the total event count, so the count must be declared up front;
/// [`TraceWriter::finish`] fails if the number of events written does not match. For
/// whole in-memory traces, [`write_trace`] is more convenient.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    declared: u64,
    written: u64,
    prev_addr: u64,
    /// Encoded (delta, size) pairs of the run being accumulated.
    run: Vec<(u64, u64)>,
    run_is_write: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the file header declaring `events` events.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(mut sink: W, events: u64) -> io::Result<Self> {
        sink.write_all(&MAGIC)?;
        sink.write_all(&FORMAT_VERSION.to_le_bytes())?;
        sink.write_all(&events.to_le_bytes())?;
        Ok(TraceWriter {
            sink,
            declared: events,
            written: 0,
            prev_addr: 0,
            run: Vec::new(),
            run_is_write: false,
        })
    }

    /// Appends one event given as `(address, size, is_write)`.
    ///
    /// # Errors
    ///
    /// Fails if more events are written than the header declared, or on I/O errors.
    pub fn write(&mut self, addr: u64, size: u32, is_write: bool) -> io::Result<()> {
        if self.written == self.declared {
            return Err(invalid(format!(
                "trace writer declared {} events but more were written",
                self.declared
            )));
        }
        if (is_write != self.run_is_write || self.run.len() >= MAX_RUN) && !self.run.is_empty() {
            self.flush_run()?;
        }
        self.run_is_write = is_write;
        self.run
            .push((zigzag(addr.wrapping_sub(self.prev_addr)), u64::from(size)));
        self.prev_addr = addr;
        self.written += 1;
        Ok(())
    }

    /// Appends one [`MemAccess`] (the variable annotation is dropped).
    ///
    /// # Errors
    ///
    /// See [`TraceWriter::write`].
    pub fn write_event(&mut self, ev: &MemAccess) -> io::Result<()> {
        self.write(ev.addr, ev.size, ev.is_write())
    }

    fn flush_run(&mut self) -> io::Result<()> {
        if self.run.is_empty() {
            return Ok(());
        }
        let header = ((self.run.len() as u64) << 1) | u64::from(self.run_is_write);
        write_varint(&mut self.sink, header)?;
        for &(delta, size) in &self.run {
            write_varint(&mut self.sink, delta)?;
            write_varint(&mut self.sink, size)?;
        }
        self.run.clear();
        Ok(())
    }

    /// Flushes the final run, writes the end-of-trace marker and returns the sink.
    ///
    /// # Errors
    ///
    /// Fails if fewer events were written than the header declared, or on I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        if self.written != self.declared {
            return Err(invalid(format!(
                "trace writer declared {} events but only {} were written",
                self.declared, self.written
            )));
        }
        self.flush_run()?;
        write_varint(&mut self.sink, 0)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Writes an in-memory trace in the binary format and returns the sink.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_trace<W: Write>(trace: &Trace, sink: W) -> io::Result<W> {
    let mut writer = TraceWriter::new(sink, trace.len() as u64)?;
    for ev in trace {
        writer.write_event(ev)?;
    }
    writer.finish()
}

/// Streaming decoder of the binary format.
///
/// The reader pulls events on demand, so a trace far larger than memory can be replayed:
/// [`TraceReader::read_chunk`] fills a bounded buffer with `(address, is_write)` pairs in
/// the shape `MemoryBackend::run_batch` consumes, and [`TraceReader::next_event`] yields
/// full [`MemAccess`] values one at a time (also available through the [`Iterator`]
/// implementation).
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    source: R,
    header: TraceHeader,
    prev_addr: u64,
    run_left: u64,
    run_is_write: bool,
    delivered: u64,
    done: bool,
}

impl TraceReader<BufReader<File>> {
    /// Opens a binary trace file for streaming.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened or its header is invalid.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a buffered byte source, validating the magic and version.
    ///
    /// # Errors
    ///
    /// Fails if the source does not start with the [`MAGIC`] bytes or declares an
    /// unsupported version.
    pub fn new(mut source: R) -> io::Result<Self> {
        let mut header = [0u8; HEADER_LEN];
        source.read_exact(&mut header)?;
        if header[0..4] != MAGIC {
            return Err(invalid("not a binary trace: bad magic".to_owned()));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(invalid(format!(
                "unsupported trace format version {version} (expected {FORMAT_VERSION})"
            )));
        }
        let events = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        Ok(TraceReader {
            source,
            header: TraceHeader { version, events },
            prev_addr: 0,
            run_left: 0,
            run_is_write: false,
            delivered: 0,
            done: false,
        })
    }

    /// The decoded file header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Events remaining according to the header.
    pub fn remaining(&self) -> u64 {
        self.header.events.saturating_sub(self.delivered)
    }

    /// Decodes the next event, or `None` at the end of the trace.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input, including an event count that does not
    /// match the header and an access extending past
    /// [`ADDRESS_LIMIT`](crate::event::ADDRESS_LIMIT).
    pub fn next_event(&mut self) -> io::Result<Option<MemAccess>> {
        if self.done {
            return Ok(None);
        }
        if self.run_left == 0 {
            let h = read_varint(&mut self.source)?;
            if h == 0 {
                self.done = true;
                if self.delivered != self.header.events {
                    return Err(invalid(format!(
                        "trace header declares {} events but the body holds {}",
                        self.header.events, self.delivered
                    )));
                }
                return Ok(None);
            }
            if h == 1 {
                return Err(invalid("empty write run".to_owned()));
            }
            self.run_left = h >> 1;
            self.run_is_write = h & 1 == 1;
        }
        let delta = read_varint(&mut self.source)?;
        let size = read_varint(&mut self.source)?;
        let size = u32::try_from(size)
            .map_err(|_| invalid(format!("access size {size} exceeds 32 bits")))?;
        let addr = self.prev_addr.wrapping_add(unzigzag(delta));
        // Checked before the event is built: this is the per-event decode path.
        if !in_address_space(addr, size) {
            return Err(past_address_limit(self.delivered + 1, addr, size));
        }
        self.prev_addr = addr;
        self.run_left -= 1;
        self.delivered += 1;
        if self.delivered > self.header.events {
            return Err(invalid(format!(
                "trace body holds more events than the {} the header declares",
                self.header.events
            )));
        }
        Ok(Some(MemAccess {
            addr,
            size,
            kind: if self.run_is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            var: None,
        }))
    }

    /// Appends up to `max` decoded `(address, is_write)` pairs to `buf` and returns how
    /// many were appended; `0` means the trace is exhausted.
    ///
    /// This is the replay fast path: the buffer shape matches
    /// `MemoryBackend::run_batch`, so a replay loop alternates `buf.clear()` /
    /// `read_chunk` / `run_batch` in bounded memory.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    pub fn read_chunk(&mut self, buf: &mut Vec<(u64, bool)>, max: usize) -> io::Result<usize> {
        let mut n = 0;
        while n < max {
            match self.next_event()? {
                Some(ev) => {
                    buf.push((ev.addr, ev.is_write()));
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }

    /// Reads every remaining event into an in-memory [`Trace`].
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input — including a header that declares more
    /// events than the body holds, however large the declared count.
    pub fn read_to_trace(&mut self) -> io::Result<Trace> {
        let reserve = self.remaining().min(MAX_PREALLOC_EVENTS);
        let mut t = Trace::with_capacity(usize::try_from(reserve).unwrap_or(0));
        while let Some(ev) = self.next_event()? {
            t.push(ev);
        }
        Ok(t)
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = io::Result<MemAccess>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

/// Decodes a whole binary trace from a byte source.
///
/// # Errors
///
/// Fails on a bad header or malformed body.
pub fn read_trace<R: Read>(source: R) -> io::Result<Trace> {
    TraceReader::new(BufReader::new(source))?.read_to_trace()
}

/// Returns `true` if `bytes` begin with the binary-trace magic.
pub fn is_binary_trace(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Returns `true` if the file at `path` begins with the binary-trace magic (anything
/// else — including files shorter than the magic — is treated as text).
///
/// # Errors
///
/// Propagates errors from opening or reading the file.
pub fn is_binary_trace_file<P: AsRef<Path>>(path: P) -> io::Result<bool> {
    let mut head = [0u8; MAGIC.len()];
    let filled = read_head(&mut File::open(path)?, &mut head)?;
    Ok(is_binary_trace(&head[..filled]))
}

/// Fills `head` from `source` as far as the source allows and returns how many bytes
/// were read (fewer than `head.len()` only at the end of the source).
pub(crate) fn read_head<R: Read>(source: &mut R, head: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < head.len() {
        let n = source.read(&mut head[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::VarId;
    use crate::synth::{pointer_chase, pseudo_random, sequential_scan};

    fn round_trip(trace: &Trace) -> Trace {
        let mut bytes = Vec::new();
        write_trace(trace, &mut bytes).unwrap();
        read_trace(&bytes[..]).unwrap()
    }

    fn strip_vars(trace: &Trace) -> Trace {
        trace
            .iter()
            .map(|e| MemAccess { var: None, ..*e })
            .collect()
    }

    #[test]
    fn round_trips_synthetic_traces() {
        for trace in [
            sequential_scan(0x1000, 1024, 32, 4, 3, Some(VarId(1))),
            pseudo_random(0x8000, 4096, 8, 500, 7, None),
            pointer_chase(0x0, 512, 8, 100, None),
            Trace::new(),
        ] {
            assert_eq!(round_trip(&trace), strip_vars(&trace));
        }
    }

    #[test]
    fn header_reports_version_and_count() {
        let trace = sequential_scan(0, 256, 32, 4, 1, None);
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        let reader = TraceReader::new(&bytes[..]).unwrap();
        assert_eq!(
            *reader.header(),
            TraceHeader {
                version: FORMAT_VERSION,
                events: trace.len() as u64
            }
        );
        assert!(is_binary_trace(&bytes));
        assert!(!is_binary_trace(b"R 0x10 4\n"));
    }

    #[test]
    fn encoding_is_compact_for_sequential_scans() {
        // A scan has constant small deltas and one kind: ~2 bytes per event.
        let trace = sequential_scan(0x10_0000, 32 * 1024, 32, 4, 1, None);
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        assert!(
            bytes.len() < trace.len() * 4,
            "{} bytes for {} events",
            bytes.len(),
            trace.len()
        );
    }

    #[test]
    fn uniform_kind_streams_flush_in_bounded_runs() {
        // More same-kind events than MAX_RUN: the writer must flush intermediate runs
        // (bounding its memory) and the reader must stitch them back seamlessly.
        let trace = sequential_scan(0, (3 * MAX_RUN as u64 + 17) * 8, 8, 4, 1, None);
        assert!(trace.len() > 3 * MAX_RUN);
        assert_eq!(round_trip(&trace), trace);
    }

    #[test]
    fn read_chunk_preserves_order_across_boundaries() {
        let trace = pseudo_random(0x4000, 2048, 4, 300, 3, None);
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let mut got = Vec::new();
        loop {
            let before = got.len();
            reader.read_chunk(&mut got, 7).unwrap();
            if got.len() == before {
                break;
            }
        }
        let want: Vec<(u64, bool)> = trace.iter().map(|e| (e.addr, e.is_write())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let err = TraceReader::new(&b"NOPE............"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let err = TraceReader::new(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("version 99"));
    }

    #[test]
    fn empty_runs_are_rejected() {
        // Run header 1 is a write run of length 0, which the writer never emits.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&[1, 0, 4, 0]);
        let err = read_trace(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("empty write run"), "{err}");
    }

    #[test]
    fn truncated_body_is_an_error() {
        let trace = sequential_scan(0, 256, 32, 4, 1, None);
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 3);
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let result: io::Result<Vec<MemAccess>> = reader.by_ref().collect();
        assert!(result.is_err());
    }

    #[test]
    fn mismatched_event_count_is_an_error() {
        let trace = sequential_scan(0, 128, 32, 4, 1, None);
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        // Lower the declared count below the body's true count.
        bytes[8..16].copy_from_slice(&1u64.to_le_bytes());
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let result: io::Result<Vec<MemAccess>> = reader.by_ref().collect();
        assert!(result.is_err());
    }

    #[test]
    fn hostile_event_count_is_an_error_not_an_abort() {
        // A 17-byte file: a valid header declaring 2^48 events, then the terminator.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 48).to_le_bytes());
        bytes.push(0);
        assert_eq!(bytes.len(), 17);
        let err = TraceReader::new(&bytes[..])
            .unwrap()
            .read_to_trace()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("declares 281474976710656 events"));
    }

    #[test]
    fn writer_enforces_declared_count() {
        let mut w = TraceWriter::new(Vec::new(), 1).unwrap();
        w.write(0x10, 4, false).unwrap();
        assert!(w.write(0x20, 4, false).is_err());
        let w = TraceWriter::new(Vec::new(), 2).unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn extreme_deltas_round_trip_up_to_the_address_limit() {
        let top = crate::ADDRESS_LIMIT;
        let mut t = Trace::new();
        t.push(MemAccess::read(top - 4, 4));
        t.push(MemAccess::read(0, 4));
        t.push(MemAccess::write(top - 1, 1));
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn accesses_past_the_address_limit_are_rejected() {
        // The writer encodes any address; the reader refuses what the simulator's
        // address arithmetic cannot hold.
        for (addr, size) in [
            (u64::MAX, 8),
            (0xffff_ffff_ffff_ffe0, 4),
            (crate::ADDRESS_LIMIT - 2, 4),
        ] {
            let mut t = Trace::new();
            t.push(MemAccess::write(0x10, 4));
            t.push(MemAccess::read(addr, size));
            let mut bytes = Vec::new();
            write_trace(&t, &mut bytes).unwrap();
            let err = read_trace(&bytes[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().starts_with("event 2: "), "{err}");
        }
    }
}
