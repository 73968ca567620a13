//! A line-oriented text trace format, for hand-written traces and inspection.
//!
//! One event per line: the access kind (`R` or `W`), the byte address (hexadecimal with a
//! `0x` prefix, or decimal), and the access size in bytes. Blank lines and lines starting
//! with `#` are ignored, so files can carry comments:
//!
//! ```text
//! # two reads and a write
//! R 0x1000 4
//! R 0x1004 4
//! W 4104 8
//! ```
//!
//! This is the human-facing companion of the compact binary format in [`crate::binfmt`]:
//! `ccache trace convert` translates between the two. Like the binary format, variable
//! annotations are not represented, and every access must end at or below
//! [`ADDRESS_LIMIT`](crate::event::ADDRESS_LIMIT). A line may hold at most
//! [`MAX_LINE_BYTES`] bytes before its newline, so a reader never buffers more than that
//! of a file with no line breaks (such as `/dev/zero`). Parse problems are reported as
//! [`std::io::Error`] with [`std::io::ErrorKind::InvalidData`] and a line number.

use crate::event::{in_address_space, AccessKind, MemAccess};
use crate::trace::Trace;
use std::io::{self, BufRead, Read, Write};

/// The longest line, in bytes before its newline, the reader accepts. A written event
/// line is under 40 bytes; a longer line is refused without reading past the limit.
pub const MAX_LINE_BYTES: usize = 4096;

fn invalid(line_no: usize, msg: &str, line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {line_no}: {msg}: {line:?}"),
    )
}

fn parse_u64(token: &str) -> Option<u64> {
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token.parse().ok()
    }
}

/// Parses one non-comment line into an event.
///
/// # Errors
///
/// Fails with [`std::io::ErrorKind::InvalidData`] if the line is not `R|W <addr> <size>`
/// or the access extends past [`ADDRESS_LIMIT`](crate::event::ADDRESS_LIMIT).
fn parse_line(line_no: usize, line: &str) -> io::Result<MemAccess> {
    let mut tokens = line.split_whitespace();
    let kind = match tokens.next() {
        Some("R") | Some("r") => AccessKind::Read,
        Some("W") | Some("w") => AccessKind::Write,
        _ => return Err(invalid(line_no, "expected access kind 'R' or 'W'", line)),
    };
    let addr = tokens
        .next()
        .and_then(parse_u64)
        .ok_or_else(|| invalid(line_no, "expected an address", line))?;
    let size = tokens
        .next()
        .and_then(parse_u64)
        .and_then(|s| u32::try_from(s).ok())
        .ok_or_else(|| invalid(line_no, "expected a size in bytes", line))?;
    if tokens.next().is_some() {
        return Err(invalid(line_no, "trailing tokens after size", line));
    }
    if !in_address_space(addr, size) {
        return Err(invalid(
            line_no,
            "access extends past the 2^63 address limit",
            line,
        ));
    }
    Ok(MemAccess {
        addr,
        size,
        kind,
        var: None,
    })
}

/// Decodes the events of a text trace one line at a time, skipping blank and `#` lines.
///
/// This is the one text decoding loop: [`read_trace`] collects it and `ccache trace info`
/// streams it. Iteration ends after the first error.
///
/// # Errors
///
/// Each item fails on an I/O error, a line longer than [`MAX_LINE_BYTES`], a line that is
/// not UTF-8 or a malformed line; every decoding error names the line.
pub fn events<R: BufRead>(mut source: R) -> impl Iterator<Item = io::Result<MemAccess>> {
    let mut raw = Vec::new();
    let mut line_no = 0usize;
    let mut failed = false;
    std::iter::from_fn(move || loop {
        if failed {
            return None;
        }
        raw.clear();
        // One byte past the limit tells an overlong line from one that fits.
        let item = match (&mut source)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut raw)
        {
            Ok(0) => return None,
            Ok(_) => {
                line_no += 1;
                decode_line(line_no, &raw).transpose()
            }
            Err(e) => Some(Err(e)),
        };
        failed = matches!(item, Some(Err(_)));
        if item.is_some() {
            return item;
        }
    })
}

/// Decodes one raw line, newline included if present: `None` for blank and comment
/// lines.
fn decode_line(line_no: usize, raw: &[u8]) -> io::Result<Option<MemAccess>> {
    let bytes = raw.strip_suffix(b"\n").unwrap_or(raw);
    let refuse = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if bytes.len() > MAX_LINE_BYTES {
        return Err(refuse(format!(
            "line {line_no}: longer than {MAX_LINE_BYTES} bytes"
        )));
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|_| refuse(format!("line {line_no}: not valid UTF-8")))?
        .trim();
    if text.is_empty() || text.starts_with('#') {
        return Ok(None);
    }
    parse_line(line_no, text).map(Some)
}

/// Reads a whole text trace from a buffered source.
///
/// # Errors
///
/// Fails on I/O errors, overlong lines or malformed lines.
pub fn read_trace<R: BufRead>(source: R) -> io::Result<Trace> {
    events(source).collect()
}

/// Writes one event as a text line (`R 0x1000 4`). This is the single definition of the
/// output grammar; [`write_trace`] and streaming converters both go through it.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_event<W: Write>(sink: &mut W, ev: &MemAccess) -> io::Result<()> {
    writeln!(
        sink,
        "{} {:#x} {}",
        if ev.is_write() { 'W' } else { 'R' },
        ev.addr,
        ev.size
    )
}

/// Writes a trace in the text format and returns the sink.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_trace<W: Write>(trace: &Trace, mut sink: W) -> io::Result<W> {
    for ev in trace {
        write_event(&mut sink, ev)?;
    }
    sink.flush()?;
    Ok(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::VarId;
    use crate::synth::pseudo_random;

    #[test]
    fn round_trips_through_text() {
        let trace = pseudo_random(0x4000, 1024, 4, 200, 11, Some(VarId(3)));
        let bytes = write_trace(&trace, Vec::new()).unwrap();
        let back = read_trace(&bytes[..]).unwrap();
        let stripped: Trace = trace
            .iter()
            .map(|e| MemAccess { var: None, ..*e })
            .collect();
        assert_eq!(back, stripped);
    }

    #[test]
    fn comments_blanks_and_number_bases_are_accepted() {
        let text = "# header comment\n\nR 0x10 4\nw 32 8\n  # indented comment\nR 0X20 2\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.get(0).unwrap().addr, 0x10);
        assert!(trace.get(1).unwrap().is_write());
        assert_eq!(trace.get(1).unwrap().addr, 32);
        assert_eq!(trace.get(2).unwrap().addr, 0x20);
    }

    #[test]
    fn malformed_lines_name_the_line_number() {
        for bad in ["X 0x10 4", "R zzz 4", "R 0x10", "R 0x10 4 extra"] {
            let err = read_trace(format!("R 0x0 4\n{bad}\n").as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("line 2"), "{err}");
        }
    }

    #[test]
    fn a_line_of_exactly_the_limit_parses_and_one_byte_more_is_refused() {
        let fitting = format!("{:<width$}", "W 0x40 8", width = MAX_LINE_BYTES);
        let trace = read_trace(format!("R 0x0 4\n{fitting}\n").as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        assert!(trace.get(1).unwrap().is_write());
        let comment = format!("#{}", "x".repeat(MAX_LINE_BYTES - 1));
        assert_eq!(read_trace(comment.as_bytes()).unwrap().len(), 0);

        for overlong in [format!("{fitting} "), format!("{comment}x")] {
            for text in [
                format!("R 0x0 4\n{overlong}\n"),
                format!("R 0x0 4\n{overlong}"),
            ] {
                let err = read_trace(text.as_bytes()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert_eq!(err.to_string(), "line 2: longer than 4096 bytes");
            }
        }
    }

    #[test]
    fn a_file_without_line_breaks_is_refused_after_one_line_of_reading() {
        /// Counts the bytes pulled from the wrapped reader.
        struct Counting<R> {
            inner: R,
            read: u64,
        }
        impl<R: Read> Read for Counting<R> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.inner.read(buf)?;
                self.read += n as u64;
                Ok(n)
            }
        }
        let mut source = Counting {
            inner: io::repeat(0).take(64 << 20),
            read: 0,
        };
        let buffered = io::BufReader::new(&mut source);
        let capacity = buffered.capacity() as u64;
        let err = read_trace(buffered).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 1: longer than 4096 bytes");
        assert!(
            source.read <= MAX_LINE_BYTES as u64 + 1 + capacity,
            "read {} bytes",
            source.read
        );
    }

    #[test]
    fn events_stop_after_the_first_error() {
        let items: Vec<_> = events("R 0x0 4\nbogus\nR 0x8 4\n".as_bytes()).collect();
        assert_eq!(items.len(), 2);
        assert!(items[0].is_ok());
        assert!(items[1]
            .as_ref()
            .unwrap_err()
            .to_string()
            .contains("line 2"));
        let err = read_trace(&[b'R', b' ', 0xff, b'\n'][..]).unwrap_err();
        assert_eq!(err.to_string(), "line 1: not valid UTF-8");
    }

    #[test]
    fn accesses_past_the_address_limit_are_rejected() {
        let last = read_trace("R 0x7ffffffffffffff8 8\n".as_bytes()).unwrap();
        assert_eq!(last.get(0).unwrap().last_byte(), crate::ADDRESS_LIMIT - 1);
        for bad in [
            "R 0xffffffffffffffff 8",
            "R 0xffffffffffffffe0 4",
            "W 0x7ffffffffffffffd 4",
        ] {
            let err = read_trace(format!("{bad}\nW 0x10 4\n").as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().starts_with("line 1: "), "{err}");
            assert!(err.to_string().contains("address limit"), "{err}");
        }
    }
}
