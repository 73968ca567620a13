//! `ccache trace` — record, inspect and convert trace files.
//!
//! Three sub-subcommands:
//!
//! * `record`  — generate a synthetic reference stream and write it as a trace file;
//! * `info`    — print the header and summary statistics of a trace file (streaming, so
//!   it works on files larger than memory);
//! * `convert` — translate between the text and compact binary formats.

use crate::args::ArgParser;
use crate::error::CliError;
use crate::output::{emit, markdown_table, OutputFormat, Render};
use ccache_json::{Json, ToJson};
use ccache_trace::binfmt::{self, TraceReader, TraceWriter};
use ccache_trace::synth;
use ccache_trace::textfmt;
use ccache_trace::Trace;
use std::fmt::Write as _;
use std::io::{BufReader, BufWriter};

/// Help text for `ccache trace`.
pub const USAGE: &str = "\
usage: ccache trace <record|info|convert> [options]

subcommands:
  record   generate a synthetic trace file
             --gen KIND      scan | rmw | random | chase (default: scan)
             --base ADDR     start address (default: 0)
             --len BYTES     region length (default: 65536)
             --stride BYTES  scan/rmw stride (default: 32)
             --size BYTES    access size (default: 4)
             --passes N      scan/rmw passes over the region (default: 1)
             --count N       random/chase access count (default: 65536)
             --seed N        random seed (default: 42)
             --out FILE      output path (required)
             --format FMT    binary | text (default: binary)
  info     print header and summary statistics of a trace file
             FILE            the trace to inspect (positional)
             --format FMT    json | csv | markdown (default: markdown)
             --out FILE      write the report to FILE instead of stdout
  convert  translate a trace between the text and binary formats
             IN OUT          input and output paths (positional); the input format is
                             detected by magic and the output gets the other format
             --to FMT        force the output format: binary | text
";

/// Dispatches the `trace` sub-subcommands.
///
/// # Errors
///
/// Fails on usage errors or I/O failures.
pub fn run(mut args: Vec<String>) -> Result<(), CliError> {
    if args.first().map(String::as_str) == Some("--help")
        || args.first().map(String::as_str) == Some("-h")
        || args.is_empty()
    {
        print!("{USAGE}");
        return Ok(());
    }
    let sub = args.remove(0);
    match sub.as_str() {
        "record" => record(args),
        "info" => info(args),
        "convert" => convert(args),
        other => Err(CliError::usage(format!(
            "unknown subcommand 'trace {other}' (expected record, info or convert; try 'ccache trace --help')"
        ))),
    }
}

fn record(args: Vec<String>) -> Result<(), CliError> {
    let mut p = ArgParser::new("trace record", args);
    if p.flag(&["--help", "-h"]) {
        print!("{USAGE}");
        return Ok(());
    }
    let gen = p.value("--gen")?.unwrap_or_else(|| "scan".to_owned());
    let base = p.parsed::<u64>("--base")?.unwrap_or(0);
    let len = p.parsed::<u64>("--len")?.unwrap_or(64 * 1024);
    let stride = p.parsed::<u64>("--stride")?.unwrap_or(32);
    let size = p.parsed::<u32>("--size")?.unwrap_or(4);
    let passes = p.parsed::<usize>("--passes")?.unwrap_or(1);
    let count = p.parsed::<usize>("--count")?.unwrap_or(64 * 1024);
    let seed = p.parsed::<u64>("--seed")?.unwrap_or(42);
    let out = match p.value("--out")? {
        Some(path) => path,
        None => return Err(p.usage("missing required flag '--out FILE'")),
    };
    let binary = match p.value("--format")?.as_deref() {
        None | Some("binary") => true,
        Some("text") => false,
        Some(other) => {
            return Err(p.usage(format!(
                "invalid value '{other}' for '--format' (expected binary or text)"
            )))
        }
    };
    if !["scan", "rmw", "random", "chase"].contains(&gen.as_str()) {
        return Err(p.usage(format!(
            "invalid value '{gen}' for '--gen' (expected scan, rmw, random or chase)"
        )));
    }
    // The generators assert on degenerate geometry; turn those into usage errors.
    if len == 0 {
        return Err(p.usage("invalid value '0' for '--len' (must be positive)"));
    }
    if stride == 0 && matches!(gen.as_str(), "scan" | "rmw") {
        return Err(p.usage("invalid value '0' for '--stride' (must be positive)"));
    }
    if gen == "chase" && len < u64::from(size.max(1)) {
        return Err(p.usage(format!(
            "'--len' ({len}) must be at least '--size' ({size}) for the chase generator"
        )));
    }
    p.finish()?;

    let trace = match gen.as_str() {
        "scan" => synth::sequential_scan(base, len, stride, size, passes, None),
        "rmw" => synth::read_modify_write(base, len, stride, size, passes, None),
        "random" => synth::pseudo_random(base, len, size, count, seed, None),
        _ => synth::pointer_chase(base, len, size, count, None),
    };

    let file = BufWriter::new(std::fs::File::create(&out)?);
    if binary {
        binfmt::write_trace(&trace, file)?;
    } else {
        textfmt::write_trace(&trace, file)?;
    }
    println!(
        "recorded {} events ({} reads, {} writes) to {out}",
        trace.len(),
        trace.read_count(),
        trace.write_count()
    );
    Ok(())
}

/// Summary of one trace file, as printed by `ccache trace info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInfoReport {
    /// Path of the inspected file.
    pub path: String,
    /// `"binary"` or `"text"`.
    pub encoding: &'static str,
    /// Format version (binary traces only).
    pub version: Option<u32>,
    /// Size of the file in bytes.
    pub file_bytes: u64,
    /// Total events.
    pub events: u64,
    /// Read events.
    pub reads: u64,
    /// Write events.
    pub writes: u64,
    /// Lowest address referenced.
    pub min_addr: u64,
    /// Highest (inclusive) address referenced.
    pub max_addr: u64,
}

impl ToJson for TraceInfoReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("path", self.path.to_json()),
            ("encoding", self.encoding.to_json()),
            ("version", self.version.to_json()),
            ("file_bytes", self.file_bytes.to_json()),
            ("events", self.events.to_json()),
            ("reads", self.reads.to_json()),
            ("writes", self.writes.to_json()),
            ("min_addr", self.min_addr.to_json()),
            ("max_addr", self.max_addr.to_json()),
        ])
    }
}

impl Render for TraceInfoReport {
    fn to_json_text(&self) -> String {
        self.to_json().pretty()
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("field,value\n");
        for (k, v) in self.fields() {
            let _ = writeln!(out, "{k},{v}");
        }
        out
    }

    fn to_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .fields()
            .into_iter()
            .map(|(k, v)| vec![k.to_owned(), v])
            .collect();
        format!(
            "### Trace `{}`\n\n{}",
            self.path,
            markdown_table(&["field", "value"], &rows)
        )
    }
}

impl TraceInfoReport {
    fn fields(&self) -> Vec<(&'static str, String)> {
        let mut fields = vec![("encoding", self.encoding.to_owned())];
        if let Some(v) = self.version {
            fields.push(("version", v.to_string()));
        }
        fields.push(("file_bytes", self.file_bytes.to_string()));
        fields.push(("events", self.events.to_string()));
        fields.push(("reads", self.reads.to_string()));
        fields.push(("writes", self.writes.to_string()));
        fields.push(("min_addr", format!("{:#x}", self.min_addr)));
        fields.push(("max_addr", format!("{:#x}", self.max_addr)));
        fields
    }
}

fn info(args: Vec<String>) -> Result<(), CliError> {
    let mut p = ArgParser::new("trace info", args);
    if p.flag(&["--help", "-h"]) {
        print!("{USAGE}");
        return Ok(());
    }
    let path = p.positional("trace file")?;
    let format = match p.value("--format")? {
        Some(raw) => OutputFormat::parse(&raw, &p)?,
        None => OutputFormat::Markdown,
    };
    let out = p.value("--out")?;
    p.finish()?;

    let file_bytes = std::fs::metadata(&path)?.len();
    let mut events = 0u64;
    let mut writes = 0u64;
    let mut min_addr = u64::MAX;
    let mut max_addr = 0u64;
    let mut tally = |addr: u64, last: u64, is_write: bool| {
        events += 1;
        writes += u64::from(is_write);
        min_addr = min_addr.min(addr);
        max_addr = max_addr.max(last);
    };

    let (encoding, version) = if binfmt::is_binary_trace_file(&path)? {
        let mut reader = TraceReader::open(&path)?;
        let version = reader.header().version;
        while let Some(ev) = reader.next_event()? {
            tally(ev.addr, ev.last_byte(), ev.is_write());
        }
        ("binary", Some(version))
    } else {
        for ev in textfmt::events(BufReader::new(std::fs::File::open(&path)?)) {
            let ev = ev?;
            tally(ev.addr, ev.last_byte(), ev.is_write());
        }
        ("text", None)
    };

    let report = TraceInfoReport {
        path,
        encoding,
        version,
        file_bytes,
        events,
        reads: events - writes,
        writes,
        min_addr: if events == 0 { 0 } else { min_addr },
        max_addr,
    };
    emit(&report, format, out.as_deref())
}

fn convert(args: Vec<String>) -> Result<(), CliError> {
    let mut p = ArgParser::new("trace convert", args);
    if p.flag(&["--help", "-h"]) {
        print!("{USAGE}");
        return Ok(());
    }
    let input = p.positional("input trace file")?;
    let output = p.positional("output trace file")?;
    let to = p.value("--to")?;
    if !matches!(to.as_deref(), None | Some("binary") | Some("text")) {
        return Err(p.usage(format!(
            "invalid value '{}' for '--to' (expected binary or text)",
            to.unwrap_or_default()
        )));
    }
    // Creating the sink truncates it, so converting a file onto itself would destroy
    // the input before it is ever read.
    let same_file = input == output
        || match (
            std::fs::canonicalize(&input),
            std::fs::canonicalize(&output),
        ) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
    if same_file {
        return Err(p.usage(format!(
            "input and output are the same file ('{input}'); convert to a different path"
        )));
    }
    p.finish()?;

    let input_binary = binfmt::is_binary_trace_file(&input)?;
    let to_binary = match to.as_deref() {
        None => !input_binary,
        Some("binary") => true,
        _ => false,
    };

    let sink = BufWriter::new(std::fs::File::create(&output)?);
    let events = if input_binary && !to_binary {
        // binary -> text streams event by event; the file never has to fit in memory.
        let mut reader = TraceReader::open(&input)?;
        let mut sink = sink;
        let mut n = 0u64;
        while let Some(ev) = reader.next_event()? {
            textfmt::write_event(&mut sink, &ev)?;
            n += 1;
        }
        n
    } else if input_binary && to_binary {
        // Re-encode (normalises run boundaries): stream through the writer using the
        // declared event count.
        let mut reader = TraceReader::open(&input)?;
        let mut writer = TraceWriter::new(sink, reader.header().events)?;
        let mut n = 0u64;
        while let Some(ev) = reader.next_event()? {
            writer.write_event(&ev)?;
            n += 1;
        }
        writer.finish()?;
        n
    } else {
        // Text input: the binary header needs the event count up front, so load it.
        let trace: Trace = textfmt::read_trace(BufReader::new(std::fs::File::open(&input)?))?;
        if to_binary {
            binfmt::write_trace(&trace, sink)?;
        } else {
            textfmt::write_trace(&trace, sink)?;
        }
        trace.len() as u64
    };
    println!(
        "converted {input} -> {output} ({} events, {} format)",
        events,
        if to_binary { "binary" } else { "text" }
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("ccache-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn record_convert_info_round_trip() {
        let txt = tmp("t1.trace");
        let bin = tmp("t1.cct");
        record(vec![
            "--gen".into(),
            "random".into(),
            "--count".into(),
            "500".into(),
            "--out".into(),
            txt.clone(),
            "--format".into(),
            "text".into(),
        ])
        .unwrap();
        convert(vec![txt.clone(), bin.clone()]).unwrap();
        assert!(binfmt::is_binary_trace_file(&bin).unwrap());
        assert!(!binfmt::is_binary_trace_file(&txt).unwrap());

        let a = textfmt::read_trace(BufReader::new(std::fs::File::open(&txt).unwrap())).unwrap();
        let b = binfmt::read_trace(std::fs::File::open(&bin).unwrap()).unwrap();
        assert_eq!(a, b);

        // binary -> text round-trips too
        let txt2 = tmp("t1-back.trace");
        convert(vec![bin.clone(), txt2.clone()]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&txt).unwrap(),
            std::fs::read_to_string(&txt2).unwrap()
        );

        info(vec![bin, "--format".into(), "json".into()]).unwrap();
    }

    #[test]
    fn convert_refuses_to_clobber_its_own_input() {
        let bin = tmp("t3.cct");
        record(vec![
            "--gen".into(),
            "scan".into(),
            "--len".into(),
            "1024".into(),
            "--out".into(),
            bin.clone(),
        ])
        .unwrap();
        let before = std::fs::read(&bin).unwrap();
        let err = convert(vec![bin.clone(), bin.clone()]).unwrap_err();
        assert!(err.to_string().contains("same file"), "{err}");
        assert_eq!(err.exit_code(), 2);
        assert_eq!(std::fs::read(&bin).unwrap(), before, "input must survive");
    }

    #[test]
    fn degenerate_generator_geometry_is_a_usage_error_not_a_panic() {
        for args in [
            vec!["--stride", "0"],
            vec!["--len", "0"],
            vec!["--gen", "random", "--len", "0"],
            vec!["--gen", "chase", "--len", "2", "--size", "8"],
        ] {
            let mut argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            argv.extend(["--out".to_owned(), tmp("never2.cct")]);
            let err = record(argv).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
        }
    }

    #[test]
    fn unknown_generators_and_subcommands_are_usage_errors() {
        let err = record(vec![
            "--gen".into(),
            "zipf".into(),
            "--out".into(),
            tmp("never.cct"),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("invalid value 'zipf'"));
        let err = run(vec!["compress".into()]).unwrap_err();
        assert!(err
            .to_string()
            .contains("unknown subcommand 'trace compress'"));
    }

    #[test]
    fn info_reports_counts_and_addresses() {
        let txt = tmp("t2.trace");
        std::fs::write(&txt, "# demo\nR 0x100 4\nW 0x200 8\n").unwrap();
        let report_path = tmp("t2.json");
        info(vec![
            txt,
            "--format".into(),
            "json".into(),
            "--out".into(),
            report_path.clone(),
        ])
        .unwrap();
        let json = std::fs::read_to_string(&report_path).unwrap();
        assert!(json.contains("\"events\": 2"));
        assert!(json.contains("\"writes\": 1"));
        assert!(json.contains("\"min_addr\": 256"));
        assert!(json.contains("\"max_addr\": 519"));
    }
}
