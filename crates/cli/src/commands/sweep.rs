//! `ccache sweep` — replay a trace file across memory backends under one configuration.
//!
//! This is the generic, scriptable counterpart of the figure commands: point it at any
//! trace file (binary or text) and it replays the reference stream on the column cache,
//! the set-associative baseline and the ideal scratchpad, reporting cycles, CPI and miss
//! rates side by side. The command is a preset over the experiment layer
//! ([`ccache_exp::presets::sweep_spec`]); binary traces are still replayed
//! **streaming**, so the file may be larger than memory.

use crate::args::ArgParser;
use crate::backend::backends_from_parser;
use crate::error::CliError;
use crate::output::{BackendSweepReport, ReportArgs};
use ccache_core::RunResult;
use ccache_exp::exec::JobOutcome;
use ccache_exp::presets::sweep_spec;
use ccache_exp::spec::{GeometrySpec, LatencyPreset};
use ccache_sim::ReplacementPolicy;

/// Help text for `ccache sweep`.
pub const USAGE: &str = "\
usage: ccache sweep --trace FILE [options]

Replays a trace file on every requested memory backend under one cache configuration
and reports cycles, CPI and miss rates side by side. Binary traces stream from disk in
bounded memory; text traces are loaded first.

options:
  --trace FILE      the trace to replay (binary .cct or text; detected by magic)
  --backend KIND    column | set-assoc | ideal | all (default: all)
  --capacity BYTES  total cache capacity, a power of two up to 1 MiB (default: 2048)
  --columns N       number of columns/ways (default: 4)
  --line BYTES      cache-line size (default: 32)
  --page BYTES      page size (default: 128)
  --tlb N           TLB entries (default: 64)
  --format FMT      json | csv | markdown (default: json)
  --out FILE        write the report in FMT to FILE instead of stdout
  --help, -h        show this help
";

/// Runs the subcommand.
///
/// # Errors
///
/// Fails on usage errors, invalid configurations, or unreadable/malformed trace files.
pub fn run(args: Vec<String>) -> Result<(), CliError> {
    let mut p = ArgParser::new("sweep", args);
    if p.flag(&["--help", "-h"]) {
        print!("{USAGE}");
        return Ok(());
    }
    let trace_path = match p.value("--trace")? {
        Some(path) => path,
        None => return Err(p.usage("missing required flag '--trace FILE'")),
    };
    let backends = backends_from_parser(&mut p, "--backend")?;
    let geometry = GeometrySpec {
        capacity: p.parsed::<u64>("--capacity")?.unwrap_or(2048),
        columns: p.parsed::<usize>("--columns")?.unwrap_or(4),
        line: p.parsed::<u64>("--line")?.unwrap_or(32),
        page: p.parsed::<u64>("--page")?.unwrap_or(128),
        tlb: p.parsed::<usize>("--tlb")?.unwrap_or(64),
        replacement: ReplacementPolicy::Lru,
        latency: LatencyPreset::Default,
    };
    let report_args = ReportArgs::from_parser(&mut p)?;
    p.finish()?;

    // Building the session validates the geometry before touching the trace file, as
    // the command always did.
    let session = column_caching::Session::builder()
        .geometry(geometry)
        .quick(report_args.quick())
        .build()?;
    let spec = sweep_spec(&trace_path, backends, geometry);
    let artefact = session.run_spec(&spec)?;

    let runs: Vec<RunResult> = artefact
        .outcomes
        .iter()
        .map(|outcome| {
            let JobOutcome::Replay { result, .. } = outcome else {
                unreachable!("sweep plans plain replays only");
            };
            result.clone()
        })
        .collect();
    let events = runs.last().map(|r| r.references).unwrap_or(0);
    let report = BackendSweepReport {
        trace: trace_path,
        events,
        runs,
    };
    report_args.emit(&report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_trace_flag_is_a_usage_error() {
        let err = run(Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--trace"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn bad_backend_names_are_usage_errors() {
        let err = run(vec![
            "--trace".to_owned(),
            "x.cct".to_owned(),
            "--backend".to_owned(),
            "victim-cache".to_owned(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("invalid value 'victim-cache'"));
    }
}
