//! `ccache tune` — autotune cache geometry and column assignments for a workload.
//!
//! The search subsystem (`ccache-opt`) proposes candidate configurations — a cache
//! geometry plus one column per assignable unit — and scores each by replaying the
//! workload. This command selects the workload (a built-in corpus entry or a trace
//! file with inferred variables), runs the requested strategy under a replay budget,
//! and reports the winner, its improvement over the paper's heuristic layout and the
//! baseline, and the per-generation convergence table.

use crate::args::ArgParser;
use crate::backend::backend_from_parser;
use crate::error::CliError;
use crate::output::{csv_field, markdown_table, Render, ReportArgs};
use ccache_exp::WorkloadSel;
use ccache_json::{Json, ToJson};
use ccache_opt::{GeometrySearch, StrategyKind, TuneOutcome, TuneRequest};
use ccache_sim::backend::BackendKind;
use ccache_sim::{CacheConfig, LatencyConfig, SystemConfig};
use std::fmt::Write as _;

/// Help text for `ccache tune`.
pub const USAGE: &str = "\
usage: ccache tune [options]

Jointly searches cache geometry (columns, line size, TLB entries) and per-variable
column assignments, scoring every candidate by simulating the workload; reports the
best configuration found, the miss-rate improvement over the paper's heuristic layout
and over the baseline cache, and a per-generation convergence table. Fully
deterministic for a fixed --seed.

options:
  --workload NAME   built-in workload (default: mpeg-combined; see ccache-workloads)
  --trace FILE      tune a trace file instead (variables inferred by address clustering)
  --strategy NAME   exhaustive | hill-climb | evolutionary (default: evolutionary)
  --budget N        maximum candidates scored (default: 192; 48 with --quick)
  --seed N          search RNG seed (default: 42)
  --fixed-geometry  search column assignments only, keeping the template geometry
  --baseline KIND   comparison backend: column, set-assoc or ideal (default: set-assoc)
  --capacity BYTES  total cache capacity, a power of two up to 1 MiB (default: 2048)
  --columns N       template columns/ways (default: 4)
  --line BYTES      template line size (default: 32)
  --page BYTES      page size (default: 128)
  --tlb N           template TLB entries (default: 64)
  --quick, -q       reduced working sets (and budget) for smoke tests
  --metrics FILE    write the session's deterministic telemetry snapshot (JSON,
                    counters only: opt.* search counters and the engine.*
                    counters of every engine replay) to FILE
  --format FMT      json | csv | markdown (default: json)
  --out FILE        write the report in FMT to FILE instead of stdout
  --help, -h        show this help
";

/// Default replay budget at full scale.
const DEFAULT_BUDGET: usize = 192;
/// Default replay budget with `--quick`.
const QUICK_BUDGET: usize = 48;

/// Runs the subcommand.
///
/// # Errors
///
/// Fails on usage errors, invalid configurations, unreadable traces or search failures.
pub fn run(args: Vec<String>) -> Result<(), CliError> {
    let mut p = ArgParser::new("tune", args);
    if p.flag(&["--help", "-h"]) {
        print!("{USAGE}");
        return Ok(());
    }
    let report_args = ReportArgs::from_parser(&mut p)?;
    let quick = report_args.quick();
    let workload = p.value("--workload")?;
    let trace_path = p.value("--trace")?;
    if workload.is_some() && trace_path.is_some() {
        return Err(p.usage("'--workload' and '--trace' are mutually exclusive"));
    }
    let strategy = match p.value("--strategy")?.as_deref() {
        None => StrategyKind::default(),
        Some(raw) => StrategyKind::parse(raw).ok_or_else(|| {
            p.usage(format!(
                "invalid value '{raw}' for '--strategy' (expected exhaustive, hill-climb or evolutionary)"
            ))
        })?,
    };
    let budget =
        p.parsed::<usize>("--budget")?
            .unwrap_or(if quick { QUICK_BUDGET } else { DEFAULT_BUDGET });
    let seed = p.parsed::<u64>("--seed")?.unwrap_or(42);
    let fixed_geometry = p.flag(&["--fixed-geometry"]);
    let baseline = backend_from_parser(&mut p, "--baseline", BackendKind::SetAssociative)?;
    let capacity = p.parsed::<u64>("--capacity")?.unwrap_or(2048);
    let columns = p.parsed::<usize>("--columns")?.unwrap_or(4);
    let line = p.parsed::<u64>("--line")?.unwrap_or(32);
    let page = p.parsed::<u64>("--page")?.unwrap_or(128);
    let tlb = p.parsed::<usize>("--tlb")?.unwrap_or(64);
    let metrics_path = p.value("--metrics")?;

    let cache = CacheConfig::builder()
        .capacity_bytes(capacity)
        .columns(columns)
        .line_size(line)
        .build()?;
    let template = SystemConfig {
        cache,
        latency: LatencyConfig::default(),
        page_size: page,
        tlb_entries: tlb,
    };

    // Validate the workload name while the parser is still alive, so usage errors
    // (unknown names, leftover flags) surface before any workload build or file I/O.
    let selection = match (trace_path, workload) {
        (Some(path), _) => WorkloadSel::Trace { path },
        (None, name) => {
            let name = name.unwrap_or_else(|| "mpeg-combined".to_owned());
            if !ccache_workloads::CORPUS_NAMES.contains(&name.as_str()) {
                return Err(p.usage(format!(
                    "invalid value '{name}' for '--workload' (expected one of: {})",
                    ccache_workloads::CORPUS_NAMES.join(", ")
                )));
            }
            WorkloadSel::Corpus { name }
        }
    };
    p.finish()?;

    // A named corpus entry, or a trace file with inferred regions.
    let run = selection.load(template.page_size, line, quick)?;

    let request = TuneRequest {
        template,
        geometry: if fixed_geometry {
            GeometrySearch::fixed()
        } else {
            GeometrySearch::standard()
        },
        strategy,
        budget,
        seed,
        serial: false,
        forced: Vec::new(),
        baseline,
    };
    let session = column_caching::Session::builder().quick(quick).build()?;
    let outcome = session.tune(&run.trace, &run.symbols, &request)?;

    // Deterministic (counter-only) telemetry snapshot: identical runs produce
    // byte-identical files, which is what the CI determinism smoke diffs.
    if let Some(path) = metrics_path {
        std::fs::write(&path, session.telemetry().snapshot_deterministic().pretty())?;
        eprintln!("tune: wrote telemetry snapshot to '{path}'");
    }

    let report = TuneReport {
        workload: selection.short().to_owned(),
        outcome,
    };
    report_args.emit(&report)
}

/// The report of a `ccache tune` run.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The workload or trace file tuned.
    pub workload: String,
    /// The search outcome.
    pub outcome: TuneOutcome,
}

impl Render for TuneReport {
    fn to_json_text(&self) -> String {
        // The outcome document with the workload name spliced in front.
        let Json::Obj(pairs) = self.outcome.to_json() else {
            unreachable!("TuneOutcome serializes to an object");
        };
        let mut doc = vec![("workload".to_owned(), self.workload.to_json())];
        doc.extend(pairs);
        Json::Obj(doc).pretty()
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("series,generation,replays,misses,cycles,miss_rate\n");
        let o = &self.outcome;
        for (series, fitness) in [
            ("best", &o.best.fitness),
            ("heuristic", &o.heuristic.fitness),
            ("baseline", &o.baseline.fitness),
        ] {
            let _ = writeln!(
                out,
                "{series},,,{},{},{:.6}",
                fitness.misses, fitness.cycles, fitness.miss_rate
            );
        }
        for point in &o.convergence {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.6}",
                csv_field("convergence"),
                point.generation,
                point.replays,
                point.best.misses,
                point.best.cycles,
                point.best.miss_rate
            );
        }
        out
    }

    fn to_markdown(&self) -> String {
        let o = &self.outcome;
        let mut out = format!(
            "## Tuning `{}` — {} strategy, seed {}, {} of {} replays\n\n",
            self.workload, o.strategy, o.seed, o.replays, o.budget
        );
        let _ = writeln!(
            out,
            "Best geometry: **{} columns, {}-byte lines, {} TLB entries** \
             ({} B capacity, {} B pages)\n",
            o.best_config.columns,
            o.best_config.line_size,
            o.best_config.tlb_entries,
            o.best_config.capacity_bytes,
            o.best_config.page_size
        );

        out.push_str("### Comparison\n\n");
        let rows: Vec<Vec<String>> = [
            ("tuned (best found)", &o.best.fitness),
            ("heuristic layout (paper §3)", &o.heuristic.fitness),
            ("baseline", &o.baseline.fitness),
        ]
        .into_iter()
        .map(|(label, fitness)| {
            vec![
                label.to_owned(),
                fitness.misses.to_string(),
                fitness.cycles.to_string(),
                format!("{:.3}%", fitness.miss_rate * 100.0),
            ]
        })
        .collect();
        out.push_str(&markdown_table(
            &["configuration", "misses", "cycles", "miss rate"],
            &rows,
        ));
        let _ = writeln!(
            out,
            "\nMiss-rate improvement: **{:+.3} pp** vs. heuristic, **{:+.3} pp** vs. baseline\n",
            o.improvement_vs_heuristic() * 100.0,
            o.improvement_vs_baseline() * 100.0
        );

        out.push_str("### Best assignment\n\n");
        let rows: Vec<Vec<String>> = o
            .best_assignment
            .iter()
            .map(|(name, cols)| {
                vec![
                    format!("`{name}`"),
                    cols.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", "),
                ]
            })
            .collect();
        out.push_str(&markdown_table(&["variable", "columns"], &rows));

        out.push_str("\n### Convergence\n\n");
        let rows: Vec<Vec<String>> = o
            .convergence
            .iter()
            .map(|point| {
                vec![
                    point.generation.to_string(),
                    point.replays.to_string(),
                    point.best.misses.to_string(),
                    point.best.cycles.to_string(),
                    format!("{:.3}%", point.best.miss_rate * 100.0),
                ]
            })
            .collect();
        out.push_str(&markdown_table(
            &[
                "generation",
                "replays",
                "best misses",
                "best cycles",
                "best miss rate",
            ],
            &rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicting_workload_sources_are_usage_errors() {
        let err = run(vec![
            "--workload".to_owned(),
            "fir".to_owned(),
            "--trace".to_owned(),
            "x.cct".to_owned(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn unknown_strategies_and_workloads_are_usage_errors() {
        let err = run(vec!["--strategy".to_owned(), "annealing".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("invalid value 'annealing'"));
        assert_eq!(err.exit_code(), 2);

        let err = run(vec![
            "--quick".to_owned(),
            "--workload".to_owned(),
            "mp3".to_owned(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("invalid value 'mp3'"));
        assert!(err.to_string().contains("mpeg-combined"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn bad_baseline_names_are_usage_errors() {
        let err = run(vec!["--baseline".to_owned(), "victim".to_owned()]).unwrap_err();
        assert!(err
            .to_string()
            .contains("invalid value 'victim' for '--baseline'"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn quick_fir_tune_renders_every_format() {
        let dir = std::env::temp_dir().join("ccache-tune-test");
        std::fs::create_dir_all(&dir).unwrap();
        for format in ["json", "csv", "markdown"] {
            let out = dir.join(format!("tune.{format}"));
            run(vec![
                "--quick".to_owned(),
                "--workload".to_owned(),
                "fir".to_owned(),
                "--fixed-geometry".to_owned(),
                "--budget".to_owned(),
                "8".to_owned(),
                "--strategy".to_owned(),
                "hill-climb".to_owned(),
                "--format".to_owned(),
                format.to_owned(),
                "--out".to_owned(),
                out.to_string_lossy().into_owned(),
            ])
            .unwrap();
            let text = std::fs::read_to_string(&out).unwrap();
            assert!(!text.is_empty());
            match format {
                "json" => {
                    assert!(text.contains("\"workload\": \"fir\""));
                    assert!(text.contains("\"convergence\""));
                }
                "csv" => assert!(text.starts_with("series,generation")),
                _ => assert!(text.contains("### Convergence")),
            }
        }
    }
}
