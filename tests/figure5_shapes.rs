//! End-to-end integration test of the Figure 5 pipeline: gzip jobs → round-robin schedule
//! → column-cache simulation → per-job CPI, asserting the paper's qualitative claims.
//!
//! The experiment runs once per test binary, the way `ccache fig5 --quick` runs it: the
//! `fig5` preset spec through a quick [`Session`], over the quanta below.

use column_caching::core::multitask::{MultitaskRun, QuantumSeries};
use column_caching::exp::presets::fig5_spec;
use column_caching::exp::scale::{figure5_jobs, Scale};
use column_caching::exp::JobOutcome;
use column_caching::Session;
use std::sync::OnceLock;

const QUANTA: [usize; 6] = [4, 64, 1024, 4096, 16384, 262_144];

/// A quantum larger than every job: the schedule degenerates to batch processing.
const BATCH: usize = 1 << 40;

/// Every `(series, quantum, run)` point of the quick Figure 5 grid.
fn fig5() -> &'static [(String, usize, MultitaskRun)] {
    static RUN: OnceLock<Vec<(String, usize, MultitaskRun)>> = OnceLock::new();
    RUN.get_or_init(|| {
        let session = Session::builder().quick(true).build().unwrap();
        let quanta = QUANTA.iter().copied().chain([BATCH]).collect();
        let artefact = session.run_spec(&fig5_spec(quanta)).unwrap();
        artefact
            .outcomes
            .into_iter()
            .map(|outcome| match outcome {
                JobOutcome::Multitask {
                    series,
                    quantum,
                    run,
                } => (series, quantum, run),
                other => panic!("fig5 planned an unexpected job '{}'", other.label()),
            })
            .collect()
    })
}

/// The run of series `label` at `quantum`.
fn run(label: &str, quantum: usize) -> &'static MultitaskRun {
    fig5()
        .iter()
        .find(|(series, q, _)| series == label && *q == quantum)
        .map(|(_, _, run)| run)
        .unwrap_or_else(|| panic!("fig5 has no {label} point at quantum {quantum}"))
}

/// The critical job's CPI across [`QUANTA`] for series `label`.
fn series(label: &str) -> QuantumSeries {
    QuantumSeries {
        label: label.to_owned(),
        points: QUANTA
            .iter()
            .map(|&q| (q, run(label, q).critical_job().cpi))
            .collect(),
    }
}

#[test]
fn figure5_shared_cache_cpi_depends_on_the_quantum() {
    let shared = series("gzip.16k");
    // CPI at the smallest quantum is clearly higher than in the batch regime.
    let small_q = shared.points.first().unwrap().1;
    let batch = shared.points.last().unwrap().1;
    assert!(
        small_q > batch * 1.1,
        "expected quantum sensitivity, got {small_q:.3} vs {batch:.3}"
    );
    assert!(shared.variation() > 0.1);
}

#[test]
fn figure5_mapped_column_cache_is_flat_and_helps_the_critical_job() {
    let shared = series("gzip.16k");
    let mapped = series("gzip.16k mapped");
    // mapped variation is much smaller than shared variation
    assert!(mapped.variation() < shared.variation() / 2.0);
    // and at small quanta the mapped cache is strictly better for job A
    assert!(mapped.points[0].1 < shared.points[0].1);
    assert!(mapped.points[1].1 < shared.points[1].1);
}

#[test]
fn figure5_large_cache_reduces_cpi_and_variation() {
    let small = series("gzip.16k");
    let large = series("gzip.128k");
    assert!(large.max_cpi() < small.max_cpi());
    assert!(large.variation() <= small.variation());
    // the 128 KiB mapped configuration stays flat too
    let large_mapped = series("gzip.128k mapped");
    assert!(large_mapped.variation() < 0.1);
}

#[test]
fn figure5_other_jobs_still_make_progress_under_mapping() {
    let jobs = figure5_jobs(Scale::Quick);
    let run = run("gzip.16k mapped", 1024);
    // every job retires all of its references
    for (j, job) in jobs.iter().enumerate() {
        assert_eq!(run.jobs[j].references, job.trace.len() as u64);
    }
    // the non-critical jobs pay for the smaller share of the cache but not absurdly so
    let critical = run.jobs[0].cpi;
    for other in &run.jobs[1..] {
        assert!(other.cpi >= critical * 0.8);
        assert!(other.cpi < critical * 6.0);
    }
}

#[test]
fn figure5_batch_scheduling_converges_for_shared_and_mapped() {
    // At a quantum larger than every job, the schedule degenerates to batch processing;
    // the shared cache then behaves like a private cache and approaches the mapped CPI.
    let a = run("gzip.16k", BATCH).critical_job().cpi;
    let b = run("gzip.16k mapped", BATCH).critical_job().cpi;
    assert!(
        (a - b).abs() / a < 0.25,
        "batch CPIs should be close: shared {a:.3} vs mapped {b:.3}"
    );
}
