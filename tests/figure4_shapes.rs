//! End-to-end integration test of the Figure 4 pipeline: workload generation → scratchpad
//! selection → placement → data layout → simulation, asserting the qualitative shapes the
//! paper reports (at the reduced quick scale so the test stays fast).
//!
//! The experiment runs once per test binary, the way `ccache fig4 --quick` runs it: the
//! `fig4` preset spec through a quick [`Session`].

use column_caching::core::dynamic::{DynamicRunResult, Figure4dResult};
use column_caching::core::partition::{PartitionConfig, PartitionSweep};
use column_caching::exp::presets::fig4_spec;
use column_caching::exp::JobOutcome;
use column_caching::workloads::{corpus, WorkloadRun};
use column_caching::Session;
use std::sync::OnceLock;

/// The quick Figure 4 run: one partition sweep per routine and the combined
/// application's dynamically remapped run.
struct Fig4 {
    sweeps: Vec<PartitionSweep>,
    dynamic: DynamicRunResult,
}

fn fig4() -> &'static Fig4 {
    static RUN: OnceLock<Fig4> = OnceLock::new();
    RUN.get_or_init(|| {
        let session = Session::builder().quick(true).build().unwrap();
        let artefact = session.run_spec(&fig4_spec("all")).unwrap();
        let mut sweeps: Vec<PartitionSweep> = Vec::new();
        let mut dynamic = None;
        // Outcomes come in plan order: each routine's points 0..=4 in turn.
        for outcome in artefact.outcomes {
            match outcome {
                JobOutcome::Partition {
                    workload, point, ..
                } => {
                    if sweeps.last().map(|s| &s.name) != Some(&workload) {
                        sweeps.push(PartitionSweep {
                            name: workload,
                            points: Vec::new(),
                        });
                    }
                    sweeps.last_mut().unwrap().points.push(point);
                }
                JobOutcome::Dynamic { run, .. } => dynamic = Some(run),
                other => panic!("fig4 planned an unexpected job '{}'", other.label()),
            }
        }
        Fig4 {
            sweeps,
            dynamic: dynamic.expect("fig4 runs the dynamic comparison"),
        }
    })
}

fn sweep(routine: &str) -> &'static PartitionSweep {
    fig4()
        .sweeps
        .iter()
        .find(|s| s.name == routine)
        .unwrap_or_else(|| panic!("fig4 has no {routine} sweep"))
}

/// The routine's workload at the scale the session ran it.
fn workload(corpus_name: &str) -> WorkloadRun {
    corpus(corpus_name, true).unwrap()
}

fn config() -> PartitionConfig {
    PartitionConfig::default()
}

#[test]
fn figure4a_dequant_all_scratchpad_is_optimal() {
    let sweep = sweep("dequant");
    assert_eq!(sweep.points.len(), 5);
    let all_scratchpad = sweep.cycles_at(0).unwrap();
    let all_cache = sweep.cycles_at(4).unwrap();
    assert!(all_scratchpad < all_cache);
    assert_eq!(sweep.best().cache_columns, 0);
    // with the whole working set resident in the scratchpad there are no misses at all
    assert_eq!(sweep.points[0].result.misses, 0);
}

#[test]
fn figure4b_plus_all_scratchpad_is_optimal() {
    let sweep = sweep("plus");
    let all_scratchpad = sweep.cycles_at(0).unwrap();
    let all_cache = sweep.cycles_at(4).unwrap();
    assert!(all_scratchpad < all_cache);
    assert_eq!(sweep.best().cache_columns, 0);
}

#[test]
fn figure4c_idct_prefers_the_cache() {
    let sweep = sweep("idct");
    let all_scratchpad = sweep.cycles_at(0).unwrap();
    let all_cache = sweep.cycles_at(4).unwrap();
    assert!(
        all_cache < all_scratchpad,
        "idct's >2 KiB working set cannot live in the scratchpad ({all_cache} vs {all_scratchpad})"
    );
    assert!(sweep.best().cache_columns >= 1);
}

#[test]
fn figure4_optimal_partition_differs_across_routines() {
    // The paper's central observation: the optimum partition varies per procedure, so any
    // static partition is a compromise.
    let dequant = sweep("dequant");
    let idct = sweep("idct");
    assert_ne!(dequant.best().cache_columns, idct.best().cache_columns);
}

#[test]
fn figure4d_column_cache_beats_every_static_partition_it_must_beat() {
    let static_sweep = sweep("mpeg-combined");
    let dynamic = &fig4().dynamic;
    let fig = Figure4dResult {
        static_cycles: static_sweep
            .points
            .iter()
            .map(|p| (p.cache_columns, p.cycles))
            .collect(),
        column_cache_cycles: dynamic.cycles,
        column_cache_control_cycles: dynamic.control_cycles,
    };
    let worst = fig.static_cycles.iter().map(|&(_, c)| c).max().unwrap();
    let (best_cols, best) = fig.best_static();
    assert!(fig.column_cache_cycles < worst);
    // the dynamic column cache is at least competitive with the best static partition
    assert!(
        fig.column_cache_cycles as f64 <= best as f64 * 1.15,
        "column cache {} vs best static {best} (cache={best_cols})",
        fig.column_cache_cycles
    );
    // and the remap overhead is a small fraction of the run
    assert!(fig.column_cache_control_cycles < fig.column_cache_cycles / 2);
}

#[test]
fn partition_sweep_accounts_every_reference_at_every_point() {
    let run = workload("mpeg-dequant");
    let sweep = sweep("dequant");
    for p in &sweep.points {
        assert_eq!(p.result.references, run.trace.len() as u64);
        assert_eq!(p.cache_columns + p.scratchpad_columns, 4);
        assert!(p.cycles >= p.result.references); // at least one cycle per reference
    }
}

#[test]
fn scratchpad_points_store_only_what_fits() {
    let run = workload("mpeg-idct");
    let cfg = config();
    let sweep = sweep("idct");
    for p in &sweep.points {
        let scratch_bytes: u64 = p
            .scratchpad_vars
            .iter()
            .filter_map(|name| run.symbols.by_name(name))
            .map(|r| r.size)
            .sum();
        assert!(scratch_bytes <= p.scratchpad_columns as u64 * cfg.column_bytes());
    }
}
