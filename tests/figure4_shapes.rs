//! End-to-end integration test of the Figure 4 pipeline: workload generation → scratchpad
//! selection → placement → data layout → simulation, asserting the qualitative shapes the
//! paper reports (at the reduced quick scale so the test stays fast).
//!
//! The experiment runs once per test binary, the way `ccache fig4 --quick` runs it: the
//! `fig4` preset spec through a quick [`Session`].

use column_caching::core::dynamic::{run_dynamic_in, DynamicRunResult, Figure4dResult};
use column_caching::core::partition::{run_partition_point_in, PartitionSweep};
use column_caching::exp::presets::{fig4_spec, figure4_geometry};
use column_caching::exp::{ExperimentSpec, JobOutcome, JobUnit, PolicySpec};
use column_caching::sim::SystemConfig;
use column_caching::telemetry::Registry;
use column_caching::workloads::mpeg::{run_phases, MpegConfig};
use column_caching::workloads::{corpus, WorkloadRun};
use column_caching::Session;
use std::collections::BTreeMap;
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

fn config() -> SystemConfig {
    figure4_geometry().system_config().unwrap()
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
        assert!(scratch_bytes <= p.scratchpad_columns as u64 * cfg.cache.column_bytes());
    }
}

/// A grid's geometry reaches the partition points and the dynamic run: under a 4-entry
/// TLB each costs more memory cycles than under Figure 4's 64 entries, and each equals
/// the core function called with its geometry's system configuration.
#[test]
fn a_grids_tlb_reaches_partition_points_and_dynamic_runs() {
    let spec = ExperimentSpec::parse_str(
        r#"{"name": "tlb-reach", "replay": [
            {"workloads": ["mpeg-idct"], "geometries": [{}, {"tlb": 4}],
             "policies": ["partition-sweep"]},
            {"workloads": ["mpeg-combined"], "geometries": [{}, {"tlb": 4}],
             "policies": ["dynamic"]}]}"#,
    )
    .unwrap();
    let artefact = Session::builder()
        .quick(true)
        .build()
        .unwrap()
        .run_spec(&spec)
        .unwrap();
    let idct = workload("mpeg-idct");
    let (phases, symbols) = run_phases(&MpegConfig::small());

    // memory cycles by (label, TLB entries): labels leave the TLB out
    let mut memory = BTreeMap::new();
    for (job, outcome) in artefact.entries() {
        let JobUnit::Replay(job) = job else {
            panic!("the spec plans replay jobs only");
        };
        let config = job.geometry.system_config().unwrap();
        let registry = Registry::new();
        let cycles = match (outcome, &job.policy) {
            (JobOutcome::Partition { point, .. }, PolicySpec::Partition { cache_columns }) => {
                let direct =
                    run_partition_point_in(job.backend, &idct, &config, *cache_columns, &registry);
                assert_eq!(point, &direct.unwrap(), "{}", job.label);
                point.result.memory_cycles
            }
            (JobOutcome::Dynamic { run, .. }, PolicySpec::DynamicPhases) => {
                let direct = run_dynamic_in(&phases, &symbols, &config, &registry, None);
                assert_eq!(run, &direct.unwrap(), "{}", job.label);
                run.phases.iter().map(|p| p.result.memory_cycles).sum()
            }
            _ => panic!("unexpected outcome for '{}'", job.label),
        };
        memory.insert((job.label.clone(), job.geometry.tlb), cycles);
    }
    assert_eq!(memory.len(), 2 * (5 + 1));
    for ((label, tlb), &cycles) in &memory {
        if *tlb == 4 {
            let default = memory[&(label.clone(), 64)];
            assert!(
                cycles > default,
                "{label}: {cycles} memory cycles with 4 TLB entries, {default} with 64"
            );
        }
    }
}
