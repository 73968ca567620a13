//! Cross-crate integration tests of the full layout pipeline on non-MPEG workloads: trace
//! recording → conflict graph → column assignment → cache mapping → measurable improvement
//! over an unmanaged cache.

use column_caching::core::dynamic::run_dynamic_in;
use column_caching::core::observe::{ReplayEvent, ReplayObserver};
use column_caching::core::runner::{CacheMapping, RegionMapping, RunResult};
use column_caching::exp::presets::figure4_geometry;
use column_caching::layout::{
    assign_columns, conflict_graph_from_trace, LayoutOptions, ProgramIr, Stmt, WeightOptions,
};
use column_caching::prelude::*;
use column_caching::sim::SystemConfig;
use column_caching::workloads::kernels::{run_fir, run_histogram, FirConfig, HistogramConfig};
use column_caching::workloads::mpeg::{run_phases, MpegConfig};

fn sys_config() -> SystemConfig {
    SystemConfig {
        page_size: 128,
        ..SystemConfig::default()
    }
}

/// Replays `trace` on a fresh column cache programmed with `mapping`.
fn replay_mapped(
    name: &str,
    config: SystemConfig,
    mapping: &CacheMapping,
    trace: &Trace,
) -> RunResult {
    let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config).unwrap();
    engine.set_telemetry(&Registry::new());
    engine.apply(mapping).unwrap();
    engine.replay(name, trace)
}

#[test]
fn layout_driven_mapping_never_loses_to_shared_cache_on_kernels() {
    for run in [
        run_fir(&FirConfig::default()),
        run_histogram(&HistogramConfig::default()),
    ] {
        let (graph, units) =
            conflict_graph_from_trace(&run.trace, &run.symbols, &WeightOptions::default());
        let assignment = assign_columns(&graph, &LayoutOptions::new(4, 512)).unwrap();
        let mapping = CacheMapping::from_assignment(&assignment, &units, &run.symbols, &[]);
        let managed = replay_mapped("managed", sys_config(), &mapping, &run.trace);
        let shared = replay_mapped("shared", sys_config(), &CacheMapping::new(), &run.trace);
        assert!(
            managed.total_cycles() <= shared.total_cycles() * 102 / 100,
            "{}: managed {} vs shared {}",
            run.name,
            managed.total_cycles(),
            shared.total_cycles()
        );
        assert_eq!(managed.references, shared.references);
    }
}

#[test]
fn conflicting_streams_are_separated_and_conflict_misses_disappear() {
    // Two arrays that collide pathologically in a direct-mapped-style situation: both are
    // scanned together repeatedly. With a single column each they cannot evict each other.
    let mut rec = TraceRecorder::new();
    let a = rec.allocate("a", 512, 512);
    let b = rec.allocate("b", 512, 512);
    for _pass in 0..8 {
        for i in 0..64u64 {
            rec.read(a, i * 8, 8);
            rec.read(b, i * 8, 8);
        }
    }
    let (trace, symbols) = rec.finish();
    let (graph, units) = conflict_graph_from_trace(&trace, &symbols, &WeightOptions::default());
    assert!(graph.weight(0, 1) > 0, "the two arrays must conflict");
    let assignment = assign_columns(&graph, &LayoutOptions::new(4, 512)).unwrap();
    assert_ne!(assignment.columns_of(a), assignment.columns_of(b));
    let mapping = CacheMapping::from_assignment(&assignment, &units, &symbols, &[]);
    let managed = replay_mapped("managed", sys_config(), &mapping, &trace);
    // each array is 512 bytes = 16 lines; after the cold pass everything must hit
    assert_eq!(managed.misses, 32);
}

#[test]
fn static_analysis_agrees_with_profile_on_a_simple_loop_nest() {
    // Build the same program twice: once as an executed trace, once as IR.
    let mut rec = TraceRecorder::new();
    let x = rec.allocate("x", 256, 8);
    let y = rec.allocate("y", 256, 8);
    let z = rec.allocate("z", 256, 8);
    // phase 1: x and y together; phase 2: z alone
    for i in 0..32u64 {
        rec.read(x, (i % 32) * 8, 8);
        rec.write(y, (i % 32) * 8, 8);
    }
    for i in 0..32u64 {
        rec.read(z, (i % 32) * 8, 8);
    }
    let (trace, symbols) = rec.finish();
    let (profile_graph, _) = conflict_graph_from_trace(&trace, &symbols, &WeightOptions::default());

    let ir = ProgramIr::from_stmts(vec![
        Stmt::repeat(32, vec![Stmt::read(x, 1), Stmt::write(y, 1)]),
        Stmt::repeat(32, vec![Stmt::read(z, 1)]),
    ]);
    let (static_graph, vars) = ir.conflict_graph(&symbols);
    assert_eq!(vars.len(), 3);

    // Both methods agree on the structure: x conflicts with y, z conflicts with neither.
    let (px, py, pz) = (0, 1, 2);
    assert!(profile_graph.weight(px, py) > 0);
    assert_eq!(profile_graph.weight(px, pz), 0);
    assert_eq!(profile_graph.weight(py, pz), 0);
    let sx = vars.iter().position(|v| *v == x).unwrap();
    let sy = vars.iter().position(|v| *v == y).unwrap();
    let sz = vars.iter().position(|v| *v == z).unwrap();
    assert!(static_graph.weight(sx, sy) > 0);
    assert_eq!(static_graph.weight(sx, sz), 0);
    assert_eq!(static_graph.weight(sy, sz), 0);
}

#[test]
fn per_phase_plans_require_remapping_only_when_access_patterns_change() {
    /// The regions each phase's remap programs, in phase order.
    struct Remaps(Vec<usize>);
    impl ReplayObserver for Remaps {
        fn on_event(&mut self, event: &ReplayEvent) {
            if let ReplayEvent::Remap { regions, .. } = event {
                self.0.push(*regions);
            }
        }
    }

    // The dynamic run lays out each phase on its own profile and remaps before it.
    let (phases, symbols) = run_phases(&MpegConfig::small());
    let mut remaps = Remaps(Vec::new());
    let run = run_dynamic_in(
        &phases,
        &symbols,
        &figure4_geometry().system_config().unwrap(),
        &Registry::new(),
        Some((u64::MAX, &mut remaps)),
    )
    .unwrap();
    assert_eq!(run.phases.len(), 3);
    // phases use disjoint variables here, so every transition remaps something (new
    // variables appear) but each phase's own layout is conflict-free or nearly so
    assert_eq!(remaps.0.len(), 3);
    assert!(remaps.0.iter().all(|&regions| regions > 0));
    assert!(run.control_cycles > 0);
    for phase in &run.phases {
        assert!(phase.result.references > 0);
    }
}

#[test]
fn uncached_mapping_is_honoured_end_to_end() {
    let run = run_histogram(&HistogramConfig::small());
    let input = run.symbols.by_name("hist_input").unwrap();
    let mut mapping = CacheMapping::new();
    mapping.map(input.base, input.size, RegionMapping::Uncached);
    let result = replay_mapped("uncached-input", sys_config(), &mapping, &run.trace);
    // every input access bypasses the cache; the table still caches normally
    assert!(result.uncached >= run.trace.count_for(input.id) as u64);
    assert!(result.hits > 0);
}
