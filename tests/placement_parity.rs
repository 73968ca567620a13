//! Partition points and dynamic runs read a workload's own events through their
//! placement ([`Placement`]); these properties compare them with the copy-based pipeline
//! they replaced, transcribed below: relocate the trace into a new trace and symbol
//! table, profile the copy, replay the copy.
//!
//! The random workloads mix annotated events, unannotated events found by address,
//! events annotated with ids the symbol table does not know or at addresses outside
//! their variable, and unannotated events outside every recorded region — including
//! addresses where the placement puts a variable, which the profile must attribute to
//! it. The recorded variables lie below, between or above the placed blocks, so shifts
//! run both ways.

use column_caching::core::dynamic::{run_dynamic_in, DynamicRunResult, PhaseResult};
use column_caching::core::partition::{
    run_partition_point_in, select_scratchpad_vars, PartitionPoint,
};
use column_caching::core::placement::{
    pack_scratchpad_first, page_aligned, Placement, PlacementPlan,
};
use column_caching::core::runner::{assign_columns_in, CacheMapping, RegionMapping};
use column_caching::core::ReplayEngine;
use column_caching::layout::{ConflictGraph, LayoutOptions, TraceProfile, WeightOptions};
use column_caching::sim::{BackendKind, CacheConfig, ColumnMask, SystemConfig, Tint};
use column_caching::telemetry::Registry;
use column_caching::trace::{MemAccess, SymbolTable, Trace, VarId};
use column_caching::workloads::WorkloadRun;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The placed memory map of a partition point: the scratchpad block, then the
/// page-aligned general variables.
const SCRATCHPAD_BASE: u64 = 0x4_0000;
const GENERAL_BASE: u64 = 0x10_0000;

/// The copy-based relocation the placement replaced: a new trace with every event of a
/// known variable moved by that variable's shift, and the placed symbol table.
fn relocate(trace: &Trace, symbols: &SymbolTable, plan: &PlacementPlan) -> (Trace, SymbolTable) {
    let mut new_symbols = SymbolTable::with_base(0);
    for region in symbols.iter() {
        let base = plan.target(region.id).unwrap_or(region.base);
        new_symbols
            .insert_at(&region.name, base, region.size)
            .expect("plan produced overlapping regions");
    }
    let mut delta: BTreeMap<VarId, i128> = BTreeMap::new();
    for region in symbols.iter() {
        let new_base = plan.target(region.id).unwrap_or(region.base);
        delta.insert(region.id, i128::from(new_base) - i128::from(region.base));
    }
    let relocated: Trace = trace
        .iter()
        .map(|e| {
            let var = e.var.or_else(|| symbols.resolve(e.addr));
            match var.and_then(|v| delta.get(&v)) {
                Some(d) => MemAccess {
                    addr: (i128::from(e.addr) + d) as u64,
                    var,
                    ..*e
                },
                None => *e,
            }
        })
        .collect();
    (relocated, new_symbols)
}

fn weight_options(column_bytes: u64) -> WeightOptions {
    WeightOptions {
        column_bytes,
        split_large_variables: true,
        min_accesses: 1,
    }
}

/// A partition point as the copy-based pipeline ran it: select, relocate, profile the
/// relocated trace, reduce the graph to the cached variables, assign, replay the copy.
fn copied_partition_point(
    kind: BackendKind,
    workload: &WorkloadRun,
    config: &SystemConfig,
    cache_columns: usize,
) -> PartitionPoint {
    let registry = Registry::new();
    let scratchpad_columns = config.cache.columns() - cache_columns;
    let column_bytes = config.cache.column_bytes();
    let scratch_vars = select_scratchpad_vars(
        &workload.trace,
        &workload.symbols,
        scratchpad_columns as u64 * column_bytes,
    );
    let scratch_set: BTreeSet<VarId> = scratch_vars.iter().copied().collect();
    let plan = pack_scratchpad_first(
        &workload.symbols,
        &scratch_vars,
        SCRATCHPAD_BASE,
        GENERAL_BASE,
        config.page_size,
    );
    let (trace, symbols) = relocate(&workload.trace, &workload.symbols, &plan);

    let mut mapping = CacheMapping::new();
    let scratch_bytes: u64 = scratch_vars
        .iter()
        .filter_map(|v| symbols.region(*v))
        .map(|r| r.size)
        .sum();
    if scratchpad_columns > 0 && scratch_bytes > 0 {
        mapping.map(
            SCRATCHPAD_BASE,
            scratch_bytes,
            RegionMapping::Exclusive {
                mask: ColumnMask::range(cache_columns, scratchpad_columns),
                preload: true,
            },
        );
    }
    let (graph, units) = TraceProfile::new(&trace, &symbols, &weight_options(column_bytes))
        .and_then(|profile| profile.conflict_graph(column_bytes))
        .expect("within the layout limits");
    let mut reduced = ConflictGraph::new();
    let mut reduced_to_unit: Vec<usize> = Vec::new();
    let mut reduced_of = vec![None; graph.vertex_count()];
    for (idx, vertex) in graph.vertices() {
        if !scratch_set.contains(&vertex.var) {
            reduced_of[idx] = Some(reduced.add_vertex(vertex.clone()));
            reduced_to_unit.push(idx);
        }
    }
    for (a, b, w) in graph.edges() {
        if let (Some(i), Some(j)) = (reduced_of[a], reduced_of[b]) {
            reduced.set_weight(i, j, w);
        }
    }
    if cache_columns == 0 {
        for &unit_idx in &reduced_to_unit {
            let unit = units.unit(unit_idx).expect("unit index valid");
            if let Some(region) = symbols.region(unit.var) {
                mapping.map(
                    region.base + unit.offset,
                    unit.size,
                    RegionMapping::Uncached,
                );
            }
        }
    } else {
        let layout_opts = LayoutOptions::new(cache_columns, column_bytes);
        let assignment = assign_columns_in(&reduced, &layout_opts, &registry).expect("assigns");
        for (ri, &unit_idx) in reduced_to_unit.iter().enumerate() {
            let unit = units.unit(unit_idx).expect("unit index valid");
            let column = assignment.column_of_vertex(ri).expect("every vertex");
            if let Some(region) = symbols.region(unit.var) {
                mapping.map(
                    region.base + unit.offset,
                    unit.size,
                    RegionMapping::Columns {
                        mask: ColumnMask::single(column),
                    },
                );
            }
        }
        if scratchpad_columns > 0 {
            mapping.default_mask = Some(ColumnMask::range(0, cache_columns));
        }
    }

    let mut engine = ReplayEngine::new(kind, *config).expect("valid geometry");
    engine.set_telemetry(&registry);
    engine.apply(&mapping).expect("valid masks");
    let result = engine.replay(&format!("{}-cache{}", workload.name, cache_columns), &trace);
    PartitionPoint {
        cache_columns,
        scratchpad_columns,
        cycles: result.total_cycles(),
        scratchpad_vars: scratch_vars
            .iter()
            .filter_map(|v| symbols.region(*v).map(|r| r.name.clone()))
            .collect(),
        result,
    }
}

/// A dynamic run as the copy-based pipeline ran it: every phase relocated up front,
/// then per phase a profile of the copy, an assignment, a remap and a replay of the
/// copy on one warm engine.
fn copied_dynamic_run(
    phases: &[(String, Trace)],
    symbols: &SymbolTable,
    config: &SystemConfig,
) -> DynamicRunResult {
    let columns = config.cache.columns();
    let column_bytes = config.cache.column_bytes();
    let plan = page_aligned(symbols, 0x10_0000, config.page_size);
    let relocated: Vec<(String, Trace, SymbolTable)> = phases
        .iter()
        .map(|(name, trace)| {
            let (t, s) = relocate(trace, symbols, &plan);
            (name.clone(), t, s)
        })
        .collect();
    let registry = Registry::new();
    let mut engine = ReplayEngine::new(BackendKind::ColumnCache, *config).expect("valid geometry");
    engine.set_telemetry(&registry);
    let layout_opts = LayoutOptions::new(columns, column_bytes);
    let mut phase_results = Vec::new();
    let (mut cycles, mut control_cycles) = (0, 0);
    for (name, trace, new_symbols) in &relocated {
        let (graph, units) = TraceProfile::new(trace, new_symbols, &weight_options(column_bytes))
            .and_then(|profile| profile.conflict_graph(column_bytes))
            .expect("within the layout limits");
        let assignment = assign_columns_in(&graph, &layout_opts, &registry).expect("assigns");
        let mut used = vec![0u64; columns];
        for idx in 0..units.len() {
            if let Some(col) = assignment.column_of_vertex(idx) {
                used[col] += units.unit(idx).map_or(0, |u| u.size);
            }
        }
        let mut exclusive: Vec<usize> = (0..columns)
            .filter(|&c| used[c] > 0 && used[c] <= column_bytes)
            .collect();
        exclusive.truncate(columns - 1);
        let mapping = CacheMapping::from_assignment(&assignment, &units, new_symbols, &exclusive);
        let backend = engine.backend_mut();
        backend
            .define_tint(Tint::DEFAULT, ColumnMask::all(columns))
            .expect("valid mask");
        mapping.apply(backend).expect("valid masks");
        let result = engine.replay(name, trace);
        cycles += result.total_cycles();
        control_cycles += result.control_cycles;
        phase_results.push(PhaseResult {
            name: name.clone(),
            result,
            layout_cost: assignment.cost,
            preloaded_columns: exclusive.len(),
        });
    }
    DynamicRunResult {
        phases: phase_results,
        cycles,
        control_cycles,
    }
}

/// A random workload: variables allocated from `base` with the given sizes, and one
/// event per op, of the kind the op's first field picks.
fn workload(base: u64, sizes: &[u64], ops: &[(usize, usize, u64)]) -> WorkloadRun {
    let mut symbols = SymbolTable::with_base(base);
    let vars: Vec<VarId> = sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| symbols.allocate(&format!("v{i}"), size, 8).expect("sized"))
        .collect();
    let mut trace = Trace::new();
    for &(kind, v, off) in ops {
        let var = vars[v % vars.len()];
        let region = symbols.region(var).expect("allocated").clone();
        let inside = region.base + off % region.size;
        trace.push(match kind {
            0 => MemAccess::read(inside, 4).with_var(var),
            1 => MemAccess::write(inside, 4),
            // held by no recorded variable: where the scratchpad block and the general
            // variables are placed
            2 => MemAccess::read(SCRATCHPAD_BASE + off % 0x1000, 4),
            3 => MemAccess::write(GENERAL_BASE + off % 0x4000, 4),
            // annotated, but with an id the table does not know
            4 => MemAccess::read(inside, 4).with_var(VarId(100 + v as u32)),
            // annotated, but past the end of its variable
            _ => MemAccess::write(region.end() + off, 4).with_var(var),
        });
    }
    WorkloadRun {
        name: "random".to_owned(),
        trace,
        symbols,
        checksum: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every partition point — each cache-column count on a geometry of 1, 2 or 4
    /// columns, so every scratchpad size, on every backend kind — and the dynamic run
    /// of the same events cut into phases equal the copy-based pipeline's. The profile
    /// read through each placement equals the profile of the relocated copy.
    #[test]
    fn placed_runs_equal_the_copy_based_pipeline(
        base in 0usize..3,
        sizes in prop::collection::vec(1u64..1500, 1..7),
        ops in prop::collection::vec((0usize..6, 0usize..8, 0u64..5000), 1..400),
        shape in 0usize..3,
        cuts in prop::collection::vec(0usize..400, 0..3),
    ) {
        let base = [0x1_0000, 0x8_0000, 0x30_0000][base];
        let run = workload(base, &sizes, &ops);
        let columns = 1usize << shape;
        // Figure 4's 2 KB memory and 128-byte pages, at 1, 2 or 4 columns
        let config = SystemConfig {
            cache: CacheConfig::builder().columns(columns).build().expect("valid geometry"),
            page_size: 128,
            ..SystemConfig::default()
        };
        let column_bytes = config.cache.column_bytes();
        let weights = weight_options(column_bytes);

        for cache_columns in 0..=columns {
            // the profile through the point's placement, against the relocated copy's
            let scratchpad = (columns - cache_columns) as u64 * column_bytes;
            let scratch_vars = select_scratchpad_vars(&run.trace, &run.symbols, scratchpad);
            let plan = pack_scratchpad_first(
                &run.symbols,
                &scratch_vars,
                SCRATCHPAD_BASE,
                GENERAL_BASE,
                config.page_size,
            );
            let placement = Placement::new(&run.symbols, &plan);
            let (copy, copy_symbols) = relocate(&run.trace, &run.symbols, &plan);
            prop_assert_eq!(placement.symbols(), &copy_symbols);
            let placed = TraceProfile::placed(&run.trace, placement.symbols(), &weights, |ev| {
                placement.place(ev)
            })
            .and_then(|profile| profile.conflict_graph(column_bytes))
            .expect("within the layout limits");
            let copied = TraceProfile::new(&copy, &copy_symbols, &weights)
                .and_then(|profile| profile.conflict_graph(column_bytes))
                .expect("within the layout limits");
            prop_assert_eq!(placed, copied);

            for kind in BackendKind::ALL {
                let point =
                    run_partition_point_in(kind, &run, &config, cache_columns, &Registry::new())
                        .expect("runs");
                prop_assert_eq!(
                    point,
                    copied_partition_point(kind, &run, &config, cache_columns),
                    "{:?} at {} of {} cache columns", kind, cache_columns, columns
                );
            }
        }

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (run.trace.len() + 1)).collect();
        cuts.sort_unstable();
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(cuts)
            .chain(std::iter::once(run.trace.len()))
            .collect();
        let phases: Vec<(String, Trace)> = bounds
            .windows(2)
            .enumerate()
            .map(|(i, w)| (format!("phase{i}"), run.trace.slice(w[0], w[1])))
            .collect();
        let plan = page_aligned(&run.symbols, 0x10_0000, config.page_size);
        let placement = Placement::new(&run.symbols, &plan);
        let (copy, copy_symbols) = relocate(&run.trace, &run.symbols, &plan);
        let placed = TraceProfile::placed(&run.trace, placement.symbols(), &weights, |ev| {
            placement.place(ev)
        })
        .and_then(|profile| profile.conflict_graph(column_bytes))
        .expect("within the layout limits");
        let copied = TraceProfile::new(&copy, &copy_symbols, &weights)
            .and_then(|profile| profile.conflict_graph(column_bytes))
            .expect("within the layout limits");
        prop_assert_eq!(placed, copied);
        prop_assert_eq!(
            run_dynamic_in(&phases, &run.symbols, &config, &Registry::new(), None).expect("runs"),
            copied_dynamic_run(&phases, &run.symbols, &config)
        );
    }
}
