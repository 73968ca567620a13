//! The scratchpad/cache partition points of Figure 4.
//!
//! For a fixed 2 KB, 4-column on-chip memory the experiment varies how many columns are
//! used as cache (0–4) with the remainder dedicated as scratchpad, and measures the cycle
//! count of each MPEG routine under the best data layout for that partition. The
//! experiment layer's planner expands a `partition-sweep` policy into one job per point;
//! [`run_partition_point_in`] runs one point under a grid's [`SystemConfig`] — its cache
//! geometry, replacement policy, page size, TLB and latencies:
//!
//! 1. variables are ranked by access density and greedily packed into the scratchpad
//!    capacity (the paper's "critical data" selection, following Panda et al.);
//! 2. the selected variables are *placed* contiguously in a column-aligned block so the
//!    scratchpad columns hold them without internal conflicts, and every other variable is
//!    placed page-aligned; the [`Placement`] maps each event to its placed address as the
//!    layout profile and the replay read the workload's own events;
//! 3. the scratchpad block is mapped exclusively (and pre-loaded) onto the scratchpad
//!    columns, and the remaining variables are assigned to the cache columns by the
//!    layout algorithm of Section 3;
//! 4. the routine's reference stream is replayed and its cycle count recorded.

use crate::engine::ReplayEngine;
use crate::error::CoreError;
use crate::placement::{pack_scratchpad_first, Placement};
use crate::runner::{assign_columns_in, CacheMapping, RegionMapping, RunResult};
use ccache_layout::weights::TraceProfile;
use ccache_layout::{ConflictGraph, LayoutOptions, WeightOptions};
use ccache_sim::backend::BackendKind;
use ccache_sim::{ColumnMask, SystemConfig};
use ccache_telemetry::Registry;
use ccache_trace::{SymbolTable, Trace, VarId};
use ccache_workloads::WorkloadRun;
use std::collections::BTreeSet;

/// Base address of the packed scratchpad block in the placed memory map.
const SCRATCHPAD_BASE: u64 = 0x4_0000;
/// Base address of the page-aligned general variables in the placed memory map.
const GENERAL_BASE: u64 = 0x10_0000;

/// One point of the partition sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPoint {
    /// Number of columns used as cache (the x-axis of Figure 4).
    pub cache_columns: usize,
    /// Number of columns dedicated as scratchpad.
    pub scratchpad_columns: usize,
    /// Cycle count of the routine under this partition (the y-axis of Figure 4).
    pub cycles: u64,
    /// Names of the variables resident in the scratchpad.
    pub scratchpad_vars: Vec<String>,
    /// Detailed run statistics.
    pub result: RunResult,
}

/// The full sweep for one routine.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSweep {
    /// Name of the routine.
    pub name: String,
    /// One point per cache-column count, in increasing order (0..=columns).
    pub points: Vec<PartitionPoint>,
}

impl PartitionSweep {
    /// The point with the lowest cycle count.
    pub fn best(&self) -> &PartitionPoint {
        self.points
            .iter()
            .min_by_key(|p| p.cycles)
            .expect("sweep has at least one point")
    }

    /// The cycle count at a given number of cache columns.
    pub fn cycles_at(&self, cache_columns: usize) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.cache_columns == cache_columns)
            .map(|p| p.cycles)
    }
}

/// Greedily selects the variables to hold in `capacity` bytes of scratchpad, by decreasing
/// access density, skipping variables that do not fit in the remaining space.
///
/// An event counts for its annotated variable, else for the region its address resolves
/// to; the counts are one dense pass over the trace. A variable's density is its access
/// count per byte of its region; ties go to the lower [`VarId`]. Variables never accessed
/// are not candidates, and neither are ids the symbol table does not know, which have no
/// size to fit.
pub fn select_scratchpad_vars(trace: &Trace, symbols: &SymbolTable, capacity: u64) -> Vec<VarId> {
    if capacity == 0 {
        return Vec::new();
    }
    let mut accesses = vec![0u64; symbols.len()];
    for ev in trace {
        if let Some(count) = ev
            .var
            .or_else(|| symbols.resolve(ev.addr))
            .and_then(|var| accesses.get_mut(var.index()))
        {
            *count += 1;
        }
    }
    // regions are never empty, so every density is finite
    let mut ranked: Vec<(VarId, u64, f64)> = symbols
        .iter()
        .zip(accesses)
        .filter(|&(_, count)| count > 0)
        .map(|(region, count)| (region.id, region.size, count as f64 / region.size as f64))
        .collect();
    ranked.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let mut selected = Vec::new();
    let mut used = 0u64;
    for (var, size, _) in ranked {
        if used + size <= capacity {
            selected.push(var);
            used += size;
        }
    }
    selected
}

/// Runs one partition point — `cache_columns` columns of cache, the rest scratchpad —
/// against any backend kind under `config`, with the engine's telemetry reporting into
/// `registry`. On the set-associative baseline the scratchpad mapping degrades to
/// ordinary cached accesses (the control operations are ignored), which is exactly the
/// "standard cache" comparison line. The point's cycles are the replay's cycle count;
/// the control cycles of its tints and preloads are reported beside them, in its
/// result.
///
/// # Errors
///
/// Fails for an invalid system configuration, checked before anything is placed, for
/// more cache columns than the geometry has, and for a layout past a layout limit.
pub fn run_partition_point_in(
    kind: BackendKind,
    workload: &WorkloadRun,
    config: &SystemConfig,
    cache_columns: usize,
    registry: &Registry,
) -> Result<PartitionPoint, CoreError> {
    config.validate()?;
    let columns = config.cache.columns();
    if cache_columns > columns {
        return Err(CoreError::BadPartition {
            cache_columns,
            columns,
        });
    }
    let scratchpad_columns = columns - cache_columns;
    let column_bytes = config.cache.column_bytes();
    let scratchpad_capacity = scratchpad_columns as u64 * column_bytes;

    // Placement keeps every variable's size, so the layout's unit count is known now.
    let weight_opts = WeightOptions {
        column_bytes,
        split_large_variables: true,
        min_accesses: 1,
    };
    weight_opts.unit_count(&workload.symbols)?;

    // 1. Pick the scratchpad residents.
    let scratch_vars =
        select_scratchpad_vars(&workload.trace, &workload.symbols, scratchpad_capacity);
    let scratch_set: BTreeSet<VarId> = scratch_vars.iter().copied().collect();

    // 2. Place: scratchpad residents packed contiguously, everything else page-aligned.
    let plan = pack_scratchpad_first(
        &workload.symbols,
        &scratch_vars,
        SCRATCHPAD_BASE,
        GENERAL_BASE,
        config.page_size,
    );
    let placement = Placement::new(&workload.symbols, &plan);
    let symbols = placement.symbols();

    // 3. Build the cache mapping.
    let mut mapping = CacheMapping::new();
    let scratch_bytes: u64 = scratch_vars
        .iter()
        .filter_map(|v| symbols.region(*v))
        .map(|r| r.size)
        .sum();
    if scratchpad_columns > 0 && scratch_bytes > 0 {
        let scratch_mask = ColumnMask::range(cache_columns, scratchpad_columns);
        mapping.map(
            SCRATCHPAD_BASE,
            scratch_bytes,
            RegionMapping::Exclusive {
                mask: scratch_mask,
                preload: true,
            },
        );
    }

    // The remaining variables go to the cache columns via the layout algorithm.
    let (graph, units) = TraceProfile::placed(&workload.trace, symbols, &weight_opts, |ev| {
        placement.place(ev)
    })?
    .conflict_graph(column_bytes)?;
    // Reduce the graph to the units of non-scratchpad variables, keeping the edges whose
    // endpoints both stay.
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
        // No cache at all: whatever is not in the scratchpad bypasses to main memory.
        for &unit_idx in &reduced_to_unit {
            let unit = units.unit(unit_idx).expect("unit index valid");
            mapping.map_unit(symbols, unit, RegionMapping::Uncached);
        }
    } else {
        let layout_opts = LayoutOptions::new(cache_columns, column_bytes);
        let assignment = assign_columns_in(&reduced, &layout_opts, registry)?;
        for (ri, &unit_idx) in reduced_to_unit.iter().enumerate() {
            let unit = units.unit(unit_idx).expect("unit index valid");
            let column = assignment
                .column_of_vertex(ri)
                .expect("assignment covers every vertex");
            let mask = ColumnMask::single(column);
            mapping.map_unit(symbols, unit, RegionMapping::Columns { mask });
        }
        if scratchpad_columns > 0 {
            mapping.default_mask = Some(ColumnMask::range(0, cache_columns));
        }
    }

    // 4. Replay (batched, through the replay engine).
    let mut engine = ReplayEngine::new(kind, *config)?;
    engine.set_telemetry(registry);
    engine.apply(&mapping)?;
    let Ok(result) = engine.replay_from(
        &format!("{}-cache{}", workload.name, cache_columns),
        placement.events(workload.trace.as_slice()),
        None,
    );
    let scratchpad_names = scratch_vars
        .iter()
        .filter_map(|v| symbols.region(*v).map(|r| r.name.clone()))
        .collect();
    Ok(PartitionPoint {
        cache_columns,
        scratchpad_columns,
        cycles: result.total_cycles(),
        scratchpad_vars: scratchpad_names,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_workloads::mpeg::{run_dequant, MpegConfig};

    /// Figure 4's 2 KB, 4-column memory with 128-byte pages.
    fn figure4() -> SystemConfig {
        SystemConfig {
            page_size: 128,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn select_scratchpad_prefers_dense_variables_and_respects_capacity() {
        let run = run_dequant(&MpegConfig::small());
        let selected = select_scratchpad_vars(&run.trace, &run.symbols, 2048);
        let total: u64 = selected
            .iter()
            .map(|v| run.symbols.region(*v).unwrap().size)
            .sum();
        assert!(total <= 2048);
        // the coefficient buffer and quant table are the densest variables
        let names: Vec<&str> = selected
            .iter()
            .map(|v| run.symbols.region(*v).unwrap().name.as_str())
            .collect();
        assert!(names.contains(&"dq_coeff_blocks"));
        assert!(names.contains(&"dq_quant_tbl"));
        assert!(select_scratchpad_vars(&run.trace, &run.symbols, 0).is_empty());
    }

    #[test]
    fn baseline_backend_ignores_partitioning() {
        let run = run_dequant(&MpegConfig::small());
        let cfg = figure4();
        // On a conventional cache the "partition" degrades to plain caching, so every
        // sweep point costs the same.
        let registry = Registry::new();
        let point = |kind, cache_columns| {
            run_partition_point_in(kind, &run, &cfg, cache_columns, &registry).unwrap()
        };
        let p2 = point(BackendKind::SetAssociative, 2);
        let p4 = point(BackendKind::SetAssociative, 4);
        assert_eq!(p2.result.hits, p4.result.hits);
        assert_eq!(p2.result.misses, p4.result.misses);
        // The ideal scratchpad lower-bounds the column cache at every point.
        let ideal = point(BackendKind::IdealScratchpad, 2);
        let column = point(BackendKind::ColumnCache, 2);
        assert!(ideal.cycles <= column.cycles);
        // each point is one replay, counted in the registry it was given
        assert_eq!(registry.counter_value("engine.replays"), 4);
    }

    fn column_point(
        run: &WorkloadRun,
        config: &SystemConfig,
        cache_columns: usize,
    ) -> Result<PartitionPoint, CoreError> {
        run_partition_point_in(
            BackendKind::ColumnCache,
            run,
            config,
            cache_columns,
            &Registry::new(),
        )
    }

    #[test]
    fn invalid_partition_is_rejected() {
        let run = run_dequant(&MpegConfig::small());
        let err = column_point(&run, &figure4(), 9).unwrap_err();
        assert_eq!(
            err,
            CoreError::BadPartition {
                cache_columns: 9,
                columns: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "cannot keep 9 cache columns in a 4-column cache"
        );
    }

    #[test]
    fn invalid_system_config_fails_before_placing() {
        // A zero page size would align the placed variables to nothing if the
        // configuration were not checked first.
        let run = run_dequant(&MpegConfig::small());
        let config = SystemConfig {
            page_size: 0,
            ..figure4()
        };
        let err = column_point(&run, &config, 2).unwrap_err();
        assert!(err.to_string().contains("page size"), "{err}");
    }

    #[test]
    fn partition_point_reports_scratchpad_contents() {
        let run = run_dequant(&MpegConfig::small());
        let point = column_point(&run, &figure4(), 2).unwrap();
        assert_eq!(point.scratchpad_columns, 2);
        assert!(!point.scratchpad_vars.is_empty());
        assert!(point.cycles > 0);
        assert_eq!(point.result.references, run.trace.len() as u64);
    }
}
