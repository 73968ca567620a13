//! The scratchpad/cache partition points of Figure 4.
//!
//! For a fixed 2 KB, 4-column on-chip memory the experiment varies how many columns are
//! used as cache (0–4) with the remainder dedicated as scratchpad, and measures the cycle
//! count of each MPEG routine under the best data layout for that partition. The
//! experiment layer's planner expands a `partition-sweep` policy into one job per point;
//! [`run_partition_point_in`] runs one point:
//!
//! 1. variables are ranked by access density and greedily packed into the scratchpad
//!    capacity (the paper's "critical data" selection, following Panda et al.);
//! 2. the selected variables are *placed* contiguously in a column-aligned block so the
//!    scratchpad columns hold them without internal conflicts, and every other variable is
//!    placed page-aligned;
//! 3. the scratchpad block is mapped exclusively (and pre-loaded) onto the scratchpad
//!    columns, and the remaining variables are assigned to the cache columns by the
//!    layout algorithm of Section 3;
//! 4. the routine's reference stream is replayed and its cycle count recorded.

use crate::engine::ReplayEngine;
use crate::error::CoreError;
use crate::placement::{pack_scratchpad_first, relocate};
use crate::runner::{assign_columns_in, CacheMapping, RegionMapping, RunResult};
use ccache_layout::weights::conflict_graph_from_trace;
use ccache_layout::{ConflictGraph, LayoutOptions, WeightOptions};
use ccache_sim::backend::BackendKind;
use ccache_sim::{CacheConfig, ColumnMask, LatencyConfig, SystemConfig};
use ccache_telemetry::Registry;
use ccache_trace::{SymbolTable, Trace, VarId};
use ccache_workloads::WorkloadRun;
use std::collections::{BTreeMap, BTreeSet};

/// Base address of the packed scratchpad block in the relocated memory map.
const SCRATCHPAD_BASE: u64 = 0x4_0000;
/// Base address of the page-aligned general variables in the relocated memory map.
const GENERAL_BASE: u64 = 0x10_0000;

/// Configuration of a partition-sweep experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Total on-chip memory in bytes (paper: 2048).
    pub capacity_bytes: u64,
    /// Number of columns (paper: 4).
    pub columns: usize,
    /// Cache-line size in bytes (paper-era embedded lines: 32).
    pub line_size: u64,
    /// Mapping granularity (page size) of the simulated TLB/page table.
    pub page_size: u64,
    /// Latency model.
    pub latency: LatencyConfig,
    /// Whether the reported cycle count includes software control overhead (tint setup and
    /// scratchpad preloads). The paper's figures treat scratchpad contents as established
    /// ahead of the measured region, so the default is `false`.
    pub include_control: bool,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            capacity_bytes: 2048,
            columns: 4,
            line_size: 32,
            page_size: 128,
            latency: LatencyConfig::default(),
            include_control: false,
        }
    }
}

impl PartitionConfig {
    /// Size of one column in bytes.
    pub fn column_bytes(&self) -> u64 {
        self.capacity_bytes / self.columns as u64
    }

    /// The simulator system configuration for this partition experiment.
    pub fn system_config(&self) -> Result<SystemConfig, CoreError> {
        let cache = CacheConfig::builder()
            .capacity_bytes(self.capacity_bytes)
            .columns(self.columns)
            .line_size(self.line_size)
            .build()?;
        Ok(SystemConfig {
            cache,
            latency: self.latency,
            page_size: self.page_size,
            tlb_entries: 64,
        })
    }
}

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
/// to. A variable's density is its access count per byte of its region, or the bare count
/// when the symbol table does not size it; ties go to the lower [`VarId`].
pub fn select_scratchpad_vars(trace: &Trace, symbols: &SymbolTable, capacity: u64) -> Vec<VarId> {
    if capacity == 0 {
        return Vec::new();
    }
    let mut accesses: BTreeMap<VarId, u64> = BTreeMap::new();
    for ev in trace {
        if let Some(var) = ev.var.or_else(|| symbols.resolve(ev.addr)) {
            *accesses.entry(var).or_default() += 1;
        }
    }
    let mut ranked: Vec<(VarId, u64, f64)> = accesses
        .into_iter()
        .map(|(var, count)| {
            let size = symbols.region(var).map_or(0, |r| r.size);
            let density = if size == 0 {
                count as f64
            } else {
                count as f64 / size as f64
            };
            (var, size, density)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let mut selected = Vec::new();
    let mut used = 0u64;
    for (var, size, _) in ranked {
        if size > 0 && used + size <= capacity {
            selected.push(var);
            used += size;
        }
    }
    selected
}

/// Runs one partition point — `cache_columns` columns of cache, the rest scratchpad —
/// against any backend kind, with the engine's telemetry reporting into `registry`. On
/// the set-associative baseline the scratchpad mapping degrades to ordinary cached
/// accesses (the control operations are ignored), which is exactly the "standard cache"
/// comparison line.
///
/// # Errors
///
/// Fails for an invalid geometry, checked before any column mask is built, and for
/// more cache columns than the geometry has.
pub fn run_partition_point_in(
    kind: BackendKind,
    workload: &WorkloadRun,
    config: &PartitionConfig,
    cache_columns: usize,
    registry: &Registry,
) -> Result<PartitionPoint, CoreError> {
    let system_config = config.system_config()?;
    if cache_columns > config.columns {
        return Err(CoreError::BadPartition {
            scratchpad_columns: config.columns - cache_columns.min(config.columns),
            columns: config.columns,
        });
    }
    let scratchpad_columns = config.columns - cache_columns;
    let column_bytes = config.column_bytes();
    let scratchpad_capacity = scratchpad_columns as u64 * column_bytes;

    // 1. Pick the scratchpad residents.
    let scratch_vars =
        select_scratchpad_vars(&workload.trace, &workload.symbols, scratchpad_capacity);
    let scratch_set: BTreeSet<VarId> = scratch_vars.iter().copied().collect();

    // 2. Relocate: scratchpad residents packed contiguously, everything else page-aligned.
    let plan = pack_scratchpad_first(
        &workload.symbols,
        &scratch_vars,
        SCRATCHPAD_BASE,
        GENERAL_BASE,
        config.page_size,
    );
    let (trace, symbols) = relocate(&workload.trace, &workload.symbols, &plan);

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
    let weight_opts = WeightOptions {
        column_bytes,
        split_large_variables: true,
        min_accesses: 1,
    };
    let (graph, units) = conflict_graph_from_trace(&trace, &symbols, &weight_opts);
    // Reduce the graph to the units of non-scratchpad variables.
    let mut reduced = ConflictGraph::new();
    let mut reduced_to_unit: Vec<usize> = Vec::new();
    for (idx, vertex) in graph.vertices() {
        if !scratch_set.contains(&vertex.var) {
            reduced.add_vertex(vertex.clone());
            reduced_to_unit.push(idx);
        }
    }
    for i in 0..reduced_to_unit.len() {
        for j in (i + 1)..reduced_to_unit.len() {
            let w = graph.weight(reduced_to_unit[i], reduced_to_unit[j]);
            if w > 0 {
                reduced.set_weight(i, j, w);
            }
        }
    }

    if cache_columns == 0 {
        // No cache at all: whatever is not in the scratchpad bypasses to main memory.
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
        let assignment = assign_columns_in(&reduced, &layout_opts, registry)?;
        for (ri, &unit_idx) in reduced_to_unit.iter().enumerate() {
            let unit = units.unit(unit_idx).expect("unit index valid");
            let column = assignment
                .column_of_vertex(ri)
                .expect("assignment covers every vertex");
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

    // 4. Replay (batched, through the replay engine).
    let mut engine = ReplayEngine::new(kind, system_config)?;
    engine.set_telemetry(registry);
    engine.apply(&mapping)?;
    let result = engine.replay(&format!("{}-cache{}", workload.name, cache_columns), &trace);
    let cycles = if config.include_control {
        result.total_cycles_with_control()
    } else {
        result.total_cycles()
    };
    let scratchpad_names = scratch_vars
        .iter()
        .filter_map(|v| symbols.region(*v).map(|r| r.name.clone()))
        .collect();
    Ok(PartitionPoint {
        cache_columns,
        scratchpad_columns,
        cycles,
        scratchpad_vars: scratchpad_names,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_workloads::mpeg::{run_dequant, MpegConfig};

    fn fast_config() -> PartitionConfig {
        PartitionConfig::default()
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
        let cfg = fast_config();
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
        config: &PartitionConfig,
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
        assert!(column_point(&run, &fast_config(), 9).is_err());
    }

    #[test]
    fn invalid_geometry_fails_before_building_masks() {
        // 1,000,000 columns would build a mask past bit 63 if the geometry were not
        // checked first.
        let run = run_dequant(&MpegConfig::small());
        let config = PartitionConfig {
            columns: 1_000_000,
            ..fast_config()
        };
        let err = column_point(&run, &config, 64).unwrap_err();
        assert!(err.to_string().contains("1000000"), "{err}");
    }

    #[test]
    fn partition_point_reports_scratchpad_contents() {
        let run = run_dequant(&MpegConfig::small());
        let point = column_point(&run, &fast_config(), 2).unwrap();
        assert_eq!(point.scratchpad_columns, 2);
        assert!(!point.scratchpad_vars.is_empty());
        assert!(point.cycles > 0);
        assert_eq!(point.result.references, run.trace.len() as u64);
    }
}
