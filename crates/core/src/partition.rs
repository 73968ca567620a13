//! The scratchpad/cache partition sweep of Figure 4.
//!
//! For a fixed 2 KB, 4-column on-chip memory the experiment varies how many columns are
//! used as cache (0–4) with the remainder dedicated as scratchpad, and measures the cycle
//! count of each MPEG routine under the best data layout for that partition:
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
use crate::parallel::{par_map, seq_map};
use crate::placement::{pack_scratchpad_first, relocate};
use crate::runner::{CacheMapping, RegionMapping, RunResult};
use ccache_layout::weights::conflict_graph_from_trace;
use ccache_layout::{assign_columns, ConflictGraph, LayoutOptions, WeightOptions};
use ccache_sim::backend::BackendKind;
use ccache_sim::{CacheConfig, ColumnMask, LatencyConfig, SystemConfig};
use ccache_telemetry::Registry;
use ccache_trace::{AccessProfile, SymbolTable, Trace, VarId};
use ccache_workloads::WorkloadRun;
use std::collections::BTreeSet;

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
pub fn select_scratchpad_vars(trace: &Trace, symbols: &SymbolTable, capacity: u64) -> Vec<VarId> {
    if capacity == 0 {
        return Vec::new();
    }
    let profile = AccessProfile::from_trace(trace, symbols);
    let mut ranked: Vec<_> = profile.iter().collect();
    ranked.sort_by(|a, b| {
        b.access_density()
            .partial_cmp(&a.access_density())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.var.cmp(&b.var))
    });
    let mut selected = Vec::new();
    let mut used = 0u64;
    for p in ranked {
        if p.size > 0 && used + p.size <= capacity {
            selected.push(p.var);
            used += p.size;
        }
    }
    selected
}

/// Runs one partition point for a workload on the column cache: `cache_columns` columns
/// of cache, the rest scratchpad.
pub fn run_partition_point(
    workload: &WorkloadRun,
    config: &PartitionConfig,
    cache_columns: usize,
) -> Result<PartitionPoint, CoreError> {
    run_partition_point_in(
        BackendKind::ColumnCache,
        workload,
        config,
        cache_columns,
        &Registry::global(),
    )
}

/// Runs one partition point against any backend kind, with the engine's telemetry
/// reporting into `registry`. On the set-associative baseline the scratchpad mapping
/// degrades to ordinary cached accesses (the control operations are ignored), which is
/// exactly the "standard cache" comparison line.
pub fn run_partition_point_in(
    kind: BackendKind,
    workload: &WorkloadRun,
    config: &PartitionConfig,
    cache_columns: usize,
    registry: &Registry,
) -> Result<PartitionPoint, CoreError> {
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
        let assignment = assign_columns(&reduced, &layout_opts)?;
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
    let mut engine = ReplayEngine::new(kind, config.system_config()?)?;
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

/// Runs the full partition sweep (cache columns 0..=columns) for one workload.
///
/// Sweep points are independent — each builds, programs and replays its own system — so
/// with the `parallel` feature (the default) they run on worker threads. Results are
/// collected in point order; the sweep is byte-for-byte identical to
/// [`partition_sweep_serial`].
pub fn partition_sweep(
    workload: &WorkloadRun,
    config: &PartitionConfig,
) -> Result<PartitionSweep, CoreError> {
    let cache_columns: Vec<usize> = (0..=config.columns).collect();
    let points = par_map(&cache_columns, |&cc| {
        run_partition_point(workload, config, cc)
    });
    collect_sweep(workload, points)
}

/// The sweep of [`partition_sweep`], computed strictly serially. Used to verify that the
/// parallel path changes nothing, and as the comparison baseline in benches.
pub fn partition_sweep_serial(
    workload: &WorkloadRun,
    config: &PartitionConfig,
) -> Result<PartitionSweep, CoreError> {
    let cache_columns: Vec<usize> = (0..=config.columns).collect();
    let points = seq_map(&cache_columns, |&cc| {
        run_partition_point(workload, config, cc)
    });
    collect_sweep(workload, points)
}

fn collect_sweep(
    workload: &WorkloadRun,
    points: Vec<Result<PartitionPoint, CoreError>>,
) -> Result<PartitionSweep, CoreError> {
    Ok(PartitionSweep {
        name: workload.name.clone(),
        points: points.into_iter().collect::<Result<Vec<_>, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_workloads::mpeg::{run_dequant, run_idct, MpegConfig};

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
    fn dequant_prefers_scratchpad_heavy_partitions() {
        // Small configuration keeps the test fast while preserving the shape.
        let run = run_dequant(&MpegConfig::small());
        let sweep = partition_sweep(&run, &fast_config()).unwrap();
        assert_eq!(sweep.points.len(), 5);
        let all_scratchpad = sweep.cycles_at(0).unwrap();
        let all_cache = sweep.cycles_at(4).unwrap();
        assert!(
            all_scratchpad < all_cache,
            "dequant should prefer the all-scratchpad organisation ({all_scratchpad} vs {all_cache})"
        );
        assert_eq!(
            sweep.best().cache_columns,
            sweep
                .points
                .iter()
                .min_by_key(|p| p.cycles)
                .unwrap()
                .cache_columns
        );
    }

    #[test]
    fn idct_prefers_cache_heavy_partitions() {
        let run = run_idct(&MpegConfig::small());
        let sweep = partition_sweep(&run, &fast_config()).unwrap();
        let all_scratchpad = sweep.cycles_at(0).unwrap();
        let all_cache = sweep.cycles_at(4).unwrap();
        assert!(
            all_cache < all_scratchpad,
            "idct should prefer the cache organisation ({all_cache} vs {all_scratchpad})"
        );
    }

    #[test]
    fn parallel_and_serial_sweeps_serialize_identically() {
        // The acceptance bar for the parallel path: byte-identical SweepReport JSON.
        let run = run_dequant(&MpegConfig::small());
        let cfg = fast_config();
        let parallel = partition_sweep(&run, &cfg).unwrap();
        let serial = partition_sweep_serial(&run, &cfg).unwrap();
        assert_eq!(parallel, serial);

        // Force real worker threads (machines with one CPU would otherwise degrade the
        // parallel path to a serial loop) and re-check.
        let cache_columns: Vec<usize> = (0..=cfg.columns).collect();
        let threaded = collect_sweep(
            &run,
            crate::parallel::par_map_threads(
                &cache_columns,
                |&cc| run_partition_point(&run, &cfg, cc),
                4,
            ),
        )
        .unwrap();
        assert_eq!(threaded, serial);

        let report = |sweep: PartitionSweep| crate::report::SweepReport {
            figure: "4".to_owned(),
            config: cfg,
            sweeps: vec![sweep],
            figure4d: None,
        };
        assert_eq!(
            report(parallel).to_json_string(),
            report(threaded).to_json_string()
        );
        assert_eq!(
            report(serial.clone()).to_json_string(),
            report(serial).to_json_string()
        );
    }

    #[test]
    fn baseline_backend_ignores_partitioning() {
        use ccache_sim::backend::BackendKind;
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
        let column = run_partition_point(&run, &cfg, 2).unwrap();
        assert!(ideal.cycles <= column.cycles);
        // each point is one replay, counted in the registry it was given
        assert_eq!(registry.counter_value("engine.replays"), 3);
    }

    #[test]
    fn invalid_partition_is_rejected() {
        let run = run_dequant(&MpegConfig::small());
        assert!(run_partition_point(&run, &fast_config(), 9).is_err());
    }

    #[test]
    fn partition_point_reports_scratchpad_contents() {
        let run = run_dequant(&MpegConfig::small());
        let point = run_partition_point(&run, &fast_config(), 2).unwrap();
        assert_eq!(point.scratchpad_columns, 2);
        assert!(!point.scratchpad_vars.is_empty());
        assert!(point.cycles > 0);
        assert_eq!(point.result.references, run.trace.len() as u64);
    }
}
