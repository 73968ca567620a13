//! Applying a data layout to the simulated memory system and replaying traces.
//!
//! The runner is the glue between the three substrates: it takes a column assignment
//! produced by `ccache-layout` (through [`assign_columns_in`], which reports the layout
//! layer's telemetry), programs the tint table and page table of a
//! `ccache-sim::MemorySystem` accordingly (one tint per column, exclusive tints and
//! preloads for scratchpad-style regions); [`run_on`] replays a trace one reference at a
//! time and gathers cycle statistics.

use crate::error::CoreError;
use ccache_layout::{
    ColumnAssignment, ConflictGraph, LayoutError, LayoutOptions, LayoutUnit, UnitMap,
};
use ccache_sim::backend::MemoryBackend;
use ccache_sim::{ColumnMask, CycleReport, Tint};
use ccache_telemetry::Registry;
use ccache_trace::{SymbolTable, Trace};
use std::collections::BTreeMap;

/// How a region of memory is mapped onto the column cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionMapping {
    /// Restrict the region's replacements to the given columns.
    Columns {
        /// The columns the region may occupy.
        mask: ColumnMask,
    },
    /// Give the region exclusive use of the given columns (other tints lose them) and
    /// optionally pre-load it so accesses are guaranteed hits — scratchpad emulation.
    Exclusive {
        /// The columns dedicated to the region.
        mask: ColumnMask,
        /// Whether to pre-load every line of the region.
        preload: bool,
    },
    /// Bypass the cache entirely for this region.
    Uncached,
}

/// A complete mapping of variables onto the cache, ready to be programmed into a system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheMapping {
    /// Per-address-range mappings as `(base, size, mapping)`.
    pub regions: Vec<(u64, u64, RegionMapping)>,
    /// Mask used for pages not covered by any region (the default tint). `None` leaves the
    /// hardware default (all columns).
    pub default_mask: Option<ColumnMask>,
}

impl CacheMapping {
    /// Creates an empty mapping (every page behaves like a normal cache).
    pub fn new() -> Self {
        CacheMapping::default()
    }

    /// Adds a region mapping.
    pub fn map(&mut self, base: u64, size: u64, mapping: RegionMapping) -> &mut Self {
        self.regions.push((base, size, mapping));
        self
    }

    /// Adds a region mapping for layout unit `unit`: its bytes of its variable's region
    /// in `symbols`. A unit of a variable `symbols` does not hold maps nothing.
    pub fn map_unit(
        &mut self,
        symbols: &SymbolTable,
        unit: &LayoutUnit,
        mapping: RegionMapping,
    ) -> &mut Self {
        if let Some(region) = symbols.region(unit.var) {
            self.map(region.base + unit.offset, unit.size, mapping);
        }
        self
    }

    /// Builds the mapping corresponding to a column assignment: every unit of every
    /// variable is tinted to its assigned column.
    ///
    /// Units whose assigned column appears in `exclusive_columns` are mapped exclusively
    /// and pre-loaded (scratchpad emulation); everything else is a plain column
    /// restriction. The default mask (for unmapped pages) excludes the exclusive columns.
    pub fn from_assignment(
        assignment: &ColumnAssignment,
        units: &UnitMap,
        symbols: &SymbolTable,
        exclusive_columns: &[usize],
    ) -> Self {
        let mut mapping = CacheMapping::new();
        for (idx, unit) in units.iter().enumerate() {
            let Some(column) = assignment.column_of_vertex(idx) else {
                continue;
            };
            let mask = ColumnMask::single(column);
            let m = if exclusive_columns.contains(&column) {
                RegionMapping::Exclusive {
                    mask,
                    preload: true,
                }
            } else {
                RegionMapping::Columns { mask }
            };
            mapping.map_unit(symbols, unit, m);
        }
        if !exclusive_columns.is_empty() {
            let mut default = ColumnMask::all(assignment.columns);
            for &c in exclusive_columns {
                default = default.without(c);
            }
            if !default.is_empty() {
                mapping.default_mask = Some(default);
            }
        }
        mapping
    }

    /// Programs the mapping into any memory backend: defines tints, tints page ranges,
    /// marks uncached regions and performs preloads. Backends without a column-mapping
    /// control surface (e.g. the set-associative baseline) accept and ignore the tint
    /// operations.
    ///
    /// # Errors
    ///
    /// Returns an error if a mask is invalid for the system's cache.
    pub fn apply<B: MemoryBackend + ?Sized>(&self, system: &mut B) -> Result<(), CoreError> {
        // Tints are allocated deterministically: one per distinct mask, starting at 1.
        let mut tint_of_mask: BTreeMap<u64, Tint> = BTreeMap::new();
        let mut next_tint = 1u32;
        if let Some(default) = self.default_mask {
            system.define_tint(Tint::DEFAULT, default)?;
        }
        for (base, size, mapping) in &self.regions {
            match mapping {
                RegionMapping::Columns { mask } => {
                    let tint = *tint_of_mask.entry(mask.bits()).or_insert_with(|| {
                        let t = Tint(next_tint);
                        next_tint += 1;
                        t
                    });
                    system.define_tint(tint, *mask)?;
                    system.tint_range(*base..*base + *size, tint);
                }
                RegionMapping::Exclusive { mask, preload } => {
                    let tint = Tint(next_tint);
                    next_tint += 1;
                    system.map_exclusive_region(*base, *size, *mask, tint, *preload)?;
                }
                RegionMapping::Uncached => {
                    system.set_cacheable(*base..*base + *size, false);
                }
            }
        }
        Ok(())
    }
}

/// The outcome of replaying one trace on one configured system.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Label of the run (workload or configuration name).
    pub name: String,
    /// Total memory cycles (excluding software control overhead).
    pub memory_cycles: u64,
    /// Software control cycles (tint management, preloads, explicit copies).
    pub control_cycles: u64,
    /// Cycle/CPI report including the compute model (control cycles excluded).
    pub report: CycleReport,
    /// References replayed.
    pub references: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (including bypasses).
    pub misses: u64,
    /// Lines written back to memory.
    pub writebacks: u64,
    /// Accesses that bypassed the cache (uncacheable pages or empty masks).
    pub uncached: u64,
}

impl RunResult {
    /// Total cycles of the run including the compute model but excluding control cycles.
    pub fn total_cycles(&self) -> u64 {
        self.report.total_cycles()
    }

    /// Clocks per instruction (control excluded).
    pub fn cpi(&self) -> f64 {
        self.report.cpi()
    }

    /// Cache miss rate.
    pub fn miss_rate(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.misses as f64 / self.references as f64
        }
    }
}

/// Runs the paper's column assignment ([`ccache_layout::assign_columns`]) inside the
/// `layout.assign` span of `registry`, counting each assignment in `layout.assignments`,
/// its merges in `layout.merges` and its colorers' work in `layout.colour_steps`.
///
/// # Errors
///
/// Propagates the assignment's [`LayoutError`].
pub fn assign_columns_in(
    graph: &ConflictGraph,
    options: &LayoutOptions,
    registry: &Registry,
) -> Result<ColumnAssignment, LayoutError> {
    let assignment = {
        let _timed = registry.span("layout.assign").start();
        ccache_layout::assign_columns(graph, options)?
    };
    registry.counter("layout.assignments").incr();
    registry
        .counter("layout.merges")
        .add(assignment.merges as u64);
    registry
        .counter("layout.colour_steps")
        .add(assignment.colour_steps);
    Ok(assignment)
}

/// Replays a trace on an already-configured backend one reference at a time, collecting
/// a [`RunResult`] from the statistics accumulated *by this call only* (existing
/// statistics are reset first; cache contents and mappings are preserved).
///
/// This is the reference replay path; the batched
/// [`ReplayEngine::replay`](crate::engine::ReplayEngine::replay) produces identical
/// results faster.
pub fn run_on<B: MemoryBackend + ?Sized>(
    name: &str,
    system: &mut B,
    trace: &Trace,
) -> Result<RunResult, CoreError> {
    // Control cycles spent while configuring the system (tint setup, preloads) are kept
    // and added to any control work performed during the run itself.
    let control_before = system.control_cycles();
    system.reset_stats();
    for ev in trace {
        system.access(ev.addr, ev.is_write());
    }
    Ok(collect_result(name, system, control_before))
}

/// Assembles a [`RunResult`] from a backend's statistics after a replay.
pub(crate) fn collect_result<B: MemoryBackend + ?Sized>(
    name: &str,
    system: &B,
    control_before: u64,
) -> RunResult {
    let report = system.cycle_report();
    let cache = system.cache_stats();
    let mem = system.stats();
    RunResult {
        name: name.to_owned(),
        memory_cycles: mem.memory_cycles,
        control_cycles: control_before + system.control_cycles(),
        report,
        references: mem.references,
        hits: cache.hits,
        misses: cache.misses + cache.bypasses,
        writebacks: cache.writebacks,
        uncached: mem.uncached_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReplayEngine;
    use ccache_sim::backend::BackendKind;
    use ccache_sim::{LatencyConfig, MemorySystem, SystemConfig};
    use ccache_trace::synth::sequential_scan;

    fn config() -> SystemConfig {
        SystemConfig {
            page_size: 256,
            ..SystemConfig::default()
        }
    }

    /// A fresh column cache programmed with `mapping`, replaying `trace`.
    fn replay_mapped(
        name: &str,
        config: SystemConfig,
        mapping: &CacheMapping,
        trace: &Trace,
    ) -> Result<RunResult, CoreError> {
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config)?;
        engine.apply(mapping)?;
        Ok(engine.replay(name, trace))
    }

    #[test]
    fn empty_mapping_behaves_like_plain_cache() {
        let trace = sequential_scan(0x1000, 1024, 32, 4, 2, None);
        let result = replay_mapped("plain", config(), &CacheMapping::new(), &trace).unwrap();
        assert_eq!(result.references, trace.len() as u64);
        // second pass hits everything that fits: 1 KiB < 2 KiB cache
        assert!(result.hits >= 32);
        assert!(result.cpi() > 1.0);
        assert_eq!(result.name, "plain");
        assert_eq!(result.control_cycles, 0);
    }

    #[test]
    fn exclusive_mapping_protects_a_region_from_streaming() {
        // hot region of one column (512 B), plus a large streaming region
        let hot = sequential_scan(0x0, 512, 32, 4, 1, None);
        let stream = sequential_scan(0x10_0000, 64 * 1024, 32, 4, 1, None);
        let hot_again = sequential_scan(0x0, 512, 32, 4, 1, None);
        let trace = Trace::concat([&hot, &stream, &hot_again]);

        // Unprotected: the stream evicts the hot region.
        let unprotected =
            replay_mapped("unprotected", config(), &CacheMapping::new(), &trace).unwrap();

        // Protected: the hot region owns column 0 exclusively.
        let mut mapping = CacheMapping::new();
        mapping.map(
            0x0,
            512,
            RegionMapping::Exclusive {
                mask: ColumnMask::single(0),
                preload: true,
            },
        );
        let protected = replay_mapped("protected", config(), &mapping, &trace).unwrap();

        assert!(
            protected.misses < unprotected.misses,
            "exclusive mapping should reduce misses ({} vs {})",
            protected.misses,
            unprotected.misses
        );
        assert!(protected.control_cycles > 0, "preload must be charged");
        assert!(protected.total_cycles() < unprotected.total_cycles());
    }

    #[test]
    fn uncached_mapping_bypasses_the_cache() {
        let trace = sequential_scan(0x2000, 256, 32, 4, 3, None);
        let mut mapping = CacheMapping::new();
        mapping.map(0x2000, 256, RegionMapping::Uncached);
        let result = replay_mapped("uncached", config(), &mapping, &trace).unwrap();
        assert_eq!(result.hits, 0);
        assert_eq!(result.uncached, trace.len() as u64);
    }

    #[test]
    fn column_restriction_limits_footprint() {
        // stream bigger than one column, restricted to column 2
        let trace = sequential_scan(0x0, 4096, 32, 4, 1, None);
        let mut mapping = CacheMapping::new();
        mapping.map(
            0x0,
            4096,
            RegionMapping::Columns {
                mask: ColumnMask::single(2),
            },
        );
        let mut system = MemorySystem::new(config()).unwrap();
        mapping.apply(&mut system).unwrap();
        for ev in &trace {
            system.access(ev.addr, ev.is_write());
        }
        // only column 2 holds lines
        assert_eq!(system.cache().occupancy(0).unwrap(), 0);
        assert_eq!(system.cache().occupancy(1).unwrap(), 0);
        assert!(system.cache().occupancy(2).unwrap() > 0);
        assert_eq!(system.cache().occupancy(3).unwrap(), 0);
    }

    #[test]
    fn default_mask_steers_unmapped_pages() {
        let mut mapping = CacheMapping::new();
        mapping.default_mask = Some(ColumnMask::from_columns([1, 3]));
        let trace = sequential_scan(0x9000, 2048, 32, 4, 1, None);
        let mut system = MemorySystem::new(config()).unwrap();
        mapping.apply(&mut system).unwrap();
        for ev in &trace {
            system.access(ev.addr, ev.is_write());
        }
        assert_eq!(system.cache().occupancy(0).unwrap(), 0);
        assert_eq!(system.cache().occupancy(2).unwrap(), 0);
        assert!(system.cache().occupancy(1).unwrap() > 0);
    }

    #[test]
    fn run_on_resets_statistics_between_calls() {
        let trace = sequential_scan(0x1000, 512, 32, 4, 1, None);
        let mut system = MemorySystem::new(config()).unwrap();
        let first = run_on("first", &mut system, &trace).unwrap();
        let second = run_on("second", &mut system, &trace).unwrap();
        assert_eq!(first.references, second.references);
        // second run hits in the warm cache
        assert!(second.hits > first.hits);
    }

    #[test]
    fn zero_penalty_latency_counts_only_hits() {
        let cfg = SystemConfig {
            latency: LatencyConfig::zero_penalty(),
            page_size: 256,
            ..SystemConfig::default()
        };
        let trace = sequential_scan(0x0, 256, 32, 4, 1, None);
        let result = replay_mapped("zero", cfg, &CacheMapping::new(), &trace).unwrap();
        assert_eq!(result.memory_cycles, trace.len() as u64);
    }
}
