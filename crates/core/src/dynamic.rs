//! Dynamic (per-procedure) column-cache execution — the "Column" result of Figure 4(d).
//!
//! A static scratchpad/cache partition must compromise across procedures whose optimal
//! partitions differ. A column cache instead remaps variables to columns between
//! procedures: before each phase the tint table is reprogrammed with that phase's own
//! column assignment (computed by the Section 3 algorithm on that phase's profile), and
//! columns whose resident data fits entirely are pre-loaded so they behave as scratchpad.
//! The remapping and preload overheads are charged as control cycles and reported beside
//! the cycle count, never in it.

use crate::engine::ReplayEngine;
use crate::error::CoreError;
use crate::observe::{ReplayEvent, ReplayObserver};
use crate::placement::{page_aligned, Placement};
use crate::runner::{assign_columns_in, CacheMapping, RunResult};
use ccache_layout::weights::TraceProfile;
use ccache_layout::{LayoutOptions, WeightOptions};
use ccache_sim::backend::{BackendKind, MemoryBackend};
use ccache_sim::{ColumnMask, SystemConfig};
use ccache_telemetry::Registry;
use ccache_trace::{SymbolTable, Trace};

/// Result of one dynamically-remapped phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResult {
    /// Phase (procedure) name.
    pub name: String,
    /// Run statistics of the phase.
    pub result: RunResult,
    /// Cost `W` of the phase's column assignment.
    pub layout_cost: u64,
    /// Number of columns whose contents were pre-loaded (scratchpad-like columns).
    pub preloaded_columns: usize,
}

/// Result of a full dynamically-remapped application run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicRunResult {
    /// Per-phase results in execution order.
    pub phases: Vec<PhaseResult>,
    /// Total cycles excluding remap/preload overhead (comparable to the paper's figure).
    pub cycles: u64,
    /// Total software control cycles spent on remapping and preloading.
    pub control_cycles: u64,
}

/// Runs an application phase-by-phase on one column cache under `config`, recomputing
/// and applying the column assignment before each phase, with the engine's telemetry
/// reporting into `registry`.
///
/// `phases` are `(name, trace)` pairs sharing `symbols`. The variables are first placed
/// page-aligned (so per-variable tinting is exact), then each phase is laid out and run
/// on its own events, read through that one [`Placement`].
///
/// When `observe` is set, a streaming [`ReplayObserver`] receives windowed samples every
/// `window` references plus [`ReplayEvent::PhaseStart`], [`ReplayEvent::Remap`] and
/// [`ReplayEvent::PhaseEnd`] markers with run-global reference offsets. The returned
/// [`DynamicRunResult`] is byte-identical to an unobserved run of the same phases.
///
/// # Errors
///
/// Fails for an invalid system configuration, checked before anything is placed, a
/// layout past a layout limit or a failed column assignment.
pub fn run_dynamic_in(
    phases: &[(String, Trace)],
    symbols: &SymbolTable,
    config: &SystemConfig,
    registry: &Registry,
    mut observe: Option<(u64, &mut dyn ReplayObserver)>,
) -> Result<DynamicRunResult, CoreError> {
    let mut engine = ReplayEngine::new(BackendKind::ColumnCache, *config)?;
    engine.set_telemetry(registry);
    let columns = config.cache.columns();
    let column_bytes = config.cache.column_bytes();
    let placement = Placement::new(symbols, &page_aligned(symbols, 0x10_0000, config.page_size));
    let weight_opts = WeightOptions {
        column_bytes,
        split_large_variables: true,
        min_accesses: 1,
    };
    let layout_opts = LayoutOptions::new(columns, column_bytes);

    let mut phase_results = Vec::with_capacity(phases.len());
    let mut total_cycles = 0u64;
    let mut total_control = 0u64;
    let mut replayed_refs = 0u64;
    for (name, trace) in phases {
        // Per-phase layout.
        let (graph, units) =
            TraceProfile::placed(trace, placement.symbols(), &weight_opts, |ev| {
                placement.place(ev)
            })?
            .conflict_graph(column_bytes)?;
        let assignment = assign_columns_in(&graph, &layout_opts, registry)?;

        // Columns whose resident data fits entirely in the column are pre-loaded and made
        // exclusive: they behave as scratchpad for this phase.
        let mut column_bytes_used = vec![0u64; columns];
        for (idx, _unit) in units.iter().enumerate() {
            if let Some(col) = assignment.column_of_vertex(idx) {
                column_bytes_used[col] += units.unit(idx).map(|u| u.size).unwrap_or(0);
            }
        }
        let exclusive_columns: Vec<usize> = (0..columns)
            .filter(|&c| column_bytes_used[c] > 0 && column_bytes_used[c] <= column_bytes)
            .collect();
        // Keep at least one non-exclusive column for everything else.
        let exclusive_columns = if exclusive_columns.len() >= columns {
            exclusive_columns[..columns - 1].to_vec()
        } else {
            exclusive_columns
        };

        let mapping = CacheMapping::from_assignment(
            &assignment,
            &units,
            placement.symbols(),
            &exclusive_columns,
        );
        // Re-applying a mapping on a warm system is exactly the dynamic remapping the
        // paper describes: tints are redefined and affected pages re-tinted.
        if let Some((_, observer)) = observe.as_mut() {
            observer.on_event(&ReplayEvent::PhaseStart {
                name: name.clone(),
                at_ref: replayed_refs,
            });
        }
        apply_remap(engine.backend_mut(), &mapping)?;
        if let Some((_, observer)) = observe.as_mut() {
            observer.on_event(&ReplayEvent::Remap {
                label: name.clone(),
                at_ref: replayed_refs,
                regions: mapping.regions.len(),
            });
        }
        let phase_observer = observe
            .as_mut()
            .map(|(window, observer)| (*window, &mut **observer as &mut dyn ReplayObserver));
        let Ok(result) =
            engine.replay_from(name, placement.events(trace.as_slice()), phase_observer);
        replayed_refs += result.references;
        if let Some((_, observer)) = observe.as_mut() {
            observer.on_event(&ReplayEvent::PhaseEnd {
                name: name.clone(),
                at_ref: replayed_refs,
                cycles: result.total_cycles(),
            });
        }
        total_cycles += result.total_cycles();
        total_control += result.control_cycles;
        phase_results.push(PhaseResult {
            name: name.clone(),
            result,
            layout_cost: assignment.cost,
            preloaded_columns: exclusive_columns.len(),
        });
    }
    Ok(DynamicRunResult {
        phases: phase_results,
        cycles: total_cycles,
        control_cycles: total_control,
    })
}

/// Applies a new mapping to a warm backend (the per-phase remap).
fn apply_remap(system: &mut dyn MemoryBackend, mapping: &CacheMapping) -> Result<(), CoreError> {
    // Reset the default tint to all columns before narrowing it again, so a previous
    // phase's exclusivity does not leak into this phase.
    let columns = system.config().cache.columns();
    system.define_tint(ccache_sim::Tint::DEFAULT, ColumnMask::all(columns))?;
    mapping.apply(system)
}

/// Convenience wrapper: the static-partition cycle counts (from the partition sweep of the
/// combined application) next to the dynamic column-cache cycle count — the two curves of
/// Figure 4(d).
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4dResult {
    /// Cycle count of the combined application for each static partition (cache columns
    /// 0..=k).
    pub static_cycles: Vec<(usize, u64)>,
    /// Cycle count of the dynamically remapped column cache.
    pub column_cache_cycles: u64,
    /// Control overhead of the dynamic run.
    pub column_cache_control_cycles: u64,
}

impl Figure4dResult {
    /// The best static partition (cache columns, cycles).
    pub fn best_static(&self) -> (usize, u64) {
        self.static_cycles
            .iter()
            .copied()
            .min_by_key(|&(_, c)| c)
            .expect("at least one static point")
    }

    /// Whether the column cache beats every static partition.
    pub fn column_cache_wins(&self) -> bool {
        self.column_cache_cycles <= self.best_static().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_workloads::mpeg::{run_phases, MpegConfig};

    #[test]
    fn dynamic_run_executes_every_phase() {
        let cfg = SystemConfig {
            page_size: 128,
            ..SystemConfig::default()
        };
        let (phases, symbols) = run_phases(&MpegConfig::small());
        let result = run_dynamic_in(&phases, &symbols, &cfg, &Registry::new(), None).unwrap();
        assert_eq!(result.phases.len(), 3);
        assert!(result.cycles > 0);
        // remaps and preloads are charged beside the cycle count, never in it
        assert!(result.control_cycles > 0);
        let phase_cycles: u64 = result.phases.iter().map(|p| p.result.total_cycles()).sum();
        assert_eq!(result.cycles, phase_cycles);
        let total_refs: u64 = result.phases.iter().map(|p| p.result.references).sum();
        let expected: usize = phases.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(total_refs, expected as u64);
        // dequant and plus have few variables, so their per-phase layouts are conflict-free
        let dequant = result.phases.iter().find(|p| p.name == "dequant").unwrap();
        assert_eq!(dequant.layout_cost, 0);
    }
}
