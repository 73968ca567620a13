//! # column-caching
//!
//! A reproduction of *"Application-Specific Memory Management for Embedded Systems Using
//! Software-Controlled Caches"* (Chiou, Jain, Devadas, Rudolph — DAC 2000 / MIT LCS CSG
//! Memo 427) as a Rust workspace.
//!
//! The paper proposes **column caching**: a small hardware change to a set-associative
//! cache that lets software restrict, per page, which cache *columns* (ways) an access may
//! replace into. With that mechanism software can partition the cache between data
//! structures or tasks, emulate scratchpad memory inside the cache, and change the
//! partition dynamically. The paper couples the mechanism with a **data-layout algorithm**
//! that assigns program variables to columns by building a weighted conflict graph and
//! coloring it.
//!
//! This façade crate re-exports the workspace crates:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] (`ccache-sim`) | set-associative/column cache, tints, TLB, page table, memory system, timing model, backends |
//! | [`trace`] (`ccache-trace`) | memory-reference traces, variable regions, access profiles, lifetimes |
//! | [`layout`] (`ccache-layout`) | conflict graph, profile/static weights, exact + heuristic coloring, column assignment |
//! | [`workloads`] (`ccache-workloads`) | instrumented MPEG kernels (dequant/plus/idct), gzip-like compressor, FIR/matmul/histogram/triad, round-robin multitasking |
//! | [`core`] (`ccache-core`) | the replay engine, placement, and one point of each experiment: a Figure 4 partition point, the dynamic column-cache run, a Figure 5 multitasking run |
//! | [`opt`] (`ccache-opt`) | autotuning: joint search over cache geometries and column assignments with replay-driven fitness |
//! | [`exp`] (`ccache-exp`) | declarative experiment layer: JSON specs, deduplicating planner, parallel executor, unified artefacts |
//! | [`telemetry`] (`ccache-telemetry`) | process-wide counters, gauges, histograms and spans with deterministic snapshots (timing quarantined) |
//! | `ccache-serve` | the `ccache serve` service: NDJSON-over-TCP sessions behind one admission gate, and a content-addressed result store keyed by [`Session::spec_key`] |
//!
//! # Quick start: the `Session` facade
//!
//! [`Session`] is the library's front door: a builder configures geometry, backend
//! (any name [`BackendKind::parse`](sim::backend::BackendKind::parse) accepts), scale and
//! observation once, and the session then drives replays, experiment specs and tuning
//! runs.
//!
//! ```
//! use column_caching::Session;
//!
//! let session = Session::builder().quick(true).observe(512).build()?;
//! // Replay a built-in workload; the observer yields a windowed time series.
//! let replayed = session.replay_corpus("mpeg-dequant")?;
//! assert!(replayed.result.references > 0);
//! assert_eq!(
//!     replayed.series.unwrap().total_misses(),
//!     replayed.result.misses,
//! );
//! # Ok::<(), column_caching::SessionError>(())
//! ```
//!
//! The per-crate APIs remain available underneath for anything the facade does not
//! cover:
//!
//! ```
//! use column_caching::exp::presets::figure4_geometry;
//! use column_caching::prelude::*;
//!
//! // Run the paper's dequant kernel and sweep the scratchpad/cache partition (Fig. 4a)
//! // of Figure 4's geometry, one point per cache-column count.
//! let run = run_dequant(&MpegConfig::small());
//! let config = figure4_geometry().system_config()?;
//! let points = (0..=config.cache.columns())
//!     .map(|cache_columns| {
//!         let kind = BackendKind::ColumnCache;
//!         run_partition_point_in(kind, &run, &config, cache_columns, &Registry::new())
//!     })
//!     .collect::<Result<Vec<_>, _>>()?;
//! let sweep = PartitionSweep { name: run.name, points };
//! // dequant's working set fits in 2 KiB, so the all-scratchpad point wins.
//! assert_eq!(sweep.best().cache_columns, 0);
//! # Ok::<(), column_caching::exp::ExpError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod session;

pub use ccache_core as core;
pub use ccache_exp as exp;
pub use ccache_layout as layout;
pub use ccache_opt as opt;
pub use ccache_sim as sim;
pub use ccache_telemetry as telemetry;
pub use ccache_trace as trace;
pub use ccache_workloads as workloads;

pub use session::{Replayed, Session, SessionBuilder, SessionError};

/// The most commonly used items from every crate in the workspace.
pub mod prelude {
    pub use crate::session::{Replayed, Session, SessionBuilder, SessionError};
    pub use ccache_core::prelude::*;
    pub use ccache_layout::prelude::*;
    pub use ccache_opt::prelude::*;
    pub use ccache_sim::prelude::*;
    pub use ccache_telemetry::prelude::*;
    pub use ccache_trace::{AccessKind, MemAccess, SymbolTable, Trace, TraceRecorder, VarId};
    pub use ccache_workloads::prelude::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        let cfg = crate::sim::CacheConfig::default();
        assert_eq!(cfg.columns(), 4);
        let mask = crate::sim::ColumnMask::all(4);
        assert_eq!(mask.count(), 4);
    }
}
