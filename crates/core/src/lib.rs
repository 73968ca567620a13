//! Application-specific memory management with a software-controlled (column) cache.
//!
//! This crate is the top of the reproduction stack: it combines the cache/TLB/tint
//! simulator (`ccache-sim`), the data-layout algorithms (`ccache-layout`) and the
//! instrumented workloads (`ccache-workloads`) into the experiments the paper reports.
//!
//! * [`engine`] — the [`ReplayEngine`], whose one batch loop
//!   ([`ReplayEngine::replay_from`]) runs every replay below, over any [`RefSource`]:
//!   in-memory events, events read through a placement, a streaming trace reader or the
//!   multitask scheduler.
//! * [`runner`] — program a [`ccache_sim::MemorySystem`] from a column assignment
//!   ([`runner::CacheMapping`]), and the per-reference reference replay
//!   ([`runner::run_on`]).
//! * [`placement`] — place program variables (page alignment, scratchpad packing) for
//!   an experiment, as an address map the layout profile and the replay read the
//!   workload's events through.
//! * [`partition`] — one point of the Figure 4 scratchpad/cache partition sweep, under
//!   any [`ccache_sim::SystemConfig`].
//! * [`dynamic`] — the dynamically remapped column-cache run of Figure 4(d), under any
//!   [`ccache_sim::SystemConfig`].
//! * [`multitask`] — one point of the Figure 5 multitasking CPI-vs-quantum experiment.
//! * [`parallel`] — the order-preserving `par_map` the experiment executor and the
//!   tuner's fitness batches fan out with.
//! * [`observe`] — streaming windowed observation of a replay.
//! * [`report`] — the figure tables and the JSON renderings of every result.
//!
//! The experiment layer (`ccache-exp`) plans the sweeps over these points and runs them
//! in parallel.
//!
//! # Example: isolate a streaming variable from a hot table
//!
//! ```
//! use ccache_core::runner::{CacheMapping, RegionMapping};
//! use ccache_core::ReplayEngine;
//! use ccache_sim::backend::BackendKind;
//! use ccache_sim::{ColumnMask, SystemConfig};
//! use ccache_trace::synth::sequential_scan;
//! use ccache_trace::Trace;
//!
//! // A hot 512-byte table walked twice, with a 32 KiB stream in between.
//! let hot = sequential_scan(0x0, 512, 32, 4, 1, None);
//! let stream = sequential_scan(0x10_0000, 32 * 1024, 32, 4, 1, None);
//! let trace = Trace::concat([&hot, &stream, &hot]);
//!
//! // Confine the stream to one column so it cannot evict the table.
//! let mut mapping = CacheMapping::new();
//! mapping.map(0x10_0000, 32 * 1024, RegionMapping::Columns { mask: ColumnMask::single(3) });
//!
//! let cfg = SystemConfig { page_size: 256, ..SystemConfig::default() };
//! let mut partitioned = ReplayEngine::new(BackendKind::ColumnCache, cfg)?;
//! partitioned.apply(&mapping)?;
//! let mut shared = ReplayEngine::new(BackendKind::ColumnCache, cfg)?;
//! assert!(
//!     partitioned.replay("partitioned", &trace).total_cycles()
//!         < shared.replay("shared", &trace).total_cycles()
//! );
//! # Ok::<(), ccache_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dynamic;
pub mod engine;
pub mod error;
pub mod multitask;
pub mod observe;
pub mod parallel;
pub mod partition;
pub mod placement;
pub mod report;
pub mod runner;

pub use dynamic::{run_dynamic_in, DynamicRunResult, Figure4dResult};
pub use engine::{RefSource, ReplayEngine};
pub use error::CoreError;
pub use multitask::{
    run_multitasking_in, run_multitasking_on, JobMetrics, MultitaskConfig, MultitaskRun,
    QuantumSeries, SharingPolicy,
};
pub use observe::{ReplayEvent, ReplayObserver, SeriesRecorder, TimeSeries, WindowSample};
pub use partition::{run_partition_point_in, PartitionPoint, PartitionSweep};
pub use placement::{pack_scratchpad_first, page_aligned, PlacedEvents, Placement, PlacementPlan};
pub use report::SweepReport;
pub use runner::{run_on, CacheMapping, RegionMapping, RunResult};

/// Convenient glob-import of the types most programs need.
pub mod prelude {
    pub use crate::dynamic::{run_dynamic_in, Figure4dResult};
    pub use crate::engine::ReplayEngine;
    pub use crate::error::CoreError;
    pub use crate::multitask::{run_multitasking_on, MultitaskConfig, SharingPolicy};
    pub use crate::partition::{run_partition_point_in, PartitionSweep};
    pub use crate::report::SweepReport;
    pub use crate::runner::{CacheMapping, RegionMapping, RunResult};
}
