//! Autotuning for software-controlled caches: search cache geometries and column
//! assignments with simulation-driven fitness.
//!
//! The paper's premise is that software can pick better column mappings than hardware
//! LRU — but its Section 3 algorithm is a single heuristic. This crate searches the
//! *joint* space of cache geometry (columns, line size, TLB entries) and per-unit column
//! assignment, scoring every candidate by simulating the workload on it — the
//! simulation-in-the-loop fitness used by evolutionary memory-subsystem design (Díaz
//! Álvarez et al.; Risco-Martín et al.). A candidate that tints every referenced page to
//! one column is scored by an exact per-column cache model; any other is replayed through
//! `ccache-core`'s batched [`ReplayEngine`](ccache_core::ReplayEngine).
//!
//! * [`space`] — the [`SearchSpace`]: materialised geometries, ordered genomes, mutation
//!   and crossover, all valid by construction.
//! * [`evaluate`] — the budgeted [`Evaluator`]: a fitness cache keyed by genome (duplicate
//!   candidates are never scored twice) over the per-column model or a replay on a
//!   fresh engine, batched thread-parallel and byte-identical to a serial run.
//! * [`strategy`] — the [`StrategyKind`] arms: exhaustive enumeration, hill climbing and
//!   (μ+λ) evolutionary search, each logging its rounds to a [`ProgressLog`].
//! * [`tuner`] — the one-call [`tune_observed`] driver and its JSON-serialisable
//!   [`TuneOutcome`].
//!
//! Determinism is a hard guarantee, not an aspiration: a fixed seed fixes the whole
//! trajectory, and every strategy evaluates the paper's heuristic layout first, so the
//! reported best is never worse than the heuristic.
//!
//! # Example
//!
//! ```
//! use ccache_opt::{tune_observed, GeometrySearch, StrategyKind, TuneRequest};
//! use ccache_sim::SystemConfig;
//! use ccache_telemetry::Registry;
//! use ccache_trace::{AccessKind, TraceRecorder};
//!
//! // Record a workload: two hot tables that conflict with a streaming buffer.
//! let mut rec = TraceRecorder::new();
//! let a = rec.allocate("a", 256, 8);
//! let b = rec.allocate("b", 4096, 8);
//! for i in 0..128u64 {
//!     rec.record(a, (i % 32) * 8, 8, AccessKind::Read);
//!     rec.record(b, (i * 16) % 4096, 8, AccessKind::Write);
//! }
//! let (trace, symbols) = rec.finish();
//!
//! let request = TuneRequest {
//!     template: SystemConfig { page_size: 256, ..SystemConfig::default() },
//!     geometry: GeometrySearch::fixed(),
//!     strategy: StrategyKind::HillClimb,
//!     budget: 20,
//!     ..TuneRequest::default()
//! };
//! let outcome = tune_observed(&trace, &symbols, &request, &Registry::new(), None)?;
//! // the search can only match or beat the paper's heuristic layout
//! assert!(outcome.best.fitness.miss_rate <= outcome.heuristic.fitness.miss_rate);
//! # Ok::<(), ccache_opt::OptError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod evaluate;
mod model;
pub mod space;
pub mod strategy;
pub mod tuner;

pub use error::OptError;
pub use evaluate::{Evaluator, Fitness};
pub use space::{ColumnLayout, Genome, GeometryChoice, GeometrySearch, SearchSpace};
pub use strategy::{BestCandidate, GenerationPoint, ProgressLog, StrategyKind, TuneProgress};
pub use tuner::{tune_observed, BestConfig, ScoredLayout, TuneOutcome, TuneRequest};

/// Convenient glob-import of the types most programs need.
pub mod prelude {
    pub use crate::error::OptError;
    pub use crate::evaluate::{Evaluator, Fitness};
    pub use crate::space::{Genome, GeometrySearch, SearchSpace};
    pub use crate::strategy::{StrategyKind, TuneProgress};
    pub use crate::tuner::{tune_observed, TuneOutcome, TuneRequest};
}
