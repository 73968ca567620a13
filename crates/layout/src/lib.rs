//! Data-layout algorithms for column caches (Section 3 of the paper).
//!
//! The pipeline implemented here turns a memory-reference profile into a mapping of program
//! variables to cache columns:
//!
//! 1. **Units** ([`weights::UnitMap`]) — variables larger than a column are split into
//!    column-sized pieces; small variables stay whole (Step 1).
//! 2. **Conflict graph** ([`graph::ConflictGraph`]) — a complete weighted graph where
//!    `w(v_i, v_j)` counts the accesses that potentially conflict when `v_i` and `v_j`
//!    share a column. Weights come either from a recorded trace
//!    ([`weights::TraceProfile`], which reads the trace once for every column size it
//!    nests in, or [`weights::conflict_graph_from_trace`]) or from compile-time estimates
//!    ([`static_analysis::ProgramIr`]) (Step 2).
//! 3. **Column assignment** ([`assignment::assign_columns`]) — exact minimum graph coloring
//!    when it fits in the available columns, otherwise the paper's minimum-weight-edge
//!    merging heuristic; variables can be forced into scratchpad columns (Step 3 and
//!    Section 3.1.3).
//!
//! The dynamic layout of Section 3.2 re-runs steps 1–3 per program phase; it lives with
//! the replay that remaps between phases, in `ccache-core`'s `dynamic` module.
//!
//! # Example
//!
//! ```
//! use ccache_layout::prelude::*;
//! use ccache_trace::{TraceRecorder, AccessKind};
//!
//! // Record a tiny program: two arrays accessed in the same loop.
//! let mut rec = TraceRecorder::new();
//! let a = rec.allocate("a", 256, 8);
//! let b = rec.allocate("b", 256, 8);
//! for i in 0..32u64 {
//!     rec.record(a, (i % 32) * 8, 8, AccessKind::Read);
//!     rec.record(b, (i % 32) * 8, 8, AccessKind::Write);
//! }
//! let (trace, symbols) = rec.finish();
//!
//! // Build the conflict graph and assign columns of a 4-column, 512-byte-column cache.
//! let (graph, _units) = conflict_graph_from_trace(&trace, &symbols, &WeightOptions::default());
//! let assignment = assign_columns(&graph, &LayoutOptions::new(4, 512))?;
//! assert_eq!(assignment.cost, 0);
//! assert_ne!(assignment.columns_of(a), assignment.columns_of(b));
//! # Ok::<(), ccache_layout::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod coloring;
pub mod error;
pub mod graph;
pub mod static_analysis;
pub mod weights;

pub use assignment::{
    assign_columns, assignment_from_vertex_columns, validate_vertex_columns, ColumnAssignment,
    LayoutOptions,
};
pub use error::LayoutError;
pub use graph::{ConflictGraph, Vertex};
pub use static_analysis::{ProgramIr, Stmt};
pub use weights::{
    conflict_graph_from_trace, LayoutUnit, TraceProfile, UnitMap, WeightOptions, MAX_LAYOUT_PAIRS,
    MAX_LAYOUT_REFERENCES, MAX_LAYOUT_UNITS,
};

/// Convenient glob-import of the types most programs need.
pub mod prelude {
    pub use crate::assignment::{assign_columns, ColumnAssignment, LayoutOptions};
    pub use crate::error::LayoutError;
    pub use crate::graph::ConflictGraph;
    pub use crate::static_analysis::{ProgramIr, Stmt};
    pub use crate::weights::{conflict_graph_from_trace, TraceProfile, UnitMap, WeightOptions};
}
