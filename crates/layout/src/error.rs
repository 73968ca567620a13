//! Error type for the data-layout algorithms.

use ccache_trace::VarId;
use std::fmt;

/// Errors produced by conflict-graph construction and column assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// The requested number of columns was zero.
    NoColumns,
    /// A forced (pre-assigned) variable referred to a column that does not exist.
    ForcedColumnOutOfRange {
        /// The variable being forced.
        var: VarId,
        /// The requested column.
        column: usize,
        /// Number of columns available.
        columns: usize,
    },
    /// More columns were reserved for scratchpad than exist in the cache.
    TooManyReserved {
        /// Columns reserved for scratchpad pre-assignments.
        reserved: usize,
        /// Total number of columns.
        columns: usize,
    },
    /// A variable was named that does not appear in the profile or graph.
    UnknownVariable {
        /// The missing variable.
        var: VarId,
    },
    /// The exact colorer exceeded its node budget (graph too large); the caller should fall
    /// back to the greedy colorer.
    SearchBudgetExceeded {
        /// Number of vertices in the offending graph.
        vertices: usize,
    },
    /// A raw per-vertex column list did not cover every vertex of the graph.
    VertexCountMismatch {
        /// Number of vertices in the graph.
        expected: usize,
        /// Number of columns supplied.
        got: usize,
    },
    /// A raw per-vertex column list assigned a vertex to a column that does not exist.
    VertexColumnOutOfRange {
        /// Index of the offending vertex.
        vertex: usize,
        /// The requested column.
        column: usize,
        /// Number of columns available.
        columns: usize,
    },
    /// A raw per-vertex column list moved a forced variable off its designated column.
    ForcedPlacementViolated {
        /// The forced variable.
        var: VarId,
        /// The column the variable was forced to.
        expected: usize,
        /// The column the list actually assigned.
        got: usize,
    },
    /// A layout input needs more units, unit pairs or trace positions than a limit admits
    /// ([`MAX_LAYOUT_UNITS`](crate::weights::MAX_LAYOUT_UNITS),
    /// [`MAX_LAYOUT_PAIRS`](crate::weights::MAX_LAYOUT_PAIRS),
    /// [`MAX_LAYOUT_REFERENCES`](crate::weights::MAX_LAYOUT_REFERENCES)); refused before
    /// anything is allocated for the excess.
    LimitExceeded {
        /// What was counted, e.g. `"units"`.
        what: &'static str,
        /// How many the input needs.
        count: u64,
        /// The name of the limit, e.g. `"MAX_LAYOUT_UNITS"`.
        limit: &'static str,
        /// The limit's value.
        max: u64,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::NoColumns => write!(f, "cannot assign variables to zero columns"),
            LayoutError::ForcedColumnOutOfRange {
                var,
                column,
                columns,
            } => write!(
                f,
                "variable {var} forced to column {column} but only {columns} columns exist"
            ),
            LayoutError::TooManyReserved { reserved, columns } => write!(
                f,
                "{reserved} columns reserved for scratchpad but the cache has only {columns}"
            ),
            LayoutError::UnknownVariable { var } => {
                write!(f, "variable {var} is not present in the profile")
            }
            LayoutError::SearchBudgetExceeded { vertices } => write!(
                f,
                "exact coloring abandoned: graph with {vertices} vertices exceeded the search budget"
            ),
            LayoutError::VertexCountMismatch { expected, got } => write!(
                f,
                "assignment lists {got} vertex columns but the graph has {expected} vertices"
            ),
            LayoutError::VertexColumnOutOfRange {
                vertex,
                column,
                columns,
            } => write!(
                f,
                "vertex {vertex} assigned to column {column} but only {columns} columns exist"
            ),
            LayoutError::ForcedPlacementViolated { var, expected, got } => write!(
                f,
                "variable {var} is forced to column {expected} but the assignment placed it in column {got}"
            ),
            LayoutError::LimitExceeded {
                what,
                count,
                limit,
                max,
            } => write!(f, "the layout needs {count} {what}, past the {limit} limit of {max}"),
        }
    }
}

impl std::error::Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(LayoutError::NoColumns.to_string().contains("zero columns"));
        let e = LayoutError::ForcedColumnOutOfRange {
            var: VarId(3),
            column: 9,
            columns: 4,
        };
        assert!(e.to_string().contains("v3"));
        assert!(e.to_string().contains('9'));
        let e = LayoutError::TooManyReserved {
            reserved: 5,
            columns: 4,
        };
        assert!(e.to_string().contains('5'));
        let e = LayoutError::LimitExceeded {
            what: "units",
            count: 32_768,
            limit: "MAX_LAYOUT_UNITS",
            max: 16_384,
        };
        assert_eq!(
            e.to_string(),
            "the layout needs 32768 units, past the MAX_LAYOUT_UNITS limit of 16384"
        );
    }

    #[test]
    fn is_std_error() {
        fn assert_err<T: std::error::Error + Send + Sync>() {}
        assert_err::<LayoutError>();
    }
}
