//! Error type for the column-cache management system.

use ccache_layout::LayoutError;
use ccache_sim::SimError;
use std::fmt;

/// Errors produced while configuring or running column-cache experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// An error from the cache/memory simulator.
    Sim(SimError),
    /// An error from the data-layout algorithms.
    Layout(LayoutError),
    /// The experiment configuration is inconsistent.
    BadExperiment {
        /// Explanation of the inconsistency.
        reason: String,
    },
    /// The requested partition does not fit the cache geometry.
    BadPartition {
        /// Number of columns requested as cache.
        cache_columns: usize,
        /// Number of columns in the cache.
        columns: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulator error: {e}"),
            CoreError::Layout(e) => write!(f, "layout error: {e}"),
            CoreError::BadExperiment { reason } => write!(f, "invalid experiment: {reason}"),
            CoreError::BadPartition {
                cache_columns,
                columns,
            } => write!(
                f,
                "cannot keep {cache_columns} cache columns in a {columns}-column cache"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<LayoutError> for CoreError {
    fn from(e: LayoutError) -> Self {
        CoreError::Layout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_component_errors_with_source() {
        use std::error::Error;
        let e: CoreError = SimError::EmptyMask.into();
        assert!(e.to_string().contains("simulator"));
        assert!(e.source().is_some());
        let e: CoreError = LayoutError::NoColumns.into();
        assert!(e.to_string().contains("layout"));
        let e = CoreError::BadPartition {
            cache_columns: 5,
            columns: 4,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.source().is_none());
    }

    #[test]
    fn is_send_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<CoreError>();
    }
}
