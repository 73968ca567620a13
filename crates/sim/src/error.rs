//! Error type for the cache simulator.

use std::fmt;

/// Errors produced while configuring or driving the simulated memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A size parameter was zero or not a power of two.
    BadSize {
        /// Name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// The cache geometry is inconsistent (e.g. capacity not divisible by line size × ways).
    BadGeometry {
        /// Explanation of the inconsistency.
        reason: String,
    },
    /// A column index was out of range for the configured number of columns.
    ColumnOutOfRange {
        /// The rejected column index.
        column: usize,
        /// Number of columns in the cache.
        columns: usize,
    },
    /// A column mask was empty (no replacement candidates) where one is required.
    EmptyMask,
    /// A tint number was at or above the tint table's limit.
    TintOutOfRange {
        /// The rejected tint number.
        tint: u32,
        /// The number of tints the table can hold ([`MAX_TINTS`](crate::tint::MAX_TINTS)).
        limit: u32,
    },
    /// The TLB was configured with no entries; translation needs at least one slot.
    ZeroTlbEntries,
    /// The TLB was configured with more entries than the simulator allows.
    TlbTooLarge {
        /// The rejected entry count.
        entries: usize,
        /// The largest allowed count ([`MAX_TLB_ENTRIES`](crate::system::MAX_TLB_ENTRIES)).
        limit: usize,
    },
    /// The cache line is larger than the mapping granularity, so one line would span
    /// pages with potentially different tints.
    LineExceedsPage {
        /// Configured cache-line size in bytes.
        line_size: u64,
        /// Configured page size in bytes.
        page_size: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadSize { what, value } => {
                write!(f, "{what} must be a nonzero power of two, got {value}")
            }
            SimError::BadGeometry { reason } => write!(f, "inconsistent cache geometry: {reason}"),
            SimError::ColumnOutOfRange { column, columns } => {
                write!(
                    f,
                    "column {column} out of range for a {columns}-column cache"
                )
            }
            SimError::EmptyMask => write!(f, "column mask selects no columns"),
            SimError::TintOutOfRange { tint, limit } => {
                write!(
                    f,
                    "tint {tint} is out of range: the tint table holds {limit} tints"
                )
            }
            SimError::ZeroTlbEntries => write!(f, "TLB must have at least one entry"),
            SimError::TlbTooLarge { entries, limit } => {
                write!(
                    f,
                    "a TLB of {entries} entries exceeds the {limit}-entry limit"
                )
            }
            SimError::LineExceedsPage {
                line_size,
                page_size,
            } => write!(
                f,
                "cache line of {line_size} bytes exceeds the {page_size}-byte page, so one \
                 line would span pages with different tints"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_offending_values() {
        assert!(SimError::BadSize {
            what: "line size",
            value: 48
        }
        .to_string()
        .contains("48"));
        assert!(SimError::ColumnOutOfRange {
            column: 9,
            columns: 4
        }
        .to_string()
        .contains('9'));
        assert!(SimError::TintOutOfRange {
            tint: 70000,
            limit: 65536
        }
        .to_string()
        .contains("70000"));
    }

    #[test]
    fn error_is_send_sync_and_std_error() {
        fn assert_traits<T: std::error::Error + Send + Sync>() {}
        assert_traits::<SimError>();
    }
}
