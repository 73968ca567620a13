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
    /// A tint was used without first being defined in the tint table.
    UnknownTint {
        /// The numeric identifier of the tint.
        tint: u32,
    },
    /// An address could not be translated because no page-table entry covers it.
    UnmappedAddress {
        /// The offending address.
        addr: u64,
    },
    /// The TLB was configured with no entries; translation needs at least one slot.
    ZeroTlbEntries,
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
            SimError::UnknownTint { tint } => write!(f, "tint {tint} is not defined"),
            SimError::UnmappedAddress { addr } => {
                write!(f, "address {addr:#x} has no page-table entry")
            }
            SimError::ZeroTlbEntries => write!(f, "TLB must have at least one entry"),
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
        assert!(SimError::UnmappedAddress { addr: 0x1234 }
            .to_string()
            .contains("0x1234"));
    }

    #[test]
    fn error_is_send_sync_and_std_error() {
        fn assert_traits<T: std::error::Error + Send + Sync>() {}
        assert_traits::<SimError>();
    }
}
