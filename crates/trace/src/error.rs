//! Error type for trace construction and analysis.

use std::fmt;

/// Errors produced while building or analysing traces.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// A recorded access fell outside the bounds of its variable's region.
    OutOfBounds {
        /// The variable's name.
        name: String,
        /// Byte offset of the access within the variable.
        offset: u64,
        /// Size in bytes of the access.
        size: u64,
        /// Size of the variable's region in bytes.
        region_size: u64,
    },
    /// A region would overlap an existing region in the symbol table.
    OverlappingRegion {
        /// Name of the new region.
        name: String,
        /// Name of the existing region it overlaps.
        existing: String,
    },
    /// A region with zero size was requested.
    EmptyRegion {
        /// Name of the offending region.
        name: String,
    },
    /// An alignment that is zero or not a power of two was requested.
    BadAlignment {
        /// The requested alignment.
        align: u64,
    },
    /// A lifetime interval had `last < first`.
    InvalidInterval {
        /// First position of the interval.
        first: u64,
        /// Last position of the interval.
        last: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::OutOfBounds {
                name,
                offset,
                size,
                region_size,
            } => write!(
                f,
                "access of {size} bytes at offset {offset} is outside variable `{name}` of {region_size} bytes"
            ),
            TraceError::OverlappingRegion { name, existing } => {
                write!(f, "region `{name}` overlaps existing region `{existing}`")
            }
            TraceError::EmptyRegion { name } => {
                write!(f, "region `{name}` has zero size")
            }
            TraceError::BadAlignment { align } => {
                write!(f, "alignment {align} is not a nonzero power of two")
            }
            TraceError::InvalidInterval { first, last } => {
                write!(f, "interval [{first}, {last}] has last before first")
            }
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = TraceError::OutOfBounds {
            name: "buf".into(),
            offset: 100,
            size: 8,
            region_size: 64,
        };
        assert!(e.to_string().contains("buf"));
        assert!(e.to_string().contains("64"));
        let e = TraceError::BadAlignment { align: 3 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
