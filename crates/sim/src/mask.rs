//! Column masks: bit vectors selecting a subset of cache columns.
//!
//! A column is one way of the set-associative cache (Section 2.1 of the paper). The
//! replacement unit receives a [`ColumnMask`] with each access and may only choose a victim
//! line inside a column whose bit is set. Lookup is unaffected by the mask: all columns of
//! the selected set are always searched.

use crate::error::SimError;
use std::fmt;
use std::ops::{BitAnd, BitOr, Not};

/// Maximum number of columns supported by a mask (bits of the underlying word).
pub const MAX_COLUMNS: usize = 64;

/// A bit vector over cache columns. Bit `i` set means column `i` may receive replacements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnMask {
    bits: u64,
}

impl ColumnMask {
    /// A mask selecting no columns. Not usable for replacement on its own, but useful as an
    /// accumulator identity.
    pub const EMPTY: ColumnMask = ColumnMask { bits: 0 };

    /// Creates a mask permitting every column of a `columns`-column cache.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is zero or exceeds [`MAX_COLUMNS`].
    pub fn all(columns: usize) -> Self {
        assert!(
            columns > 0 && columns <= MAX_COLUMNS,
            "column count {columns} out of range 1..={MAX_COLUMNS}"
        );
        if columns == MAX_COLUMNS {
            ColumnMask { bits: u64::MAX }
        } else {
            ColumnMask {
                bits: (1u64 << columns) - 1,
            }
        }
    }

    /// Creates a mask selecting exactly one column.
    pub fn single(column: usize) -> Self {
        assert!(column < MAX_COLUMNS, "column {column} out of range");
        ColumnMask {
            bits: 1u64 << column,
        }
    }

    /// Creates a mask from an iterator of column indices.
    pub fn from_columns<I: IntoIterator<Item = usize>>(columns: I) -> Self {
        let mut bits = 0u64;
        for c in columns {
            assert!(c < MAX_COLUMNS, "column {c} out of range");
            bits |= 1u64 << c;
        }
        ColumnMask { bits }
    }

    /// Creates a mask selecting the contiguous range `[start, start + count)`.
    pub fn range(start: usize, count: usize) -> Self {
        ColumnMask::from_columns(start..start + count)
    }

    /// Creates a mask from a raw bit pattern.
    pub fn from_bits(bits: u64) -> Self {
        ColumnMask { bits }
    }

    /// Returns the raw bit pattern.
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Returns `true` if column `column` is selected.
    pub fn contains(self, column: usize) -> bool {
        column < MAX_COLUMNS && self.bits & (1u64 << column) != 0
    }

    /// Number of selected columns.
    pub fn count(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Returns `true` if no column is selected.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Adds a column to the mask, returning the result.
    pub fn with(self, column: usize) -> Self {
        assert!(column < MAX_COLUMNS, "column {column} out of range");
        ColumnMask {
            bits: self.bits | (1u64 << column),
        }
    }

    /// Removes a column from the mask, returning the result. A column at or above
    /// [`MAX_COLUMNS`] is in no mask, so removing it changes nothing.
    pub fn without(self, column: usize) -> Self {
        if column >= MAX_COLUMNS {
            return self;
        }
        ColumnMask {
            bits: self.bits & !(1u64 << column),
        }
    }

    /// Iterates over the selected column indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..MAX_COLUMNS).filter(move |&c| self.contains(c))
    }

    /// Restricts the mask to the first `columns` columns of the cache.
    pub fn truncate(self, columns: usize) -> Self {
        self & ColumnMask::all(columns.max(1))
    }

    /// Validates the mask against a cache with `columns` columns.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyMask`] if no column is selected and
    /// [`SimError::ColumnOutOfRange`] if a selected column does not exist.
    pub fn validate(self, columns: usize) -> Result<(), SimError> {
        if self.is_empty() {
            return Err(SimError::EmptyMask);
        }
        if let Some(c) = self.iter().find(|&c| c >= columns) {
            return Err(SimError::ColumnOutOfRange { column: c, columns });
        }
        Ok(())
    }
}

impl Default for ColumnMask {
    /// The default mask is empty; callers normally start from [`ColumnMask::all`].
    fn default() -> Self {
        ColumnMask::EMPTY
    }
}

impl BitOr for ColumnMask {
    type Output = ColumnMask;
    fn bitor(self, rhs: Self) -> Self::Output {
        ColumnMask {
            bits: self.bits | rhs.bits,
        }
    }
}

impl BitAnd for ColumnMask {
    type Output = ColumnMask;
    fn bitand(self, rhs: Self) -> Self::Output {
        ColumnMask {
            bits: self.bits & rhs.bits,
        }
    }
}

impl Not for ColumnMask {
    type Output = ColumnMask;
    fn not(self) -> Self::Output {
        ColumnMask { bits: !self.bits }
    }
}

impl fmt::Display for ColumnMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Binary for ColumnMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.bits, f)
    }
}

impl FromIterator<usize> for ColumnMask {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        ColumnMask::from_columns(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_selects_every_column() {
        let m = ColumnMask::all(4);
        assert_eq!(m.count(), 4);
        assert!(m.contains(0) && m.contains(3));
        assert!(!m.contains(4));
        assert_eq!(ColumnMask::all(64).count(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn all_rejects_zero_columns() {
        let _ = ColumnMask::all(0);
    }

    #[test]
    fn single_and_with_without() {
        let m = ColumnMask::single(2);
        assert_eq!(m.count(), 1);
        assert!(m.contains(2));
        let m2 = m.with(0).without(2);
        assert!(m2.contains(0));
        assert!(!m2.contains(2));
        assert_eq!(m2.count(), 1);
    }

    #[test]
    fn without_ignores_columns_past_the_mask() {
        let every = ColumnMask::all(MAX_COLUMNS);
        assert_eq!(every.without(MAX_COLUMNS), every);
        assert_eq!(every.without(usize::MAX), every);
        assert!(!every.without(MAX_COLUMNS - 1).contains(MAX_COLUMNS - 1));
    }

    #[test]
    fn from_columns_range_and_iter() {
        let m = ColumnMask::from_columns([1, 3]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 3]);
        let r = ColumnMask::range(1, 3);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        let c: ColumnMask = [0usize, 2].into_iter().collect();
        assert_eq!(c.count(), 2);
    }

    #[test]
    fn bit_operations() {
        let a = ColumnMask::from_columns([0, 1]);
        let b = ColumnMask::from_columns([1, 2]);
        assert_eq!((a | b).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!((a & b).iter().collect::<Vec<_>>(), vec![1]);
        assert!((!a).contains(2));
        assert!(!(!a).contains(0));
        assert_eq!((!a).truncate(4).iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn validate_checks_emptiness_and_range() {
        assert_eq!(ColumnMask::EMPTY.validate(4), Err(SimError::EmptyMask));
        assert!(ColumnMask::single(3).validate(4).is_ok());
        assert_eq!(
            ColumnMask::single(4).validate(4),
            Err(SimError::ColumnOutOfRange {
                column: 4,
                columns: 4
            })
        );
    }

    #[test]
    fn display_lists_columns() {
        assert_eq!(ColumnMask::from_columns([0, 2]).to_string(), "{0,2}");
        assert_eq!(ColumnMask::EMPTY.to_string(), "{}");
        assert_eq!(format!("{:b}", ColumnMask::from_columns([0, 2])), "101");
    }

    #[test]
    fn default_is_empty() {
        assert!(ColumnMask::default().is_empty());
        assert_eq!(ColumnMask::default().count(), 0);
    }
}
