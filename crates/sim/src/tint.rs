//! Tints: the level of indirection between pages and column bit-vectors.
//!
//! Pages are mapped to a *tint* rather than directly to a column bit-vector (Section 2.2).
//! The [`TintTable`] maps each tint to a [`ColumnMask`]; remapping a tint is a single table
//! write and takes effect on the next miss, whereas re-tinting a page requires a page-table
//! update and a TLB flush for that page. This module models the table; the cost distinction
//! is modelled by [`crate::system::MemorySystem`].

use crate::error::SimError;
use crate::mask::ColumnMask;
use std::fmt;

/// A named virtual grouping of address regions (the paper's "red", "blue", ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tint(pub u32);

impl Tint {
    /// The default tint every page starts with; maps to all columns unless remapped.
    pub const DEFAULT: Tint = Tint(0);
}

impl fmt::Display for Tint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tint{}", self.0)
    }
}

impl From<u32> for Tint {
    fn from(value: u32) -> Self {
        Tint(value)
    }
}

/// Tints a [`TintTable`] can hold: tint numbers run from 0 to `MAX_TINTS - 1`. The table
/// is a vector indexed by tint number, so the bound caps its size at 512 KiB.
pub const MAX_TINTS: u32 = 1 << 16;

/// The tint → column-bit-vector table.
///
/// Tints are small dense numbers ([`Tint::DEFAULT`] plus the 1, 2, 3, … a mapping hands
/// out), so the table is a vector indexed by tint number. [`ColumnMask::EMPTY`] marks an
/// undefined tint: a defined tint never has an empty mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TintTable {
    columns: usize,
    /// The mask of tint `t` at index `t`; never ends in an undefined slot.
    masks: Vec<ColumnMask>,
    /// Number of tint remappings performed (each is a cheap table write).
    pub remaps: u64,
}

impl TintTable {
    /// Creates a table for a `columns`-column cache with [`Tint::DEFAULT`] mapped to every
    /// column (so an unconfigured system behaves exactly like a normal cache).
    pub fn new(columns: usize) -> Self {
        TintTable {
            columns,
            masks: vec![ColumnMask::all(columns)],
            remaps: 0,
        }
    }

    /// Number of columns the masks are validated against.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Returns the table to its just-constructed state: only [`Tint::DEFAULT`] mapped to
    /// every column, remap counter zeroed. This is the tint-table rewrite entry point of a
    /// backend reset to pristine state — a reset engine starts from a pristine table
    /// before the next mapping is applied.
    pub fn reset(&mut self) {
        self.masks.clear();
        self.masks.push(ColumnMask::all(self.columns));
        self.remaps = 0;
    }

    /// Defines or redefines the mask of a tint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyMask`] or [`SimError::ColumnOutOfRange`] if the mask is not
    /// valid for this cache, and [`SimError::TintOutOfRange`] for a tint at or above
    /// [`MAX_TINTS`].
    pub fn define(&mut self, tint: Tint, mask: ColumnMask) -> Result<(), SimError> {
        mask.validate(self.columns)?;
        if tint.0 >= MAX_TINTS {
            return Err(SimError::TintOutOfRange {
                tint: tint.0,
                limit: MAX_TINTS,
            });
        }
        let idx = tint.0 as usize;
        if idx >= self.masks.len() {
            self.masks.resize(idx + 1, ColumnMask::EMPTY);
        }
        self.masks[idx] = mask;
        self.remaps += 1;
        Ok(())
    }

    /// Returns the mask of `tint`, if defined.
    pub fn mask_of(&self, tint: Tint) -> Option<ColumnMask> {
        self.masks
            .get(tint.0 as usize)
            .copied()
            .filter(|m| !m.is_empty())
    }

    /// Returns the mask of `tint`, falling back to the default tint's mask for unknown
    /// tints (hardware would treat an unknown tint as "anywhere").
    #[inline]
    pub fn mask_or_default(&self, tint: Tint) -> ColumnMask {
        match self.masks.get(tint.0 as usize) {
            Some(&mask) if !mask.is_empty() => mask,
            _ => self.masks[Tint::DEFAULT.0 as usize],
        }
    }

    /// Number of tints defined (including the default tint).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// The table always contains at least the default tint.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over `(tint, mask)` pairs in tint order.
    pub fn iter(&self) -> impl Iterator<Item = (Tint, ColumnMask)> + '_ {
        (0..MAX_TINTS)
            .zip(&self.masks)
            .filter(|(_, m)| !m.is_empty())
            .map(|(t, m)| (Tint(t), *m))
    }

    /// Removes every column in `mask` from every *other* tint's mask, leaving at least one
    /// column per tint. This is the bookkeeping the paper's Figure 3 example performs when
    /// a column is given exclusively to a new tint: the default tint (and any other tint)
    /// must stop replacing into it.
    ///
    /// Tints whose mask would become empty are left unchanged and reported back.
    ///
    /// # Errors
    ///
    /// As [`TintTable::define`].
    pub fn make_exclusive(&mut self, owner: Tint, mask: ColumnMask) -> Result<Vec<Tint>, SimError> {
        self.define(owner, mask)?;
        let mut skipped = Vec::new();
        for (t, cur) in (0..MAX_TINTS).map(Tint).zip(self.masks.iter_mut()) {
            if t == owner || cur.is_empty() {
                continue;
            }
            let reduced = *cur & !mask;
            if reduced.is_empty() {
                skipped.push(t);
            } else if reduced != *cur {
                *cur = reduced;
                self.remaps += 1;
            }
        }
        Ok(skipped)
    }
}

impl Default for TintTable {
    fn default() -> Self {
        TintTable::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tint_maps_to_all_columns() {
        let t = TintTable::new(4);
        assert_eq!(t.mask_of(Tint::DEFAULT), Some(ColumnMask::all(4)));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.columns(), 4);
    }

    #[test]
    fn define_validates_masks() {
        let mut t = TintTable::new(4);
        assert!(t.define(Tint(1), ColumnMask::single(2)).is_ok());
        assert_eq!(t.mask_of(Tint(1)), Some(ColumnMask::single(2)));
        assert_eq!(
            t.define(Tint(2), ColumnMask::EMPTY),
            Err(SimError::EmptyMask)
        );
        assert!(matches!(
            t.define(Tint(2), ColumnMask::single(7)),
            Err(SimError::ColumnOutOfRange { .. })
        ));
        assert_eq!(t.remaps, 1);
    }

    #[test]
    fn unknown_tints_fall_back_to_default() {
        let mut t = TintTable::new(4);
        assert_eq!(t.mask_or_default(Tint(9)), ColumnMask::all(4));
        assert_eq!(t.mask_of(Tint(9)), None);
        // and the fallback follows the default tint if it is remapped
        t.define(Tint::DEFAULT, ColumnMask::from_columns([0, 1]))
            .unwrap();
        assert_eq!(t.mask_or_default(Tint(9)), ColumnMask::from_columns([0, 1]));
    }

    #[test]
    fn tints_past_the_limit_are_refused() {
        let mut t = TintTable::new(4);
        for tint in [MAX_TINTS, u32::MAX] {
            let refused = Err(SimError::TintOutOfRange {
                tint,
                limit: MAX_TINTS,
            });
            assert_eq!(t.define(Tint(tint), ColumnMask::single(0)), refused);
            assert_eq!(
                t.make_exclusive(Tint(tint), ColumnMask::single(0)),
                refused.map(|()| Vec::new())
            );
        }
        assert_eq!(t, TintTable::new(4));
        t.define(Tint(MAX_TINTS - 1), ColumnMask::single(0))
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.mask_of(Tint(MAX_TINTS - 1)), Some(ColumnMask::single(0)));
    }

    #[test]
    fn make_exclusive_carves_out_columns() {
        // Reproduces the Figure 3 example: page gets its own column (blue), red loses it.
        let mut t = TintTable::new(4);
        let blue = Tint(1);
        let skipped = t.make_exclusive(blue, ColumnMask::single(1)).unwrap();
        assert!(skipped.is_empty());
        assert_eq!(t.mask_of(blue), Some(ColumnMask::single(1)));
        assert_eq!(
            t.mask_of(Tint::DEFAULT),
            Some(ColumnMask::from_columns([0, 2, 3]))
        );
    }

    #[test]
    fn make_exclusive_never_empties_other_tints() {
        let mut t = TintTable::new(2);
        t.define(Tint(1), ColumnMask::single(0)).unwrap();
        // giving tint 2 both columns would empty tint 1 and the default tint
        let skipped = t.make_exclusive(Tint(2), ColumnMask::all(2)).unwrap();
        assert!(skipped.contains(&Tint(1)));
        assert!(skipped.contains(&Tint::DEFAULT));
        assert_eq!(t.mask_of(Tint(1)), Some(ColumnMask::single(0)));
    }

    #[test]
    fn reset_restores_the_default_only_table() {
        let mut t = TintTable::new(4);
        t.define(Tint(1), ColumnMask::single(2)).unwrap();
        t.make_exclusive(Tint(2), ColumnMask::single(0)).unwrap();
        t.reset();
        assert_eq!(t, TintTable::new(4));
    }

    #[test]
    fn display_and_from() {
        assert_eq!(Tint::from(3u32).to_string(), "tint3");
        assert_eq!(Tint::DEFAULT, Tint(0));
    }

    #[test]
    fn iter_lists_all_tints() {
        let mut t = TintTable::new(4);
        t.define(Tint(5), ColumnMask::single(0)).unwrap();
        let v: Vec<_> = t.iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].0, Tint::DEFAULT);
        assert_eq!(v[1].0, Tint(5));
    }
}
