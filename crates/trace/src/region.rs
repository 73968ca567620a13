//! Variable regions and the symbol table.
//!
//! The data-layout algorithm of the paper assigns *program variables* (arrays and heavily
//! accessed scalars) to cache columns. To do that we need to know where each variable lives
//! in the simulated address space. A [`VariableRegion`] is a named, contiguous byte range;
//! the [`SymbolTable`] owns all regions of one program (or one task), allocates fresh
//! addresses for them, and resolves addresses back to variables.

use crate::error::TraceError;
use crate::event::VarId;
use std::fmt;

/// A named contiguous address range occupied by one program variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VariableRegion {
    /// Identifier of the variable (index into the owning [`SymbolTable`]).
    pub id: VarId,
    /// Human-readable name of the variable, e.g. `"coeff_block"`.
    pub name: String,
    /// First byte address of the region.
    pub base: u64,
    /// Size of the region in bytes (always non-zero).
    pub size: u64,
}

impl VariableRegion {
    /// Returns the first address past the end of the region.
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// Returns `true` if `addr` lies inside the region.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Returns `true` if this region overlaps `other` by at least one byte.
    pub fn overlaps(&self, other: &VariableRegion) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

impl fmt::Display for VariableRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} `{}` [{:#x}, {:#x}) ({} bytes)",
            self.id,
            self.name,
            self.base,
            self.end(),
            self.size
        )
    }
}

/// The set of variable regions of one program, with address allocation.
///
/// Variables are laid out sequentially from a configurable base address, each aligned to the
/// requested alignment. The table supports address-to-variable resolution, which the trace
/// recorder and the access-profile builder both use.
///
/// Regions never overlap: `allocate` places past every region and `insert_at` refuses an
/// overlap. So regions sorted by base are sorted by end too, and an address lies in at most
/// one region, the last one starting at or below it. `by_base` keeps that order, which
/// makes resolving an address and checking an insert O(log V) for V regions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    /// Regions in allocation order: the region of `VarId(i)` is `regions[i]`.
    regions: Vec<VariableRegion>,
    /// Indices into `regions`, by ascending base address.
    by_base: Vec<u32>,
    next_addr: u64,
}

/// Default base address for variable allocation.
///
/// Starting away from address zero makes accidental null-ish addresses easy to spot in
/// traces and leaves room for regions placed manually below it.
pub const DEFAULT_BASE_ADDR: u64 = 0x1_0000;

impl SymbolTable {
    /// Creates an empty symbol table that allocates from [`DEFAULT_BASE_ADDR`].
    pub fn new() -> Self {
        SymbolTable::with_base(DEFAULT_BASE_ADDR)
    }

    /// Creates an empty symbol table that allocates from `base`.
    pub fn with_base(base: u64) -> Self {
        SymbolTable {
            regions: Vec::new(),
            by_base: Vec::new(),
            next_addr: base,
        }
    }

    /// Number of variables in the table.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` if the table holds no variables.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Allocates a fresh region of `size` bytes aligned to `align` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyRegion`] if `size == 0` and [`TraceError::BadAlignment`]
    /// if `align` is zero or not a power of two.
    pub fn allocate(&mut self, name: &str, size: u64, align: u64) -> Result<VarId, TraceError> {
        if size == 0 {
            return Err(TraceError::EmptyRegion { name: name.into() });
        }
        if align == 0 || !align.is_power_of_two() {
            return Err(TraceError::BadAlignment { align });
        }
        let base = align_up(self.next_addr, align);
        let id = VarId(self.regions.len() as u32);
        // every region ends at or below `next_addr`, so this one sorts last by base
        self.by_base.push(id.0);
        self.regions.push(VariableRegion {
            id,
            name: name.to_owned(),
            base,
            size,
        });
        self.next_addr = base + size;
        Ok(id)
    }

    /// Inserts a region at an explicit address (used when modelling a fixed memory map).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyRegion`] for zero-sized regions and
    /// [`TraceError::OverlappingRegion`] if the range collides with an existing region.
    pub fn insert_at(&mut self, name: &str, base: u64, size: u64) -> Result<VarId, TraceError> {
        if size == 0 {
            return Err(TraceError::EmptyRegion { name: name.into() });
        }
        let candidate = VariableRegion {
            id: VarId(self.regions.len() as u32),
            name: name.to_owned(),
            base,
            size,
        };
        // The regions starting below the candidate's end overlap it exactly when they end
        // past its base. Their ends ascend with their bases, so the overlapping ones are
        // the last of them; the error names the lowest-id one.
        let at = self
            .by_base
            .partition_point(|&i| self.regions[i as usize].base < candidate.end());
        if let Some(existing) = self.by_base[..at]
            .iter()
            .rev()
            .map(|&i| &self.regions[i as usize])
            .take_while(|r| r.overlaps(&candidate))
            .min_by_key(|r| r.id)
        {
            return Err(TraceError::OverlappingRegion {
                name: name.into(),
                existing: existing.name.clone(),
            });
        }
        let id = candidate.id;
        self.next_addr = self.next_addr.max(candidate.end());
        self.by_base.insert(at, id.0);
        self.regions.push(candidate);
        Ok(id)
    }

    /// Returns the region of variable `id`, if it exists.
    pub fn region(&self, id: VarId) -> Option<&VariableRegion> {
        self.regions.get(id.index())
    }

    /// Looks a region up by name. Linear scan; intended for tests and small tables.
    pub fn by_name(&self, name: &str) -> Option<&VariableRegion> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Resolves an address to the variable whose region contains it: a binary search for
    /// the last region starting at or below `addr`.
    pub fn resolve(&self, addr: u64) -> Option<VarId> {
        let after = self
            .by_base
            .partition_point(|&i| self.regions[i as usize].base <= addr);
        let region = &self.regions[*self.by_base.get(after.checked_sub(1)?)? as usize];
        region.contains(addr).then_some(region.id)
    }

    /// Iterates over all regions in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = &VariableRegion> {
        self.regions.iter()
    }
}

impl<'a> IntoIterator for &'a SymbolTable {
    type Item = &'a VariableRegion;
    type IntoIter = std::slice::Iter<'a, VariableRegion>;

    fn into_iter(self) -> Self::IntoIter {
        self.regions.iter()
    }
}

/// Rounds `value` up to the next multiple of `align` (which must be a power of two).
pub(crate) fn align_up(value: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (value + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_assigns_sequential_ids_and_disjoint_ranges() {
        let mut st = SymbolTable::new();
        let a = st.allocate("a", 100, 8).unwrap();
        let b = st.allocate("b", 50, 8).unwrap();
        assert_eq!(a, VarId(0));
        assert_eq!(b, VarId(1));
        let ra = st.region(a).unwrap().clone();
        let rb = st.region(b).unwrap().clone();
        assert!(!ra.overlaps(&rb));
        assert!(rb.base >= ra.end());
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn allocate_respects_alignment() {
        let mut st = SymbolTable::with_base(0x1001);
        let a = st.allocate("a", 16, 64).unwrap();
        assert_eq!(st.region(a).unwrap().base % 64, 0);
    }

    #[test]
    fn allocate_rejects_zero_size_and_bad_alignment() {
        let mut st = SymbolTable::new();
        assert!(matches!(
            st.allocate("z", 0, 8),
            Err(TraceError::EmptyRegion { .. })
        ));
        assert!(matches!(
            st.allocate("a", 8, 3),
            Err(TraceError::BadAlignment { align: 3 })
        ));
        assert!(matches!(
            st.allocate("a", 8, 0),
            Err(TraceError::BadAlignment { align: 0 })
        ));
    }

    #[test]
    fn insert_at_detects_overlap() {
        let mut st = SymbolTable::new();
        st.insert_at("a", 0x1000, 0x100).unwrap();
        let err = st.insert_at("b", 0x10ff, 0x10).unwrap_err();
        assert!(matches!(err, TraceError::OverlappingRegion { .. }));
        // adjacent is fine
        st.insert_at("c", 0x1100, 0x10).unwrap();
    }

    #[test]
    fn resolve_maps_addresses_back_to_variables() {
        let mut st = SymbolTable::new();
        let a = st.allocate("a", 64, 8).unwrap();
        let b = st.allocate("b", 64, 8).unwrap();
        let ra = st.region(a).unwrap().base;
        let rb = st.region(b).unwrap().base;
        assert_eq!(st.resolve(ra), Some(a));
        assert_eq!(st.resolve(ra + 63), Some(a));
        assert_eq!(st.resolve(rb), Some(b));
        assert_eq!(st.resolve(rb + 64), None);
        assert_eq!(st.resolve(0), None);
    }

    #[test]
    fn by_name_and_display() {
        let mut st = SymbolTable::new();
        st.allocate("matrix", 256, 8).unwrap();
        let r = st.by_name("matrix").unwrap();
        assert!(r.to_string().contains("matrix"));
        assert!(st.by_name("nope").is_none());
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 8), 16);
        assert_eq!(align_up(0x1001, 0x1000), 0x2000);
    }
}
