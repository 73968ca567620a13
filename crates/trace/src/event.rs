//! Memory reference events.

use std::fmt;

/// Identifier of a program variable (array or scalar) in a [`crate::region::SymbolTable`].
///
/// `VarId`s are dense indices handed out by the symbol table in allocation order, which
/// makes them usable as vector indices in the layout algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VarId {
    fn from(value: u32) -> Self {
        VarId(value)
    }
}

/// Whether a memory reference reads or writes its location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load from memory.
    Read,
    /// A store to memory.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// Returns `true` for [`AccessKind::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "R"),
            AccessKind::Write => write!(f, "W"),
        }
    }
}

/// Exclusive upper bound of the simulated address space, 2^63: every event the trace
/// decoders ([`crate::binfmt`], [`crate::textfmt`]) accept ends at or below it, so
/// address arithmetic downstream — [`MemAccess::last_byte`], regions rounded up to
/// whole blocks by [`crate::infer::infer_symbols`] — cannot overflow.
pub const ADDRESS_LIMIT: u64 = 1 << 63;

/// Returns `true` if every byte of a `size`-byte access at `addr` lies below
/// [`ADDRESS_LIMIT`] (size 0 counts as one byte, like [`MemAccess::last_byte`]).
#[inline]
pub(crate) fn in_address_space(addr: u64, size: u32) -> bool {
    addr <= ADDRESS_LIMIT - u64::from(size.max(1))
}

/// A single memory reference in a trace.
///
/// Addresses are byte addresses in a flat (simulated) physical address space. The optional
/// [`VarId`] annotation links the access back to the program variable that produced it so
/// that the data-layout algorithm can attribute conflicts to variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Byte address of the access.
    pub addr: u64,
    /// Size of the access in bytes (1, 2, 4, 8, ... ; never 0).
    pub size: u32,
    /// Whether the access is a read or a write.
    pub kind: AccessKind,
    /// The program variable this access belongs to, if known.
    pub var: Option<VarId>,
}

impl MemAccess {
    /// Creates a read access without a variable annotation.
    pub fn read(addr: u64, size: u32) -> Self {
        MemAccess {
            addr,
            size,
            kind: AccessKind::Read,
            var: None,
        }
    }

    /// Creates a write access without a variable annotation.
    pub fn write(addr: u64, size: u32) -> Self {
        MemAccess {
            addr,
            size,
            kind: AccessKind::Write,
            var: None,
        }
    }

    /// Attaches a variable annotation, returning the modified access.
    pub fn with_var(mut self, var: VarId) -> Self {
        self.var = Some(var);
        self
    }

    /// Returns the (inclusive) last byte address touched by this access.
    ///
    /// An access of size 0 is treated as touching a single byte.
    pub fn last_byte(&self) -> u64 {
        self.addr + u64::from(self.size.max(1)) - 1
    }

    /// Returns `true` if the access writes memory.
    #[inline]
    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }
}

impl fmt::Display for MemAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:#x}+{}", self.kind, self.addr, self.size)?;
        if let Some(v) = self.var {
            write!(f, " ({v})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_id_roundtrip_and_display() {
        let v = VarId::from(3u32);
        assert_eq!(v.index(), 3);
        assert_eq!(v.to_string(), "v3");
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Write.is_read());
    }

    #[test]
    fn constructors_set_kind() {
        let r = MemAccess::read(0x100, 4);
        assert_eq!(r.kind, AccessKind::Read);
        assert!(!r.is_write());
        let w = MemAccess::write(0x200, 8);
        assert!(w.is_write());
        assert_eq!(w.var, None);
    }

    #[test]
    fn with_var_attaches_annotation() {
        let a = MemAccess::read(0, 4).with_var(VarId(9));
        assert_eq!(a.var, Some(VarId(9)));
    }

    #[test]
    fn last_byte_is_inclusive() {
        assert_eq!(MemAccess::read(0x10, 4).last_byte(), 0x13);
        assert_eq!(MemAccess::read(0x10, 1).last_byte(), 0x10);
        // degenerate zero-size access treated as one byte
        assert_eq!(MemAccess::read(0x10, 0).last_byte(), 0x10);
    }

    #[test]
    fn address_space_ends_at_the_limit() {
        assert!(in_address_space(ADDRESS_LIMIT - 8, 8));
        assert!(in_address_space(ADDRESS_LIMIT - 1, 0));
        assert!(!in_address_space(ADDRESS_LIMIT - 4, 8));
        assert!(!in_address_space(ADDRESS_LIMIT, 1));
        assert!(!in_address_space(u64::MAX, 8));
    }

    #[test]
    fn display_contains_address_and_var() {
        let a = MemAccess::write(0x40, 4).with_var(VarId(2));
        let s = a.to_string();
        assert!(s.contains("0x40"));
        assert!(s.contains("v2"));
        assert!(s.starts_with('W'));
    }
}
