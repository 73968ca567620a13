//! Trace recorder used by the instrumented workloads.
//!
//! The recorder plays the role of the paper's profiler: workloads allocate their program
//! variables through it and report each read/write as the kernel executes. The result is a
//! [`Trace`] of annotated [`MemAccess`] events plus the [`SymbolTable`] describing where
//! every variable lives.

use crate::event::{AccessKind, MemAccess, VarId};
use crate::region::SymbolTable;
use crate::trace::Trace;

/// Records the memory-reference stream of an instrumented program.
///
/// # Example
///
/// ```
/// use ccache_trace::{TraceRecorder, AccessKind};
///
/// let mut rec = TraceRecorder::new();
/// let buf = rec.allocate("buf", 256, 64);
/// rec.record(buf, 0, 8, AccessKind::Write);
/// rec.record(buf, 8, 8, AccessKind::Read);
/// let (trace, symbols) = rec.finish();
/// assert_eq!(trace.len(), 2);
/// assert_eq!(symbols.by_name("buf").unwrap().size, 256);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    symbols: SymbolTable,
    trace: Trace,
    strict: bool,
}

impl TraceRecorder {
    /// Creates a recorder with a fresh symbol table.
    pub fn new() -> Self {
        TraceRecorder {
            symbols: SymbolTable::new(),
            trace: Trace::new(),
            strict: false,
        }
    }

    /// Creates a recorder whose variables are allocated starting at `base`.
    ///
    /// Multitasking experiments give each job a different base so that job address spaces
    /// are disjoint.
    pub fn with_base(base: u64) -> Self {
        TraceRecorder {
            symbols: SymbolTable::with_base(base),
            trace: Trace::new(),
            strict: false,
        }
    }

    /// Enables strict bounds checking: out-of-bounds accesses panic instead of being
    /// silently clamped. Useful in tests of the workloads themselves.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Allocates a variable of `size` bytes aligned to `align` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty or the alignment invalid; workload code treats these
    /// as programming errors.
    pub fn allocate(&mut self, name: &str, size: u64, align: u64) -> VarId {
        self.symbols
            .allocate(name, size, align)
            .unwrap_or_else(|e| panic!("allocating `{name}`: {e}"))
    }

    /// Allocates a variable sized to hold `count` elements of `elem_size` bytes each.
    pub fn allocate_array(&mut self, name: &str, count: u64, elem_size: u64) -> VarId {
        self.allocate(name, count.max(1) * elem_size, elem_size.max(1))
    }

    /// Records an access of `size` bytes at byte `offset` inside variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is unknown, or (in strict mode) if the access leaves the variable's
    /// region.
    pub fn record(&mut self, var: VarId, offset: u64, size: u32, kind: AccessKind) {
        let region = self
            .symbols
            .region(var)
            .unwrap_or_else(|| panic!("recording access to unknown variable {var}"));
        if self.strict && offset + u64::from(size) > region.size {
            panic!(
                "access of {size} bytes at offset {offset} outside `{}` ({} bytes)",
                region.name, region.size
            );
        }
        let addr = region.base + offset;
        self.trace.push(MemAccess {
            addr,
            size,
            kind,
            var: Some(var),
        });
    }

    /// Records a read of `size` bytes at `offset` inside `var`.
    #[inline]
    pub fn read(&mut self, var: VarId, offset: u64, size: u32) {
        self.record(var, offset, size, AccessKind::Read);
    }

    /// Records a write of `size` bytes at `offset` inside `var`.
    #[inline]
    pub fn write(&mut self, var: VarId, offset: u64, size: u32) {
        self.record(var, offset, size, AccessKind::Write);
    }

    /// Current number of recorded events.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Returns `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Read-only view of the symbol table built so far.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Read-only view of the trace built so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the recorder and returns the trace and symbol table.
    pub fn finish(self) -> (Trace, SymbolTable) {
        (self.trace, self.symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_record_produce_annotated_events() {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 128, 8);
        rec.read(a, 0, 8);
        rec.write(a, 8, 8);
        assert_eq!(rec.len(), 2);
        assert!(!rec.is_empty());
        let (t, s) = rec.finish();
        let base = s.by_name("a").unwrap().base;
        assert_eq!(t.get(0).unwrap().addr, base);
        assert_eq!(t.get(1).unwrap().addr, base + 8);
        assert_eq!(t.get(0).unwrap().var, Some(a));
        assert!(t.get(1).unwrap().is_write());
    }

    #[test]
    fn allocate_array_sizes_by_elements() {
        let mut rec = TraceRecorder::new();
        let v = rec.allocate_array("v", 10, 4);
        assert_eq!(rec.symbols().region(v).unwrap().size, 40);
    }

    #[test]
    fn with_base_separates_address_spaces() {
        let mut r1 = TraceRecorder::with_base(0x10_0000);
        let mut r2 = TraceRecorder::with_base(0x20_0000);
        let a = r1.allocate("a", 64, 8);
        let b = r2.allocate("b", 64, 8);
        assert!(r1.symbols().region(a).unwrap().base >= 0x10_0000);
        assert!(r2.symbols().region(b).unwrap().base >= 0x20_0000);
        assert!(r1.symbols().region(a).unwrap().base < 0x20_0000);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn strict_mode_panics_on_out_of_bounds() {
        let mut rec = TraceRecorder::new().strict();
        let a = rec.allocate("a", 16, 8);
        rec.read(a, 16, 4);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn recording_unknown_variable_panics() {
        let mut rec = TraceRecorder::new();
        rec.read(VarId(3), 0, 4);
    }
}
