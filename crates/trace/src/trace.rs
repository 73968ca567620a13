//! Ordered sequences of memory references.

use crate::event::{AccessKind, MemAccess, VarId};
use crate::region::SymbolTable;

/// An ordered sequence of memory references produced by one program, task or kernel.
///
/// A `Trace` is the unit of work consumed by the cache simulator: the simulator replays the
/// events in order and charges hit/miss latencies. Traces can be concatenated (sequential
/// phases of one program) or interleaved by the multitasking scheduler in
/// `ccache-workloads`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<MemAccess>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Creates an empty trace with capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            events: Vec::with_capacity(n),
        }
    }

    /// Appends one event to the trace.
    #[inline]
    pub fn push(&mut self, event: MemAccess) {
        self.events.push(event);
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns the event at position `idx`.
    pub fn get(&self, idx: usize) -> Option<&MemAccess> {
        self.events.get(idx)
    }

    /// Iterates over the events in order.
    pub fn iter(&self) -> std::slice::Iter<'_, MemAccess> {
        self.events.iter()
    }

    /// Returns the events as a slice.
    pub fn as_slice(&self) -> &[MemAccess] {
        &self.events
    }

    /// Appends all events of `other` after the events of `self`.
    pub fn extend_from(&mut self, other: &Trace) {
        self.events.extend_from_slice(&other.events);
    }

    /// Concatenates traces in order into a new trace.
    pub fn concat<'a, I>(traces: I) -> Trace
    where
        I: IntoIterator<Item = &'a Trace>,
    {
        let mut out = Trace::new();
        for t in traces {
            out.extend_from(t);
        }
        out
    }

    /// Returns a sub-trace covering event positions `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> Trace {
        Trace {
            events: self.events[start..end].to_vec(),
        }
    }

    /// Number of write events.
    pub fn write_count(&self) -> usize {
        self.events.iter().filter(|e| e.is_write()).count()
    }

    /// Number of read events.
    pub fn read_count(&self) -> usize {
        self.len() - self.write_count()
    }

    /// Gives every event that carries no variable the variable of `symbols` whose region
    /// holds its address, if one does, so later passes need not look the address up.
    pub fn annotate(&mut self, symbols: &SymbolTable) {
        for event in &mut self.events {
            if event.var.is_none() {
                event.var = symbols.resolve(event.addr);
            }
        }
    }

    /// Number of events attributed to variable `var`.
    pub fn count_for(&self, var: VarId) -> usize {
        self.events.iter().filter(|e| e.var == Some(var)).count()
    }

    /// The set of distinct cache-line addresses touched, for a given line size in bytes.
    ///
    /// Useful as a simple working-set-size estimate. `line_size` must be a power of two.
    pub fn footprint_lines(&self, line_size: u64) -> usize {
        assert!(line_size.is_power_of_two() && line_size > 0);
        let mut lines: Vec<u64> = self.events.iter().map(|e| e.addr / line_size).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }
}

impl FromIterator<MemAccess> for Trace {
    fn from_iter<T: IntoIterator<Item = MemAccess>>(iter: T) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<MemAccess> for Trace {
    fn extend<T: IntoIterator<Item = MemAccess>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemAccess;
    type IntoIter = std::slice::Iter<'a, MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for Trace {
    type Item = MemAccess;
    type IntoIter = std::vec::IntoIter<MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl From<Vec<MemAccess>> for Trace {
    fn from(events: Vec<MemAccess>) -> Self {
        Trace { events }
    }
}

/// Summary statistics of a trace, convenient for reports and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total number of events.
    pub events: usize,
    /// Number of reads.
    pub reads: usize,
    /// Number of writes.
    pub writes: usize,
    /// Lowest address referenced (0 for an empty trace).
    pub min_addr: u64,
    /// Highest (inclusive last byte) address referenced (0 for an empty trace).
    pub max_addr: u64,
}

impl Trace {
    /// Computes summary statistics for the trace.
    pub fn stats(&self) -> TraceStats {
        let mut min_addr = u64::MAX;
        let mut max_addr = 0u64;
        let mut writes = 0usize;
        for e in &self.events {
            min_addr = min_addr.min(e.addr);
            max_addr = max_addr.max(e.last_byte());
            if e.kind == AccessKind::Write {
                writes += 1;
            }
        }
        if self.events.is_empty() {
            min_addr = 0;
        }
        TraceStats {
            events: self.len(),
            reads: self.len() - writes,
            writes,
            min_addr,
            max_addr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(MemAccess::read(0x100, 4).with_var(VarId(0)));
        t.push(MemAccess::write(0x200, 8).with_var(VarId(1)));
        t.push(MemAccess::read(0x104, 4).with_var(VarId(0)));
        t
    }

    #[test]
    fn push_len_get_iter() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.get(1).unwrap().addr, 0x200);
        assert_eq!(t.iter().count(), 3);
        assert_eq!(t.as_slice().len(), 3);
    }

    #[test]
    fn read_write_counts() {
        let t = sample();
        assert_eq!(t.write_count(), 1);
        assert_eq!(t.read_count(), 2);
    }

    #[test]
    fn count_for_counts_annotated_events() {
        let t = sample();
        assert_eq!(t.count_for(VarId(0)), 2);
        assert_eq!(t.count_for(VarId(7)), 0);
    }

    #[test]
    fn annotate_fills_only_missing_variables() {
        let mut symbols = SymbolTable::with_base(0x100);
        let a = symbols.allocate("a", 0x10, 4).unwrap();
        let mut t = sample();
        t.push(MemAccess::read(0x108, 4));
        t.push(MemAccess::read(0x900, 4));
        t.annotate(&symbols);
        let vars: Vec<Option<VarId>> = t.iter().map(|e| e.var).collect();
        // recorded annotations stay, even where the table disagrees
        assert_eq!(
            vars,
            [
                Some(VarId(0)),
                Some(VarId(1)),
                Some(VarId(0)),
                Some(a),
                None
            ]
        );
    }

    #[test]
    fn concat_and_extend_preserve_order() {
        let a = sample();
        let b = sample();
        let c = Trace::concat([&a, &b]);
        assert_eq!(c.len(), 6);
        assert_eq!(c.get(0).unwrap().addr, 0x100);
        assert_eq!(c.get(3).unwrap().addr, 0x100);
    }

    #[test]
    fn slice_copies_a_range() {
        let t = sample();
        let s = t.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0).unwrap().addr, 0x200);
    }

    #[test]
    fn footprint_lines_counts_distinct_lines() {
        let t = sample();
        // lines of 0x100: {1, 2} => 2 lines
        assert_eq!(t.footprint_lines(0x100), 2);
        // lines of 4 bytes: 0x100, 0x200, 0x104 => 3 lines
        assert_eq!(t.footprint_lines(4), 3);
    }

    #[test]
    fn stats_summarise_trace() {
        let t = sample();
        let s = t.stats();
        assert_eq!(s.events, 3);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.min_addr, 0x100);
        assert_eq!(s.max_addr, 0x207);
        let empty = Trace::new().stats();
        assert_eq!(empty.events, 0);
        assert_eq!(empty.min_addr, 0);
        assert_eq!(empty.max_addr, 0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let t: Trace = (0..10u64).map(|i| MemAccess::read(i * 4, 4)).collect();
        assert_eq!(t.len(), 10);
        let mut t2 = Trace::new();
        t2.extend(t.clone());
        assert_eq!(t2.len(), 10);
        let v: Vec<MemAccess> = t.into_iter().collect();
        assert_eq!(v.len(), 10);
    }
}
