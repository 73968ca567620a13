//! Hit/miss and cycle statistics.

use std::ops::AddAssign;

/// Counters maintained by the column cache itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses presented to the cache.
    pub accesses: u64,
    /// Accesses that hit in some column.
    pub hits: u64,
    /// Accesses that missed and filled a line.
    pub misses: u64,
    /// Accesses that could not be cached because their mask selected no column.
    pub bypasses: u64,
    /// Valid lines evicted to make room for fills.
    pub evictions: u64,
    /// Dirty lines written back to memory (on eviction or flush).
    pub writebacks: u64,
    /// Hits per column (indexed by column number).
    pub column_hits: Vec<u64>,
    /// Fills per column (indexed by column number).
    pub column_fills: Vec<u64>,
}

impl CacheStats {
    /// Creates zeroed statistics for a cache with `columns` columns.
    pub fn new(columns: usize) -> Self {
        CacheStats {
            column_hits: vec![0; columns],
            column_fills: vec![0; columns],
            ..CacheStats::default()
        }
    }

    /// Fraction of accesses that hit (0 when there were no accesses).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Fraction of accesses that missed (0 when there were no accesses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.misses + self.bypasses) as f64 / self.accesses as f64
        }
    }
}

impl AddAssign<&CacheStats> for CacheStats {
    fn add_assign(&mut self, rhs: &CacheStats) {
        self.accesses += rhs.accesses;
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.bypasses += rhs.bypasses;
        self.evictions += rhs.evictions;
        self.writebacks += rhs.writebacks;
        if self.column_hits.len() < rhs.column_hits.len() {
            self.column_hits.resize(rhs.column_hits.len(), 0);
            self.column_fills.resize(rhs.column_fills.len(), 0);
        }
        for (a, b) in self.column_hits.iter_mut().zip(&rhs.column_hits) {
            *a += b;
        }
        for (a, b) in self.column_fills.iter_mut().zip(&rhs.column_fills) {
            *a += b;
        }
    }
}

/// Counters maintained by the memory system wrapper (cache + TLB + DRAM).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Memory references processed.
    pub references: u64,
    /// Total cycles spent on memory (hit latencies, miss penalties, writebacks, TLB walks).
    pub memory_cycles: u64,
    /// References served at scratchpad latency (by the ideal-scratchpad backend).
    pub scratchpad_accesses: u64,
    /// References that bypassed the cache entirely (uncacheable pages or empty masks).
    pub uncached_accesses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses (page-table walks).
    pub tlb_misses: u64,
    /// TLB entries invalidated by re-tinting operations.
    pub tlb_flushes: u64,
}

impl AddAssign<&MemoryStats> for MemoryStats {
    fn add_assign(&mut self, rhs: &MemoryStats) {
        self.references += rhs.references;
        self.memory_cycles += rhs.memory_cycles;
        self.scratchpad_accesses += rhs.scratchpad_accesses;
        self.uncached_accesses += rhs.uncached_accesses;
        self.tlb_hits += rhs.tlb_hits;
        self.tlb_misses += rhs.tlb_misses;
        self.tlb_flushes += rhs.tlb_flushes;
    }
}

/// A cycle/CPI report combining memory stalls with a simple in-order compute model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleReport {
    /// Instructions represented by the replayed trace.
    pub instructions: u64,
    /// Non-memory (compute) cycles.
    pub compute_cycles: u64,
    /// Memory cycles (from [`MemoryStats::memory_cycles`]).
    pub memory_cycles: u64,
}

impl CycleReport {
    /// Builds a report from accumulated memory statistics under the standard in-order
    /// compute model: `instructions = references × instructions_per_reference`, compute
    /// cycles at `compute_cycles_per_instruction`, and control cycles folded into the
    /// memory cycles when `include_control` is set. Every backend derives its report
    /// through this one function so the CPI model cannot drift between them.
    pub fn from_stats(
        stats: &MemoryStats,
        latency: &crate::config::LatencyConfig,
        control_cycles: u64,
        include_control: bool,
    ) -> CycleReport {
        let instructions = stats.references * latency.instructions_per_reference;
        let mut memory_cycles = stats.memory_cycles;
        if include_control {
            memory_cycles += control_cycles;
        }
        CycleReport {
            instructions,
            compute_cycles: instructions * latency.compute_cycles_per_instruction,
            memory_cycles,
        }
    }

    /// Total cycles.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.memory_cycles
    }

    /// Clocks per instruction; 0 when no instructions were executed.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.total_cycles() as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_and_normal_cases() {
        let mut s = CacheStats::new(4);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        s.accesses = 10;
        s.hits = 7;
        s.misses = 2;
        s.bypasses = 1;
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
        assert_eq!(s.column_hits.len(), 4);
    }

    #[test]
    fn add_assign_accumulates_and_resizes() {
        let mut a = CacheStats::new(2);
        a.accesses = 5;
        a.column_hits[0] = 3;
        let mut b = CacheStats::new(4);
        b.accesses = 7;
        b.hits = 7;
        b.column_hits[3] = 2;
        a += &b;
        assert_eq!(a.accesses, 12);
        assert_eq!(a.hits, 7);
        assert_eq!(a.column_hits.len(), 4);
        assert_eq!(a.column_hits[0], 3);
        assert_eq!(a.column_hits[3], 2);
    }

    #[test]
    fn cycle_report_cpi() {
        let r = CycleReport {
            instructions: 100,
            compute_cycles: 100,
            memory_cycles: 150,
        };
        assert_eq!(r.total_cycles(), 250);
        assert!((r.cpi() - 2.5).abs() < 1e-12);
        assert_eq!(CycleReport::default().cpi(), 0.0);
    }
}
