//! Hit/miss and cycle statistics.

/// Counters maintained by the column cache itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses presented to the cache.
    pub accesses: u64,
    /// Accesses that hit in some column.
    pub hits: u64,
    /// Accesses that missed and filled a line.
    pub misses: u64,
    /// Accesses that could not be cached because their mask selected no column.
    pub bypasses: u64,
    /// Dirty lines written back to memory (on eviction or flush).
    pub writebacks: u64,
    /// Accesses whose set's way hint did not hold the line, so the lookup scanned the
    /// set's ways: every miss and bypass, plus the hits off the hinted way. A cost of the
    /// simulator, not of the modelled cache, so no artefact reports it.
    pub scans: u64,
}

impl CacheStats {
    /// Fraction of accesses that hit (0 when there were no accesses).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Counters maintained by the memory system wrapper (cache + TLB).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Memory references processed.
    pub references: u64,
    /// Total cycles spent on memory (hit latencies, miss penalties, writebacks, TLB walks).
    pub memory_cycles: u64,
    /// References that bypassed the cache entirely (uncacheable pages or empty masks).
    pub uncached_accesses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses (page-table walks).
    pub tlb_misses: u64,
    /// TLB entries invalidated by re-tinting operations.
    pub tlb_flushes: u64,
    /// TLB lookups past a stale slot hint, which scanned the resident entries: every TLB
    /// miss, plus the hits the hint did not name. A cost of the simulator, not of the
    /// modelled TLB, so no artefact reports it.
    pub tlb_scans: u64,
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
    /// compute model: `instructions = references × instructions_per_reference` and
    /// compute cycles at `compute_cycles_per_instruction`. Software control cycles are
    /// never folded in; backends report them on their own. Every backend derives its
    /// report through this one function so the CPI model cannot drift between them.
    pub fn from_stats(stats: &MemoryStats, latency: &crate::config::LatencyConfig) -> CycleReport {
        let instructions = stats.references * latency.instructions_per_reference;
        CycleReport {
            instructions,
            compute_cycles: instructions * latency.compute_cycles_per_instruction,
            memory_cycles: stats.memory_cycles,
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
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.accesses = 10;
        s.hits = 7;
        s.misses = 2;
        s.bypasses = 1;
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
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
