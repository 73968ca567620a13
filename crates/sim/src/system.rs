//! The complete simulated memory system: column cache + TLB + page table + tint table +
//! main memory, with a cycle-approximate timing model.
//!
//! [`MemorySystem`] exposes the two halves of the paper's mechanism:
//!
//! * the **hardware datapath** — [`MemorySystem::access`] replays one memory reference,
//!   consults the TLB for the page's tint, resolves the tint to a column mask and drives
//!   the column cache, charging cycles for hits, misses, writebacks and TLB walks. It is
//!   the only per-reference path: batched replay calls it for every reference;
//! * the **software control interface** — defining and remapping tints
//!   ([`MemorySystem::define_tint`]), re-tinting address ranges
//!   ([`MemorySystem::tint_range`], which updates page-table entries and flushes the
//!   affected TLB entries exactly as Figure 3 describes), dedicating columns as scratchpad
//!   ([`MemorySystem::map_exclusive_region`]) and marking regions uncacheable.

use crate::cache::{AccessOutcome, ColumnCache};
use crate::config::{CacheConfig, LatencyConfig};
use crate::error::SimError;
use crate::mask::ColumnMask;
use crate::memory::MainMemory;
use crate::page_table::PageTable;
use crate::stats::{CacheStats, CycleReport, MemoryStats};
use crate::tint::{Tint, TintTable};
use crate::tlb::Tlb;
use std::ops::Range;

/// Most TLB entries a [`SystemConfig`] may ask for: 16 times the 64-entry default. A TLB
/// miss scans every resident entry, so an unbounded TLB would make each miss unboundedly
/// slow.
pub const MAX_TLB_ENTRIES: usize = 1024;

/// Configuration of a [`MemorySystem`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Geometry and replacement policy of the column cache.
    pub cache: CacheConfig,
    /// Latency model.
    pub latency: LatencyConfig,
    /// Page size used by the page table and TLB (power of two).
    pub page_size: u64,
    /// Number of TLB entries.
    pub tlb_entries: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cache: CacheConfig::default(),
            latency: LatencyConfig::default(),
            page_size: 1024,
            tlb_entries: 64,
        }
    }
}

impl SystemConfig {
    /// Validates the configuration: the page size must be a nonzero power of two, the
    /// TLB needs at least one and at most [`MAX_TLB_ENTRIES`] entries, and a cache line
    /// must not span pages (tints are per-page, so a line crossing pages could carry two
    /// different mappings).
    ///
    /// # Errors
    ///
    /// Names the first violated condition.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.page_size == 0 || !self.page_size.is_power_of_two() {
            return Err(SimError::BadSize {
                what: "page size",
                value: self.page_size,
            });
        }
        if self.tlb_entries == 0 {
            return Err(SimError::ZeroTlbEntries);
        }
        if self.tlb_entries > MAX_TLB_ENTRIES {
            return Err(SimError::TlbTooLarge {
                entries: self.tlb_entries,
                limit: MAX_TLB_ENTRIES,
            });
        }
        if self.cache.line_size() > self.page_size {
            return Err(SimError::LineExceedsPage {
                line_size: self.cache.line_size(),
                page_size: self.page_size,
            });
        }
        Ok(())
    }
}

/// The simulated memory hierarchy driven by a reference stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    config: SystemConfig,
    cache: ColumnCache,
    tlb: Tlb,
    page_table: PageTable,
    tints: TintTable,
    memory: MainMemory,
    stats: MemoryStats,
    /// Cycles spent in software control operations (tint remaps, re-tints, preloads,
    /// explicit copies). Reported separately so experiments can include or exclude them.
    pub control_cycles: u64,
}

impl MemorySystem {
    /// Creates a memory system from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the page size or cache geometry is invalid.
    pub fn new(config: SystemConfig) -> Result<Self, SimError> {
        config.validate()?;
        let cache = ColumnCache::new(config.cache);
        let page_table = PageTable::new(config.page_size)?;
        let columns = config.cache.columns();
        Ok(MemorySystem {
            config,
            cache,
            tlb: Tlb::new(config.tlb_entries),
            page_table,
            tints: TintTable::new(columns),
            memory: MainMemory::new(
                config.latency.miss_penalty,
                config.latency.writeback_penalty,
            ),
            stats: MemoryStats::default(),
            control_cycles: 0,
        })
    }

    /// Creates a memory system with the default 2 KiB / 4-column cache.
    pub fn with_default_cache() -> Self {
        MemorySystem::new(SystemConfig::default()).expect("default config is valid")
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Read-only view of the column cache.
    pub fn cache(&self) -> &ColumnCache {
        &self.cache
    }

    /// Read-only view of the TLB.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Read-only view of the page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Read-only view of the tint table.
    pub fn tints(&self) -> &TintTable {
        &self.tints
    }

    /// Read-only view of the main-memory traffic counters.
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Memory-system statistics (references, cycles, TLB behaviour).
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Cache statistics (hits, misses, per-column counters).
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Resets every statistic (but not cache/TLB contents or mappings).
    pub fn reset_stats(&mut self) {
        self.stats = MemoryStats::default();
        self.cache.reset_stats();
        self.memory.reset();
        self.control_cycles = 0;
    }

    /// Returns the system to its just-constructed state: cache and TLB contents, page
    /// table, tint table and every statistic are cleared. This discards all
    /// programming; to restore a *programmed* warm state between sweep points, the replay
    /// engine snapshots with [`MemoryBackend::boxed_clone`](crate::backend::MemoryBackend)
    /// instead.
    ///
    /// The reset is performed in place — the cache's tag/validity/replacement vectors are
    /// rewound rather than reallocated — and backs the replay engine's no-snapshot
    /// `reset`. The result is indistinguishable from a fresh
    /// [`MemorySystem::new`] (the structures derive `PartialEq`; a test pins equality).
    pub fn full_reset(&mut self) {
        self.cache.clear();
        self.tlb.clear();
        self.page_table.clear();
        self.tints.reset();
        self.memory.reset();
        self.stats = MemoryStats::default();
        self.control_cycles = 0;
    }

    // ------------------------------------------------------------------
    // Software control interface
    // ------------------------------------------------------------------

    /// Defines (or redefines) the column mask of a tint. This is the cheap operation of the
    /// paper: a single tint-table write.
    ///
    /// # Errors
    ///
    /// Returns an error if the mask is invalid for this cache or the tint is at or above
    /// [`MAX_TINTS`](crate::tint::MAX_TINTS).
    pub fn define_tint(&mut self, tint: Tint, mask: ColumnMask) -> Result<(), SimError> {
        self.control_cycles += 1;
        self.tints.define(tint, mask)
    }

    /// Gives `tint` exclusive use of the columns in `mask`: other tints lose those columns
    /// from their masks (where possible). Returns tints that could not be reduced because
    /// they would have been left with no columns.
    pub fn make_tint_exclusive(
        &mut self,
        tint: Tint,
        mask: ColumnMask,
    ) -> Result<Vec<Tint>, SimError> {
        self.control_cycles += 1;
        self.tints.make_exclusive(tint, mask)
    }

    /// Assigns `tint` to every page overlapping `range` and flushes the affected TLB
    /// entries. This is the expensive re-tinting operation: one page-table write plus one
    /// TLB flush per changed page, charged to [`MemorySystem::control_cycles`].
    pub fn tint_range(&mut self, range: Range<u64>, tint: Tint) -> usize {
        let changed = self.page_table.tint_range(range, tint);
        let flushed = self.tlb.flush_pages(&changed);
        self.stats.tlb_flushes += flushed as u64;
        // One cycle per page-table write plus the TLB-miss penalty each flushed page will
        // pay on its next access is charged when it happens; here we charge the writes.
        self.control_cycles += changed.len() as u64;
        changed.len()
    }

    /// Marks every page overlapping `range` as uncacheable (or cacheable again).
    pub fn set_cacheable(&mut self, range: Range<u64>, cacheable: bool) -> usize {
        let changed = self.page_table.set_cacheable_range(range, cacheable);
        let flushed = self.tlb.flush_pages(&changed);
        self.stats.tlb_flushes += flushed as u64;
        self.control_cycles += changed.len() as u64;
        changed.len()
    }

    /// Maps `[base, base + size)` exclusively to the columns of `mask` using a fresh tint,
    /// and optionally pre-loads every line so subsequent accesses are guaranteed hits —
    /// this is the paper's recipe for emulating scratchpad memory inside the cache
    /// (Section 2.3). Returns the tint used.
    ///
    /// # Errors
    ///
    /// Returns an error if the mask is invalid for this cache.
    pub fn map_exclusive_region(
        &mut self,
        base: u64,
        size: u64,
        mask: ColumnMask,
        tint: Tint,
        preload: bool,
    ) -> Result<Tint, SimError> {
        mask.validate(self.config.cache.columns())?;
        self.make_tint_exclusive(tint, mask)?;
        self.tint_range(base..base + size, tint);
        if preload {
            let fetched = self.cache.preload(base, size, mask);
            // each pre-load line fill costs a miss penalty, charged as control overhead
            self.control_cycles +=
                fetched * (self.config.latency.hit_latency + self.config.latency.miss_penalty);
        }
        Ok(tint)
    }

    // ------------------------------------------------------------------
    // Hardware datapath
    // ------------------------------------------------------------------

    /// Replays one memory reference and returns the cycles it took.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> u64 {
        self.stats.references += 1;

        // Address translation: the TLB carries the tint to the replacement unit.
        let mut cycles = 0u64;
        let (entry, tlb_hit) = self.tlb.lookup(addr, &self.page_table);
        if tlb_hit {
            self.stats.tlb_hits += 1;
        } else {
            self.stats.tlb_misses += 1;
            cycles += self.config.latency.tlb_miss_penalty;
        }
        if !entry.cacheable {
            self.stats.uncached_accesses += 1;
            return self.uncached_access(is_write, cycles);
        }
        let mask = self.tints.mask_or_default(entry.tint);
        self.cacheable_access(addr, is_write, mask, cycles)
    }

    /// Charges an access that goes straight to main memory (uncacheable page or masked-out
    /// bypass). The caller accounts the `uncached_accesses` statistic — the two paths
    /// classify it at different points.
    #[inline]
    fn uncached_access(&mut self, is_write: bool, mut cycles: u64) -> u64 {
        cycles += self.config.latency.uncached_latency;
        if is_write {
            self.memory.write_line(8);
        } else {
            self.memory.read_line(8);
        }
        self.stats.memory_cycles += cycles;
        cycles
    }

    /// Drives the column cache with an already-resolved column mask and charges cycles.
    #[inline]
    fn cacheable_access(
        &mut self,
        addr: u64,
        is_write: bool,
        mask: ColumnMask,
        cycles: u64,
    ) -> u64 {
        match self.cache.access(addr, is_write, mask) {
            AccessOutcome::Hit { .. } => {
                let cycles = cycles + self.config.latency.hit_latency;
                self.stats.memory_cycles += cycles;
                cycles
            }
            AccessOutcome::Miss { evicted, .. } => {
                let line_size = self.config.cache.line_size();
                let mut cycles = cycles + self.config.latency.hit_latency;
                cycles += self
                    .memory
                    .read_line(line_size)
                    .max(self.config.latency.miss_penalty);
                if let Some(ev) = evicted {
                    if ev.dirty {
                        cycles += self
                            .memory
                            .write_line(line_size)
                            .max(self.config.latency.writeback_penalty);
                    }
                }
                self.stats.memory_cycles += cycles;
                cycles
            }
            AccessOutcome::Bypass => {
                self.stats.uncached_accesses += 1;
                self.uncached_access(is_write, cycles)
            }
        }
    }

    /// Replays a sequence of `(address, is_write)` references and returns the total cycles.
    pub fn run<I>(&mut self, refs: I) -> u64
    where
        I: IntoIterator<Item = (u64, bool)>,
    {
        refs.into_iter().map(|(a, w)| self.access(a, w)).sum()
    }

    /// Builds a cycle/CPI report for everything replayed since the last statistics reset,
    /// using the configured instructions-per-reference and compute-CPI model. Control
    /// cycles (tint management, preloads, explicit copies) are included in the memory
    /// cycles if `include_control` is set.
    pub fn cycle_report(&self, include_control: bool) -> CycleReport {
        CycleReport::from_stats(
            &self.stats,
            &self.config.latency,
            self.control_cycles,
            include_control,
        )
    }
}

impl Default for MemorySystem {
    fn default() -> Self {
        MemorySystem::with_default_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    fn system() -> MemorySystem {
        MemorySystem::with_default_cache()
    }

    #[test]
    fn default_system_behaves_like_a_plain_cache() {
        let mut s = system();
        let c1 = s.access(0x1000, false);
        let c2 = s.access(0x1000, false);
        // first access: TLB miss + cache miss; second: pure hit
        assert!(c1 > c2);
        assert_eq!(c2, s.config().latency.hit_latency);
        assert_eq!(s.stats().references, 2);
        assert_eq!(s.cache_stats().hits, 1);
        assert_eq!(s.stats().tlb_misses, 1);
        assert_eq!(s.stats().tlb_hits, 1);
    }

    #[test]
    fn tint_isolation_prevents_cross_variable_eviction() {
        // Two streams that collide in every set: with the default single tint the second
        // stream evicts the first; with separate exclusive tints the first stays resident.
        let stream_a: Vec<(u64, bool)> = (0..16u64).map(|i| ((i * 32), false)).collect();
        let stream_b: Vec<(u64, bool)> = (0..64u64).map(|i| (0x10_0000 + i * 32, false)).collect();

        // Shared cache: run A, then B (which floods all columns), then A again.
        let mut shared = system();
        shared.run(stream_a.iter().copied());
        shared.run(stream_b.iter().copied());
        shared.reset_stats();
        shared.run(stream_a.iter().copied());
        let shared_hits = shared.cache_stats().hits;

        // Partitioned cache: A owns column 0 exclusively, B gets the rest.
        let mut part = system();
        part.define_tint(Tint(1), ColumnMask::single(0)).unwrap();
        part.define_tint(Tint(2), ColumnMask::from_columns([1, 2, 3]))
            .unwrap();
        part.tint_range(0x0000..16 * 32, Tint(1));
        part.tint_range(0x10_0000..0x10_0000 + 64 * 32, Tint(2));
        part.run(stream_a.iter().copied());
        part.run(stream_b.iter().copied());
        part.reset_stats();
        part.run(stream_a.iter().copied());
        let part_hits = part.cache_stats().hits;

        assert_eq!(part_hits, 16, "column-isolated stream must stay resident");
        assert!(shared_hits < part_hits);
    }

    #[test]
    fn exclusive_region_behaves_like_scratchpad() {
        let mut s = system();
        // one column = 512 bytes
        s.map_exclusive_region(0x8000, 512, ColumnMask::single(3), Tint(7), true)
            .unwrap();
        // pollute the rest of the cache heavily
        let pollute: Vec<(u64, bool)> = (0..1024u64).map(|i| (0x20_0000 + i * 32, false)).collect();
        s.run(pollute);
        s.reset_stats();
        // every access to the scratchpad-mapped region must hit
        let hits_expected = 512 / 32;
        for i in 0..hits_expected {
            s.access(0x8000 + i * 32, false);
        }
        assert_eq!(s.cache_stats().hits, hits_expected);
        assert_eq!(s.cache_stats().misses, 0);
    }

    #[test]
    fn retinting_flushes_tlb_entries() {
        let mut s = system();
        s.access(0x4000, false); // loads TLB entry for that page
        let pages_changed = s.tint_range(0x4000..0x4400, Tint(1));
        assert!(pages_changed >= 1);
        assert!(s.stats().tlb_flushes >= 1);
        // next access pays a TLB miss again
        let before = s.stats().tlb_misses;
        s.access(0x4000, false);
        assert_eq!(s.stats().tlb_misses, before + 1);
    }

    #[test]
    fn uncacheable_pages_bypass_the_cache() {
        let mut s = system();
        s.set_cacheable(0x9000..0x9400, false);
        s.access(0x9000, false);
        s.access(0x9000, false);
        assert_eq!(s.cache_stats().accesses, 0);
        assert_eq!(s.stats().uncached_accesses, 2);
        assert!(!s.cache().contains(0x9000));
    }

    #[test]
    fn dirty_evictions_cost_writeback_cycles() {
        let mut s = system();
        // write a line, then evict it with 4 conflicting lines (4 columns)
        s.access(0x0, true);
        let mut evict_cost = 0;
        for i in 1..=4u64 {
            evict_cost = s.access(i * 2048, true);
        }
        // the last access must have paid a writeback on top of the miss
        assert!(
            evict_cost >= s.config().latency.miss_penalty + s.config().latency.writeback_penalty
        );
        assert!(s.memory().line_writes >= 1);
    }

    #[test]
    fn cycle_report_accumulates_cpi() {
        let mut s = system();
        let refs: Vec<(u64, bool)> = (0..100u64).map(|i| (i * 32, false)).collect();
        s.run(refs);
        let rep = s.cycle_report(false);
        assert_eq!(
            rep.instructions,
            100 * s.config().latency.instructions_per_reference
        );
        assert!(rep.cpi() > 1.0);
        let with_control = s.cycle_report(true);
        assert!(with_control.total_cycles() >= rep.total_cycles());
    }

    #[test]
    fn config_validation_rejects_bad_page_size() {
        let cfg = SystemConfig {
            page_size: 3000,
            ..SystemConfig::default()
        };
        assert!(MemorySystem::new(cfg).is_err());
    }

    #[test]
    fn config_validation_bounds_tlb_entries() {
        let vast = SimError::TlbTooLarge {
            entries: 1_000_000_000,
            limit: MAX_TLB_ENTRIES,
        };
        for (tlb_entries, refused) in [(0, SimError::ZeroTlbEntries), (1_000_000_000, vast)] {
            let cfg = SystemConfig {
                tlb_entries,
                ..SystemConfig::default()
            };
            assert_eq!(MemorySystem::new(cfg).unwrap_err(), refused);
        }
        let at_limit = SystemConfig {
            tlb_entries: MAX_TLB_ENTRIES,
            ..SystemConfig::default()
        };
        assert!(MemorySystem::new(at_limit).is_ok());
    }

    #[test]
    fn config_validation_rejects_line_spanning_pages() {
        // 32-byte lines (the default cache) with 16-byte pages: a line would cross pages.
        let cfg = SystemConfig {
            page_size: 16,
            ..SystemConfig::default()
        };
        assert_eq!(
            MemorySystem::new(cfg).unwrap_err(),
            SimError::LineExceedsPage {
                line_size: 32,
                page_size: 16,
            }
        );
        // equal sizes are fine: a line exactly fills a page
        let cfg = SystemConfig {
            page_size: 32,
            ..SystemConfig::default()
        };
        assert!(MemorySystem::new(cfg).is_ok());
    }

    #[test]
    fn full_reset_matches_fresh_construction() {
        let mut s = system();
        s.define_tint(Tint(1), ColumnMask::single(1)).unwrap();
        s.make_tint_exclusive(Tint(2), ColumnMask::single(0))
            .unwrap();
        s.tint_range(0..0x2000, Tint(1));
        s.set_cacheable(0x9000..0x9400, false);
        s.map_exclusive_region(0x8000, 512, ColumnMask::single(3), Tint(7), true)
            .unwrap();
        let refs: Vec<(u64, bool)> = (0..400u64)
            .map(|i| ((i * 97) % 0x8000, i % 3 == 0))
            .collect();
        s.run_batch(&refs);
        s.full_reset();
        assert_eq!(s, MemorySystem::new(*s.config()).unwrap());
    }

    #[test]
    fn run_batch_matches_per_reference_access() {
        let refs: Vec<(u64, bool)> = (0..600u64)
            .map(|i| ((i * 97) % 0x8000, i % 5 == 0))
            .collect();
        let mut per_ref = system();
        per_ref.define_tint(Tint(1), ColumnMask::single(1)).unwrap();
        per_ref.tint_range(0..0x1000, Tint(1));
        let mut batched = per_ref.clone();

        let a: u64 = refs.iter().map(|&(addr, w)| per_ref.access(addr, w)).sum();
        let b = batched.run_batch(&refs);
        assert_eq!(a, b);
        assert_eq!(per_ref.stats(), batched.stats());
        assert_eq!(per_ref.cache_stats(), batched.cache_stats());
    }

    #[test]
    fn run_batch_respects_uncached_regions() {
        let mut a = system();
        a.set_cacheable(0x9000..0x9400, false);
        let mut b = a.clone();
        let refs: Vec<(u64, bool)> = (0..300u64)
            .map(|i| match i % 2 {
                0 => (0x9000 + (i % 32) * 32, true),
                _ => ((i * 64) % 0x4000, false),
            })
            .collect();
        let cycles_a: u64 = refs.iter().map(|&(addr, w)| a.access(addr, w)).sum();
        let cycles_b = b.run_batch(&refs);
        assert_eq!(cycles_a, cycles_b);
        assert_eq!(a.stats(), b.stats());
    }
}
