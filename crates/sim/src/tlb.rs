//! A small fully-associative TLB that caches page-table entries (including tints).
//!
//! The TLB is the hardware structure that delivers the column-mapping information to the
//! replacement unit on every reference (Section 2.1). Re-tinting a page therefore requires
//! flushing or updating that page's TLB entry; the [`Tlb`] tracks how often that happens so
//! the cost of re-tinting versus tint-remapping can be measured.

use crate::page_table::{PageEntry, PageTable};

/// Statistics of TLB behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found the page in the TLB.
    pub hits: u64,
    /// Lookups that had to walk the page table.
    pub misses: u64,
    /// Entries invalidated by flushes (page-targeted or global).
    pub flushed_entries: u64,
    /// Global flush operations.
    pub global_flushes: u64,
}

impl TlbStats {
    /// Fraction of lookups that hit; 0 with no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TlbSlot {
    vpn: u64,
    entry: PageEntry,
    last_use: u64,
}

/// A fully-associative, LRU-replaced translation-look-aside buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    capacity: usize,
    slots: Vec<TlbSlot>,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB with room for `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        Tlb {
            capacity: capacity.max(1),
            slots: Vec::new(),
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Number of entries the TLB can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets statistics without evicting entries.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Returns the TLB to its just-constructed state: no resident entries, clock and
    /// statistics zeroed. Unlike [`Tlb::flush_all`] this is not a modelled hardware
    /// operation — nothing is counted — which is what a backend reset to pristine
    /// state needs.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.clock = 0;
        self.stats = TlbStats::default();
    }

    /// Looks up the page containing `addr`, filling from `page_table` on a miss.
    ///
    /// Returns the page entry and whether the lookup hit in the TLB.
    pub fn lookup(&mut self, addr: u64, page_table: &PageTable) -> (PageEntry, bool) {
        let (entry, hit, _slot) = self.lookup_slot(addr, page_table);
        (entry, hit)
    }

    /// [`Tlb::lookup`], additionally reporting the slot index now holding the page.
    ///
    /// The returned index is the handle for [`Tlb::probe_slot`]: the batched replay path
    /// remembers it per page and revalidates instead of re-scanning the slot vector.
    pub fn lookup_slot(&mut self, addr: u64, page_table: &PageTable) -> (PageEntry, bool, usize) {
        self.clock += 1;
        let vpn = page_table.page_of(addr);
        if let Some(idx) = self.slots.iter().position(|s| s.vpn == vpn) {
            let slot = &mut self.slots[idx];
            slot.last_use = self.clock;
            self.stats.hits += 1;
            return (slot.entry, true, idx);
        }
        self.stats.misses += 1;
        let entry = page_table.entry(vpn);
        let idx = if self.slots.len() < self.capacity {
            self.slots.push(TlbSlot {
                vpn,
                entry,
                last_use: self.clock,
            });
            self.slots.len() - 1
        } else {
            let idx = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_use)
                .expect("capacity >= 1")
                .0;
            self.slots[idx] = TlbSlot {
                vpn,
                entry,
                last_use: self.clock,
            };
            idx
        };
        (entry, false, idx)
    }

    /// O(1) revalidating lookup: if slot `idx` still holds page `vpn`, touches it exactly
    /// as a full [`Tlb::lookup`] hit would (clock advance, LRU update, hit counted) and
    /// returns its entry. Returns `None` — with **no** state change — when the slot was
    /// reused for another page, in which case the caller falls back to a full lookup.
    #[inline]
    pub fn probe_slot(&mut self, idx: usize, vpn: u64) -> Option<PageEntry> {
        let slot = self.slots.get_mut(idx)?;
        if slot.vpn != vpn {
            return None;
        }
        self.clock += 1;
        slot.last_use = self.clock;
        self.stats.hits += 1;
        Some(slot.entry)
    }

    /// Returns `true` if the TLB currently holds a translation for page `vpn`.
    pub fn contains(&self, vpn: u64) -> bool {
        self.slots.iter().any(|s| s.vpn == vpn)
    }

    /// Invalidates the entry for page `vpn`, if resident. Returns `true` if one was dropped.
    pub fn flush_page(&mut self, vpn: u64) -> bool {
        let before = self.slots.len();
        self.slots.retain(|s| s.vpn != vpn);
        let dropped = before - self.slots.len();
        self.stats.flushed_entries += dropped as u64;
        dropped > 0
    }

    /// Invalidates the entries of all listed pages. Returns how many were dropped.
    pub fn flush_pages(&mut self, vpns: &[u64]) -> usize {
        let before = self.slots.len();
        self.slots.retain(|s| !vpns.contains(&s.vpn));
        let dropped = before - self.slots.len();
        self.stats.flushed_entries += dropped as u64;
        dropped
    }

    /// Invalidates every entry.
    pub fn flush_all(&mut self) {
        self.stats.flushed_entries += self.slots.len() as u64;
        self.stats.global_flushes += 1;
        self.slots.clear();
    }
}

impl Default for Tlb {
    /// A 64-entry TLB, typical of small embedded cores.
    fn default() -> Self {
        Tlb::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tint::Tint;

    fn pt() -> PageTable {
        PageTable::new(4096).unwrap()
    }

    #[test]
    fn first_lookup_misses_then_hits() {
        let mut tlb = Tlb::new(4);
        let pt = pt();
        let (_, hit) = tlb.lookup(0x1000, &pt);
        assert!(!hit);
        let (_, hit) = tlb.lookup(0x1abc, &pt); // same page
        assert!(hit);
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
        assert!((tlb.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn lookup_returns_page_table_attributes() {
        let mut table = pt();
        table.set_page_tint(1, Tint(7));
        let mut tlb = Tlb::new(4);
        let (e, _) = tlb.lookup(0x1000, &table);
        assert_eq!(e.tint, Tint(7));
    }

    #[test]
    fn lru_replacement_when_full() {
        let mut tlb = Tlb::new(2);
        let pt = pt();
        tlb.lookup(0x0000, &pt); // page 0
        tlb.lookup(0x1000, &pt); // page 1
        tlb.lookup(0x0000, &pt); // touch page 0 so page 1 is LRU
        tlb.lookup(0x2000, &pt); // page 2 evicts page 1
        assert!(tlb.contains(0));
        assert!(!tlb.contains(1));
        assert!(tlb.contains(2));
        assert_eq!(tlb.len(), 2);
    }

    #[test]
    fn stale_entries_persist_until_flushed() {
        // This is exactly why re-tinting requires a TLB flush (Figure 3).
        let mut table = pt();
        let mut tlb = Tlb::new(4);
        tlb.lookup(0x1000, &table);
        table.set_page_tint(1, Tint(5));
        let (e, hit) = tlb.lookup(0x1000, &table);
        assert!(hit);
        assert_eq!(e.tint, Tint::DEFAULT); // stale!
        tlb.flush_page(1);
        let (e, hit) = tlb.lookup(0x1000, &table);
        assert!(!hit);
        assert_eq!(e.tint, Tint(5));
    }

    #[test]
    fn flush_operations_count_entries() {
        let mut tlb = Tlb::new(8);
        let pt = pt();
        for p in 0..4u64 {
            tlb.lookup(p * 4096, &pt);
        }
        assert_eq!(tlb.flush_pages(&[0, 2]), 2);
        assert_eq!(tlb.stats().flushed_entries, 2);
        tlb.flush_all();
        assert!(tlb.is_empty());
        assert_eq!(tlb.stats().flushed_entries, 4);
        assert_eq!(tlb.stats().global_flushes, 1);
        assert!(!tlb.flush_page(99));
    }

    #[test]
    fn capacity_is_at_least_one() {
        let tlb = Tlb::new(0);
        assert_eq!(tlb.capacity(), 1);
        assert_eq!(Tlb::default().capacity(), 64);
    }
}
