//! A small fully-associative TLB that caches page-table entries (including tints).
//!
//! The TLB is the hardware structure that delivers the column-mapping information to the
//! replacement unit on every reference (Section 2.1). Re-tinting a page therefore requires
//! flushing that page's TLB entry; [`MemorySystem`](crate::MemorySystem) counts the
//! lookups and flushes in its [`MemoryStats`](crate::MemoryStats).

use crate::page_table::{PageEntry, PageTable};

/// Bits of the slot-hint bucket index.
const HINT_BITS: u32 = 6;
/// Buckets of the slot hint.
const HINTS: usize = 1 << HINT_BITS;
/// Fibonacci-hashing multiplier (2^64 / golden ratio) that spreads page numbers over the
/// hint buckets.
const HINT_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TlbSlot {
    vpn: u64,
    entry: PageEntry,
    last_use: u64,
}

/// A fully-associative, LRU-replaced translation-look-aside buffer.
///
/// A direct-mapped hint per bucket of 64 remembers the slot that last held a page of that
/// bucket, so a lookup usually finds its page without scanning. The bucket is the top 6
/// bits of the page number times a Fibonacci-hashing constant, not `vpn % 64`: jobs at
/// widely aligned bases (Figure 5's gzip jobs sit 16 MiB apart) would otherwise put page
/// p of every job in one bucket and scan on most lookups. The hint only chooses where to
/// look first: it counts when that slot holds the page, and a stale hint falls back to
/// the scan. Resident pages are unique, so both find the same slot, and hits, misses and
/// LRU victims are those of the plain fully-associative TLB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    capacity: usize,
    slots: Vec<TlbSlot>,
    clock: u64,
    hints: [usize; HINTS],
}

impl Tlb {
    /// Creates an empty TLB with room for `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        Tlb {
            capacity: capacity.max(1),
            slots: Vec::new(),
            clock: 0,
            hints: [0; HINTS],
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

    /// Returns the TLB to its just-constructed state: no resident entries, clock and
    /// hints zeroed. This is not a modelled hardware operation — nothing is counted —
    /// which is what a backend reset to pristine state needs.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.clock = 0;
        self.hints = [0; HINTS];
    }

    /// Looks up the page containing `addr`, filling from `page_table` on a miss.
    ///
    /// Returns the page entry and whether the lookup hit in the TLB.
    #[inline]
    pub fn lookup(&mut self, addr: u64, page_table: &PageTable) -> (PageEntry, bool) {
        self.clock += 1;
        let vpn = page_table.page_of(addr);
        let bucket = (vpn.wrapping_mul(HINT_MULTIPLIER) >> (u64::BITS - HINT_BITS)) as usize;
        if let Some(slot) = self.slots.get_mut(self.hints[bucket]) {
            if slot.vpn == vpn {
                slot.last_use = self.clock;
                return (slot.entry, true);
            }
        }
        self.scan(vpn, bucket, page_table)
    }

    /// [`Tlb::lookup`] past a missing or stale hint: the fully associative scan, an LRU
    /// fill on a miss, and the hint update.
    fn scan(&mut self, vpn: u64, bucket: usize, page_table: &PageTable) -> (PageEntry, bool) {
        let (entry, hit, idx) = if let Some(idx) = self.slots.iter().position(|s| s.vpn == vpn) {
            let slot = &mut self.slots[idx];
            slot.last_use = self.clock;
            (slot.entry, true, idx)
        } else {
            let fill = TlbSlot {
                vpn,
                entry: page_table.entry(vpn),
                last_use: self.clock,
            };
            let idx = if self.slots.len() < self.capacity {
                self.slots.push(fill);
                self.slots.len() - 1
            } else {
                // `last_use` values are distinct (the clock ticks once per lookup), so
                // the LRU victim is unique.
                let idx = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_use)
                    .expect("capacity >= 1")
                    .0;
                self.slots[idx] = fill;
                idx
            };
            (fill.entry, false, idx)
        };
        self.hints[bucket] = idx;
        (entry, hit)
    }

    /// Returns `true` if the TLB currently holds a translation for page `vpn`.
    pub fn contains(&self, vpn: u64) -> bool {
        self.slots.iter().any(|s| s.vpn == vpn)
    }

    /// Invalidates the entries of all listed pages. Returns how many were dropped.
    pub fn flush_pages(&mut self, vpns: &[u64]) -> usize {
        let before = self.slots.len();
        self.slots.retain(|s| !vpns.contains(&s.vpn));
        before - self.slots.len()
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
        tlb.flush_pages(&[1]);
        let (e, hit) = tlb.lookup(0x1000, &table);
        assert!(!hit);
        assert_eq!(e.tint, Tint(5));
    }

    #[test]
    fn flush_pages_counts_dropped_entries() {
        let mut tlb = Tlb::new(8);
        let pt = pt();
        for p in 0..4u64 {
            tlb.lookup(p * 4096, &pt);
        }
        assert_eq!(tlb.flush_pages(&[0, 2, 99]), 2);
        assert_eq!(tlb.len(), 2);
        // The flush shifted the survivors' slots; their stale hints fall back to the scan.
        assert!(tlb.lookup(3 * 4096, &pt).1);
        assert!(!tlb.lookup(0, &pt).1);
        tlb.clear();
        assert_eq!(tlb, Tlb::new(8));
    }

    #[test]
    fn capacity_is_at_least_one() {
        let tlb = Tlb::new(0);
        assert_eq!(tlb.capacity(), 1);
        assert_eq!(Tlb::default().capacity(), 64);
    }
}
