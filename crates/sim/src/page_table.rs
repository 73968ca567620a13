//! Page table carrying per-page tint and cacheability information.
//!
//! Column-cache mapping information lives in the page table so the existing virtual-memory
//! machinery (page table + TLB) can deliver it to the replacement unit (Section 2.2). The
//! minimum mapping granularity is therefore one page.

use crate::error::SimError;
use crate::tint::Tint;
use std::collections::BTreeMap;
use std::ops::Range;

/// Per-page attributes relevant to the column cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// The page's tint (resolved to a column mask through the tint table).
    pub tint: Tint,
    /// Whether accesses to the page may be cached at all.
    pub cacheable: bool,
}

impl Default for PageEntry {
    fn default() -> Self {
        PageEntry {
            tint: Tint::DEFAULT,
            cacheable: true,
        }
    }
}

/// A sparse page table: pages not explicitly configured use [`PageEntry::default`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageTable {
    /// log2 of the page size.
    page_shift: u32,
    entries: BTreeMap<u64, PageEntry>,
    /// Number of page-table-entry writes performed (each re-tinted page costs one).
    pub entry_writes: u64,
}

impl PageTable {
    /// Creates a page table with the given page size (power of two).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadSize`] if `page_size` is zero or not a power of two.
    pub fn new(page_size: u64) -> Result<Self, SimError> {
        if page_size == 0 || !page_size.is_power_of_two() {
            return Err(SimError::BadSize {
                what: "page size",
                value: page_size,
            });
        }
        Ok(PageTable {
            page_shift: page_size.trailing_zeros(),
            entries: BTreeMap::new(),
            entry_writes: 0,
        })
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> u64 {
        1 << self.page_shift
    }

    /// Virtual page number of an address.
    #[inline]
    pub fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Returns the entry of the page containing `addr` (default if unconfigured).
    pub fn entry_for_addr(&self, addr: u64) -> PageEntry {
        self.entry(self.page_of(addr))
    }

    /// Returns the entry of virtual page `vpn` (default if unconfigured).
    pub fn entry(&self, vpn: u64) -> PageEntry {
        self.entries.get(&vpn).copied().unwrap_or_default()
    }

    /// Sets the tint of a single page. Returns the previous entry.
    pub fn set_page_tint(&mut self, vpn: u64, tint: Tint) -> PageEntry {
        let prev = self.entry(vpn);
        self.entries.insert(vpn, PageEntry { tint, ..prev });
        self.entry_writes += 1;
        prev
    }

    /// Sets the cacheability of a single page. Returns the previous entry.
    pub fn set_page_cacheable(&mut self, vpn: u64, cacheable: bool) -> PageEntry {
        let prev = self.entry(vpn);
        self.entries.insert(vpn, PageEntry { cacheable, ..prev });
        self.entry_writes += 1;
        prev
    }

    /// Sets the tint of every page overlapping the byte range. Returns the page numbers
    /// whose entry actually changed (these are the TLB entries that must be flushed).
    pub fn tint_range(&mut self, range: Range<u64>, tint: Tint) -> Vec<u64> {
        let mut changed = Vec::new();
        for vpn in self.pages_in(range) {
            if self.entry(vpn).tint != tint {
                self.set_page_tint(vpn, tint);
                changed.push(vpn);
            }
        }
        changed
    }

    /// Marks every page overlapping the byte range cacheable or uncacheable. Returns the
    /// page numbers whose entry changed.
    pub fn set_cacheable_range(&mut self, range: Range<u64>, cacheable: bool) -> Vec<u64> {
        let mut changed = Vec::new();
        for vpn in self.pages_in(range) {
            if self.entry(vpn).cacheable != cacheable {
                self.set_page_cacheable(vpn, cacheable);
                changed.push(vpn);
            }
        }
        changed
    }

    /// The page numbers overlapping a byte range.
    pub fn pages_in(&self, range: Range<u64>) -> Vec<u64> {
        if range.is_empty() {
            return Vec::new();
        }
        let first = self.page_of(range.start);
        let last = self.page_of(range.end - 1);
        (first..=last).collect()
    }

    /// Drops every explicit entry and zeroes the write counter, returning the table to
    /// its just-constructed state (same page size). Part of
    /// [`MemorySystem::full_reset`](crate::MemorySystem::full_reset); unlike the `set_*`
    /// operations it costs no modelled writes.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.entry_writes = 0;
    }

    /// Number of pages with an explicit (non-default) entry.
    pub fn configured_pages(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over explicitly configured `(vpn, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, PageEntry)> + '_ {
        self.entries.iter().map(|(v, e)| (*v, *e))
    }
}

impl Default for PageTable {
    /// A page table with 4 KiB pages.
    fn default() -> Self {
        PageTable::new(4096).expect("4 KiB pages are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_page_size() {
        assert!(PageTable::new(0).is_err());
        assert!(PageTable::new(3000).is_err());
        assert!(PageTable::new(4096).is_ok());
    }

    #[test]
    fn default_entry_is_cacheable_default_tint() {
        let pt = PageTable::default();
        let e = pt.entry_for_addr(0x1234_5678);
        assert_eq!(e.tint, Tint::DEFAULT);
        assert!(e.cacheable);
        assert_eq!(pt.configured_pages(), 0);
    }

    #[test]
    fn page_of_uses_page_size() {
        let pt = PageTable::new(1024).unwrap();
        assert_eq!(pt.page_of(0), 0);
        assert_eq!(pt.page_of(1023), 0);
        assert_eq!(pt.page_of(1024), 1);
        assert_eq!(pt.page_size(), 1024);
    }

    #[test]
    fn tint_range_touches_every_overlapping_page() {
        let mut pt = PageTable::new(1024).unwrap();
        let changed = pt.tint_range(1000..3000, Tint(2));
        // pages 0, 1, 2 overlap [1000, 3000)
        assert_eq!(changed, vec![0, 1, 2]);
        assert_eq!(pt.entry(0).tint, Tint(2));
        assert_eq!(pt.entry(2).tint, Tint(2));
        assert_eq!(pt.entry(3).tint, Tint::DEFAULT);
        assert_eq!(pt.configured_pages(), 3);
        assert_eq!(pt.entry_writes, 3);
    }

    #[test]
    fn tint_range_reports_only_changes() {
        let mut pt = PageTable::new(1024).unwrap();
        pt.tint_range(0..2048, Tint(1));
        let changed = pt.tint_range(0..2048, Tint(1));
        assert!(changed.is_empty());
        let changed = pt.tint_range(0..1024, Tint(2));
        assert_eq!(changed, vec![0]);
    }

    #[test]
    fn empty_range_changes_nothing() {
        let mut pt = PageTable::default();
        assert!(pt.tint_range(100..100, Tint(1)).is_empty());
        assert!(pt.pages_in(5..5).is_empty());
    }

    #[test]
    fn cacheability_is_per_page() {
        let mut pt = PageTable::new(4096).unwrap();
        pt.set_cacheable_range(0..4096, false);
        assert!(!pt.entry_for_addr(100).cacheable);
        assert!(pt.entry_for_addr(4096).cacheable);
        // tint preserved across cacheability change
        pt.set_page_tint(0, Tint(3));
        pt.set_page_cacheable(0, true);
        assert_eq!(pt.entry(0).tint, Tint(3));
        assert!(pt.entry(0).cacheable);
    }

    #[test]
    fn iter_lists_configured_pages() {
        let mut pt = PageTable::new(4096).unwrap();
        pt.set_page_tint(7, Tint(1));
        pt.set_page_tint(3, Tint(2));
        let v: Vec<_> = pt.iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].0, 3); // sorted by vpn
    }
}
