//! An exact model of the column cache for candidates that tint every referenced page to
//! exactly one column.
//!
//! In the column cache, lookups search every column but fills go only to the columns a
//! page's tint allows (`ccache_sim::cache`). When every page a trace references is tinted
//! to one column, a line can only ever live in its page's column: the cache starts empty,
//! every fill for that page goes to the same column, and nothing re-tints during a
//! replay. Each column is then a private direct-mapped cache over its pages. With one
//! allowed column, every replacement policy evicts that column's line (an invalid way is
//! taken first, and otherwise it is the only candidate), so policy state never changes
//! an outcome and the model keeps none.
//!
//! Cycles are the charges `MemorySystem::access` makes: the hit latency per reference,
//! the miss penalty per miss, the writeback penalty per dirty eviction and the TLB-miss
//! penalty per TLB miss, with the compute model of [`CycleReport::from_stats`]. TLB
//! misses do not depend on the mapping — a fresh engine starts with an empty TLB — so
//! they are counted once per TLB size, with the simulator's own [`Tlb`].

use crate::evaluate::Fitness;
use ccache_core::{CacheMapping, RegionMapping};
use ccache_sim::{CycleReport, MemoryStats, PageTable, SystemConfig, Tlb};
use ccache_trace::{Trace, ADDRESS_LIMIT};
use std::collections::HashMap;

/// The write flag of a packed reference. Addresses lie below [`ADDRESS_LIMIT`] = 2^63,
/// so bit 63 is free.
const WRITE: u64 = ADDRESS_LIMIT;

/// The column-table entry of a page no region tints.
const UNTINTED: u8 = u8::MAX;

/// A trace packed for the model: 12 bytes per reference.
pub(crate) struct ColumnModel {
    /// Every reference's address, with the write flag in bit 63.
    refs: Vec<u64>,
    /// Every reference's page id.
    page_ids: Vec<u32>,
    /// The distinct referenced pages in ascending order, each with its id.
    pages: Vec<(u64, u32)>,
    /// `log2` of the page size the page ids were built for.
    page_shift: u32,
    /// TLB misses over the whole trace, per TLB size.
    tlb_misses: Vec<(usize, u64)>,
}

/// The state of one cache slot that holds a line.
#[derive(Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
}

impl ColumnModel {
    /// Packs `trace` for pages of `page_size` bytes and counts its TLB misses at every
    /// size in `tlb_sizes`. Returns `None` when the model cannot represent the trace: an
    /// invalid page size, or an address at or above [`ADDRESS_LIMIT`].
    pub(crate) fn new(trace: &Trace, page_size: u64, tlb_sizes: &[usize]) -> Option<Self> {
        let table = PageTable::new(page_size).ok()?;
        let page_shift = page_size.trailing_zeros();
        let mut ids: HashMap<u64, u32> = HashMap::new();
        let mut refs = Vec::with_capacity(trace.len());
        let mut page_ids = Vec::with_capacity(trace.len());
        for ev in trace {
            if ev.addr >= ADDRESS_LIMIT {
                return None;
            }
            refs.push(if ev.is_write() {
                ev.addr | WRITE
            } else {
                ev.addr
            });
            let next = u32::try_from(ids.len()).expect("fewer than 2^32 pages");
            page_ids.push(*ids.entry(ev.addr >> page_shift).or_insert(next));
        }
        let mut pages: Vec<(u64, u32)> = ids.into_iter().collect();
        pages.sort_unstable();

        let mut sizes = tlb_sizes.to_vec();
        sizes.sort_unstable();
        sizes.dedup();
        let tlb_misses = sizes
            .into_iter()
            .map(|entries| {
                let mut tlb = Tlb::new(entries);
                let misses = refs
                    .iter()
                    .filter(|&&r| !tlb.lookup(r & !WRITE, &table).1.is_hit())
                    .count();
                (entries, misses as u64)
            })
            .collect();
        Some(ColumnModel {
            refs,
            page_ids,
            pages,
            page_shift,
            tlb_misses,
        })
    }

    /// Scores a column-cache candidate, or returns `None` when its mapping is not one
    /// the model reproduces exactly. The model scores a candidate when every region is a
    /// [`RegionMapping::Columns`] with a one-column mask below the geometry's column
    /// count, there is no default mask, every referenced page is covered by a region (the
    /// last region covering a page wins, as in `tint_range`), and the geometry's page
    /// size and TLB size are the ones the trace was packed and counted for.
    pub(crate) fn score(&self, config: &SystemConfig, mapping: &CacheMapping) -> Option<Fitness> {
        if config.page_size != 1 << self.page_shift {
            return None;
        }
        let tlb_misses = self
            .tlb_misses
            .iter()
            .find(|&&(entries, _)| entries == config.tlb_entries)?
            .1;
        let page_columns = self.page_columns(mapping, config.cache.columns())?;
        Some(self.replay(config, &page_columns, tlb_misses))
    }

    /// The column of every referenced page, indexed by page id, or `None` when the
    /// mapping is not eligible.
    fn page_columns(&self, mapping: &CacheMapping, columns: usize) -> Option<Vec<u8>> {
        if mapping.default_mask.is_some() {
            return None;
        }
        let mut table = vec![UNTINTED; self.pages.len()];
        for (base, size, region) in &mapping.regions {
            let RegionMapping::Columns { mask } = region else {
                return None;
            };
            let column = mask.bits().trailing_zeros() as usize;
            if mask.count() != 1 || column >= columns {
                return None;
            }
            if *size == 0 {
                continue;
            }
            let first = base >> self.page_shift;
            let last = (base + size - 1) >> self.page_shift;
            let lo = self.pages.partition_point(|&(page, _)| page < first);
            let hi = self.pages.partition_point(|&(page, _)| page <= last);
            for &(_, id) in &self.pages[lo..hi] {
                table[id as usize] = column as u8;
            }
        }
        (!table.contains(&UNTINTED)).then_some(table)
    }

    /// Replays the packed trace through one direct-mapped cache per column.
    fn replay(&self, config: &SystemConfig, page_columns: &[u8], tlb_misses: u64) -> Fitness {
        let cache = &config.cache;
        let columns = cache.columns();
        // The address split of `ColumnCache`: offset, then set index, then tag.
        let line_shift = cache.line_size().trailing_zeros();
        let set_bits = cache.sets().trailing_zeros();
        let set_mask = (cache.sets() - 1) as u64;
        let mut slots: Vec<Option<Line>> = vec![None; cache.total_lines()];
        let (mut misses, mut writebacks) = (0u64, 0u64);
        for (&packed, &page) in self.refs.iter().zip(&self.page_ids) {
            let is_write = packed & WRITE != 0;
            let line = (packed & !WRITE) >> line_shift;
            let tag = line >> set_bits;
            let column = usize::from(page_columns[page as usize]);
            let slot = &mut slots[(line & set_mask) as usize * columns + column];
            match slot {
                Some(held) if held.tag == tag => held.dirty |= is_write,
                _ => {
                    misses += 1;
                    if slot.is_some_and(|held| held.dirty) {
                        writebacks += 1;
                    }
                    *slot = Some(Line {
                        tag,
                        dirty: is_write,
                    });
                }
            }
        }

        let references = self.refs.len() as u64;
        let latency = &config.latency;
        let stats = MemoryStats {
            references,
            memory_cycles: references * latency.hit_latency
                + misses * latency.miss_penalty
                + writebacks * latency.writeback_penalty
                + tlb_misses * latency.tlb_miss_penalty,
            tlb_hits: references - tlb_misses,
            tlb_misses,
            ..MemoryStats::default()
        };
        let report = CycleReport::from_stats(&stats, latency, 0, false);
        Fitness {
            misses,
            cycles: report.total_cycles(),
            references,
            miss_rate: if references == 0 {
                0.0
            } else {
                misses as f64 / references as f64
            },
        }
    }
}
