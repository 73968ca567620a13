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
//! The model walks each address split's *run heads*, not every reference. A reference
//! whose line is the last line its set saw can only hit: the line lies in one page, so
//! under any eligible candidate it has one column and one slot for the whole replay, and
//! no other reference to that set came in between. It changes nothing but the slot's
//! dirty bit, so it is folded into its set's current run head, whose write flag it ORs
//! into its own. Scoring every head with its run's write flag gives the same misses and
//! writebacks as scoring every reference. The runs depend only on the line size and the
//! set count, never on the mapping, so each split's heads are found once per model, on
//! the split's first use.
//!
//! Cycles are the charges `MemorySystem::access` makes: the hit latency per reference,
//! the miss penalty per miss, the writeback penalty per dirty eviction and the TLB-miss
//! penalty per TLB miss, with the compute model of [`CycleReport::from_stats`]. TLB
//! misses do not depend on the mapping — a fresh engine starts with an empty TLB — so
//! they are counted once per TLB size, with the simulator's own [`Tlb`].

use crate::evaluate::Fitness;
use ccache_core::{CacheMapping, RegionMapping};
use ccache_sim::{CacheConfig, CycleReport, MemoryStats, PageTable, SystemConfig, Tlb};
use ccache_trace::{MemAccess, Trace, ADDRESS_LIMIT};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The column-table entry of a page no region tints.
const UNTINTED: u8 = u8::MAX;

/// The most references the model indexes. A run head is stored as its reference's index
/// shifted left by one, with the run's write flag in bit 0, in a `u32`.
const MAX_REFERENCES: usize = 1 << 31;

/// The last line of a set no reference has touched yet. Addresses lie below
/// [`ADDRESS_LIMIT`] = 2^63, so no line number reaches it.
const NO_LINE: u64 = u64::MAX;

/// A trace indexed for the model: a `u32` page id per reference, plus one stream of run
/// heads per address split of the search space.
pub(crate) struct ColumnModel<'a> {
    /// The references, read in place.
    trace: &'a [MemAccess],
    /// Every reference's page id.
    page_ids: Vec<u32>,
    /// The distinct referenced pages in ascending order, each with its id.
    pages: Vec<(u64, u32)>,
    /// `log2` of the page size the page ids were built for.
    page_shift: u32,
    /// TLB misses over the whole trace, per TLB size.
    tlb_misses: Vec<(usize, u64)>,
    /// Every split of the space with its run heads, built on the split's first use.
    streams: Vec<(Split, OnceLock<Vec<u32>>)>,
}

/// How a cache geometry splits an address: offset, then set index, then tag.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Split {
    /// `log2` of the line size.
    line_shift: u32,
    /// `log2` of the set count.
    set_bits: u32,
}

impl Split {
    /// The split `ColumnCache` makes under `cache`.
    fn of(cache: &CacheConfig) -> Self {
        Split {
            line_shift: cache.line_size().trailing_zeros(),
            set_bits: cache.sets().trailing_zeros(),
        }
    }

    /// The run heads of `trace` under this split, in trace order, each as
    /// `index << 1 | write` where `write` is the OR of the write flags of its run. Sized
    /// exactly: one pass counts the heads, a second fills them.
    fn runs(self, trace: &[MemAccess]) -> Vec<u32> {
        let set_mask = (1u64 << self.set_bits) - 1;
        let locate = |ev: &MemAccess| {
            let line = ev.addr >> self.line_shift;
            (line, (line & set_mask) as usize)
        };
        let mut last_line = vec![NO_LINE; 1 << self.set_bits];
        let heads = trace
            .iter()
            .filter(|ev| {
                let (line, set) = locate(ev);
                std::mem::replace(&mut last_line[set], line) != line
            })
            .count();

        last_line.fill(NO_LINE);
        let mut run_of_set = vec![0u32; last_line.len()];
        let mut stream = Vec::with_capacity(heads);
        for (index, ev) in trace.iter().enumerate() {
            let (line, set) = locate(ev);
            let write = u32::from(ev.is_write());
            if last_line[set] == line {
                stream[run_of_set[set] as usize] |= write;
            } else {
                last_line[set] = line;
                run_of_set[set] = stream.len() as u32;
                stream.push((index as u32) << 1 | write);
            }
        }
        stream
    }
}

/// The state of one cache slot that holds a line.
#[derive(Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
}

impl<'a> ColumnModel<'a> {
    /// Indexes `trace` for the geometries `configs` of a search space: page ids for the
    /// first geometry's page size, TLB misses at every TLB size, and an empty run stream
    /// per address split. Returns `None` when the model cannot represent the trace: no
    /// geometry, an invalid page size, more than [`MAX_REFERENCES`] references, or an
    /// address at or above [`ADDRESS_LIMIT`].
    pub(crate) fn new(trace: &'a Trace, configs: &[SystemConfig]) -> Option<Self> {
        let page_size = configs.first()?.page_size;
        let table = PageTable::new(page_size).ok()?;
        let page_shift = page_size.trailing_zeros();
        let trace = trace.as_slice();
        if trace.len() > MAX_REFERENCES {
            return None;
        }
        let mut ids: HashMap<u64, u32> = HashMap::new();
        let mut page_ids = Vec::with_capacity(trace.len());
        for ev in trace {
            if ev.addr >= ADDRESS_LIMIT {
                return None;
            }
            let next = u32::try_from(ids.len()).expect("fewer than 2^32 pages");
            page_ids.push(*ids.entry(ev.addr >> page_shift).or_insert(next));
        }
        let mut pages: Vec<(u64, u32)> = ids.into_iter().collect();
        pages.sort_unstable();

        let mut sizes: Vec<usize> = configs.iter().map(|c| c.tlb_entries).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let tlb_misses = sizes
            .into_iter()
            .map(|entries| {
                let mut tlb = Tlb::new(entries);
                let misses = trace
                    .iter()
                    .filter(|ev| !tlb.lookup(ev.addr, &table).1.is_hit())
                    .count();
                (entries, misses as u64)
            })
            .collect();

        let mut splits: Vec<Split> = Vec::new();
        for config in configs {
            let split = Split::of(&config.cache);
            if !splits.contains(&split) {
                splits.push(split);
            }
        }
        Some(ColumnModel {
            trace,
            page_ids,
            pages,
            page_shift,
            tlb_misses,
            streams: splits.into_iter().map(|s| (s, OnceLock::new())).collect(),
        })
    }

    /// Scores a column-cache candidate and returns its fitness with the number of run
    /// heads the model walked, or returns `None` when the candidate is not one the model
    /// reproduces exactly. The model scores a candidate when every region is a
    /// [`RegionMapping::Columns`] with a one-column mask below the geometry's column
    /// count, there is no default mask, every referenced page is covered by a region (the
    /// last region covering a page wins, as in `tint_range`), and the geometry's page
    /// size, TLB size and address split are ones the trace was indexed for.
    pub(crate) fn score(
        &self,
        config: &SystemConfig,
        mapping: &CacheMapping,
    ) -> Option<(Fitness, u64)> {
        if config.page_size != 1 << self.page_shift {
            return None;
        }
        let tlb_misses = self
            .tlb_misses
            .iter()
            .find(|&&(entries, _)| entries == config.tlb_entries)?
            .1;
        let split = Split::of(&config.cache);
        let (_, stream) = self.streams.iter().find(|(s, _)| *s == split)?;
        let page_columns = self.page_columns(mapping, config.cache.columns())?;
        let heads = stream.get_or_init(|| split.runs(self.trace));
        let fitness = self.replay(config, &page_columns, heads, tlb_misses);
        Some((fitness, heads.len() as u64))
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

    /// Replays the run heads `heads` through one direct-mapped cache per column of the
    /// geometry and returns the fitness of the whole trace.
    fn replay(
        &self,
        config: &SystemConfig,
        page_columns: &[u8],
        heads: &[u32],
        tlb_misses: u64,
    ) -> Fitness {
        let cache = &config.cache;
        let columns = cache.columns();
        let Split {
            line_shift,
            set_bits,
        } = Split::of(cache);
        let set_mask = (cache.sets() - 1) as u64;
        let mut slots: Vec<Option<Line>> = vec![None; cache.total_lines()];
        let (mut misses, mut writebacks) = (0u64, 0u64);
        for &head in heads {
            let index = (head >> 1) as usize;
            let is_write = head & 1 != 0;
            let line = self.trace[index].addr >> line_shift;
            let tag = line >> set_bits;
            let column = usize::from(page_columns[self.page_ids[index] as usize]);
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

        let references = self.trace.len() as u64;
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
        let report = CycleReport::from_stats(&stats, latency);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn split(line: u64, sets: u64) -> Split {
        Split {
            line_shift: line.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
        }
    }

    /// A stream entry: the head's index, and its run's write flag in bit 0.
    fn head(index: u32, write: bool) -> u32 {
        index << 1 | u32::from(write)
    }

    fn trace(refs: &[(u64, bool)]) -> Vec<MemAccess> {
        refs.iter()
            .map(|&(addr, write)| {
                if write {
                    MemAccess::write(addr, 4)
                } else {
                    MemAccess::read(addr, 4)
                }
            })
            .collect()
    }

    #[test]
    fn repeats_of_a_sets_last_line_fold_into_its_head_with_their_writes() {
        // 16-byte lines, 2 sets: lines 0 and 2 share set 0, line 1 is in set 1.
        let refs = trace(&[
            (0x00, false), // head 0: line 0
            (0x04, false), // folded into head 0
            (0x10, false), // head 2: line 1, set 1
            (0x08, true),  // folded into head 0: set 0 last saw line 0
            (0x20, false), // head 4: line 2 evicts set 0's run
            (0x24, true),  // folded into head 4
            (0x00, false), // head 6: line 0 again
            (0x10, false), // folded into head 2: set 1 last saw line 1
        ]);
        let stream = split(16, 2).runs(&refs);
        assert_eq!(
            stream,
            [head(0, true), head(2, false), head(4, true), head(6, false)]
        );
        assert_eq!(stream.capacity(), stream.len());
    }

    #[test]
    fn the_same_set_count_at_another_line_size_is_another_split() {
        // Lines of 16 bytes: 0x00 and 0x08 share line 0. Lines of 8 bytes: they do not,
        // and with one set every change of line starts a run.
        let refs = trace(&[(0x00, false), (0x08, false), (0x00, false), (0x08, false)]);
        assert_eq!(split(16, 1).runs(&refs), [head(0, false)]);
        let every_reference: Vec<u32> = (0..4).map(|index| head(index, false)).collect();
        assert_eq!(split(8, 1).runs(&refs), every_reference);
    }
}
