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
//! A split's heads are stored set-major: one [`Stream`] holds every set's heads in trace
//! order, set after set, behind `sets + 1` offsets. A head is one `u32` record that packs
//! its page id, its line within the page and its run's write flag, so scoring reads the
//! records and the candidate's column of each page id, and never the trace. Sets never
//! interact and each keeps its heads in trace order, so walking the sets in turn, each
//! with one slot per column, gives the misses and writebacks of a walk in trace order;
//! the walk takes two sets at a time to overlap their work. A split whose records do not
//! fit a `u32` is not modelled; its candidates replay on the engine.
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

/// The most references the model indexes: page ids and a stream's offsets are `u32`s.
const MAX_REFERENCES: usize = u32::MAX as usize;

/// The last line of a set no reference has touched yet. Addresses lie below
/// [`ADDRESS_LIMIT`] = 2^63, so no line number reaches it.
const NO_LINE: u64 = u64::MAX;

/// A slot that holds no line. Its line key, `EMPTY >> 1` = 2^31 − 1, lies above the key
/// of every record a modelled split packs, and its dirty bit is clear.
const EMPTY: u32 = u32::MAX - 1;

/// A trace indexed for the model: a `u32` page id per reference, plus one stream of run
/// heads per address split of the search space whose records fit a `u32`.
pub(crate) struct ColumnModel<'a> {
    /// The references, read when a split's stream is built.
    trace: &'a [MemAccess],
    /// Every reference's page id.
    page_ids: Vec<u32>,
    /// The distinct referenced pages in ascending order, each with its id.
    pages: Vec<(u64, u32)>,
    /// `log2` of the page size the page ids were built for.
    page_shift: u32,
    /// TLB misses over the whole trace, per TLB size.
    tlb_misses: Vec<(usize, u64)>,
    /// Every modelled split of the space with its run heads, built on the split's first
    /// use.
    streams: Vec<(Split, OnceLock<Stream>)>,
}

/// How a cache geometry splits an address: offset, then set index, then tag.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Split {
    /// `log2` of the line size.
    line_shift: u32,
    /// `log2` of the set count.
    set_bits: u32,
}

/// One split's run heads, set-major.
#[derive(Debug, PartialEq)]
struct Stream {
    /// Set `s`'s heads are `records[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    /// One record per head, each set's in trace order: the head's line key — its page id
    /// then its line within the page — shifted left by one, with the OR of its run's write
    /// flags in bit 0.
    records: Vec<u32>,
}

impl Split {
    /// The split `ColumnCache` makes under `cache`.
    fn of(cache: &CacheConfig) -> Self {
        Split {
            line_shift: cache.line_size().trailing_zeros(),
            set_bits: cache.sets().trailing_zeros(),
        }
    }

    /// `log2` of the lines in a page of `2^page_shift` bytes, or `None` when a line is
    /// larger than such a page.
    fn line_bits(self, page_shift: u32) -> Option<u32> {
        page_shift.checked_sub(self.line_shift)
    }

    /// Whether the records of `pages` pages of `2^page_shift` bytes fit a `u32`: every
    /// line key lies below [`EMPTY`]'s.
    fn packs(self, page_shift: u32, pages: usize) -> bool {
        self.line_bits(page_shift)
            .is_some_and(|bits| (pages as u128) << bits <= u128::from(EMPTY >> 1))
    }

    /// The run heads of `trace` under this split, whose references have the page ids
    /// `page_ids` of pages of `2^page_shift` bytes. Each head's record carries the OR of
    /// the write flags of its run. Sized exactly: one pass counts each set's heads, a
    /// second fills them. The split must pack those pages ([`Split::packs`]).
    fn stream(self, trace: &[MemAccess], page_ids: &[u32], page_shift: u32) -> Stream {
        let line_bits = self.line_bits(page_shift).expect("a line fits its page");
        let in_page_mask = (1u64 << line_bits) - 1;
        let sets = 1usize << self.set_bits;
        let set_mask = sets as u64 - 1;
        let locate = |ev: &MemAccess| {
            let line = ev.addr >> self.line_shift;
            (line, (line & set_mask) as usize)
        };

        let mut last_line = vec![NO_LINE; sets];
        let mut starts = vec![0u32; sets + 1];
        for ev in trace {
            let (line, set) = locate(ev);
            if std::mem::replace(&mut last_line[set], line) != line {
                starts[set + 1] += 1;
            }
        }
        for set in 0..sets {
            starts[set + 1] += starts[set];
        }

        // `next[s]` is where set `s`'s next head goes, so its current head is just before.
        last_line.fill(NO_LINE);
        let mut next = starts[..sets].to_vec();
        let mut records = vec![0u32; starts[sets] as usize];
        for (ev, &page) in trace.iter().zip(page_ids) {
            let (line, set) = locate(ev);
            let write = u32::from(ev.is_write());
            if last_line[set] == line {
                records[next[set] as usize - 1] |= write;
            } else {
                last_line[set] = line;
                let key = page << line_bits | (line & in_page_mask) as u32;
                records[next[set] as usize] = key << 1 | write;
                next[set] += 1;
            }
        }
        Stream { starts, records }
    }
}

/// One candidate's walk over a stream: its column for every page id, and the misses and
/// writebacks so far.
struct Walk<'p> {
    page_columns: &'p [u8],
    /// A record's page id is its bits from this one up.
    page_id_shift: u32,
    misses: u64,
    writebacks: u64,
}

impl Walk<'_> {
    /// Scores one head against its set's slots. A set's slots are indexed by column —
    /// any `u8` column indexes them — and each holds the record that filled its line,
    /// with the line's dirty bit in bit 0, or [`EMPTY`]. Whether a head hits follows no
    /// pattern, so the update has no branch.
    #[inline(always)]
    fn head(&mut self, slots: &mut [u32; 1 << u8::BITS], record: u32) {
        let column = self.page_columns[(record >> self.page_id_shift) as usize];
        let slot = &mut slots[usize::from(column)];
        let held = *slot;
        let hit = (held ^ record) >> 1 == 0;
        self.misses += u64::from(!hit);
        self.writebacks += u64::from(!hit & (held & 1 != 0));
        *slot = if hit { held | record } else { record };
    }
}

impl<'a> ColumnModel<'a> {
    /// Indexes `trace` for the geometries `configs` of a search space: page ids for the
    /// first geometry's page size, TLB misses at every TLB size, and an empty run stream
    /// per address split whose records fit a `u32`. Returns `None` when the model cannot
    /// represent the trace: no geometry, an invalid page size, more than
    /// [`MAX_REFERENCES`] references, or an address at or above [`ADDRESS_LIMIT`].
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
            if split.packs(page_shift, pages.len()) && !splits.contains(&split) {
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
        let stream =
            stream.get_or_init(|| split.stream(self.trace, &self.page_ids, self.page_shift));
        // A record's page id lies above its line bits and its write flag.
        let page_id_shift = self.page_shift - split.line_shift + 1;
        let fitness = self.replay(config, &page_columns, page_id_shift, stream, tlb_misses);
        Some((fitness, stream.records.len() as u64))
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

    /// Replays `stream` through one direct-mapped cache per column of the geometry and
    /// returns the fitness of the whole trace. Sets never interact, so the walk takes
    /// them two at a time and alternates between their heads: consecutive heads of one
    /// set that share a column form a chain, each waiting on the last one's slot update,
    /// and the other set's heads fill the wait.
    fn replay(
        &self,
        config: &SystemConfig,
        page_columns: &[u8],
        page_id_shift: u32,
        stream: &Stream,
        tlb_misses: u64,
    ) -> Fitness {
        let columns = config.cache.columns();
        let sets = stream.starts.len() - 1;
        let heads = |set: usize| {
            let range = stream.starts[set] as usize..stream.starts[set + 1] as usize;
            &stream.records[range]
        };
        let mut walk = Walk {
            page_columns,
            page_id_shift,
            misses: 0,
            writebacks: 0,
        };
        let [mut a, mut b] = [[EMPTY; 1 << u8::BITS]; 2];
        for first in (0..sets).step_by(2) {
            a[..columns].fill(EMPTY);
            b[..columns].fill(EMPTY);
            // Set counts are powers of two: only a single set has no partner.
            let (x, y) = (heads(first), if sets > 1 { heads(first + 1) } else { &[] });
            let both = x.len().min(y.len());
            for (&hx, &hy) in x[..both].iter().zip(&y[..both]) {
                walk.head(&mut a, hx);
                walk.head(&mut b, hy);
            }
            for &h in &x[both..] {
                walk.head(&mut a, h);
            }
            for &h in &y[both..] {
                walk.head(&mut b, h);
            }
        }
        let Walk {
            misses, writebacks, ..
        } = walk;

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

    /// A record: the head's page id and line within the page (`line_bits` wide), then its
    /// run's write flag in bit 0.
    fn record(page: u32, line_in_page: u32, line_bits: u32, write: bool) -> u32 {
        (page << line_bits | line_in_page) << 1 | u32::from(write)
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

    /// The page ids `ColumnModel::new` gives `refs` at pages of `2^page_shift` bytes:
    /// pages numbered in order of first reference.
    fn page_ids(refs: &[MemAccess], page_shift: u32) -> Vec<u32> {
        let mut pages: Vec<u64> = Vec::new();
        refs.iter()
            .map(|ev| {
                let page = ev.addr >> page_shift;
                let id = pages.iter().position(|&p| p == page).unwrap_or_else(|| {
                    pages.push(page);
                    pages.len() - 1
                });
                id as u32
            })
            .collect()
    }

    #[test]
    fn repeats_of_a_sets_last_line_fold_into_its_head_with_their_writes() {
        // 16-byte lines, 2 sets, 32-byte pages: lines 0 and 2 share set 0, line 1 is in
        // set 1. Page 0 holds lines 0 and 1, page 1 holds line 2; each has 2 lines.
        let refs = trace(&[
            (0x00, false), // set 0's first head: line 0
            (0x04, false), // folded into it
            (0x10, false), // set 1's head: line 1
            (0x08, true),  // folded into line 0's head: set 0 last saw line 0
            (0x20, false), // set 0's second head: line 2 evicts set 0's run
            (0x24, true),  // folded into it
            (0x00, false), // set 0's third head: line 0 again
            (0x10, false), // folded into set 1's head: set 1 last saw line 1
        ]);
        let stream = split(16, 2).stream(&refs, &page_ids(&refs, 5), 5);
        assert_eq!(
            stream,
            Stream {
                starts: vec![0, 3, 4],
                records: vec![
                    record(0, 0, 1, true),
                    record(1, 0, 1, true),
                    record(0, 0, 1, false),
                    record(0, 1, 1, false),
                ],
            }
        );
        assert_eq!(stream.starts.capacity(), stream.starts.len());
        assert_eq!(stream.records.capacity(), stream.records.len());
    }

    #[test]
    fn the_same_set_count_at_another_line_size_is_another_split() {
        // Lines of 16 bytes: 0x00 and 0x08 share line 0. Lines of 8 bytes: they do not,
        // and with one set every change of line starts a run.
        let refs = trace(&[(0x00, false), (0x08, false), (0x00, false), (0x08, false)]);
        let ids = page_ids(&refs, 6);
        let one_head = split(16, 1).stream(&refs, &ids, 6);
        assert_eq!(one_head.starts, [0, 1]);
        assert_eq!(one_head.records, [record(0, 0, 2, false)]);
        let every_reference = split(8, 1).stream(&refs, &ids, 6);
        assert_eq!(every_reference.starts, [0, 4]);
        let lines = [0, 1, 0, 1].map(|line| record(0, line, 3, false));
        assert_eq!(every_reference.records, lines);
    }

    #[test]
    fn a_split_packs_while_every_line_key_lies_below_an_empty_slots() {
        // One page of 2^30 one-byte lines: keys up to 2^30 − 1. Two such pages reach 2^31
        // − 1, the key of an empty slot.
        let bytes = split(1, 1);
        assert!(bytes.packs(30, 1));
        assert!(!bytes.packs(30, 2));
        assert!(bytes.packs(29, 3));
        assert!(!bytes.packs(29, 4));
        // Pages of 256 MiB in 1-byte lines, 64 of them: 2^34 line keys.
        assert!(!bytes.packs(28, 64));
        // A line larger than the page has no line within it.
        assert!(!split(64, 1).packs(5, 1));
    }
}
