//! Property-based tests of the cache simulator's core invariants.

use ccache_sim::cache::{AccessOutcome, Eviction};
use ccache_sim::prelude::*;
use ccache_sim::replacement::ReplacementState;
use ccache_sim::{CacheConfig, ColumnCache, PageEntry, PageTable, Tint, TintTable, Tlb};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A straight transcription of the pre-rewrite array-of-structs cache: one struct per
/// line, linear `position` probe, validity gathered per miss. The struct-of-arrays
/// [`ColumnCache`] must be observationally identical to this model — same outcome for
/// every access, same eviction (address, dirtiness, column), same counters — for every
/// geometry, mask and policy. The model shares only [`ReplacementState`] with the real
/// cache; `replacement_state_matches_the_per_set_reference_model` checks that against
/// [`ReferenceSetState`].
struct ReferenceCache {
    config: CacheConfig,
    lines: Vec<RefLine>,
    repl: ReplacementState,
}

#[derive(Clone, Copy, Default)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let cols = config.columns();
        ReferenceCache {
            config,
            lines: vec![RefLine::default(); sets * cols],
            repl: ReplacementState::new(config.replacement(), sets, cols),
        }
    }

    fn access(&mut self, addr: u64, is_write: bool, mask: ColumnMask) -> AccessOutcome {
        let cols = self.config.columns();
        let (tag, set, _) = self.config.split_addr(addr);
        let base = set * cols;
        let row = &mut self.lines[base..base + cols];
        if let Some(way) = row.iter().position(|l| l.valid && l.tag == tag) {
            self.repl.on_access(set, way);
            if is_write {
                row[way].dirty = true;
            }
            return AccessOutcome::Hit { column: way };
        }
        let valid_bits = row
            .iter()
            .enumerate()
            .fold(0u64, |acc, (w, l)| acc | (u64::from(l.valid) << w));
        let Some(way) = self.repl.victim(set, mask.truncate(cols), valid_bits) else {
            return AccessOutcome::Bypass;
        };
        let evicted = row[way].valid.then(|| Eviction {
            line_addr: self.config.line_addr(row[way].tag, set),
            dirty: row[way].dirty,
            column: way,
        });
        row[way] = RefLine {
            tag,
            valid: true,
            dirty: is_write,
        };
        self.repl.on_fill(set, way);
        AccessOutcome::Miss {
            column: way,
            evicted,
        }
    }

    /// Drops every line; returns how many were valid and dirty.
    fn flush(&mut self) -> u64 {
        let dirty = self.lines.iter().filter(|l| l.valid && l.dirty).count();
        for line in &mut self.lines {
            line.valid = false;
            line.dirty = false;
        }
        dirty as u64
    }

    /// `(set, column, line address)` of every valid line, in set-then-column order.
    fn valid_line_addrs(&self) -> Vec<(usize, usize, u64)> {
        let cols = self.config.columns();
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.valid)
            .map(|(i, l)| (i / cols, i % cols, self.config.line_addr(l.tag, i / cols)))
            .collect()
    }
}

/// A transcription of the per-set replacement state the one-table [`ReplacementState`]
/// replaced: three per-way vectors, a clock, a round-robin pointer and an rng per set,
/// with set `i` seeded `i + 1`. Victims are chosen by scanning the ways in ascending
/// order rather than by mask arithmetic.
struct ReferenceSetState {
    policy: ReplacementPolicy,
    /// Last-use time per way (LRU).
    use_stamp: Vec<u64>,
    /// Fill time per way (FIFO).
    fill_stamp: Vec<u64>,
    /// "Recently used" bit per way (bit-PLRU).
    mru_bit: Vec<bool>,
    clock: u64,
    next_rr: usize,
    rng: u64,
}

impl ReferenceSetState {
    fn new(policy: ReplacementPolicy, ways: usize, seed: u64) -> Self {
        ReferenceSetState {
            policy,
            use_stamp: vec![0; ways],
            fill_stamp: vec![0; ways],
            mru_bit: vec![false; ways],
            clock: 0,
            next_rr: 0,
            rng: seed | 1,
        }
    }

    /// One state per set, set `i` seeded `i + 1`.
    fn per_set(policy: ReplacementPolicy, sets: usize, ways: usize) -> Vec<Self> {
        (0..sets)
            .map(|i| ReferenceSetState::new(policy, ways, i as u64 + 1))
            .collect()
    }

    fn on_access(&mut self, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru => {
                self.clock += 1;
                self.use_stamp[way] = self.clock;
            }
            ReplacementPolicy::BitPlru => self.touch_plru(way),
            _ => {}
        }
    }

    fn on_fill(&mut self, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru => {
                self.clock += 1;
                self.use_stamp[way] = self.clock;
            }
            ReplacementPolicy::Fifo => {
                self.clock += 1;
                self.fill_stamp[way] = self.clock;
            }
            ReplacementPolicy::BitPlru => self.touch_plru(way),
            _ => {}
        }
    }

    fn touch_plru(&mut self, way: usize) {
        self.mru_bit[way] = true;
        if self.mru_bit.iter().all(|&b| b) {
            for (i, b) in self.mru_bit.iter_mut().enumerate() {
                *b = i == way;
            }
        }
    }

    fn victim(&mut self, allowed: ColumnMask, valid: u64) -> Option<usize> {
        let ways = self.use_stamp.len();
        let candidates: Vec<usize> = (0..ways).filter(|&w| allowed.contains(w)).collect();
        let lowest = *candidates.first()?;
        if let Some(&empty) = candidates.iter().find(|&&w| valid & (1 << w) == 0) {
            return Some(empty);
        }
        let oldest = |stamps: &[u64]| *candidates.iter().min_by_key(|&&w| stamps[w]).unwrap();
        Some(match self.policy {
            ReplacementPolicy::Lru => oldest(&self.use_stamp),
            ReplacementPolicy::Fifo => oldest(&self.fill_stamp),
            ReplacementPolicy::BitPlru => candidates
                .iter()
                .copied()
                .find(|&w| !self.mru_bit[w])
                .unwrap_or(lowest),
            ReplacementPolicy::RoundRobin => {
                let w = candidates
                    .iter()
                    .copied()
                    .find(|&w| w >= self.next_rr)
                    .unwrap_or(lowest);
                self.next_rr = (w + 1) % ways;
                w
            }
            _ => {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                candidates[(self.rng % candidates.len() as u64) as usize]
            }
        })
    }
}

/// A transcription of the scan-only LRU TLB the hinted [`Tlb`] replaced: a linear
/// `position` scan per lookup, and on a miss a fill into a free slot or over the slot
/// with the smallest `last_use`.
struct ReferenceTlb {
    capacity: usize,
    /// `(vpn, entry, last_use)` per resident page.
    slots: Vec<(u64, PageEntry, u64)>,
    clock: u64,
}

impl ReferenceTlb {
    fn new(capacity: usize) -> Self {
        ReferenceTlb {
            capacity: capacity.max(1),
            slots: Vec::new(),
            clock: 0,
        }
    }

    fn lookup(&mut self, addr: u64, page_table: &PageTable) -> (PageEntry, bool) {
        self.clock += 1;
        let vpn = page_table.page_of(addr);
        if let Some(slot) = self.slots.iter_mut().find(|s| s.0 == vpn) {
            slot.2 = self.clock;
            return (slot.1, true);
        }
        let fill = (vpn, page_table.entry(vpn), self.clock);
        if self.slots.len() < self.capacity {
            self.slots.push(fill);
        } else {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.2)
                .expect("capacity >= 1")
                .0;
            self.slots[victim] = fill;
        }
        (fill.1, false)
    }

    fn flush_pages(&mut self, vpns: &[u64]) -> usize {
        let before = self.slots.len();
        self.slots.retain(|s| !vpns.contains(&s.0));
        before - self.slots.len()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.clock = 0;
    }
}

/// A transcription of the `BTreeMap` tint table the dense [`TintTable`] replaced.
struct ReferenceTints {
    columns: usize,
    map: BTreeMap<Tint, ColumnMask>,
    remaps: u64,
}

impl ReferenceTints {
    fn new(columns: usize) -> Self {
        ReferenceTints {
            columns,
            map: BTreeMap::from([(Tint::DEFAULT, ColumnMask::all(columns))]),
            remaps: 0,
        }
    }

    fn define(&mut self, tint: Tint, mask: ColumnMask) -> Result<(), SimError> {
        mask.validate(self.columns)?;
        self.map.insert(tint, mask);
        self.remaps += 1;
        Ok(())
    }

    fn mask_or_default(&self, tint: Tint) -> ColumnMask {
        self.map
            .get(&tint)
            .or_else(|| self.map.get(&Tint::DEFAULT))
            .copied()
            .unwrap_or_else(|| ColumnMask::all(self.columns))
    }

    fn make_exclusive(&mut self, owner: Tint, mask: ColumnMask) -> Result<Vec<Tint>, SimError> {
        mask.validate(self.columns)?;
        self.map.insert(owner, mask);
        self.remaps += 1;
        let mut skipped = Vec::new();
        let keys: Vec<Tint> = self.map.keys().copied().collect();
        for t in keys {
            if t == owner {
                continue;
            }
            let cur = self.map[&t];
            let reduced = cur & !mask;
            if reduced.is_empty() {
                skipped.push(t);
            } else if reduced != cur {
                self.map.insert(t, reduced);
                self.remaps += 1;
            }
        }
        Ok(skipped)
    }

    fn reset(&mut self) {
        *self = ReferenceTints::new(self.columns);
    }
}

/// Valid geometries to sweep: (capacity, columns, line size). Each yields a
/// power-of-two set count, from 1-way × 64 sets up to 8-way × 8 sets.
const GEOMETRIES: [(u64, usize, u64); 6] = [
    (1024, 1, 16),
    (1024, 2, 32),
    (2048, 4, 32),
    (4096, 8, 64),
    (2048, 8, 16),
    (4096, 4, 16),
];

/// Geometries of 16, 32 and 64 columns (16, 8 and 4 sets), to run the way hint at every
/// width a column mask allows.
const WIDE_GEOMETRIES: [(u64, usize, u64); 3] = [(4096, 16, 16), (4096, 32, 16), (4096, 64, 16)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the access pattern, a line that was just filled is found by `probe` in a
    /// column permitted by the mask that filled it.
    #[test]
    fn filled_lines_are_probeable_in_an_allowed_column(
        ops in prop::collection::vec((0u64..0x20_000, prop::collection::vec(0usize..4, 1..4)), 1..300)
    ) {
        let mut cache = ColumnCache::new(CacheConfig::default());
        for (addr, cols) in ops {
            let mask = ColumnMask::from_columns(cols.iter().copied());
            cache.access(addr, false, mask);
            let col = cache.probe(addr).expect("just-filled line must be present");
            // The line may have been found (hit) in a column outside today's mask if it
            // was filled earlier under a different mask; re-filling never moves it. So we
            // only require that *some* column holds it and occupancy stays bounded.
            prop_assert!(col < 4);
        }
    }

    /// The replacement unit never selects a victim outside the allowed mask, for every
    /// policy.
    #[test]
    fn victims_always_respect_the_mask(
        policy_idx in 0usize..5,
        accesses in prop::collection::vec(0usize..8, 0..64),
        allowed in prop::collection::vec(0usize..8, 1..8),
        valid_bits in prop::collection::vec(any::<bool>(), 8),
    ) {
        let policy = ReplacementPolicy::ALL[policy_idx];
        let mut st = ReplacementState::new(policy, 1, 8);
        for way in accesses {
            st.on_access(0, way);
        }
        let mask = ColumnMask::from_columns(allowed.iter().copied());
        let valid_bits = valid_bits
            .iter()
            .enumerate()
            .fold(0u64, |acc, (w, &v)| acc | (u64::from(v) << w));
        match st.victim(0, mask, valid_bits) {
            Some(v) => prop_assert!(mask.contains(v), "policy {policy} picked {v} outside {mask}"),
            None => prop_assert!(mask.is_empty()),
        }
    }

    /// Flushing writes back exactly the lines that were written and still resident.
    #[test]
    fn flush_writes_back_only_dirty_lines(
        ops in prop::collection::vec((0u64..0x8000, any::<bool>()), 1..200)
    ) {
        let mut cache = ColumnCache::new(CacheConfig::default());
        let mask = ColumnMask::all(4);
        for (addr, w) in &ops {
            cache.access(*addr, *w, mask);
        }
        let dirty_resident = cache
            .valid_line_addrs()
            .len();
        let written_back = cache.flush();
        prop_assert!(written_back as usize <= dirty_resident);
        prop_assert_eq!(cache.valid_lines(), 0);
    }

    /// The TLB + page-table combination always reports the tint most recently written to
    /// the page table, provided the affected TLB entry was flushed (the hardware contract
    /// the software control layer relies on).
    #[test]
    fn retint_plus_flush_is_always_visible(
        pages in prop::collection::vec((0u64..32, 0u32..8), 1..100)
    ) {
        let mut sys = MemorySystem::with_default_cache();
        let page_size = sys.config().page_size;
        for (page, tint) in pages {
            let base = page * page_size;
            sys.define_tint(Tint(tint + 1), ColumnMask::single((tint % 4) as usize)).unwrap();
            sys.tint_range(base..base + page_size, Tint(tint + 1));
            sys.access(base, false);
            prop_assert_eq!(sys.page_table().entry_for_addr(base).tint, Tint(tint + 1));
        }
    }

    /// The struct-of-arrays cache is observationally identical to the pre-rewrite
    /// array-of-structs model: every access produces the same outcome (hit/miss/bypass,
    /// column, and eviction address/dirtiness), and the aggregate counters agree — for
    /// every geometry, replacement policy, and per-access mask (including empty masks,
    /// which force bypasses).
    #[test]
    fn soa_cache_matches_array_of_structs_reference_model(
        geometry_idx in 0usize..GEOMETRIES.len(),
        policy_idx in 0usize..5,
        ops in prop::collection::vec(
            (0u64..0x40_000, any::<bool>(), prop::collection::vec(0usize..8, 0..4)),
            1..400,
        )
    ) {
        let (capacity, columns, line) = GEOMETRIES[geometry_idx];
        let config = CacheConfig::builder()
            .capacity_bytes(capacity)
            .columns(columns)
            .line_size(line)
            .replacement(ReplacementPolicy::ALL[policy_idx])
            .build()
            .expect("geometry table entries are valid");
        let mut cache = ColumnCache::new(config);
        let mut model = ReferenceCache::new(config);
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut bypasses = 0u64;
        let mut writebacks = 0u64;
        for (addr, is_write, cols) in ops {
            // Bits at or above `columns` are deliberately kept: both paths must truncate
            // out-of-range mask bits identically.
            let mask = ColumnMask::from_columns(cols.iter().copied());
            let got = cache.access(addr, is_write, mask);
            let want = model.access(addr, is_write, mask);
            prop_assert_eq!(got, want, "outcome diverged at addr {:#x}", addr);
            match got {
                AccessOutcome::Hit { .. } => hits += 1,
                AccessOutcome::Miss { evicted, .. } => {
                    misses += 1;
                    if evicted.is_some_and(|ev| ev.dirty) {
                        writebacks += 1;
                    }
                }
                AccessOutcome::Bypass => bypasses += 1,
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits, hits);
        prop_assert_eq!(s.misses, misses);
        prop_assert_eq!(s.bypasses, bypasses);
        prop_assert_eq!(s.writebacks, writebacks);
    }

    /// The way hint against the unhinted model, where it matters: a few hot sets, each
    /// offered `columns + 2` lines, so hits, evictions and re-fills alternate and a third
    /// of the accesses repeat their set's previous line (the hinted path). Writes,
    /// per-access masks (every column, random bits, or one column that may lie out of
    /// range) and `flush` calls are interleaved. Every outcome, every flush count and the
    /// final contents must agree, for every policy and for 1 to 64 columns.
    #[test]
    fn hinted_cache_matches_the_reference_model_on_hot_sets(
        geometry_idx in 0usize..GEOMETRIES.len() + WIDE_GEOMETRIES.len(),
        policy_idx in 0usize..5,
        ops in prop::collection::vec(
            ((0u8..100, 0usize..3), 0usize..66, any::<bool>(), any::<u64>()),
            1..600,
        )
    ) {
        let (capacity, columns, line) = GEOMETRIES
            .into_iter()
            .chain(WIDE_GEOMETRIES)
            .nth(geometry_idx)
            .expect("index within both tables");
        let config = CacheConfig::builder()
            .capacity_bytes(capacity)
            .columns(columns)
            .line_size(line)
            .replacement(ReplacementPolicy::ALL[policy_idx])
            .build()
            .expect("geometry table entries are valid");
        let sets = config.sets();
        let mut cache = ColumnCache::new(config);
        let mut model = ReferenceCache::new(config);
        let mut previous = [0u64; 3];
        for ((kind, set), pick, is_write, bits) in ops {
            let set = set % sets.min(3);
            match kind {
                0 | 1 => prop_assert_eq!(cache.flush(), model.flush()),
                _ => {
                    let tag = if kind < 36 {
                        previous[set]
                    } else {
                        (pick % (columns + 2)) as u64
                    };
                    previous[set] = tag;
                    let mask = match kind % 3 {
                        0 => ColumnMask::from_bits(u64::MAX),
                        1 => ColumnMask::from_bits(bits),
                        _ => {
                            let column = (bits % (columns as u64 + 1)) as u32;
                            ColumnMask::from_bits(1u64.checked_shl(column).unwrap_or(0))
                        }
                    };
                    let addr = config.line_addr(tag, set) + bits % line;
                    let got = cache.access(addr, is_write, mask);
                    prop_assert_eq!(got, model.access(addr, is_write, mask), "at {:#x}", addr);
                }
            }
        }
        prop_assert_eq!(cache.valid_line_addrs(), model.valid_line_addrs());
        let s = cache.stats();
        prop_assert!(s.misses + s.bypasses <= s.scans && s.scans <= s.accesses);
    }

    /// Statistics identities: hits + misses + bypasses == accesses, and without a flush
    /// only a miss can write a line back.
    #[test]
    fn statistics_identities_hold(
        ops in prop::collection::vec((0u64..0x40_000, any::<bool>(), 0usize..4), 1..400)
    ) {
        let mut cache = ColumnCache::new(CacheConfig::default());
        for (addr, w, col) in ops {
            cache.access(addr, w, ColumnMask::single(col));
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses + s.bypasses, s.accesses);
        prop_assert!(s.writebacks <= s.misses);
    }

    /// The hinted TLB is observationally identical to the scan-only LRU model: the same
    /// `(entry, hit)` for every lookup, the same count for every flush, and the same
    /// resident pages at the end, for every capacity from 1 to 70 entries. The streams
    /// mix page-table writes without a flush (stale entries), page flushes (which shift
    /// slot indices under the hints) and clears. Pages come from three interleaved jobs
    /// 2^14 pages apart, the layout of Figure 5's 16 MiB-aligned jobs at 1 KiB pages,
    /// where page p of every job falls into the same bucket of a `vpn % 64` hint.
    #[test]
    fn hinted_tlb_matches_scan_only_reference_model(
        capacity in 1usize..71,
        ops in prop::collection::vec((0u8..100, 0u64..200, 0u64..4096, 0u64..3), 1..600),
    ) {
        const JOB_PAGES: u64 = 1 << 14;
        let mut table = PageTable::new(4096).unwrap();
        let mut tlb = Tlb::new(capacity);
        let mut model = ReferenceTlb::new(capacity);
        for (kind, page, offset, job) in ops {
            let vpn = job * JOB_PAGES + page;
            match kind {
                0..=89 => {
                    let addr = vpn * 4096 + offset;
                    let (entry, found) = tlb.lookup(addr, &table);
                    prop_assert_eq!((entry, found.is_hit()), model.lookup(addr, &table));
                }
                90..=94 => {
                    table.set_page_tint(vpn, Tint((offset % 5) as u32));
                }
                95..=98 => {
                    let vpns = [vpn, vpn + 64, offset % 200, (job + 1) % 3 * JOB_PAGES + page];
                    prop_assert_eq!(tlb.flush_pages(&vpns), model.flush_pages(&vpns));
                }
                _ => {
                    tlb.clear();
                    model.clear();
                }
            }
        }
        prop_assert_eq!(tlb.len(), model.slots.len());
        for vpn in (0..3).flat_map(|job| (0..264).map(move |page| job * JOB_PAGES + page)) {
            prop_assert_eq!(tlb.contains(vpn), model.slots.iter().any(|s| s.0 == vpn));
        }
    }

    /// The dense tint table is observationally identical to the `BTreeMap` model under
    /// random `define` / `make_exclusive` / `reset` sequences: the same results (errors
    /// and skipped-tint lists included), the same mask for every defined and undefined
    /// tint, the same `iter()` order, `len()` and remap count.
    #[test]
    fn dense_tint_table_matches_btreemap_reference_model(
        columns in 1usize..9,
        ops in prop::collection::vec((0u8..10, 0u32..40, 0u64..512), 1..200),
    ) {
        let mut table = TintTable::new(columns);
        let mut model = ReferenceTints::new(columns);
        for (kind, tint, bits) in ops {
            // Bits at or above `columns` (and the empty mask) are kept on purpose: both
            // tables must refuse them with the same error.
            let mask = ColumnMask::from_bits(bits);
            match kind {
                0..=5 => {
                    prop_assert_eq!(table.define(Tint(tint), mask), model.define(Tint(tint), mask));
                }
                6..=8 => prop_assert_eq!(
                    table.make_exclusive(Tint(tint), mask),
                    model.make_exclusive(Tint(tint), mask)
                ),
                _ => {
                    table.reset();
                    model.reset();
                }
            }
            for t in 0..48 {
                prop_assert_eq!(table.mask_or_default(Tint(t)), model.mask_or_default(Tint(t)));
            }
        }
        let listed: Vec<(Tint, ColumnMask)> = model.map.iter().map(|(t, m)| (*t, *m)).collect();
        prop_assert_eq!(table.iter().collect::<Vec<_>>(), listed);
        prop_assert_eq!(table.len(), model.map.len());
        prop_assert_eq!(table.remaps, model.remaps);
    }
}

/// Way counts for the replacement oracle, weighted toward small sets: bit-PLRU clears a
/// set's bits only once every way is recently used, which random touches reach often
/// only in small sets.
const ORACLE_WAYS: [usize; 8] = [1, 2, 3, 4, 7, 8, 33, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-table replacement state chooses the same victim as the per-set state it
    /// replaced, for every policy, 1 to 5 sets and the way counts of [`ORACLE_WAYS`],
    /// over interleaved hits, fills, victim choices and resets. Victims are drawn under
    /// random, full and sparse masks (bits past the way count included) and validity
    /// words that are full three times in four and otherwise miss about a quarter of
    /// their ways.
    #[test]
    fn replacement_state_matches_the_per_set_reference_model(
        policy_idx in 0usize..5,
        sets in 1usize..6,
        ways_idx in 0usize..ORACLE_WAYS.len(),
        ops in prop::collection::vec((0u8..100, 0usize..5, 0usize..64, any::<u64>()), 1..400),
    ) {
        let policy = ReplacementPolicy::ALL[policy_idx];
        let ways = ORACLE_WAYS[ways_idx];
        let full = ColumnMask::all(ways).bits();
        let mut state = ReplacementState::new(policy, sets, ways);
        let mut model = ReferenceSetState::per_set(policy, sets, ways);
        for (step, (kind, set, way, bits)) in ops.into_iter().enumerate() {
            let set = set % sets;
            let way = way % ways;
            match kind {
                0..=39 => {
                    state.on_access(set, way);
                    model[set].on_access(way);
                }
                40..=64 => {
                    state.on_fill(set, way);
                    model[set].on_fill(way);
                }
                65..=98 => {
                    let mask = ColumnMask::from_bits(match kind % 3 {
                        0 => bits,
                        1 => u64::MAX,
                        _ => bits & bits.rotate_left(29),
                    });
                    let valid = if kind % 4 == 0 {
                        full & !(bits.rotate_left(17) & bits.rotate_left(41))
                    } else {
                        full
                    };
                    prop_assert_eq!(
                        state.victim(set, mask, valid),
                        model[set].victim(mask, valid),
                        "{} at step {}: set {} of {}, {} ways, mask {}, valid {:#x}",
                        policy, step, set, sets, ways, mask, valid
                    );
                }
                _ => {
                    state.reset();
                    model = ReferenceSetState::per_set(policy, sets, ways);
                }
            }
        }
    }
}
