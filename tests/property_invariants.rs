//! Property-based tests of the cross-crate invariants the reproduction relies on.
//!
//! These complement the per-crate unit tests: each property is stated over randomly
//! generated configurations, traces or graphs and exercises the public APIs end to end.

use column_caching::core::engine::ReplayEngine;
use column_caching::core::partition::select_scratchpad_vars;
use column_caching::layout::coloring::{color_count, greedy_coloring, is_proper, minimum_coloring};
use column_caching::layout::{assign_columns, ConflictGraph, LayoutOptions, Vertex};
use column_caching::prelude::*;
use column_caching::sim::{build_backend, BackendKind, CacheConfig, SystemConfig, Tint};
use column_caching::trace::Interval;
use column_caching::workloads::gzipsim::{compress, decompress, generate_input, GzipConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------------------------
// Column cache invariants
// ---------------------------------------------------------------------------------------

fn arbitrary_mask(columns: usize) -> impl Strategy<Value = ColumnMask> {
    prop::collection::vec(0..columns, 1..=columns).prop_map(ColumnMask::from_columns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fills only ever land in columns allowed by the access's mask, for any mix of
    /// addresses and masks.
    #[test]
    fn fills_respect_column_masks(
        accesses in prop::collection::vec((0u64..0x40_000, any::<bool>(), 0usize..4), 1..400)
    ) {
        let mut cache = ColumnCache::new(CacheConfig::default());
        for (addr, is_write, column) in accesses {
            let mask = ColumnMask::single(column);
            match cache.access(addr, is_write, mask) {
                AccessOutcome::Miss { column: filled, .. } => prop_assert_eq!(filled, column),
                AccessOutcome::Hit { .. } | AccessOutcome::Bypass => {}
            }
        }
    }

    /// The cache never reports more valid lines than its geometry can hold, and per-column
    /// occupancy never exceeds the number of sets.
    #[test]
    fn occupancy_is_bounded(
        accesses in prop::collection::vec((0u64..0x100_000, any::<bool>()), 1..500),
        columns in 1usize..=8,
    ) {
        let cfg = CacheConfig::builder()
            .capacity_bytes(4096)
            .columns(if columns.is_power_of_two() { columns } else { 4 })
            .line_size(32)
            .build()
            .unwrap();
        let mask = ColumnMask::all(cfg.columns());
        let mut cache = ColumnCache::new(cfg);
        for (addr, w) in accesses {
            cache.access(addr, w, mask);
        }
        prop_assert!(cache.valid_lines() <= cfg.total_lines());
        for c in 0..cfg.columns() {
            prop_assert!(cache.occupancy(c).unwrap() <= cfg.sets());
        }
    }

    /// An address that just missed is cached immediately afterwards (write-allocate), and
    /// hits never change the valid-line count.
    #[test]
    fn miss_then_hit(addrs in prop::collection::vec(0u64..0x10_000, 1..200)) {
        let mut cache = ColumnCache::new(CacheConfig::default());
        let mask = ColumnMask::all(4);
        for addr in addrs {
            cache.access(addr, false, mask);
            let before = cache.valid_lines();
            prop_assert!(cache.contains(addr));
            prop_assert!(cache.access(addr, false, mask).is_hit());
            prop_assert_eq!(cache.valid_lines(), before);
        }
    }

    /// A region mapped exclusively to its own columns and pre-loaded behaves like a
    /// scratchpad: accesses to it hit no matter what else runs.
    #[test]
    fn exclusive_region_is_never_evicted(
        pollution in prop::collection::vec((0x10_0000u64..0x40_0000, any::<bool>()), 1..600)
    ) {
        let mut sys = MemorySystem::new(SystemConfig { page_size: 256, ..SystemConfig::default() }).unwrap();
        sys.map_exclusive_region(0x8000, 512, ColumnMask::single(3), Tint(9), true).unwrap();
        sys.run(pollution);
        sys.reset_stats();
        for i in 0..16u64 {
            sys.access(0x8000 + i * 32, false);
        }
        prop_assert_eq!(sys.cache_stats().misses, 0);
        prop_assert_eq!(sys.cache_stats().hits, 16);
    }

    /// Cycle accounting is consistent: total cycles grow monotonically with every access
    /// and every access costs at least the hit latency.
    #[test]
    fn cycles_are_monotone_and_bounded_below(
        accesses in prop::collection::vec((0u64..0x80_000, any::<bool>()), 1..300)
    ) {
        let mut sys = MemorySystem::with_default_cache();
        let hit = sys.config().latency.hit_latency;
        let mut last_total = 0;
        for (addr, w) in accesses {
            let cycles = sys.access(addr, w);
            prop_assert!(cycles >= hit);
            let total = sys.stats().memory_cycles;
            prop_assert!(total >= last_total + cycles);
            last_total = total;
        }
    }
}

// ---------------------------------------------------------------------------------------
// Layout invariants
// ---------------------------------------------------------------------------------------

/// Builds a random weighted graph with `n` vertices.
fn arbitrary_graph() -> impl Strategy<Value = ConflictGraph> {
    (2usize..10).prop_flat_map(|n| {
        prop::collection::vec(0u64..50, n * (n - 1) / 2).prop_map(move |weights| {
            let mut g = ConflictGraph::new();
            for i in 0..n {
                g.add_vertex(Vertex {
                    var: VarId(i as u32),
                    name: format!("v{i}"),
                    size: 64,
                    accesses: 10,
                });
            }
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if weights[k] > 0 {
                        g.set_weight(i, j, weights[k]);
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Greedy and exact colorings are always proper, and the exact coloring never uses
    /// more colors than the greedy one.
    #[test]
    fn colorings_are_proper(graph in arbitrary_graph()) {
        let greedy = greedy_coloring(&graph);
        prop_assert!(is_proper(&graph, &greedy));
        let (k, exact) = minimum_coloring(&graph, 200_000).unwrap();
        prop_assert!(is_proper(&graph, &exact));
        prop_assert_eq!(color_count(&exact), k);
        prop_assert!(k <= color_count(&greedy));
    }

    /// Column assignment never reports a lower cost than zero conflicts and its reported
    /// cost always equals the cost recomputed from the graph; with as many columns as
    /// vertices the cost is zero.
    #[test]
    fn assignment_cost_is_consistent(graph in arbitrary_graph(), columns in 1usize..6) {
        let opts = LayoutOptions::new(columns, 512);
        let a = assign_columns(&graph, &opts).unwrap();
        prop_assert_eq!(a.vertex_columns.len(), graph.vertex_count());
        prop_assert!(a.vertex_columns.iter().all(|&c| c < columns));
        prop_assert_eq!(a.cost, graph.assignment_cost(&a.vertex_columns));
        let generous = assign_columns(&graph, &LayoutOptions::new(graph.vertex_count(), 512)).unwrap();
        prop_assert_eq!(generous.cost, 0);
    }

    /// More columns never makes the achievable assignment cost worse.
    #[test]
    fn more_columns_never_hurt(graph in arbitrary_graph()) {
        let mut last = u64::MAX;
        for k in 1..=4usize {
            let a = assign_columns(&graph, &LayoutOptions::new(k, 512)).unwrap();
            prop_assert!(a.cost <= last);
            last = a.cost;
        }
    }
}

// ---------------------------------------------------------------------------------------
// Trace and workload invariants
// ---------------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interval intersection is commutative and contained in both operands.
    #[test]
    fn interval_intersection_properties(a in 0u64..1000, b in 0u64..1000, c in 0u64..1000, d in 0u64..1000) {
        let i1 = Interval::new(a.min(b), a.max(b)).unwrap();
        let i2 = Interval::new(c.min(d), c.max(d)).unwrap();
        let x = i1.intersection(&i2);
        prop_assert_eq!(x, i2.intersection(&i1));
        if let Some(x) = x {
            prop_assert!(x.first >= i1.first && x.last <= i1.last);
            prop_assert!(x.first >= i2.first && x.last <= i2.last);
            prop_assert!(i1.overlaps(&i2));
        } else {
            prop_assert!(!i1.overlaps(&i2));
        }
    }

    /// LZ77 compression round-trips on arbitrary byte strings.
    #[test]
    fn lz77_roundtrip(data in prop::collection::vec(any::<u8>(), 0..2000)) {
        let tokens = compress(&data, &GzipConfig::small());
        prop_assert_eq!(decompress(&tokens), data);
    }

    /// Generated gzip inputs always round-trip at any requested length and seed.
    #[test]
    fn generated_input_roundtrip(len in 0usize..3000, seed in any::<u64>()) {
        let data = generate_input(len, seed);
        prop_assert_eq!(data.len(), len);
        let tokens = compress(&data, &GzipConfig::small());
        prop_assert_eq!(decompress(&tokens), data);
    }

    /// The recorder attributes every event to the variable it was recorded against, and
    /// addresses stay within the variable's region.
    #[test]
    fn recorder_attribution(ops in prop::collection::vec((0usize..4, 0u64..64), 1..300)) {
        let mut rec = TraceRecorder::new();
        let vars: Vec<VarId> = (0..4).map(|i| rec.allocate(&format!("v{i}"), 256, 8)).collect();
        for (v, off) in &ops {
            rec.read(vars[*v], *off, 4);
        }
        let (trace, symbols) = rec.finish();
        prop_assert_eq!(trace.len(), ops.len());
        for (ev, (v, off)) in trace.iter().zip(&ops) {
            let region = symbols.region(vars[*v]).unwrap();
            prop_assert_eq!(ev.var, Some(vars[*v]));
            prop_assert_eq!(ev.addr, region.base + off);
            prop_assert!(region.contains(ev.addr));
        }
    }
}

// ---------------------------------------------------------------------------------------
// Memory-backend invariants
// ---------------------------------------------------------------------------------------

/// Builds a trace from raw `(address, is_write)` pairs.
fn trace_of(refs: &[(u64, bool)]) -> Trace {
    refs.iter()
        .map(|&(addr, w)| {
            if w {
                MemAccess::write(addr, 4)
            } else {
                MemAccess::read(addr, 4)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A column cache whose every tint resolves to the all-columns mask is
    /// indistinguishable from the plain set-associative baseline: identical hit/miss
    /// counters, cycle totals and memory traffic on any trace — even when tint control
    /// operations are interleaved (the baseline ignores them; the all-columns masks make
    /// them no-ops on the column cache too).
    #[test]
    fn all_columns_column_cache_equals_set_assoc_baseline(
        refs in prop::collection::vec((0u64..0x20_000, any::<bool>()), 1..500),
        tinted_pages in prop::collection::vec((0u64..32, 1u32..4), 0..6),
    ) {
        let config = SystemConfig { page_size: 256, ..SystemConfig::default() };
        let columns = config.cache.columns();
        let mut column = build_backend(BackendKind::ColumnCache, config).unwrap();
        let mut baseline = build_backend(BackendKind::SetAssociative, config).unwrap();

        for backend in [&mut column, &mut baseline] {
            for &(page, tint) in &tinted_pages {
                backend.define_tint(Tint(tint), ColumnMask::all(columns)).unwrap();
                backend.tint_range(page * 256..(page + 1) * 256, Tint(tint));
            }
        }

        let refs_flat: Vec<(u64, bool)> = refs;
        let column_cycles = column.run_batch(&refs_flat);
        let baseline_cycles = baseline.run_batch(&refs_flat);

        prop_assert_eq!(column_cycles, baseline_cycles);
        prop_assert_eq!(column.cache_stats(), baseline.cache_stats());
        // Control work differs (the baseline ignores tint ops), so compare the datapath
        // statistics field by field rather than whole structs.
        prop_assert_eq!(column.stats().references, baseline.stats().references);
        prop_assert_eq!(column.stats().memory_cycles, baseline.stats().memory_cycles);
        prop_assert_eq!(column.stats().uncached_accesses, baseline.stats().uncached_accesses);
    }

    /// `snapshot()` / `reset()` round-trips to bit-identical results: replaying the same
    /// trace after a reset reproduces the exact statistics of the first replay, for any
    /// programmed tint state.
    #[test]
    fn engine_snapshot_reset_round_trips_to_identical_stats(
        refs in prop::collection::vec((0u64..0x20_000, any::<bool>()), 1..400),
        mask in arbitrary_mask(4),
        tinted_span in 1u64..0x4000,
    ) {
        let config = SystemConfig { page_size: 256, ..SystemConfig::default() };
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config).unwrap();
        engine.backend_mut().define_tint(Tint(1), mask).unwrap();
        engine.backend_mut().tint_range(0..tinted_span, Tint(1));
        engine.snapshot();

        let trace = trace_of(&refs);
        let first = engine.replay("round-trip", &trace);
        engine.reset();
        let second = engine.replay("round-trip", &trace);
        prop_assert_eq!(first, second);
    }

    /// Batched replay is an optimisation, not a semantic change: any batch size produces
    /// the same result as per-reference replay through `run_on`.
    #[test]
    fn batched_replay_equals_per_reference_replay(
        refs in prop::collection::vec((0u64..0x10_000, any::<bool>()), 1..400),
        batch in 1usize..512,
    ) {
        let config = SystemConfig { page_size: 256, ..SystemConfig::default() };
        let trace = trace_of(&refs);

        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config).unwrap();
        engine.set_batch_size(batch);
        let batched = engine.replay("replay", &trace);

        let mut reference = build_backend(BackendKind::ColumnCache, config).unwrap();
        let per_ref = column_caching::core::runner::run_on(
            "replay", reference.as_mut(), &trace,
        ).unwrap();
        prop_assert_eq!(batched, per_ref);
    }
}

// ---------------------------------------------------------------------------------------
// Scratchpad selection
// ---------------------------------------------------------------------------------------

/// A transcription of the access-profile ranking `select_scratchpad_vars` used before it
/// counted accesses itself: one profile per variable an event resolves to (its
/// annotation, else its address), sized from the symbol table or 0, ranked by accesses
/// per byte (the bare count when unsized), ties by id, then packed greedily.
fn reference_scratchpad_selection(
    trace: &Trace,
    symbols: &SymbolTable,
    capacity: u64,
) -> Vec<VarId> {
    struct Profile {
        var: VarId,
        size: u64,
        accesses: u64,
    }
    impl Profile {
        fn access_density(&self) -> f64 {
            if self.size == 0 {
                self.accesses as f64
            } else {
                self.accesses as f64 / self.size as f64
            }
        }
    }
    if capacity == 0 {
        return Vec::new();
    }
    let mut profiles: std::collections::BTreeMap<VarId, Profile> = Default::default();
    for ev in trace.iter() {
        let Some(var) = ev.var.or_else(|| symbols.resolve(ev.addr)) else {
            continue;
        };
        let entry = profiles.entry(var).or_insert_with(|| Profile {
            var,
            size: symbols.region(var).map(|r| r.size).unwrap_or(0),
            accesses: 0,
        });
        entry.accesses += 1;
    }
    let mut ranked: Vec<&Profile> = profiles.values().collect();
    ranked.sort_by(|a, b| {
        b.access_density()
            .partial_cmp(&a.access_density())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.var.cmp(&b.var))
    });
    let mut selected = Vec::new();
    let mut used = 0u64;
    for p in ranked {
        if p.size > 0 && used + p.size <= capacity {
            selected.push(p.var);
            used += p.size;
        }
    }
    selected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The scratchpad selection equals the access-profile ranking it replaced, over
    /// annotated events (including ids the symbol table does not know), unannotated
    /// events found by address, events outside every region, and capacities from 0 to
    /// twice the footprint.
    #[test]
    fn scratchpad_selection_matches_the_access_profile_ranking(
        sizes in prop::collection::vec(1u64..600, 1..8),
        ops in prop::collection::vec((0usize..4, 0usize..8, 0u64..600), 0..300),
        capacity_share in 0u64..=200,
    ) {
        let mut symbols = SymbolTable::new();
        let vars: Vec<VarId> = sizes
            .iter()
            .enumerate()
            .map(|(i, s)| symbols.allocate(&format!("v{i}"), *s, 8).unwrap())
            .collect();
        let mut trace = Trace::new();
        for (kind, v, off) in &ops {
            let var = vars[v % vars.len()];
            let region = symbols.region(var).unwrap();
            let inside = region.base + off % region.size;
            trace.push(match kind {
                0 => MemAccess::read(inside, 4).with_var(var),
                1 => MemAccess::write(inside, 4),
                2 => MemAccess::read(0x4000_0000 + off, 4),
                _ => MemAccess::read(inside, 4).with_var(VarId(100 + *v as u32)),
            });
        }
        let footprint: u64 = sizes.iter().sum();
        let capacity = footprint * capacity_share / 100;
        prop_assert_eq!(
            select_scratchpad_vars(&trace, &symbols, capacity),
            reference_scratchpad_selection(&trace, &symbols, capacity)
        );
    }
}
