//! Resource bounds, checked with a counting allocator: engine builds, the layout of
//! hostile traces, search spaces, the tuner's fitness model, partition points and
//! dynamic runs.
//!
//! The global allocator below counts the allocations, requested bytes and live heap of
//! the current thread while that thread has counting switched on, so the test harness's
//! other threads cannot perturb a measurement.

use column_caching::core::dynamic::run_dynamic_in;
use column_caching::core::engine::ReplayEngine;
use column_caching::core::partition::run_partition_point_in;
use column_caching::core::runner::assign_columns_in;
use column_caching::exp::presets::figure4_geometry;
use column_caching::layout::{LayoutError, LayoutOptions, TraceProfile, WeightOptions};
use column_caching::opt::{Evaluator, GeometrySearch, SearchSpace};
use column_caching::sim::{
    BackendKind, CacheConfig, ReplacementPolicy, SystemConfig, MAX_CAPACITY_BYTES, MAX_SETS,
};
use column_caching::telemetry::Registry;
use column_caching::trace::infer::DEFAULT_REGION_GAP;
use column_caching::trace::synth::sequential_scan;
use column_caching::trace::{infer_symbols, MemAccess, SymbolTable, Trace};
use column_caching::workloads::mpeg::{run_combined, run_phases, MpegConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed while counting, and the most that reached.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes`, which changes the live heap by `grown` bytes, if the
/// current thread is counting; a free is no allocation and passes `bytes` 0. `try_with`
/// because the allocator also runs while a thread's locals are being torn down.
fn record(bytes: usize, grown: i64) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            if bytes > 0 {
                ALLOCATIONS.with(|n| n.set(n.get() + 1));
                BYTES.with(|b| b.set(b.get() + bytes as u64));
            }
            let live = LIVE.with(|l| {
                l.set(l.get() + grown);
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
    });
}

// SAFETY: every method forwards to the system allocator unchanged; counting only reads
// and writes const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, requested bytes)` of `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let value = f();
    COUNTING.with(|on| on.set(false));
    drop(value);
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

/// `f`'s value, the heap it leaves live on this thread, and the most heap it holds live
/// at once, both counted on top of what was live before the call.
fn heap_of<T>(f: impl FnOnce() -> T) -> (T, i64, i64) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|on| on.set(true));
    let value = f();
    COUNTING.with(|on| on.set(false));
    (value, LIVE.with(Cell::get), PEAK.with(Cell::get))
}

fn config(capacity: u64, columns: usize, line: u64, policy: ReplacementPolicy) -> SystemConfig {
    SystemConfig {
        cache: CacheConfig::builder()
            .capacity_bytes(capacity)
            .columns(columns)
            .line_size(line)
            .replacement(policy)
            .build()
            .expect("geometry within the limits"),
        ..SystemConfig::default()
    }
}

/// An engine's allocations do not grow with its geometry, and the largest engine the
/// limits admit — 1 MiB of 1-byte lines in 32 columns, `MAX_SETS` sets — requests at
/// most 18 MiB under every replacement policy.
#[test]
fn engine_build_allocations_are_independent_of_geometry() {
    const BYTE_BOUND: u64 = 18 << 20;
    let build = |config| ReplayEngine::new(BackendKind::ColumnCache, config).expect("valid");
    for policy in ReplacementPolicy::ALL {
        let small = config(2048, 4, 32, policy);
        let largest = config(MAX_CAPACITY_BYTES, 32, 1, policy);
        assert_eq!(largest.cache.sets(), MAX_SETS);
        // The first engine binds the telemetry registry's counters; measure later ones.
        drop(build(small));
        let (small_allocations, _) = counted(|| build(small));
        let (largest_allocations, largest_bytes) = counted(|| build(largest));
        assert_eq!(
            largest_allocations, small_allocations,
            "{policy}: allocations at MAX_SETS vs at 2 KiB"
        );
        assert!(
            largest_bytes <= BYTE_BOUND,
            "{policy}: {largest_bytes} bytes requested at MAX_SETS, bound {BYTE_BOUND}"
        );
    }
}

/// The three hostile layout inputs, as `ccache trace record --gen scan` writes them, each
/// with the symbol table `ccache run` infers for it (4 KiB gap, 32-byte lines).
fn hostile_layouts() -> [(&'static str, Trace, SymbolTable); 3] {
    [
        // 4,096 references 4 KiB apart: one 16 MiB variable
        (
            "one 16 MiB variable",
            sequential_scan(0, 16 << 20, 4096, 4, 1, None),
        ),
        // 20,000 references 8 KiB apart: 20,000 variables
        (
            "20,000 variables",
            sequential_scan(0, 163_840_000, 8192, 4, 1, None),
        ),
        // two passes over 1 MiB at a 256-byte stride: every piece is live throughout
        (
            "two scans of 1 MiB",
            sequential_scan(0, 1 << 20, 256, 4, 2, None),
        ),
    ]
    .map(|(name, trace)| {
        let symbols = infer_symbols(&trace, DEFAULT_REGION_GAP, 32);
        (name, trace, symbols)
    })
}

fn weights(column_bytes: u64) -> WeightOptions {
    WeightOptions {
        column_bytes,
        ..WeightOptions::default()
    }
}

/// At `ccache run`'s default geometry (4 columns of 512 bytes) each hostile input is
/// refused with the limit it exceeds. Inference requests at most 256 bytes per reference
/// and per region. The unit limit is checked from the symbol table before anything is
/// allocated; the pair limit after profiling but before any pair is weighed, within 64
/// bytes per reference and 512 per unit.
#[test]
fn hostile_layouts_are_refused_before_allocating_past_a_limit() {
    let expected = [
        ("MAX_LAYOUT_UNITS", 32_761, 0),
        ("MAX_LAYOUT_UNITS", 20_000, 0),
        ("MAX_LAYOUT_PAIRS", 2_096_128, 2_048),
    ];
    for ((name, trace, _), (limit, count, units)) in hostile_layouts().into_iter().zip(expected) {
        let references = trace.len() as u64;
        let mut symbols = SymbolTable::new();
        let (_, inference_bytes) = counted(|| {
            symbols = infer_symbols(&trace, DEFAULT_REGION_GAP, 32);
        });
        let inference_bound = 256 * (references + symbols.len() as u64);
        assert!(
            inference_bytes <= inference_bound,
            "{name}: inference requested {inference_bytes} bytes, bound {inference_bound}"
        );
        let mut refusal = None;
        let (allocations, layout_bytes) = counted(|| {
            refusal = Some(
                TraceProfile::new(&trace, &symbols, &weights(512))
                    .and_then(|profile| profile.conflict_graph(512))
                    .map(|_| ()),
            );
        });
        let refusal = refusal.expect("ran");
        assert!(
            matches!(refusal, Err(LayoutError::LimitExceeded { limit: l, count: c, .. })
                if l == limit && c == count),
            "{name}: {refusal:?}"
        );
        if units == 0 {
            assert_eq!(
                allocations, 0,
                "{name}: refused from the symbol table alone"
            );
        }
        let layout_bound = 64 * references + 512 * units;
        assert!(
            layout_bytes <= layout_bound,
            "{name}: the refused layout requested {layout_bytes} bytes, bound {layout_bound}"
        );
    }
}

/// At 2 columns of 1,024 bytes two hostile inputs are admitted: 16,381 units with no
/// edge, and 1,024 units on a complete graph of 523,776 edges. Profiling, the graph and
/// the heuristic assignment stay within stated allocation bounds, and the colorers'
/// work within 4 × (units + edges) × ⌈log2 units⌉ steps.
#[test]
fn admitted_hostile_layouts_stay_within_allocation_and_colour_step_bounds() {
    let [edgeless, refused, complete] = hostile_layouts();
    assert!(matches!(
        TraceProfile::new(&refused.1, &refused.2, &weights(1024)),
        Err(LayoutError::LimitExceeded {
            limit: "MAX_LAYOUT_UNITS",
            count: 20_000,
            ..
        })
    ));
    for (name, trace, symbols) in [edgeless, complete] {
        let mut layout = None;
        let (_, graph_bytes) = counted(|| {
            layout = Some(
                TraceProfile::new(&trace, &symbols, &weights(1024))
                    .and_then(|profile| profile.conflict_graph(1024))
                    .expect("admitted"),
            );
        });
        let (graph, _) = layout.expect("built");
        let (units, edges) = (graph.vertex_count() as u64, graph.edge_count() as u64);
        // a vertex (with its name) and a unit per unit, one map entry per edge
        let graph_bound = 32 * trace.len() as u64 + 512 * units + 96 * edges;
        assert!(
            graph_bytes <= graph_bound,
            "{name}: the graph requested {graph_bytes} bytes, bound {graph_bound}"
        );

        let registry = Registry::new();
        let options = LayoutOptions::new(2, 1024);
        let mut assignment = None;
        let (_, assign_bytes) = counted(|| {
            assignment = Some(assign_columns_in(&graph, &options, &registry).expect("assigns"));
        });
        let assign_bound = 1024 * units + 256 * edges;
        assert!(
            assign_bytes <= assign_bound,
            "{name}: the assignment requested {assign_bytes} bytes, bound {assign_bound}"
        );
        let steps = registry.counter_value("layout.colour_steps");
        let log2 = u64::from(units.next_power_of_two().trailing_zeros()).max(1);
        let step_bound = 4 * (units + edges) * log2;
        assert!(
            0 < steps && steps <= step_bound,
            "{name}: {steps} colour steps on {units} units and {edges} edges, bound {step_bound}"
        );
        assert_eq!(
            assignment.expect("assigned").colour_steps,
            steps,
            "{name}: the counter carries the assignment's steps"
        );
    }
}

/// A search space holds one unit split, conflict graph and heuristic seed per column
/// count, shared by the geometries with that count: the standard search over full-scale
/// `gzip` (18 geometries, 3 column counts) stays under 1 MB once built.
#[test]
fn search_spaces_hold_one_layout_per_column_count() {
    const LIVE_BOUND: i64 = 1 << 20;
    let gzip = column_caching::workloads::corpus("gzip", false).expect("corpus workload");
    let template = SystemConfig {
        page_size: 256,
        ..SystemConfig::default()
    };
    let registry = Registry::new();
    let (space, live, _) = heap_of(|| {
        SearchSpace::build(
            &gzip.trace,
            &gzip.symbols,
            template,
            &GeometrySearch::standard(),
            &[],
            &registry,
        )
        .expect("builds")
    });
    assert_eq!(space.geometries.len(), 18);
    assert!(
        live < LIVE_BOUND,
        "the built space holds {live} bytes, bound {LIVE_BOUND}"
    );
}

/// The run heads of `trace` when lines of `2^line_shift` bytes map onto `sets` sets: the
/// references whose line is not the last line their set saw.
fn run_heads(trace: &Trace, line_shift: u32, sets: usize) -> u64 {
    let mut last_line = vec![u64::MAX; sets];
    let mut heads = 0;
    for ev in trace.iter() {
        let line = ev.addr >> line_shift;
        let set = (line % sets as u64) as usize;
        if std::mem::replace(&mut last_line[set], line) != line {
            heads += 1;
        }
    }
    heads
}

/// The evaluator's index of a trace for the per-column model holds a 4-byte page id per
/// reference and, for each address split it has scored, a 4-byte record per run head and
/// a 4-byte offset per set (and one more). Over full-scale `gzip` under the standard
/// search, with every geometry's seed scored, the evaluator holds no more than that plus
/// 16 KiB — less than a second 4 bytes per head, so a wider record breaks the bound.
#[test]
fn the_fitness_model_holds_four_bytes_per_reference_head_and_set() {
    const SLACK: i64 = 16 << 10;
    let gzip = column_caching::workloads::corpus("gzip", false).expect("corpus workload");
    let template = SystemConfig {
        page_size: 256,
        ..SystemConfig::default()
    };
    let registry = Registry::new();
    let space = SearchSpace::build(
        &gzip.trace,
        &gzip.symbols,
        template,
        &GeometrySearch::standard(),
        &[],
        &registry,
    )
    .expect("builds");
    let seeds: Vec<_> = (0..space.geometries.len())
        .map(|g| space.seeded(g))
        .collect();
    // A serial evaluator builds every stream on this thread, where it is counted. The
    // first evaluator binds the registry's counters; measure a later one.
    drop(Evaluator::new(&space, &gzip.trace, 0, true, &registry));
    let (eval, live, _) = heap_of(|| {
        let mut eval = Evaluator::new(&space, &gzip.trace, seeds.len(), true, &registry);
        eval.evaluate_batch(&seeds).expect("scores");
        eval
    });
    assert_eq!(eval.replays(), seeds.len());
    assert_eq!(
        registry.counter_value("opt.model.evaluations"),
        seeds.len() as u64,
        "every seed is scored by the model"
    );

    let mut splits: Vec<(u32, usize)> = space
        .geometries
        .iter()
        .map(|g| {
            let cache = &g.config.cache;
            (cache.line_size().trailing_zeros(), cache.sets())
        })
        .collect();
    splits.sort_unstable();
    splits.dedup();
    let heads: u64 = splits
        .iter()
        .map(|&(line_shift, sets)| run_heads(&gzip.trace, line_shift, sets))
        .sum();
    let offsets: u64 = splits.iter().map(|&(_, sets)| sets as u64 + 1).sum();
    let references = gzip.trace.len() as u64;
    let bound = (4 * (references + heads + offsets)) as i64 + SLACK;
    assert!(
        live <= bound,
        "the evaluator holds {live} bytes for {references} references, {heads} heads over \
         {} splits and {offsets} set offsets; bound {bound}",
        splits.len()
    );
    assert!(
        SLACK < 4 * heads as i64,
        "a wider record must break the bound"
    );
}

/// A partition point and a dynamic run read the workload's own events through their
/// placement: over the MPEG routines at 5/3 of Figure 4's block counts (about 200,000
/// events), neither holds as much as half of the in-memory trace on top of what was live
/// before the call.
#[test]
fn partition_points_and_dynamic_runs_hold_no_copy_of_the_trace() {
    let event_bytes = std::mem::size_of::<MemAccess>() as i64;
    let config = figure4_geometry().system_config().expect("valid geometry");
    let registry = Registry::new();
    let mpeg = MpegConfig {
        dequant_blocks: 20,
        plus_blocks: 12,
        idct_blocks: 80,
        ..MpegConfig::default()
    };

    let combined = run_combined(&mpeg);
    let trace_bytes = combined.trace.len() as i64 * event_bytes;
    assert!(
        (180_000..=240_000).contains(&combined.trace.len()),
        "{} events",
        combined.trace.len()
    );
    let (point, _, peak) = heap_of(|| {
        run_partition_point_in(BackendKind::ColumnCache, &combined, &config, 2, &registry)
    });
    point.expect("runs");
    assert!(
        peak < trace_bytes / 2,
        "a partition point held {peak} bytes over a {trace_bytes}-byte trace"
    );

    let (phases, symbols) = run_phases(&mpeg);
    let events: usize = phases.iter().map(|(_, trace)| trace.len()).sum();
    let trace_bytes = events as i64 * event_bytes;
    let (run, _, peak) = heap_of(|| run_dynamic_in(&phases, &symbols, &config, &registry, None));
    run.expect("runs");
    assert!(
        peak < trace_bytes / 2,
        "a dynamic run held {peak} bytes over {trace_bytes} bytes of phases"
    );
}
