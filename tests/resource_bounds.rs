//! Resource bounds, checked with a counting allocator.
//!
//! The global allocator below counts the allocations and requested bytes of the current
//! thread while that thread has counting switched on, so the test harness's other
//! threads cannot perturb a measurement.

use column_caching::core::engine::ReplayEngine;
use column_caching::sim::{
    BackendKind, CacheConfig, ReplacementPolicy, SystemConfig, MAX_CAPACITY_BYTES, MAX_SETS,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` if the current thread is counting. `try_with`
/// because the allocator also runs while a thread's locals are being torn down.
fn record(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            BYTES.with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards to the system allocator unchanged; counting only reads
// and writes const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
