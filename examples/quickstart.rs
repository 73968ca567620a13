//! Quickstart: partition a cache between a hot lookup table and a streaming buffer.
//!
//! A tiny embedded loop keeps returning to a small lookup table while also sweeping a
//! large input stream. In a shared cache the stream keeps evicting the table; a column
//! cache confines the stream to one column so the table stays resident.
//!
//! Run with: `cargo run --example quickstart`

use column_caching::exp::GeometrySpec;
use column_caching::prelude::*;
use column_caching::trace::synth::sequential_scan;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Build a reference stream: (hot table scan, big stream, hot table scan) x 4 ----
    let table_base = 0x0u64;
    let table_bytes = 512; // one column's worth
    let stream_base = 0x10_0000u64;
    let stream_bytes = 4 * 1024; // larger than the 2 KiB cache, so it evicts everything

    let mut trace = Trace::new();
    for _ in 0..16 {
        // the hot table is consulted heavily...
        trace.extend_from(&sequential_scan(table_base, table_bytes, 8, 4, 8, None));
        // ...then a buffer larger than the cache streams through
        trace.extend_from(&sequential_scan(stream_base, stream_bytes, 32, 4, 1, None));
    }
    println!("reference stream: {} accesses", trace.len());

    let session = Session::builder()
        .geometry(GeometrySpec {
            page: 256,
            ..GeometrySpec::default()
        })
        .build()?;
    let config = session.config();
    println!(
        "cache: {} bytes, {} columns of {} bytes, {}-byte lines",
        config.cache.capacity_bytes(),
        config.cache.columns(),
        config.cache.column_bytes(),
        config.cache.line_size()
    );

    // --- 1. Shared cache: every access may replace into any column -----------------------
    let shared = session.replay("shared", &trace)?.result;

    // --- 2. Column cache: the stream is confined to column 3 -----------------------------
    let mut mapping = CacheMapping::new();
    mapping.map(
        stream_base,
        stream_bytes,
        RegionMapping::Columns {
            mask: ColumnMask::single(3),
        },
    );
    let partitioned = session
        .replay_mapped("partitioned", &trace, &mapping)?
        .result;

    // --- 3. Column cache with the table mapped as scratchpad -----------------------------
    let mut sp_mapping = CacheMapping::new();
    sp_mapping.map(
        stream_base,
        stream_bytes,
        RegionMapping::Columns {
            mask: ColumnMask::single(3),
        },
    );
    sp_mapping.map(
        table_base,
        table_bytes,
        RegionMapping::Exclusive {
            mask: ColumnMask::single(0),
            preload: true,
        },
    );
    let scratchpad = session
        .replay_mapped("scratchpad", &trace, &sp_mapping)?
        .result;

    println!();
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>8}",
        "configuration", "cycles", "hits", "misses", "CPI"
    );
    for r in [&shared, &partitioned, &scratchpad] {
        println!(
            "{:<28} {:>10} {:>10} {:>10} {:>8.3}",
            r.name,
            r.total_cycles(),
            r.hits,
            r.misses,
            r.cpi()
        );
    }
    println!();
    println!(
        "column caching removes {} misses ({}% of cycles) relative to the shared cache",
        shared.misses - scratchpad.misses,
        100 * (shared.total_cycles() - scratchpad.total_cycles()) / shared.total_cycles()
    );
    Ok(())
}
