//! Trace-driven simulator of a software-controlled (column) cache and its memory system.
//!
//! This crate implements the *hardware* half of the paper: a set-associative cache whose
//! replacement unit can be restricted, per access, to a subset of its ways ("columns"), the
//! TLB/page-table machinery that carries the mapping information (as *tints*) and a
//! cycle-approximate timing model.
//!
//! The main entry point is [`system::MemorySystem`], which exposes both the datapath
//! (replay memory references, collect hit/miss/cycle statistics) and the software control
//! interface (define tints, remap tints to column bit-vectors, re-tint address ranges,
//! dedicate columns as scratchpad).
//!
//! # Quick start
//!
//! ```
//! use ccache_sim::prelude::*;
//!
//! let mut sys = MemorySystem::with_default_cache(); // 2 KiB, 4 columns, 32-byte lines
//!
//! // Give the address range of a critical variable its own column.
//! sys.define_tint(Tint(1), ColumnMask::single(0))?;
//! sys.tint_range(0x1000..0x1200, Tint(1));
//!
//! // Replay some references.
//! let cycles = sys.run((0..16u64).map(|i| (0x1000 + i * 32, false)));
//! assert!(cycles > 0);
//! assert_eq!(sys.cache_stats().misses, 16);
//! # Ok::<(), ccache_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod cache;
pub mod config;
pub mod error;
pub mod json;
pub mod mask;
pub mod page_table;
pub mod replacement;
pub mod stats;
pub mod system;
pub mod tint;
pub mod tlb;

pub use backend::{build_backend, BackendKind, IdealScratchpad, MemoryBackend, SetAssocBaseline};
pub use cache::{AccessOutcome, CacheLine, ColumnCache, Eviction};
pub use config::{CacheConfig, CacheConfigBuilder, LatencyConfig, MAX_CAPACITY_BYTES, MAX_SETS};
pub use error::SimError;
pub use mask::ColumnMask;
pub use page_table::{PageEntry, PageTable};
pub use replacement::{ReplacementPolicy, ReplacementState};
pub use stats::{CacheStats, CycleReport, MemoryStats};
pub use system::{MemorySystem, SystemConfig, MAX_TLB_ENTRIES};
pub use tint::{Tint, TintTable, MAX_TINTS};
pub use tlb::Tlb;

/// Convenient glob-import of the types most programs need.
pub mod prelude {
    pub use crate::backend::{build_backend, BackendKind, MemoryBackend};
    pub use crate::cache::{AccessOutcome, ColumnCache};
    pub use crate::config::{CacheConfig, LatencyConfig};
    pub use crate::error::SimError;
    pub use crate::mask::ColumnMask;
    pub use crate::replacement::ReplacementPolicy;
    pub use crate::stats::{CacheStats, CycleReport, MemoryStats};
    pub use crate::system::{MemorySystem, SystemConfig};
    pub use crate::tint::Tint;
}
