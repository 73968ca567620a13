//! Cache and memory-system configuration.

use crate::error::SimError;
use crate::replacement::ReplacementPolicy;

/// Geometry and policy of one column cache.
///
/// Capacity is `columns * sets_per_column * line_size` bytes; a *column* is one way of the
/// set-associative cache, so an ordinary `n`-way cache is a column cache with `n` columns
/// whose every access carries a full mask.
///
/// Use [`CacheConfig::builder`] to construct a validated configuration:
///
/// ```
/// use ccache_sim::config::CacheConfig;
///
/// let cfg = CacheConfig::builder()
///     .capacity_bytes(2048)
///     .columns(4)
///     .line_size(32)
///     .build()?;
/// assert_eq!(cfg.sets(), 16);
/// assert_eq!(cfg.column_bytes(), 512);
/// # Ok::<(), ccache_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    capacity_bytes: u64,
    columns: usize,
    line_size: u64,
    replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// Starts building a configuration. Defaults: 2 KiB capacity, 4 columns, 32-byte lines,
    /// LRU replacement — the on-chip memory used in the paper's Figure 4 experiments.
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder::default()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of columns (ways).
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Cache-line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Replacement policy.
    pub fn replacement(&self) -> ReplacementPolicy {
        self.replacement
    }

    /// Number of sets (capacity / columns / line size).
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / self.columns as u64 / self.line_size) as usize
    }

    /// Bytes held by one column (capacity / columns).
    pub fn column_bytes(&self) -> u64 {
        self.capacity_bytes / self.columns as u64
    }

    /// Total number of lines in the cache.
    pub fn total_lines(&self) -> usize {
        self.sets() * self.columns
    }

    /// Splits an address into (tag, set index, offset within line).
    pub fn split_addr(&self, addr: u64) -> (u64, usize, u64) {
        let offset = addr % self.line_size;
        let line_addr = addr / self.line_size;
        let set = (line_addr % self.sets() as u64) as usize;
        let tag = line_addr / self.sets() as u64;
        (tag, set, offset)
    }

    /// Reconstructs the base address of a line from its tag and set index.
    pub fn line_addr(&self, tag: u64, set: usize) -> u64 {
        (tag * self.sets() as u64 + set as u64) * self.line_size
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::builder()
            .build()
            .expect("default config is valid")
    }
}

/// The largest capacity [`CacheConfigBuilder::build`] accepts: 1 MiB, eight times the
/// largest cache the paper's experiments model (Figure 5's 128 KiB). Engines allocate
/// their per-set state up front, so this bound is what keeps a geometry from a spec
/// file, a CLI flag or a serve request from exhausting memory before any replay starts.
pub const MAX_CAPACITY_BYTES: u64 = 1 << 20;

/// The most sets [`CacheConfigBuilder::build`] accepts: 32,768, as in a 1 MiB
/// direct-mapped cache of 32-byte lines. Engines keep replacement state, a way hint and
/// valid and dirty bits per set, so without this bound a 1 MiB cache of 1-byte lines
/// would ask for 2^20 sets.
pub const MAX_SETS: usize = 1 << 15;

/// Builder for [`CacheConfig`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfigBuilder {
    capacity_bytes: u64,
    columns: usize,
    line_size: u64,
    replacement: ReplacementPolicy,
}

impl Default for CacheConfigBuilder {
    fn default() -> Self {
        CacheConfigBuilder {
            capacity_bytes: 2048,
            columns: 4,
            line_size: 32,
            replacement: ReplacementPolicy::Lru,
        }
    }
}

impl CacheConfigBuilder {
    /// Sets the total capacity in bytes (power of two).
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.capacity_bytes = bytes;
        self
    }

    /// Sets the number of columns (ways).
    pub fn columns(mut self, columns: usize) -> Self {
        self.columns = columns;
        self
    }

    /// Sets the line size in bytes (power of two).
    pub fn line_size(mut self, bytes: u64) -> Self {
        self.line_size = bytes;
        self
    }

    /// Sets the replacement policy.
    pub fn replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.replacement = policy;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadSize`] if capacity or line size is zero or not a power of two
    /// and [`SimError::BadGeometry`] if capacity exceeds [`MAX_CAPACITY_BYTES`], is not
    /// divisible into at least one full set per column, makes more than [`MAX_SETS`]
    /// sets, or the column count is unsupported.
    pub fn build(self) -> Result<CacheConfig, SimError> {
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_power_of_two() {
            return Err(SimError::BadSize {
                what: "capacity",
                value: self.capacity_bytes,
            });
        }
        if self.capacity_bytes > MAX_CAPACITY_BYTES {
            return Err(SimError::BadGeometry {
                reason: format!(
                    "capacity {} exceeds the {MAX_CAPACITY_BYTES}-byte limit",
                    self.capacity_bytes
                ),
            });
        }
        if self.line_size == 0 || !self.line_size.is_power_of_two() {
            return Err(SimError::BadSize {
                what: "line size",
                value: self.line_size,
            });
        }
        if self.columns == 0 || self.columns > crate::mask::MAX_COLUMNS {
            return Err(SimError::BadGeometry {
                reason: format!(
                    "column count {} must be in 1..={}",
                    self.columns,
                    crate::mask::MAX_COLUMNS
                ),
            });
        }
        let per_column = self.capacity_bytes / self.columns as u64;
        if per_column * self.columns as u64 != self.capacity_bytes {
            return Err(SimError::BadGeometry {
                reason: format!(
                    "capacity {} not divisible by {} columns",
                    self.capacity_bytes, self.columns
                ),
            });
        }
        if per_column < self.line_size || !per_column.is_multiple_of(self.line_size) {
            return Err(SimError::BadGeometry {
                reason: format!(
                    "column of {per_column} bytes cannot hold whole {}-byte lines",
                    self.line_size
                ),
            });
        }
        let sets = per_column / self.line_size;
        if sets > MAX_SETS as u64 {
            return Err(SimError::BadGeometry {
                reason: format!("set count {sets} exceeds the {MAX_SETS}-set limit"),
            });
        }
        if !sets.is_power_of_two() {
            return Err(SimError::BadGeometry {
                reason: format!("set count {sets} must be a power of two"),
            });
        }
        Ok(CacheConfig {
            capacity_bytes: self.capacity_bytes,
            columns: self.columns,
            line_size: self.line_size,
            replacement: self.replacement,
        })
    }
}

/// Latency parameters of the simulated memory system, in CPU cycles.
///
/// These defaults model a small embedded system-on-chip: single-cycle hits, a modest
/// off-chip miss penalty and a single-cycle scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Cycles charged for a cache hit (and for the lookup portion of a miss).
    pub hit_latency: u64,
    /// Additional cycles charged for fetching a line from main memory on a miss.
    pub miss_penalty: u64,
    /// Additional cycles charged when a dirty victim line must be written back.
    pub writeback_penalty: u64,
    /// Cycles charged per reference by the ideal-scratchpad backend.
    pub scratchpad_latency: u64,
    /// Cycles charged for an uncached access that goes straight to main memory.
    pub uncached_latency: u64,
    /// Additional cycles charged when the TLB misses and the page table must be walked.
    pub tlb_miss_penalty: u64,
    /// Non-memory (compute) cycles charged per instruction when deriving CPI.
    pub compute_cycles_per_instruction: u64,
    /// Number of instructions represented by one memory reference in the trace
    /// (i.e. one in every `instructions_per_reference` instructions touches memory).
    pub instructions_per_reference: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            hit_latency: 1,
            miss_penalty: 20,
            writeback_penalty: 10,
            scratchpad_latency: 1,
            uncached_latency: 30,
            tlb_miss_penalty: 20,
            compute_cycles_per_instruction: 1,
            instructions_per_reference: 3,
        }
    }
}

impl LatencyConfig {
    /// A latency configuration with every penalty but the hit latency set to zero, useful
    /// for tests that want to count events rather than cycles.
    pub fn zero_penalty() -> Self {
        LatencyConfig {
            hit_latency: 1,
            miss_penalty: 0,
            writeback_penalty: 0,
            scratchpad_latency: 1,
            uncached_latency: 0,
            tlb_miss_penalty: 0,
            compute_cycles_per_instruction: 1,
            instructions_per_reference: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_figure4_memory() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.capacity_bytes(), 2048);
        assert_eq!(cfg.columns(), 4);
        assert_eq!(cfg.line_size(), 32);
        assert_eq!(cfg.sets(), 16);
        assert_eq!(cfg.column_bytes(), 512);
        assert_eq!(cfg.total_lines(), 64);
        assert_eq!(cfg.replacement(), ReplacementPolicy::Lru);
    }

    #[test]
    fn builder_validates_power_of_two() {
        assert!(matches!(
            CacheConfig::builder().capacity_bytes(3000).build(),
            Err(SimError::BadSize {
                what: "capacity",
                ..
            })
        ));
        assert!(matches!(
            CacheConfig::builder().line_size(48).build(),
            Err(SimError::BadSize {
                what: "line size",
                ..
            })
        ));
        assert!(matches!(
            CacheConfig::builder().columns(0).build(),
            Err(SimError::BadGeometry { .. })
        ));
        assert!(matches!(
            CacheConfig::builder().columns(65).build(),
            Err(SimError::BadGeometry { .. })
        ));
    }

    #[test]
    fn builder_bounds_capacity_before_anything_is_allocated() {
        let at_limit = CacheConfig::builder()
            .capacity_bytes(MAX_CAPACITY_BYTES)
            .build()
            .unwrap();
        assert_eq!(at_limit.capacity_bytes(), MAX_CAPACITY_BYTES);
        for capacity in [MAX_CAPACITY_BYTES << 1, 1 << 34, 1 << 40, 1 << 63] {
            let err = CacheConfig::builder()
                .capacity_bytes(capacity)
                .build()
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "inconsistent cache geometry: capacity {capacity} exceeds the \
                     1048576-byte limit"
                )
            );
        }
    }

    #[test]
    fn builder_bounds_the_set_count_before_anything_is_allocated() {
        let build = |columns: usize, line: u64| {
            CacheConfig::builder()
                .capacity_bytes(MAX_CAPACITY_BYTES)
                .columns(columns)
                .line_size(line)
                .build()
        };
        // 1 MiB of 32-byte lines in one column, or of 1-byte lines in 32 columns
        for (columns, line) in [(1, 32), (32, 1)] {
            assert_eq!(build(columns, line).unwrap().sets(), MAX_SETS);
        }
        for (columns, line, sets) in [(1, 16, 65_536), (16, 1, 65_536), (1, 1, 1 << 20)] {
            assert_eq!(
                build(columns, line).unwrap_err().to_string(),
                format!(
                    "inconsistent cache geometry: set count {sets} exceeds the 32768-set limit"
                )
            );
        }
    }

    #[test]
    fn builder_rejects_column_smaller_than_line() {
        let r = CacheConfig::builder()
            .capacity_bytes(64)
            .columns(4)
            .line_size(32)
            .build();
        assert!(matches!(r, Err(SimError::BadGeometry { .. })));
    }

    #[test]
    fn builder_rejects_non_power_of_two_sets() {
        // capacity 1536 is not a power of two -> caught earlier; craft 3 columns instead
        let r = CacheConfig::builder()
            .capacity_bytes(2048)
            .columns(3)
            .line_size(32)
            .build();
        // 2048 / 3 is not exact
        assert!(matches!(r, Err(SimError::BadGeometry { .. })));
    }

    #[test]
    fn split_and_reconstruct_addresses() {
        let cfg = CacheConfig::default();
        let addr = 0x1_2345u64;
        let (tag, set, off) = cfg.split_addr(addr);
        assert_eq!(off, addr % 32);
        assert_eq!(cfg.line_addr(tag, set), addr - off);
        // different addresses in the same line share tag and set
        let (t2, s2, _) = cfg.split_addr(addr + 1);
        assert_eq!((tag, set), (t2, s2));
    }

    #[test]
    fn sixteen_way_configuration() {
        let cfg = CacheConfig::builder()
            .capacity_bytes(16 * 1024)
            .columns(16)
            .line_size(32)
            .build()
            .unwrap();
        assert_eq!(cfg.sets(), 32);
        assert_eq!(cfg.column_bytes(), 1024);
    }

    #[test]
    fn latency_defaults_and_zero_penalty() {
        let l = LatencyConfig::default();
        assert_eq!(l.hit_latency, 1);
        assert!(l.miss_penalty > l.hit_latency);
        let z = LatencyConfig::zero_penalty();
        assert_eq!(z.miss_penalty, 0);
        assert_eq!(z.instructions_per_reference, 1);
    }
}
