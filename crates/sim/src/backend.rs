//! Pluggable memory backends: the access + control-op surface experiments drive.
//!
//! The experiment runners in `ccache-core` replay traces against *some* memory system and
//! reprogram it between phases. [`MemoryBackend`] abstracts that surface so the same
//! runner code can drive:
//!
//! * [`MemorySystem`] — the paper's column cache (the default);
//! * [`SetAssocBaseline`] — the same hardware with the column-mapping control interface
//!   disconnected, i.e. a conventional set-associative cache;
//! * [`IdealScratchpad`] — every reference served at scratchpad latency, the lower bound
//!   an on-chip memory of unlimited capacity would achieve.
//!
//! The trait is object-safe: runners hold `Box<dyn MemoryBackend>` and sweep points clone
//! a configured backend via [`MemoryBackend::boxed_clone`] instead of rebuilding and
//! reprogramming one from scratch.

use crate::error::SimError;
use crate::mask::ColumnMask;
use crate::stats::{CacheStats, CycleReport, MemoryStats};
use crate::system::{MemorySystem, SystemConfig};
use crate::tint::Tint;
use std::ops::Range;

/// The access datapath and software control surface of a simulated memory system.
///
/// Cycle accounting and statistics follow [`MemorySystem`]'s conventions: `access`
/// returns the cycles of one reference, control operations accumulate into
/// [`MemoryBackend::control_cycles`], and [`MemoryBackend::reset_stats`] clears counters
/// without touching contents or mappings.
///
/// # Example: build a backend, program tints, replay, read stats
///
/// ```
/// use ccache_sim::backend::{build_backend, BackendKind};
/// use ccache_sim::{ColumnMask, SystemConfig, Tint};
///
/// let mut backend = build_backend(BackendKind::ColumnCache, SystemConfig::default())?;
///
/// // Program tints: give a hot 2 KiB region its own column.
/// backend.define_tint(Tint(1), ColumnMask::single(0))?;
/// backend.tint_range(0x1000..0x1800, Tint(1));
///
/// // Replay a reference stream and read the statistics.
/// let refs: Vec<(u64, bool)> = (0..64u64).map(|i| (0x1000 + i * 32, false)).collect();
/// let cycles = backend.run_batch(&refs);
/// assert!(cycles > 0);
/// assert_eq!(backend.stats().references, 64);
/// assert!(backend.cache_stats().misses > 0);
/// # Ok::<(), ccache_sim::SimError>(())
/// ```
pub trait MemoryBackend: Send + Sync {
    /// A short stable identifier (`"column-cache"`, `"set-assoc"`, `"ideal-scratchpad"`).
    fn name(&self) -> &'static str;

    /// The configuration the backend was built from.
    fn config(&self) -> &SystemConfig;

    /// Replays one memory reference and returns the cycles it took.
    fn access(&mut self, addr: u64, is_write: bool) -> u64;

    /// Replays a slice of references through [`MemoryBackend::access`] and returns the
    /// total cycles.
    fn run_batch(&mut self, refs: &[(u64, bool)]) -> u64 {
        refs.iter().map(|&(a, w)| self.access(a, w)).sum()
    }

    /// Defines (or redefines) the column mask of a tint.
    fn define_tint(&mut self, tint: Tint, mask: ColumnMask) -> Result<(), SimError>;

    /// Gives `tint` exclusive use of the columns in `mask`; returns tints that kept a
    /// column they would otherwise have lost.
    fn make_tint_exclusive(&mut self, tint: Tint, mask: ColumnMask) -> Result<Vec<Tint>, SimError>;

    /// Assigns `tint` to every page overlapping `range`; returns the pages changed.
    fn tint_range(&mut self, range: Range<u64>, tint: Tint) -> usize;

    /// Marks pages overlapping `range` (un)cacheable; returns the pages changed.
    fn set_cacheable(&mut self, range: Range<u64>, cacheable: bool) -> usize;

    /// Maps `[base, base + size)` exclusively to `mask` under `tint`, optionally
    /// pre-loading it (scratchpad emulation). Returns the tint used.
    fn map_exclusive_region(
        &mut self,
        base: u64,
        size: u64,
        mask: ColumnMask,
        tint: Tint,
        preload: bool,
    ) -> Result<Tint, SimError>;

    /// Memory-system statistics accumulated since the last reset.
    fn stats(&self) -> &MemoryStats;

    /// Cache statistics accumulated since the last reset.
    fn cache_stats(&self) -> &CacheStats;

    /// Cycles spent in software control operations since the last reset.
    fn control_cycles(&self) -> u64;

    /// Cycle/CPI report for everything replayed since the last reset; control cycles
    /// are reported on their own ([`MemoryBackend::control_cycles`]), never in it.
    fn cycle_report(&self) -> CycleReport;

    /// Clears statistics; contents and mappings survive.
    fn reset_stats(&mut self);

    /// Returns the backend to its just-constructed state: contents, mappings and
    /// statistics are all cleared.
    fn full_reset(&mut self);

    /// Clones the backend — contents, mappings, statistics and all — behind a fresh box.
    /// This is the snapshot primitive of the replay engine.
    fn boxed_clone(&self) -> Box<dyn MemoryBackend>;
}

impl MemoryBackend for MemorySystem {
    fn name(&self) -> &'static str {
        "column-cache"
    }

    fn config(&self) -> &SystemConfig {
        MemorySystem::config(self)
    }

    #[inline]
    fn access(&mut self, addr: u64, is_write: bool) -> u64 {
        MemorySystem::access(self, addr, is_write)
    }

    fn define_tint(&mut self, tint: Tint, mask: ColumnMask) -> Result<(), SimError> {
        MemorySystem::define_tint(self, tint, mask)
    }

    fn make_tint_exclusive(&mut self, tint: Tint, mask: ColumnMask) -> Result<Vec<Tint>, SimError> {
        MemorySystem::make_tint_exclusive(self, tint, mask)
    }

    fn tint_range(&mut self, range: Range<u64>, tint: Tint) -> usize {
        MemorySystem::tint_range(self, range, tint)
    }

    fn set_cacheable(&mut self, range: Range<u64>, cacheable: bool) -> usize {
        MemorySystem::set_cacheable(self, range, cacheable)
    }

    fn map_exclusive_region(
        &mut self,
        base: u64,
        size: u64,
        mask: ColumnMask,
        tint: Tint,
        preload: bool,
    ) -> Result<Tint, SimError> {
        MemorySystem::map_exclusive_region(self, base, size, mask, tint, preload)
    }

    fn stats(&self) -> &MemoryStats {
        MemorySystem::stats(self)
    }

    fn cache_stats(&self) -> &CacheStats {
        MemorySystem::cache_stats(self)
    }

    fn control_cycles(&self) -> u64 {
        self.control_cycles
    }

    fn cycle_report(&self) -> CycleReport {
        MemorySystem::cycle_report(self)
    }

    fn reset_stats(&mut self) {
        MemorySystem::reset_stats(self)
    }

    fn full_reset(&mut self) {
        MemorySystem::full_reset(self)
    }

    fn boxed_clone(&self) -> Box<dyn MemoryBackend> {
        Box::new(self.clone())
    }
}

/// A conventional set-associative cache: the column-cache datapath with the mapping
/// control surface disconnected.
///
/// Every tint-related control operation is accepted and ignored, so every access replaces
/// into the full set — exactly the "standard cache" baseline of the paper's figures.
/// Cacheability control is kept: uncacheable regions are ordinary hardware, not part of
/// the column-mapping mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocBaseline {
    inner: MemorySystem,
}

impl SetAssocBaseline {
    /// Creates a baseline cache from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: SystemConfig) -> Result<Self, SimError> {
        Ok(SetAssocBaseline {
            inner: MemorySystem::new(config)?,
        })
    }

    /// Read-only view of the wrapped memory system.
    pub fn inner(&self) -> &MemorySystem {
        &self.inner
    }
}

impl MemoryBackend for SetAssocBaseline {
    fn name(&self) -> &'static str {
        "set-assoc"
    }

    fn config(&self) -> &SystemConfig {
        MemorySystem::config(&self.inner)
    }

    #[inline]
    fn access(&mut self, addr: u64, is_write: bool) -> u64 {
        self.inner.access(addr, is_write)
    }

    fn define_tint(&mut self, _tint: Tint, _mask: ColumnMask) -> Result<(), SimError> {
        Ok(())
    }

    fn make_tint_exclusive(
        &mut self,
        _tint: Tint,
        _mask: ColumnMask,
    ) -> Result<Vec<Tint>, SimError> {
        Ok(Vec::new())
    }

    fn tint_range(&mut self, _range: Range<u64>, _tint: Tint) -> usize {
        0
    }

    fn set_cacheable(&mut self, range: Range<u64>, cacheable: bool) -> usize {
        self.inner.set_cacheable(range, cacheable)
    }

    fn map_exclusive_region(
        &mut self,
        _base: u64,
        _size: u64,
        _mask: ColumnMask,
        tint: Tint,
        _preload: bool,
    ) -> Result<Tint, SimError> {
        // A conventional cache cannot dedicate columns; the region simply competes for
        // the whole cache like everything else.
        Ok(tint)
    }

    fn stats(&self) -> &MemoryStats {
        self.inner.stats()
    }

    fn cache_stats(&self) -> &CacheStats {
        self.inner.cache_stats()
    }

    fn control_cycles(&self) -> u64 {
        self.inner.control_cycles
    }

    fn cycle_report(&self) -> CycleReport {
        self.inner.cycle_report()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn full_reset(&mut self) {
        self.inner.full_reset()
    }

    fn boxed_clone(&self) -> Box<dyn MemoryBackend> {
        Box::new(self.clone())
    }
}

/// An idealised on-chip memory: every reference is served at scratchpad latency.
///
/// No real partition can beat it, which makes it the normalising lower bound for sweep
/// plots. Statistics count references and their cycles; the cache counters and control
/// cycles stay zero, since it has neither a cache nor a control surface.
#[derive(Debug, Clone, PartialEq)]
pub struct IdealScratchpad {
    config: SystemConfig,
    stats: MemoryStats,
    cache_stats: CacheStats,
}

impl IdealScratchpad {
    /// Creates an ideal scratchpad with the given configuration (only the latency model
    /// and instruction mix are used).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: SystemConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(IdealScratchpad {
            config,
            stats: MemoryStats::default(),
            cache_stats: CacheStats::default(),
        })
    }
}

impl MemoryBackend for IdealScratchpad {
    fn name(&self) -> &'static str {
        "ideal-scratchpad"
    }

    fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn access(&mut self, _addr: u64, _is_write: bool) -> u64 {
        let cycles = self.config.latency.scratchpad_latency;
        self.stats.references += 1;
        self.stats.memory_cycles += cycles;
        cycles
    }

    fn define_tint(&mut self, _tint: Tint, _mask: ColumnMask) -> Result<(), SimError> {
        Ok(())
    }

    fn make_tint_exclusive(
        &mut self,
        _tint: Tint,
        _mask: ColumnMask,
    ) -> Result<Vec<Tint>, SimError> {
        Ok(Vec::new())
    }

    fn tint_range(&mut self, _range: Range<u64>, _tint: Tint) -> usize {
        0
    }

    fn set_cacheable(&mut self, _range: Range<u64>, _cacheable: bool) -> usize {
        0
    }

    fn map_exclusive_region(
        &mut self,
        _base: u64,
        _size: u64,
        _mask: ColumnMask,
        tint: Tint,
        _preload: bool,
    ) -> Result<Tint, SimError> {
        Ok(tint)
    }

    fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    fn cache_stats(&self) -> &CacheStats {
        &self.cache_stats
    }

    fn control_cycles(&self) -> u64 {
        0
    }

    fn cycle_report(&self) -> CycleReport {
        CycleReport::from_stats(&self.stats, &self.config.latency)
    }

    fn reset_stats(&mut self) {
        self.stats = MemoryStats::default();
    }

    fn full_reset(&mut self) {
        self.reset_stats();
    }

    fn boxed_clone(&self) -> Box<dyn MemoryBackend> {
        Box::new(self.clone())
    }
}

/// The backends experiments can request by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The software-controlled column cache ([`MemorySystem`]).
    #[default]
    ColumnCache,
    /// A conventional set-associative cache ([`SetAssocBaseline`]).
    SetAssociative,
    /// The ideal lower bound ([`IdealScratchpad`]).
    IdealScratchpad,
}

impl BackendKind {
    /// Every kind, for sweeps over backends.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::ColumnCache,
        BackendKind::SetAssociative,
        BackendKind::IdealScratchpad,
    ];

    /// The canonical name: what [`std::fmt::Display`] prints and what artefacts spell.
    pub const fn canonical_name(self) -> &'static str {
        match self {
            BackendKind::ColumnCache => "column-cache",
            BackendKind::SetAssociative => "set-assoc",
            BackendKind::IdealScratchpad => "ideal-scratchpad",
        }
    }

    /// The short command-line name shown in `expected ...` lists.
    pub const fn short_name(self) -> &'static str {
        match self {
            BackendKind::ColumnCache => "column",
            BackendKind::SetAssociative => "set-assoc",
            BackendKind::IdealScratchpad => "ideal",
        }
    }

    /// Parses a backend name: the canonical name, the short name, or one of the
    /// set-associative baseline's aliases `setassoc` and `baseline`. The CLI flags and
    /// the experiment-spec grammar both resolve names here.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "setassoc" | "baseline" => Some(BackendKind::SetAssociative),
            _ => BackendKind::ALL
                .into_iter()
                .find(|kind| s == kind.canonical_name() || s == kind.short_name()),
        }
    }

    /// The short names as usage text for single-backend flags.
    pub const fn expected_single() -> &'static str {
        "column, set-assoc or ideal"
    }

    /// As [`BackendKind::expected_single`], for flags that also accept `all`.
    pub const fn expected_list() -> &'static str {
        "column, set-assoc, ideal or all"
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.canonical_name())
    }
}

/// Builds a boxed backend of the requested kind.
///
/// # Errors
///
/// Returns an error if the configuration is invalid.
pub fn build_backend(
    kind: BackendKind,
    config: SystemConfig,
) -> Result<Box<dyn MemoryBackend>, SimError> {
    Ok(match kind {
        BackendKind::ColumnCache => Box::new(MemorySystem::new(config)?),
        BackendKind::SetAssociative => Box::new(SetAssocBaseline::new(config)?),
        BackendKind::IdealScratchpad => Box::new(IdealScratchpad::new(config)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(n: u64) -> Vec<(u64, bool)> {
        (0..n).map(|i| (i * 64, i % 3 == 0)).collect()
    }

    #[test]
    fn column_backend_matches_direct_memory_system() {
        let cfg = SystemConfig::default();
        let mut direct = MemorySystem::new(cfg).unwrap();
        let mut boxed = build_backend(BackendKind::ColumnCache, cfg).unwrap();
        let r = refs(500);
        let direct_cycles: u64 = r.iter().map(|&(a, w)| direct.access(a, w)).sum();
        let boxed_cycles = boxed.run_batch(&r);
        assert_eq!(direct_cycles, boxed_cycles);
        assert_eq!(direct.stats(), boxed.stats());
        assert_eq!(direct.cache_stats(), boxed.cache_stats());
    }

    #[test]
    fn baseline_ignores_tint_control() {
        let cfg = SystemConfig::default();
        let mut baseline = SetAssocBaseline::new(cfg).unwrap();
        baseline
            .define_tint(Tint(1), ColumnMask::single(0))
            .unwrap();
        assert_eq!(baseline.tint_range(0..4096, Tint(1)), 0);
        // fills still use every column
        for i in 0..4u64 {
            baseline.access(i * 2048, false);
        }
        let occupied = (0..4)
            .filter(|&c| baseline.inner().cache().occupancy(c).unwrap() > 0)
            .count();
        assert_eq!(occupied, 4);
        assert_eq!(baseline.control_cycles(), 0);
    }

    #[test]
    fn ideal_scratchpad_is_a_lower_bound() {
        let cfg = SystemConfig::default();
        let mut ideal = IdealScratchpad::new(cfg).unwrap();
        let mut column = MemorySystem::new(cfg).unwrap();
        let r = refs(200);
        let ideal_cycles = ideal.run_batch(&r);
        let column_cycles = column.run_batch(&r);
        assert!(ideal_cycles <= column_cycles);
        assert_eq!(ideal.stats().references, 200);
        assert_eq!(ideal.cache_stats().accesses, 0);
        assert_eq!(
            ideal.cycle_report().memory_cycles,
            200 * cfg.latency.scratchpad_latency
        );
    }

    #[test]
    fn boxed_clone_snapshots_contents_and_stats() {
        let cfg = SystemConfig::default();
        let mut backend = build_backend(BackendKind::ColumnCache, cfg).unwrap();
        backend.define_tint(Tint(1), ColumnMask::single(2)).unwrap();
        backend.tint_range(0..2048, Tint(1));
        backend.run_batch(&refs(100));
        let mut snap = backend.boxed_clone();
        assert_eq!(snap.stats(), backend.stats());
        // the clone evolves independently
        snap.run_batch(&refs(50));
        assert_ne!(snap.stats().references, backend.stats().references);
    }

    #[test]
    fn full_reset_restores_pristine_state() {
        let cfg = SystemConfig::default();
        let mut backend = build_backend(BackendKind::ColumnCache, cfg).unwrap();
        backend.define_tint(Tint(1), ColumnMask::single(0)).unwrap();
        backend.tint_range(0..8192, Tint(1));
        backend.run_batch(&refs(300));
        backend.full_reset();
        let fresh = build_backend(BackendKind::ColumnCache, cfg).unwrap();
        assert_eq!(backend.stats(), fresh.stats());
        assert_eq!(backend.cache_stats(), fresh.cache_stats());
        assert_eq!(backend.control_cycles(), 0);
    }

    #[test]
    fn kinds_parse_and_display() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(BackendKind::parse("column"), Some(BackendKind::ColumnCache));
        assert_eq!(
            BackendKind::parse("baseline"),
            Some(BackendKind::SetAssociative)
        );
        assert_eq!(BackendKind::parse("bogus"), None);
        assert_eq!(BackendKind::default(), BackendKind::ColumnCache);
    }

    #[test]
    fn expected_lists_name_every_short_name_in_order() {
        let shorts = BackendKind::ALL.map(BackendKind::short_name);
        assert_eq!(
            BackendKind::expected_single(),
            format!("{}, {} or {}", shorts[0], shorts[1], shorts[2])
        );
        assert_eq!(
            BackendKind::expected_list(),
            format!("{}, {}, {} or all", shorts[0], shorts[1], shorts[2])
        );
        for short in shorts {
            assert!(BackendKind::parse(short).is_some());
        }
    }
}
