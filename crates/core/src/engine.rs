//! The replay engine: batched trace replay over a pluggable memory backend, with cheap
//! snapshot/reset.
//!
//! Every replay in the workspace — experiment jobs, tuner fitness evaluations, streamed
//! trace files, the Figure 5 round-robin schedule — runs through the one batch loop of
//! [`ReplayEngine::replay_from`]:
//!
//! * references come from a [`RefSource`]: in-memory events staged into the engine's
//!   buffer, pre-decoded `(addr, is_write)` references lent without a copy, a streaming
//!   [`TraceReader`], or a caller-defined source such as the multitask scheduler;
//! * they are fed to the backend in **batches** ([`MemoryBackend::run_batch`]), which
//!   runs each reference through the backend's one per-reference datapath, so
//!   statistics are those of per-reference replay ([`run_on`](crate::runner::run_on));
//! * observation is an `Option`: with an observer attached, window boundaries shorten
//!   batches and a [`ReplayObserver`] receives one sample per window; without one the
//!   loop is the same code minus those calls;
//! * [`ReplayEngine::snapshot`] captures the fully programmed system (tints, page table,
//!   preloaded lines) and [`ReplayEngine::reset`] restores it, so a search can reprogram
//!   tints from a warm starting point instead of reconstructing and re-mapping;
//! * the backend is a `Box<dyn MemoryBackend>`, so the same engine drives the column
//!   cache, the set-associative baseline or the ideal scratchpad.

use crate::error::CoreError;
use crate::observe::{ReplayObserver, WindowTracker};
use crate::runner::{CacheMapping, RunResult};
use ccache_sim::backend::{build_backend, BackendKind, MemoryBackend};
use ccache_sim::SystemConfig;
use ccache_telemetry::{Counter, Registry};
use ccache_trace::binfmt::TraceReader;
use ccache_trace::{MemAccess, Trace};
use std::convert::Infallible;
use std::io::BufRead;

/// References handed to the backend per [`MemoryBackend::run_batch`] call.
///
/// Large enough to amortise the per-batch bookkeeping, small enough that the staging
/// buffer stays in L1/L2.
const DEFAULT_BATCH: usize = 4096;

/// A stream of `(address, is_write)` references that [`ReplayEngine::replay_from`]
/// pulls one batch at a time.
///
/// Implemented for in-memory events (`&[MemAccess]`, staged into the engine's buffer),
/// pre-decoded references (`&[(u64, bool)]`, lent to the backend without a copy) and
/// the streaming binary [`TraceReader`] (decoded into the buffer), plus `&mut` of any
/// source.
pub trait RefSource {
    /// The decode failure; [`Infallible`] for in-memory sources.
    type Error;

    /// The next at most `max` (≥ 1) references, either lent from the source or appended
    /// to `staging` (which the engine empties before each call). An empty batch ends the
    /// replay.
    ///
    /// # Errors
    ///
    /// Fails when the underlying stream cannot be decoded; the replay stops there.
    fn next_batch<'a>(
        &'a mut self,
        staging: &'a mut Vec<(u64, bool)>,
        max: usize,
    ) -> Result<&'a [(u64, bool)], Self::Error>;

    /// Receives the cycles [`MemoryBackend::run_batch`] charged for the batch just
    /// returned. Ignored by default; the multitask scheduler credits them to the job
    /// that issued the batch.
    fn charge(&mut self, _cycles: u64) {}
}

/// Appends the `run_batch` form of `events` to `staging` and returns it.
pub(crate) fn stage<'a>(
    staging: &'a mut Vec<(u64, bool)>,
    events: &[MemAccess],
) -> &'a [(u64, bool)] {
    staging.extend(events.iter().map(|ev| (ev.addr, ev.is_write())));
    staging
}

/// Takes the first `max` elements off the front of `slice`.
pub(crate) fn take_front<'t, T>(slice: &mut &'t [T], max: usize) -> &'t [T] {
    let (head, tail) = slice.split_at(max.min(slice.len()));
    *slice = tail;
    head
}

impl RefSource for &[MemAccess] {
    type Error = Infallible;

    fn next_batch<'a>(
        &'a mut self,
        staging: &'a mut Vec<(u64, bool)>,
        max: usize,
    ) -> Result<&'a [(u64, bool)], Infallible> {
        let events = take_front(self, max);
        Ok(stage(staging, events))
    }
}

impl RefSource for &[(u64, bool)] {
    type Error = Infallible;

    fn next_batch<'a>(
        &'a mut self,
        _staging: &'a mut Vec<(u64, bool)>,
        max: usize,
    ) -> Result<&'a [(u64, bool)], Infallible> {
        Ok(take_front(self, max))
    }
}

impl<R: BufRead> RefSource for TraceReader<R> {
    type Error = std::io::Error;

    fn next_batch<'a>(
        &'a mut self,
        staging: &'a mut Vec<(u64, bool)>,
        max: usize,
    ) -> std::io::Result<&'a [(u64, bool)]> {
        self.read_chunk(staging, max)?;
        Ok(staging)
    }
}

impl<S: RefSource + ?Sized> RefSource for &mut S {
    type Error = S::Error;

    fn next_batch<'a>(
        &'a mut self,
        staging: &'a mut Vec<(u64, bool)>,
        max: usize,
    ) -> Result<&'a [(u64, bool)], S::Error> {
        (**self).next_batch(staging, max)
    }

    fn charge(&mut self, cycles: u64) {
        (**self).charge(cycles);
    }
}

/// Batched trace replay over a pluggable, snapshottable memory backend.
///
/// # Example: build a backend, program tints, replay, read stats
///
/// ```
/// use ccache_core::engine::ReplayEngine;
/// use ccache_core::runner::{CacheMapping, RegionMapping};
/// use ccache_sim::backend::BackendKind;
/// use ccache_sim::{ColumnMask, SystemConfig};
/// use ccache_trace::synth::sequential_scan;
///
/// let config = SystemConfig { page_size: 256, ..SystemConfig::default() };
/// let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config)?;
///
/// // Program tints: confine a streaming region to column 3 so it cannot evict the rest.
/// let mut mapping = CacheMapping::new();
/// mapping.map(0x10_0000, 16 * 1024, RegionMapping::Columns { mask: ColumnMask::single(3) });
/// engine.apply(&mapping)?;
///
/// // Replay a trace and read the statistics.
/// let trace = sequential_scan(0x10_0000, 16 * 1024, 32, 4, 2, None);
/// let result = engine.replay("stream", &trace);
/// assert_eq!(result.references, trace.len() as u64);
/// assert!(result.total_cycles() > 0);
/// assert!(result.miss_rate() > 0.0);
/// # Ok::<(), ccache_core::CoreError>(())
/// ```
pub struct ReplayEngine {
    backend: Box<dyn MemoryBackend>,
    /// Taken lazily: one-shot replays (every partition-sweep point) never pay for a
    /// snapshot clone they would not use.
    snapshot: Option<Box<dyn MemoryBackend>>,
    batch: usize,
    /// Staging for sources that convert events into `run_batch` input. Starts empty and
    /// grows on first use, so engines that only replay pre-decoded references never
    /// allocate it.
    buffer: Vec<(u64, bool)>,
    telemetry: EngineTelemetry,
}

/// Pre-resolved telemetry handles, bound once per engine so the replay loop never
/// touches the registry. All accounting happens *after* a replay finishes (the counters
/// are fed from the backend's own statistics), so the hot loop is untouched and results
/// stay byte-identical with or without a registry attached.
#[derive(Clone)]
struct EngineTelemetry {
    replays: Counter,
    batches: Counter,
    references: Counter,
    tlb_hits: Counter,
    tlb_misses: Counter,
    coalesced_windows: Counter,
}

impl EngineTelemetry {
    fn bind(registry: &Registry) -> Self {
        EngineTelemetry {
            replays: registry.counter("engine.replays"),
            batches: registry.counter("engine.batches"),
            references: registry.counter("engine.references"),
            tlb_hits: registry.counter("engine.tlb.hits"),
            tlb_misses: registry.counter("engine.tlb.misses"),
            coalesced_windows: registry.counter("engine.observe.coalesced_windows"),
        }
    }

    /// Post-replay accounting: fold the backend's per-replay statistics (absolute since
    /// the `reset_stats` at replay start) into the counters.
    fn record_replay(&self, backend: &dyn MemoryBackend, batches: u64) {
        let stats = backend.stats();
        self.replays.incr();
        self.batches.add(batches);
        self.references.add(stats.references);
        self.tlb_hits.add(stats.tlb_hits);
        self.tlb_misses.add(stats.tlb_misses);
    }

    /// Counts the coalesced tail of an observed replay: when `window` does not divide
    /// the reference count, the remainder is emitted as one final *partial* window
    /// rather than silently truncated — this counter is the visible record of that.
    fn record_observed_tail(&self, backend: &dyn MemoryBackend, window: u64) {
        let references = backend.stats().references;
        if references > 0 && window > 0 && !references.is_multiple_of(window) {
            self.coalesced_windows.incr();
        }
    }
}

impl ReplayEngine {
    /// Creates an engine over a freshly built backend of the given kind.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(kind: BackendKind, config: SystemConfig) -> Result<Self, CoreError> {
        Ok(ReplayEngine {
            backend: build_backend(kind, config)?,
            snapshot: None,
            batch: DEFAULT_BATCH,
            buffer: Vec::new(),
            telemetry: EngineTelemetry::bind(&Registry::global()),
        })
    }

    /// Rebinds the engine's telemetry to `registry` (the process-wide
    /// [`Registry::global`] is bound at construction). Sessions and servers that own a
    /// private registry route their engines here; results are unaffected — telemetry
    /// accounting happens outside the replay loop, from statistics the backend
    /// maintains anyway.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = EngineTelemetry::bind(registry);
    }

    /// Read-only view of the backend.
    pub fn backend(&self) -> &dyn MemoryBackend {
        self.backend.as_ref()
    }

    /// Mutable access to the backend, for control operations between replays.
    pub fn backend_mut(&mut self) -> &mut dyn MemoryBackend {
        self.backend.as_mut()
    }

    /// Overrides the batch size (mainly for tests; 0 is treated as 1). This is the
    /// **only** place the ≥ 1 invariant is enforced — the replay loop relies on it and
    /// never re-clamps.
    pub fn set_batch_size(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Programs a cache mapping into the backend.
    ///
    /// # Errors
    ///
    /// Returns an error if a mask in the mapping is invalid for the backend's cache.
    pub fn apply(&mut self, mapping: &CacheMapping) -> Result<(), CoreError> {
        mapping.apply(self.backend.as_mut())
    }

    /// Captures the backend's current state — contents, mappings, statistics — as the
    /// state [`ReplayEngine::reset`] returns to.
    ///
    /// # Contract (the optimizer inner loop)
    ///
    /// `snapshot`/`reset` round-trips are cheap (one backend clone each, no replay) and
    /// panic-free **in any order**: snapshotting a freshly built engine, resetting before
    /// any snapshot, and resetting twice in a row are all well defined. A search that
    /// evaluates many mappings under one geometry snapshots the pristine engine once and
    /// then `reset` + [`apply`](ReplayEngine::apply) + [`replay`](ReplayEngine::replay)
    /// per candidate, never paying for reconstruction:
    ///
    /// ```
    /// use ccache_core::engine::ReplayEngine;
    /// use ccache_core::runner::{CacheMapping, RegionMapping};
    /// use ccache_sim::backend::BackendKind;
    /// use ccache_sim::{ColumnMask, SystemConfig};
    /// use ccache_trace::synth::sequential_scan;
    ///
    /// let config = SystemConfig { page_size: 256, ..SystemConfig::default() };
    /// let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config)?;
    /// engine.reset();    // before any snapshot or replay: a no-op back to pristine
    /// engine.snapshot(); // the state every candidate evaluation starts from
    ///
    /// let trace = sequential_scan(0x0, 4096, 32, 4, 2, None);
    /// let mut results = Vec::new();
    /// for column in 0..4 {
    ///     engine.reset(); // back to the pristine snapshot, mappings and stats cleared
    ///     let mut mapping = CacheMapping::new();
    ///     mapping.map(0x0, 4096, RegionMapping::Columns { mask: ColumnMask::single(column) });
    ///     engine.apply(&mapping)?;
    ///     results.push(engine.replay("candidate", &trace));
    /// }
    /// // every candidate saw an identical starting state; by symmetry the four
    /// // single-column restrictions perform identically
    /// assert!(results.iter().all(|r| r.references == trace.len() as u64));
    /// assert_eq!(results[0], results[3]);
    /// # Ok::<(), ccache_core::CoreError>(())
    /// ```
    pub fn snapshot(&mut self) {
        self.snapshot = Some(self.backend.boxed_clone());
    }

    /// Restores the backend to the last snapshot; with no snapshot taken, returns it to
    /// its just-constructed state ([`MemoryBackend::full_reset`]).
    ///
    /// Safe to call at any point — including before any snapshot or replay — and
    /// idempotent: consecutive resets land on the same state. See
    /// [`ReplayEngine::snapshot`] for the full round-trip contract.
    pub fn reset(&mut self) {
        match &self.snapshot {
            Some(snap) => self.backend = snap.boxed_clone(),
            None => self.backend.full_reset(),
        }
    }

    /// Replays a trace in batches and collects a [`RunResult`]: the unobserved
    /// [`ReplayEngine::replay_from`] of the trace's events.
    pub fn replay(&mut self, name: &str, trace: &Trace) -> RunResult {
        let Ok(result) = self.replay_from(name, trace.as_slice(), None);
        result
    }

    /// Replays a binary-format trace straight from a streaming [`TraceReader`], without
    /// materialising it in memory: the unobserved [`ReplayEngine::replay_from`] of the
    /// reader, so a trace file larger than RAM replays in bounded memory.
    ///
    /// # Errors
    ///
    /// Propagates I/O and format errors from the reader; the replay stops at the first
    /// bad batch.
    pub fn replay_reader<R: BufRead>(
        &mut self,
        name: &str,
        reader: &mut TraceReader<R>,
    ) -> std::io::Result<RunResult> {
        self.replay_from(name, reader, None)
    }

    /// The replay loop: pulls batches of at most the engine's batch size from `source`,
    /// feeds each to [`MemoryBackend::run_batch`] and collects a [`RunResult`].
    ///
    /// Statistics are reset first and cover this replay only, like
    /// [`run_on`](crate::runner::run_on); control cycles spent programming the backend
    /// beforehand are carried into the result. The result is bit-identical to
    /// per-reference replay, whatever the source and batch size — batching only changes
    /// wall-clock time (property-tested in `tests/property_invariants.rs` and, for the
    /// streamed source, `tests/trace_format.rs`).
    ///
    /// With `observe = Some((window, observer))` the observer receives one
    /// [`WindowSample`](crate::observe::WindowSample) every `window` references plus a
    /// final partial window. Window boundaries only shorten batches, so the result is
    /// byte-identical to the unobserved replay (`tests/observer_parity.rs`).
    ///
    /// # Errors
    ///
    /// Propagates the source's decode errors; the replay stops at the first bad batch.
    pub fn replay_from<S: RefSource>(
        &mut self,
        name: &str,
        mut source: S,
        observe: Option<(u64, &mut dyn ReplayObserver)>,
    ) -> Result<RunResult, S::Error> {
        let control_before = self.backend.control_cycles();
        self.backend.reset_stats();
        let mut observed = observe.map(|(window, observer)| (WindowTracker::new(window), observer));
        let mut replayed = 0u64;
        let mut batches = 0u64;
        loop {
            let max = match &observed {
                Some((tracker, _)) => (tracker.until_boundary(replayed) as usize).min(self.batch),
                None => self.batch,
            };
            self.buffer.clear();
            let refs = source.next_batch(&mut self.buffer, max)?;
            if refs.is_empty() {
                break;
            }
            replayed += refs.len() as u64;
            let cycles = self.backend.run_batch(refs);
            source.charge(cycles);
            batches += 1;
            if let Some((tracker, observer)) = observed.as_mut() {
                tracker.observe(self.backend.as_ref(), &mut **observer, false);
            }
        }
        if let Some((tracker, observer)) = observed.as_mut() {
            // Flush the final partial window now that the stream length is known.
            tracker.observe(self.backend.as_ref(), &mut **observer, true);
            self.telemetry
                .record_observed_tail(self.backend.as_ref(), tracker.window());
        }
        self.telemetry.record_replay(self.backend.as_ref(), batches);
        Ok(crate::runner::collect_result(
            name,
            self.backend.as_ref(),
            control_before,
        ))
    }
}

impl Clone for ReplayEngine {
    fn clone(&self) -> Self {
        ReplayEngine {
            backend: self.backend.boxed_clone(),
            snapshot: self.snapshot.as_ref().map(|s| s.boxed_clone()),
            batch: self.batch,
            buffer: Vec::new(),
            telemetry: self.telemetry.clone(),
        }
    }
}

impl std::fmt::Debug for ReplayEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayEngine")
            .field("backend", &self.backend.name())
            .field("batch", &self.batch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_on, RegionMapping};
    use ccache_sim::{ColumnMask, MemorySystem};
    use ccache_trace::synth::sequential_scan;

    fn config() -> SystemConfig {
        SystemConfig {
            page_size: 256,
            ..SystemConfig::default()
        }
    }

    fn mapping() -> CacheMapping {
        let mut m = CacheMapping::new();
        m.map(
            0x0,
            512,
            RegionMapping::Exclusive {
                mask: ColumnMask::single(0),
                preload: true,
            },
        );
        m.map(0x8000, 256, RegionMapping::Uncached);
        m
    }

    fn trace() -> ccache_trace::Trace {
        let hot = sequential_scan(0x0, 512, 32, 4, 2, None);
        let stream = sequential_scan(0x10_0000, 16 * 1024, 32, 4, 1, None);
        let uncached = sequential_scan(0x8000, 256, 32, 4, 1, None);
        ccache_trace::Trace::concat([&hot, &stream, &uncached])
    }

    #[test]
    fn batched_replay_matches_per_reference_replay() {
        let t = trace();
        let m = mapping();

        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        engine.apply(&m).unwrap();
        let batched = engine.replay("x", &t);

        let mut system = MemorySystem::new(config()).unwrap();
        m.apply(&mut system).unwrap();
        let per_ref = run_on("x", &mut system, &t).unwrap();

        assert_eq!(batched, per_ref);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let t = trace();
        let mut small = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        small.set_batch_size(3);
        let mut large = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        large.set_batch_size(1 << 20);
        assert_eq!(small.replay("x", &t), large.replay("x", &t));
    }

    #[test]
    fn refs_paths_match_the_trace_paths() {
        let t = trace();
        let refs: Vec<(u64, bool)> = t
            .as_slice()
            .iter()
            .map(|ev| (ev.addr, ev.is_write()))
            .collect();
        let m = mapping();

        let mut a = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        a.apply(&m).unwrap();
        let mut b = a.clone();
        let from_trace = a.replay("x", &t);
        let Ok(from_refs) = b.replay_from("x", &refs[..], None);
        assert_eq!(from_trace, from_refs);
    }

    #[test]
    fn snapshot_reset_round_trips_state() {
        let t = trace();
        let m = mapping();
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        engine.apply(&m).unwrap();
        engine.snapshot();

        let first = engine.replay("run", &t);
        engine.reset();
        let second = engine.replay("run", &t);
        assert_eq!(
            first, second,
            "reset must restore the programmed state exactly"
        );
    }

    #[test]
    fn reset_without_snapshot_returns_to_construction_state() {
        let t = trace();
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        let pristine = engine.replay("cold", &t);
        engine.reset(); // back to an empty, unmapped system
        let again = engine.replay("cold", &t);
        assert_eq!(pristine, again);
    }

    #[test]
    fn snapshot_and_reset_are_safe_before_any_replay() {
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        engine.reset(); // no snapshot, nothing replayed: must not panic
        engine.reset(); // idempotent
        engine.snapshot(); // snapshot of a pristine engine
        engine.reset();

        // the pristine snapshot behaves exactly like a fresh engine
        let t = trace();
        let from_snapshot = engine.replay("x", &t);
        let mut fresh = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        assert_eq!(from_snapshot, fresh.replay("x", &t));
    }

    #[test]
    fn repeated_reset_apply_replay_is_stable() {
        // The optimizer inner loop: many candidates from one pristine snapshot.
        let t = trace();
        let m = mapping();
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        engine.snapshot();
        let mut results = Vec::new();
        for _ in 0..3 {
            engine.reset();
            engine.apply(&m).unwrap();
            results.push(engine.replay("candidate", &t));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn streaming_replay_matches_in_memory_replay() {
        let t = trace();
        let m = mapping();
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        engine.apply(&m).unwrap();
        engine.snapshot();
        let in_memory = engine.replay("x", &t);

        let mut bytes = Vec::new();
        ccache_trace::binfmt::write_trace(&t, &mut bytes).unwrap();
        engine.reset();
        let mut reader = ccache_trace::binfmt::TraceReader::new(&bytes[..]).unwrap();
        let streamed = engine.replay_reader("x", &mut reader).unwrap();

        assert_eq!(in_memory, streamed);
    }

    #[test]
    fn engine_drives_every_backend_kind() {
        let t = trace();
        for kind in BackendKind::ALL {
            let mut engine = ReplayEngine::new(kind, config()).unwrap();
            engine.apply(&mapping()).unwrap();
            let result = engine.replay("k", &t);
            assert_eq!(result.references, t.len() as u64);
            assert!(result.total_cycles() > 0);
        }
    }
}
