//! Streaming replay observation: windowed time series and phase/remap events.
//!
//! The paper's programming model is software *watching* and *reprogramming* the cache,
//! but until this module a replay's statistics were readable only after it finished.
//! [`ReplayObserver`] is the streaming counterpart: pass one to
//! [`ReplayEngine::replay_from`](crate::ReplayEngine::replay_from) (or use the
//! experiment executor's `--observe` path) and it receives
//!
//! * one [`WindowSample`] every `window` references — the miss-rate/CPI time series of
//!   the run, computed from statistics deltas at window boundaries, and
//! * [`ReplayEvent`]s at phase boundaries and dynamic remaps
//!   ([`run_dynamic_in`](crate::dynamic::run_dynamic_in)).
//!
//! Observation off is `None` in the engine's one replay loop: no tracker, no window
//! boundaries, no callbacks. Observation on produces byte-identical
//! [`RunResult`](crate::runner::RunResult)s because window boundaries only change
//! *batch* boundaries, which never change statistics (property-tested in
//! `tests/observer_parity.rs`); its cost is measured by the benchmark, not assumed.

use ccache_sim::backend::MemoryBackend;
use ccache_sim::{CycleReport, MemoryStats};

/// One point of the windowed time series: statistics deltas over `references`
/// consecutive references starting at reference index `start`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Window number, starting at 0.
    pub index: u64,
    /// Reference index of the first reference in the window.
    pub start: u64,
    /// References replayed in this window (equal to the window size except possibly for
    /// the final partial window).
    pub references: u64,
    /// Cache hits in this window.
    pub hits: u64,
    /// Cache misses (including bypasses) in this window.
    pub misses: u64,
    /// Memory cycles spent in this window.
    pub memory_cycles: u64,
    /// Clocks per instruction over this window, under the run's compute model.
    pub cpi: f64,
}

impl WindowSample {
    /// Cache miss rate over this window.
    pub fn miss_rate(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.misses as f64 / self.references as f64
        }
    }
}

/// A discrete event observed during a replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayEvent {
    /// A named phase (procedure) is about to replay.
    PhaseStart {
        /// The phase name.
        name: String,
        /// References replayed before this phase (across the whole observed run).
        at_ref: u64,
    },
    /// A cache mapping was (re)programmed into a warm backend.
    Remap {
        /// A label for the remap (the phase it prepares).
        label: String,
        /// References replayed when the remap happened.
        at_ref: u64,
        /// Number of region mappings programmed.
        regions: usize,
    },
    /// A named phase finished replaying.
    PhaseEnd {
        /// The phase name.
        name: String,
        /// References replayed up to and including this phase.
        at_ref: u64,
        /// Total cycles of the phase (compute model included, control excluded).
        cycles: u64,
    },
}

impl ReplayEvent {
    /// The reference index the event is anchored to.
    pub fn at_ref(&self) -> u64 {
        match self {
            ReplayEvent::PhaseStart { at_ref, .. }
            | ReplayEvent::Remap { at_ref, .. }
            | ReplayEvent::PhaseEnd { at_ref, .. } => *at_ref,
        }
    }
}

/// A streaming observer of replay progress.
///
/// Both hooks default to no-ops, so an observer may care about windows, events or both.
/// Implementations must be cheap: `on_window` fires every `window` references on the
/// replay hot path.
pub trait ReplayObserver: Send {
    /// Called at every window boundary (and once for a final partial window).
    fn on_window(&mut self, _sample: &WindowSample) {}

    /// Called at phase boundaries and remaps.
    fn on_event(&mut self, _event: &ReplayEvent) {}
}

/// The windowed series an observed run produces, ready for serialization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    /// The window size in references.
    pub window: u64,
    /// The windowed samples, in replay order. `start` indices are global across a
    /// multi-phase run.
    pub samples: Vec<WindowSample>,
    /// Phase and remap events, in replay order.
    pub events: Vec<ReplayEvent>,
}

impl TimeSeries {
    /// Total references across all samples.
    pub fn total_references(&self) -> u64 {
        self.samples.iter().map(|s| s.references).sum()
    }

    /// Total misses across all samples.
    pub fn total_misses(&self) -> u64 {
        self.samples.iter().map(|s| s.misses).sum()
    }

    /// Total hits across all samples.
    pub fn total_hits(&self) -> u64 {
        self.samples.iter().map(|s| s.hits).sum()
    }

    /// Total memory cycles across all samples.
    pub fn total_memory_cycles(&self) -> u64 {
        self.samples.iter().map(|s| s.memory_cycles).sum()
    }
}

/// A [`ReplayObserver`] that records everything into a [`TimeSeries`].
///
/// Window `start`/`index` values are rebased to be global across consecutive observed
/// replays (each engine replay numbers its windows from zero): [`ReplayEvent::PhaseEnd`]
/// advances the base, which is exactly what
/// [`run_dynamic_in`](crate::dynamic::run_dynamic_in) emits between phases.
#[derive(Debug, Clone, Default)]
pub struct SeriesRecorder {
    series: TimeSeries,
    /// References replayed by phases that already ended (the rebase offset).
    base: u64,
}

impl SeriesRecorder {
    /// Creates a recorder for the given window size.
    pub fn new(window: u64) -> Self {
        SeriesRecorder {
            series: TimeSeries {
                window: window.max(1),
                ..TimeSeries::default()
            },
            base: 0,
        }
    }

    /// The recorded series so far.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consumes the recorder into its series.
    pub fn into_series(self) -> TimeSeries {
        self.series
    }

    /// The recorder as the `(window, observer)` pair the replay entry points take.
    pub fn as_observer(&mut self) -> (u64, &mut dyn ReplayObserver) {
        (self.series.window, self)
    }
}

impl ReplayObserver for SeriesRecorder {
    fn on_window(&mut self, sample: &WindowSample) {
        let mut sample = sample.clone();
        sample.index = self.series.samples.len() as u64;
        sample.start += self.base;
        self.series.samples.push(sample);
    }

    fn on_event(&mut self, event: &ReplayEvent) {
        if let ReplayEvent::PhaseEnd { at_ref, .. } = event {
            self.base = *at_ref;
        }
        self.series.events.push(event.clone());
    }
}

/// Per-replay window bookkeeping of an observed
/// [`ReplayEngine::replay_from`](crate::ReplayEngine::replay_from): tracks the
/// statistics snapshot at the current window's start and emits delta samples at
/// boundaries.
pub(crate) struct WindowTracker {
    window: u64,
    index: u64,
    /// References replayed when the current window started.
    start: u64,
    /// Memory cycles spent when the current window started.
    prev_cycles: u64,
    prev_hits: u64,
    prev_misses: u64,
}

impl WindowTracker {
    /// Creates a tracker; statistics are assumed freshly reset (all zero).
    pub(crate) fn new(window: u64) -> Self {
        WindowTracker {
            window: window.max(1),
            index: 0,
            start: 0,
            prev_cycles: 0,
            prev_hits: 0,
            prev_misses: 0,
        }
    }

    /// The window size in references (at least 1).
    pub(crate) fn window(&self) -> u64 {
        self.window
    }

    /// References that may be replayed before the next window boundary.
    pub(crate) fn until_boundary(&self, replayed: u64) -> u64 {
        (self.start + self.window).saturating_sub(replayed).max(1)
    }

    /// Emits a sample if the backend's reference count reached the window boundary, or
    /// (when `finished`) for a non-empty partial window.
    pub(crate) fn observe(
        &mut self,
        backend: &dyn MemoryBackend,
        observer: &mut dyn ReplayObserver,
        finished: bool,
    ) {
        let mem = backend.stats();
        let replayed = mem.references;
        if replayed < self.start + self.window && !(finished && replayed > self.start) {
            return;
        }
        let cache = backend.cache_stats();
        let misses = cache.misses + cache.bypasses;
        let delta = MemoryStats {
            references: replayed - self.start,
            memory_cycles: mem.memory_cycles - self.prev_cycles,
            ..MemoryStats::default()
        };
        let sample = WindowSample {
            index: self.index,
            start: self.start,
            references: delta.references,
            hits: cache.hits - self.prev_hits,
            misses: misses - self.prev_misses,
            memory_cycles: delta.memory_cycles,
            cpi: CycleReport::from_stats(&delta, &backend.config().latency).cpi(),
        };
        observer.on_window(&sample);
        self.index += 1;
        self.start = replayed;
        self.prev_cycles = mem.memory_cycles;
        self.prev_hits = cache.hits;
        self.prev_misses = misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReplayEngine;
    use ccache_sim::backend::BackendKind;
    use ccache_sim::SystemConfig;
    use ccache_trace::synth::sequential_scan;

    fn config() -> SystemConfig {
        SystemConfig {
            page_size: 256,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn observed_replay_matches_unobserved_and_reconciles() {
        let trace = sequential_scan(0x0, 4096, 32, 4, 3, None);
        let mut plain = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        let expected = plain.replay("x", &trace);

        let mut observed = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        let mut recorder = SeriesRecorder::new(100);
        let Ok(result) = observed.replay_from("x", trace.as_slice(), Some(recorder.as_observer()));
        assert_eq!(result, expected, "observation must not change statistics");

        let series = recorder.into_series();
        assert_eq!(series.total_references(), result.references);
        assert_eq!(series.total_misses(), result.misses);
        assert_eq!(series.total_hits(), result.hits);
        assert_eq!(series.total_memory_cycles(), result.memory_cycles);
        // full windows of 100 plus one partial
        let n = result.references;
        assert_eq!(series.samples.len() as u64, n.div_ceil(100));
        for (i, s) in series.samples.iter().enumerate() {
            assert_eq!(s.index, i as u64);
            assert_eq!(s.start, i as u64 * 100);
            assert!(s.cpi > 0.0);
        }
    }

    #[test]
    fn window_larger_than_trace_yields_one_sample() {
        let trace = sequential_scan(0x0, 512, 32, 4, 1, None);
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        let mut recorder = SeriesRecorder::new(1 << 30);
        let Ok(result) = engine.replay_from("x", trace.as_slice(), Some(recorder.as_observer()));
        let series = recorder.into_series();
        assert_eq!(series.samples.len(), 1);
        assert_eq!(series.samples[0].references, result.references);
        assert!((series.samples[0].cpi - result.cpi()).abs() < 1e-9);
        assert!((series.samples[0].miss_rate() - result.miss_rate()).abs() < 1e-9);
    }

    #[test]
    fn empty_traces_produce_no_windows() {
        let trace = ccache_trace::Trace::new();
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        let mut recorder = SeriesRecorder::new(8);
        let Ok(_) = engine.replay_from("x", trace.as_slice(), Some(recorder.as_observer()));
        assert!(recorder.series().samples.is_empty());
    }

    #[test]
    fn recorder_rebases_windows_across_phases() {
        let mut recorder = SeriesRecorder::new(10);
        recorder.on_window(&WindowSample {
            index: 0,
            start: 0,
            references: 10,
            hits: 5,
            misses: 5,
            memory_cycles: 50,
            cpi: 1.0,
        });
        recorder.on_event(&ReplayEvent::PhaseEnd {
            name: "a".into(),
            at_ref: 10,
            cycles: 99,
        });
        // the next phase's engine numbers its windows from zero again
        recorder.on_window(&WindowSample {
            index: 0,
            start: 0,
            references: 4,
            hits: 2,
            misses: 2,
            memory_cycles: 20,
            cpi: 1.0,
        });
        let series = recorder.into_series();
        assert_eq!(series.samples[1].index, 1);
        assert_eq!(series.samples[1].start, 10);
        assert_eq!(series.events[0].at_ref(), 10);
    }
}
