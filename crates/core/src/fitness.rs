//! Replay-driven fitness evaluation for configuration search.
//!
//! An autotuner proposes *candidates* — a cache geometry plus a [`CacheMapping`] steering
//! variables into columns — and needs to know how each would perform. The only honest
//! answer is a replay, so this module packages the [`ReplayEngine`] as a fitness
//! function: [`ReplayFitness`] decodes the trace **once** into a shared `(addr,
//! is_write)` reference arena and evaluates any number of candidates against it,
//! serially or thread-parallel with order-preserving results (the same guarantee as
//! [`par_map`](crate::parallel::par_map()), so a search that consumes results in order
//! is byte-identical either way).
//!
//! Each candidate is one independent simulation: a fresh engine, the candidate's
//! mapping, one replay of the arena. Nothing but the read-only arena is shared between
//! candidates — building an engine costs microseconds against a replay's milliseconds,
//! and duplicate candidates are already filtered out by the tuner's genome cache. Every
//! evaluation is therefore exactly one `engine.replays` tick:
//!
//! ```
//! use ccache_core::{Candidate, ReplayFitness};
//! use ccache_core::runner::CacheMapping;
//! use ccache_sim::SystemConfig;
//! use ccache_telemetry::Registry;
//! use ccache_trace::synth::sequential_scan;
//!
//! let trace = sequential_scan(0x0, 4096, 32, 4, 2, None);
//! let mut fitness = ReplayFitness::new(trace);
//! let registry = Registry::new();
//! fitness.set_telemetry(&registry);
//!
//! let config = SystemConfig { page_size: 256, ..SystemConfig::default() };
//! let candidate = Candidate::column_cache(config, CacheMapping::new());
//! let batch = vec![candidate.clone(), candidate.clone(), candidate];
//! let results = fitness.evaluate_batch(&batch);
//! assert!(results.iter().all(|r| r.is_ok()));
//!
//! let references = fitness.trace().len() as u64;
//! assert_eq!(registry.counter_value("engine.replays"), 3);
//! assert_eq!(registry.counter_value("engine.references"), 3 * references);
//! ```

use crate::engine::ReplayEngine;
use crate::error::CoreError;
use crate::parallel::{par_map, seq_map};
use crate::runner::{CacheMapping, RunResult};
use ccache_sim::backend::BackendKind;
use ccache_sim::SystemConfig;
use ccache_telemetry::Registry;
use ccache_trace::Trace;
use std::sync::Arc;

/// One candidate for fitness evaluation: a full system geometry plus the cache mapping to
/// program before the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The geometry (cache shape, page size, TLB entries, latencies) to simulate.
    pub config: SystemConfig,
    /// The column mapping to program into the backend.
    pub mapping: CacheMapping,
    /// The backend to replay on (searches optimize [`BackendKind::ColumnCache`];
    /// baselines replay on the others).
    pub backend: BackendKind,
}

impl Candidate {
    /// A column-cache candidate — the common case for search.
    pub fn column_cache(config: SystemConfig, mapping: CacheMapping) -> Self {
        Candidate {
            config,
            mapping,
            backend: BackendKind::ColumnCache,
        }
    }
}

/// A trace packaged as a reusable fitness function. Clones share the decoded arena.
#[derive(Debug, Clone)]
pub struct ReplayFitness {
    trace: Trace,
    /// The trace decoded once into the form [`MemoryBackend::run_batch`]
    /// (ccache_sim::backend::MemoryBackend::run_batch) consumes, shared read-only by
    /// every evaluation (and by clones of this fitness).
    arena: Arc<Vec<(u64, bool)>>,
    parallel: bool,
    registry: Registry,
}

impl ReplayFitness {
    /// Wraps a trace for repeated evaluation, decoding it once into the shared
    /// reference arena. Evaluation batches run thread-parallel unless
    /// [`ReplayFitness::serial`] is requested.
    pub fn new(trace: Trace) -> Self {
        let arena: Vec<(u64, bool)> = trace
            .as_slice()
            .iter()
            .map(|ev| (ev.addr, ev.is_write()))
            .collect();
        ReplayFitness {
            trace,
            arena: Arc::new(arena),
            parallel: true,
            registry: Registry::global(),
        }
    }

    /// Forces every batch onto the serial path. Searches use this to prove that their
    /// results do not depend on the evaluation schedule.
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Routes the engines' telemetry to `registry` (the process-wide
    /// [`Registry::global`] is bound at construction). Purely observational — results
    /// are unaffected.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.registry = registry.clone();
    }

    /// The wrapped trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Replays the trace for one candidate on a freshly built engine and returns the
    /// run statistics.
    ///
    /// # Errors
    ///
    /// Returns an error if the candidate's geometry or mapping is invalid.
    pub fn evaluate(&self, name: &str, candidate: &Candidate) -> Result<RunResult, CoreError> {
        let mut engine = ReplayEngine::new(candidate.backend, candidate.config)?;
        engine.set_telemetry(&self.registry);
        engine.apply(&candidate.mapping)?;
        let Ok(result) = engine.replay_from(name, &self.arena[..], None);
        Ok(result)
    }

    /// Evaluates a batch of candidates, returning results **in input order**. Unless
    /// [`ReplayFitness::serial`] was requested the replays fan out over worker threads;
    /// the output is identical either way, because every candidate replays
    /// independently.
    pub fn evaluate_batch(&self, candidates: &[Candidate]) -> Vec<Result<RunResult, CoreError>> {
        let eval = |c: &Candidate| self.evaluate("candidate", c);
        if self.parallel {
            par_map(candidates, eval)
        } else {
            seq_map(candidates, eval)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RegionMapping;
    use ccache_sim::{CacheConfig, ColumnMask};
    use ccache_trace::synth::sequential_scan;

    fn config() -> SystemConfig {
        SystemConfig {
            page_size: 256,
            ..SystemConfig::default()
        }
    }

    fn trace() -> Trace {
        let hot = sequential_scan(0x0, 512, 32, 4, 2, None);
        let stream = sequential_scan(0x10_0000, 8 * 1024, 32, 4, 1, None);
        Trace::concat([&hot, &stream, &hot])
    }

    fn steered() -> CacheMapping {
        let mut m = CacheMapping::new();
        m.map(
            0x10_0000,
            8 * 1024,
            RegionMapping::Columns {
                mask: ColumnMask::single(3),
            },
        );
        m
    }

    #[test]
    fn evaluate_matches_a_hand_built_engine() {
        let fitness = ReplayFitness::new(trace());
        let candidate = Candidate::column_cache(config(), steered());
        let result = fitness.evaluate("x", &candidate).unwrap();

        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        engine.apply(&steered()).unwrap();
        assert_eq!(result, engine.replay("x", fitness.trace()));
    }

    #[test]
    fn batches_preserve_order_and_match_serial() {
        let fitness = ReplayFitness::new(trace());
        let candidates: Vec<Candidate> = BackendKind::ALL
            .into_iter()
            .map(|backend| Candidate {
                config: config(),
                mapping: steered(),
                backend,
            })
            .chain(std::iter::once(Candidate::column_cache(
                config(),
                CacheMapping::new(),
            )))
            .collect();
        let parallel: Vec<RunResult> = fitness
            .evaluate_batch(&candidates)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let serial: Vec<RunResult> = fitness
            .clone()
            .serial()
            .evaluate_batch(&candidates)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(parallel, serial);
        assert_eq!(parallel[0].name, "candidate");
        // the steered column-cache run differs from the unsteered one
        assert_ne!(parallel[0], parallel[3]);
    }

    #[test]
    fn invalid_geometry_is_an_error_not_a_panic() {
        let fitness = ReplayFitness::new(trace());
        let bad = SystemConfig {
            cache: CacheConfig::default(),
            tlb_entries: 0,
            ..config()
        };
        let candidate = Candidate::column_cache(bad, CacheMapping::new());
        assert!(fitness.evaluate("bad", &candidate).is_err());
        let results = fitness.evaluate_batch(std::slice::from_ref(&candidate));
        assert!(results[0].is_err());
    }
}
