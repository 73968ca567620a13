//! Replay-backed fitness with a canonical-genome cache and an evaluation budget.
//!
//! Search strategies propose genomes; the [`Evaluator`] decodes each into a concrete
//! candidate (geometry + [`CacheMapping`]), replays the trace on a fresh
//! [`ReplayEngine`], and memoises the result under the genome's canonical key — so a
//! duplicate candidate, however it was produced, **never replays twice**. Only real
//! replays count against the budget, which is what lets a strategy keep polishing a
//! converged population for free.
//!
//! The trace is decoded once into the `(address, is_write)` references every replay
//! reads; nothing else is shared between candidates, so every evaluation is exactly one
//! `engine.replays` tick. Batches preserve input order and fan out over threads unless
//! the evaluator was built serial; because the cache is keyed canonically and filled in
//! input order, the evaluator's observable behaviour is byte-identical either way.

use crate::error::OptError;
use crate::space::{Genome, SearchSpace};
use ccache_core::parallel::{par_map, seq_map};
use ccache_core::{CacheMapping, CoreError, ReplayEngine, RunResult};
use ccache_layout::assignment_from_vertex_columns;
use ccache_sim::backend::BackendKind;
use ccache_sim::SystemConfig;
use ccache_telemetry::{Counter, Registry};
use ccache_trace::Trace;
use std::collections::BTreeMap;

/// The replayed quality of one candidate, ordered by `(misses, cycles)` — exact integer
/// comparison, so rankings cannot drift with float rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fitness {
    /// Cache misses (including bypasses) over the whole replay.
    pub misses: u64,
    /// Total cycles including the compute model (control cycles excluded).
    pub cycles: u64,
    /// References replayed.
    pub references: u64,
    /// Miss rate (`misses / references`), for reporting.
    pub miss_rate: f64,
}

impl Fitness {
    /// Extracts fitness from replay statistics.
    pub fn from_run(run: &RunResult) -> Self {
        Fitness {
            misses: run.misses,
            cycles: run.total_cycles(),
            references: run.references,
            miss_rate: run.miss_rate(),
        }
    }

    /// The comparison key: fewer misses is better, cycles break ties.
    pub fn key(&self) -> (u64, u64) {
        (self.misses, self.cycles)
    }
}

/// Memoising, budgeted fitness evaluation over one search space.
pub struct Evaluator<'a> {
    space: &'a SearchSpace,
    /// The trace decoded once into the form every candidate replay runs over.
    references: Vec<(u64, bool)>,
    serial: bool,
    /// The registry every candidate engine reports into.
    registry: Registry,
    cache: BTreeMap<Vec<u8>, Fitness>,
    budget: usize,
    replays: usize,
    telemetry: EvaluatorTelemetry,
}

/// Pre-resolved telemetry handles, updated once per batch (never per genome).
struct EvaluatorTelemetry {
    evaluations: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
}

impl EvaluatorTelemetry {
    fn bind(registry: &Registry) -> Self {
        EvaluatorTelemetry {
            evaluations: registry.counter("opt.evaluations"),
            cache_hits: registry.counter("opt.fitness_cache.hits"),
            cache_misses: registry.counter("opt.fitness_cache.misses"),
        }
    }
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over `space` replaying `trace`, allowed `budget` real
    /// replays. `serial` forces single-threaded evaluation (used to prove schedule
    /// independence).
    pub fn new(space: &'a SearchSpace, trace: &Trace, budget: usize, serial: bool) -> Self {
        let registry = Registry::global();
        Evaluator {
            space,
            references: trace.iter().map(|ev| (ev.addr, ev.is_write())).collect(),
            serial,
            cache: BTreeMap::new(),
            budget,
            replays: 0,
            telemetry: EvaluatorTelemetry::bind(&registry),
            registry,
        }
    }

    /// Rebinds the evaluator's telemetry, and the `engine.*` counters of every replay it
    /// runs, to `registry` (the process-wide [`Registry::global`] is bound at
    /// construction). Purely observational — cache behaviour, budget accounting and
    /// results are unaffected.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = EvaluatorTelemetry::bind(registry);
        self.registry = registry.clone();
    }

    /// Real replays performed so far (cache hits are free).
    pub fn replays(&self) -> usize {
        self.replays
    }

    /// Replays still allowed.
    pub fn remaining(&self) -> usize {
        self.budget.saturating_sub(self.replays)
    }

    /// Number of distinct candidates scored so far.
    pub fn distinct(&self) -> usize {
        self.cache.len()
    }

    /// The cached fitness of a genome, if it has been evaluated.
    pub fn cached(&self, genome: &Genome) -> Option<Fitness> {
        self.cache.get(&genome.encode()).copied()
    }

    /// Evaluates a batch of genomes, returning fitness **in input order**. Cached
    /// genomes cost nothing; new distinct genomes are replayed (in parallel when
    /// enabled) until the budget runs out, after which unevaluated entries come back as
    /// `None`.
    ///
    /// # Errors
    ///
    /// Fails if a genome decodes to an invalid assignment or geometry — strategies only
    /// produce in-space genomes, so an error here is a bug, not a search miss.
    pub fn evaluate_batch(&mut self, genomes: &[Genome]) -> Result<Vec<Option<Fitness>>, OptError> {
        // Collect the distinct, uncached keys in first-appearance order, capped by the
        // remaining budget.
        let mut new_keys: Vec<Vec<u8>> = Vec::new();
        let mut new_genomes: Vec<&Genome> = Vec::new();
        let mut cache_hits = 0u64;
        for genome in genomes {
            let key = genome.encode();
            if self.cache.contains_key(&key) || new_keys.contains(&key) {
                cache_hits += 1;
                continue;
            }
            if new_keys.len() >= self.remaining() {
                continue;
            }
            new_keys.push(key);
            new_genomes.push(genome);
        }
        self.telemetry.cache_hits.add(cache_hits);
        self.telemetry.cache_misses.add(new_keys.len() as u64);

        // Decode everything first, so a decode error surfaces before any replay runs.
        let candidates: Vec<(SystemConfig, CacheMapping)> = new_genomes
            .iter()
            .map(|g| self.decode(g))
            .collect::<Result<_, _>>()?;
        let replay = |(config, mapping): &(SystemConfig, CacheMapping)| {
            self.replay("candidate", BackendKind::ColumnCache, *config, mapping)
        };
        let results = if self.serial {
            seq_map(&candidates, replay)
        } else {
            par_map(&candidates, replay)
        };
        self.replays += results.len();
        self.telemetry.evaluations.add(results.len() as u64);
        for (key, result) in new_keys.into_iter().zip(results) {
            self.cache.insert(key, Fitness::from_run(&result?));
        }

        Ok(genomes
            .iter()
            .map(|g| self.cache.get(&g.encode()).copied())
            .collect())
    }

    /// Scores a non-genome reference point (e.g. the set-associative baseline) on the
    /// same trace, outside the cache and the budget.
    ///
    /// # Errors
    ///
    /// Fails if the configuration is invalid.
    pub fn reference_point(
        &self,
        backend: BackendKind,
        config: SystemConfig,
        mapping: &CacheMapping,
    ) -> Result<Fitness, OptError> {
        let run = self.replay("reference", backend, config, mapping)?;
        Ok(Fitness::from_run(&run))
    }

    /// One candidate replay: a fresh engine bound to the evaluator's registry, the
    /// mapping applied, then the references replayed once.
    fn replay(
        &self,
        name: &str,
        backend: BackendKind,
        config: SystemConfig,
        mapping: &CacheMapping,
    ) -> Result<RunResult, CoreError> {
        let mut engine = ReplayEngine::new(backend, config)?;
        engine.set_telemetry(&self.registry);
        engine.apply(mapping)?;
        let Ok(result) = engine.replay_from(name, &self.references[..], None);
        Ok(result)
    }

    /// Decodes a genome into the geometry and mapping its replay programs.
    fn decode(&self, genome: &Genome) -> Result<(SystemConfig, CacheMapping), OptError> {
        let geo = &self.space.geometries[genome.geometry];
        let assignment = assignment_from_vertex_columns(&geo.graph, &geo.options, &genome.columns)?;
        let mapping =
            CacheMapping::from_assignment(&assignment, &geo.units, &self.space.symbols, &[]);
        Ok((geo.config, mapping))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::GeometrySearch;
    use ccache_sim::SystemConfig;
    use ccache_trace::{AccessKind, SymbolTable, TraceRecorder};

    fn workload() -> (Trace, SymbolTable) {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 256, 8);
        let b = rec.allocate("b", 512, 8);
        for i in 0..128u64 {
            rec.record(a, (i % 32) * 8, 8, AccessKind::Read);
            rec.record(b, (i % 64) * 8, 8, AccessKind::Write);
        }
        rec.finish()
    }

    fn template() -> SystemConfig {
        SystemConfig {
            page_size: 256,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn duplicates_never_replay_twice() {
        let (t, s) = workload();
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[]).unwrap();
        let mut eval = Evaluator::new(&space, &t, 100, false);
        let seed = space.seeded(0);
        let batch = vec![seed.clone(), seed.clone(), seed.clone()];
        let scores = eval.evaluate_batch(&batch).unwrap();
        assert_eq!(eval.replays(), 1);
        assert_eq!(eval.distinct(), 1);
        assert_eq!(scores[0], scores[2]);
        // a second batch with the same genome is free
        eval.evaluate_batch(std::slice::from_ref(&seed)).unwrap();
        assert_eq!(eval.replays(), 1);
        assert!(eval.cached(&seed).is_some());
    }

    #[test]
    fn budget_caps_real_replays_only() {
        let (t, s) = workload();
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[]).unwrap();
        let mut eval = Evaluator::new(&space, &t, 2, false);
        let genomes = space.enumerate(5);
        let scores = eval.evaluate_batch(&genomes).unwrap();
        assert_eq!(eval.replays(), 2);
        assert_eq!(scores.iter().filter(|s| s.is_some()).count(), 2);
        assert_eq!(scores.iter().filter(|s| s.is_none()).count(), 3);
        assert_eq!(eval.remaining(), 0);
        // cached genomes still score with an exhausted budget
        let again = eval.evaluate_batch(&genomes[..2]).unwrap();
        assert!(again.iter().all(Option::is_some));
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (t, s) = workload();
        let space =
            SearchSpace::build(&t, &s, template(), &GeometrySearch::standard(), &[]).unwrap();
        let genomes = space.enumerate(12);
        let mut par = Evaluator::new(&space, &t, 100, false);
        let mut ser = Evaluator::new(&space, &t, 100, true);
        let a = par.evaluate_batch(&genomes).unwrap();
        let b = ser.evaluate_batch(&genomes).unwrap();
        assert_eq!(a, b);
        assert_eq!(par.replays(), ser.replays());
    }

    #[test]
    fn reference_points_do_not_touch_the_budget() {
        let (t, s) = workload();
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[]).unwrap();
        let eval = Evaluator::new(&space, &t, 1, false);
        let fit = eval
            .reference_point(
                BackendKind::SetAssociative,
                template(),
                &CacheMapping::new(),
            )
            .unwrap();
        assert!(fit.references > 0);
        assert_eq!(eval.replays(), 0);
    }

    #[test]
    fn reference_points_equal_a_hand_built_engine_replay_on_every_backend() {
        let (t, s) = workload();
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[]).unwrap();
        let registry = Registry::new();
        let mut eval = Evaluator::new(&space, &t, 1, false);
        eval.set_telemetry(&registry);
        let b = s.iter().find(|r| r.name == "b").unwrap();
        let mut steered = CacheMapping::new();
        steered.map(
            b.base,
            b.size,
            ccache_core::RegionMapping::Columns {
                mask: ccache_sim::ColumnMask::single(3),
            },
        );
        for backend in BackendKind::ALL {
            for mapping in [CacheMapping::new(), steered.clone()] {
                let fit = eval.reference_point(backend, template(), &mapping).unwrap();
                let mut engine = ReplayEngine::new(backend, template()).unwrap();
                engine.set_telemetry(&Registry::new());
                engine.apply(&mapping).unwrap();
                assert_eq!(fit, Fitness::from_run(&engine.replay("hand-built", &t)));
            }
        }
        // every reference point is one replay, counted in the evaluator's registry
        let replays = 2 * BackendKind::ALL.len() as u64;
        assert_eq!(registry.counter_value("engine.replays"), replays);
        assert_eq!(
            registry.counter_value("engine.references"),
            replays * t.len() as u64
        );
    }

    #[test]
    fn invalid_geometry_is_an_error_not_a_panic() {
        let (t, s) = workload();
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[]).unwrap();
        let eval = Evaluator::new(&space, &t, 1, false);
        let bad = SystemConfig {
            tlb_entries: 0,
            ..template()
        };
        for backend in BackendKind::ALL {
            assert!(eval
                .reference_point(backend, bad, &CacheMapping::new())
                .is_err());
        }
    }
}
