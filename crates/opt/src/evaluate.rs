//! Simulation-backed fitness with a canonical-genome cache and an evaluation budget.
//!
//! Search strategies propose genomes; the [`Evaluator`] decodes each into a concrete
//! candidate (geometry + [`CacheMapping`]), scores it, and memoises the result under a
//! compact byte key of the genome — so a duplicate candidate, however it was produced,
//! **is never scored twice**. Only new candidates count against the budget, which is what
//! lets a strategy keep polishing a converged population for free.
//!
//! A candidate that tints every referenced page to one column is scored by an exact
//! per-column model of the column cache (`crates/opt/src/model.rs`), which the evaluator
//! indexes the trace for once, when its geometry's run heads pack into 4-byte records;
//! any other candidate, and every reference point, is replayed on a fresh
//! [`ReplayEngine`]. Both give the same fitness, so which path scored
//! a candidate shows only in telemetry: every evaluation is one `opt.evaluations` tick
//! and either one `opt.model.evaluations` tick or one `engine.replays` tick, and
//! `opt.model.references` counts the references the model walked. Batches
//! preserve input order and fan out over threads unless the evaluator was built serial;
//! because the cache is keyed by genome and filled in input order, the evaluator's
//! observable behaviour is byte-identical either way.

use crate::error::OptError;
use crate::model::ColumnModel;
use crate::space::{Genome, SearchSpace};
use ccache_core::parallel::{par_map, seq_map};
use ccache_core::{CacheMapping, CoreError, ReplayEngine, RunResult};
use ccache_layout::assignment_from_vertex_columns;
use ccache_sim::backend::BackendKind;
use ccache_sim::SystemConfig;
use ccache_telemetry::{Counter, Registry};
use ccache_trace::Trace;
use std::collections::BTreeMap;

/// The quality of one candidate, ordered by `(misses, cycles)` — exact integer
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
    /// The trace the engine path replays.
    trace: &'a Trace,
    /// The trace indexed for the model; `None` when the model cannot represent it.
    model: Option<ColumnModel<'a>>,
    serial: bool,
    /// The registry every candidate engine reports into.
    registry: Registry,
    /// Fitness of every candidate scored so far, under [`key`].
    cache: BTreeMap<Vec<u8>, Fitness>,
    budget: usize,
    telemetry: EvaluatorTelemetry,
}

/// Pre-resolved telemetry handles, updated once per batch (never per genome).
struct EvaluatorTelemetry {
    evaluations: Counter,
    model_evaluations: Counter,
    model_references: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
}

impl EvaluatorTelemetry {
    fn bind(registry: &Registry) -> Self {
        EvaluatorTelemetry {
            evaluations: registry.counter("opt.evaluations"),
            model_evaluations: registry.counter("opt.model.evaluations"),
            model_references: registry.counter("opt.model.references"),
            cache_hits: registry.counter("opt.fitness_cache.hits"),
            cache_misses: registry.counter("opt.fitness_cache.misses"),
        }
    }
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over `space` scoring candidates on `trace`, allowed `budget`
    /// evaluations. `serial` forces single-threaded evaluation (used to prove schedule
    /// independence). The `opt.*` counters, and the `engine.*` counters of every replay
    /// it runs, report into `registry`; telemetry never changes a result.
    pub fn new(
        space: &'a SearchSpace,
        trace: &'a Trace,
        budget: usize,
        serial: bool,
        registry: &Registry,
    ) -> Self {
        let configs: Vec<SystemConfig> = space.geometries.iter().map(|g| g.config).collect();
        let model = ColumnModel::new(trace, &configs);
        Evaluator {
            space,
            trace,
            model,
            serial,
            cache: BTreeMap::new(),
            budget,
            telemetry: EvaluatorTelemetry::bind(registry),
            registry: registry.clone(),
        }
    }

    /// Distinct candidates scored so far, by the model or a replay (cache hits are
    /// free): every scored candidate enters the cache exactly once.
    pub fn replays(&self) -> usize {
        self.cache.len()
    }

    /// Evaluations still allowed.
    pub fn remaining(&self) -> usize {
        self.budget.saturating_sub(self.replays())
    }

    /// The cached fitness of a genome, if it has been evaluated.
    pub fn cached(&self, genome: &Genome) -> Option<Fitness> {
        self.cache.get(&key(genome)).copied()
    }

    /// Evaluates a batch of genomes, returning fitness **in input order**. Cached
    /// genomes cost nothing; new distinct genomes are scored (in parallel when enabled)
    /// until the budget runs out, after which unevaluated entries come back as `None`.
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
            let key = key(genome);
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

        // Decode everything first, so a decode error surfaces before anything is scored.
        let candidates: Vec<(SystemConfig, CacheMapping)> = new_genomes
            .iter()
            .map(|g| self.decode(g))
            .collect::<Result<_, _>>()?;
        let results = self.score(&candidates);
        for (key, result) in new_keys.into_iter().zip(results) {
            self.cache.insert(key, result?);
        }

        Ok(genomes.iter().map(|g| self.cached(g)).collect())
    }

    /// Scores a non-genome reference point (e.g. the set-associative baseline) on the
    /// same trace, outside the cache and the budget. Reference points always replay on
    /// the engine.
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

    /// Scores column-cache candidates in input order — with the model when it scores a
    /// candidate exactly, on a fresh engine otherwise — and counts them in
    /// `opt.evaluations` and `opt.model.evaluations`, and the references the model walked
    /// in `opt.model.references`.
    fn score(
        &self,
        candidates: &[(SystemConfig, CacheMapping)],
    ) -> Vec<Result<Fitness, CoreError>> {
        let score_one = |(config, mapping): &(SystemConfig, CacheMapping)| {
            if let Some((fitness, walked)) =
                self.model.as_ref().and_then(|m| m.score(config, mapping))
            {
                return Ok((fitness, Some(walked)));
            }
            let run = self.replay("candidate", BackendKind::ColumnCache, *config, mapping)?;
            Ok((Fitness::from_run(&run), None))
        };
        let results = if self.serial {
            seq_map(candidates, score_one)
        } else {
            par_map(candidates, score_one)
        };
        let walked: Vec<u64> = results.iter().filter_map(|r| r.as_ref().ok()?.1).collect();
        self.telemetry.evaluations.add(results.len() as u64);
        self.telemetry.model_evaluations.add(walked.len() as u64);
        self.telemetry.model_references.add(walked.iter().sum());
        results
            .into_iter()
            .map(|r| r.map(|(fitness, _)| fitness))
            .collect()
    }

    /// One engine replay: a fresh engine bound to the evaluator's registry, the mapping
    /// applied, then the trace replayed once.
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
        Ok(engine.replay(name, self.trace))
    }

    /// Decodes a genome into the geometry and mapping its candidate programs.
    fn decode(&self, genome: &Genome) -> Result<(SystemConfig, CacheMapping), OptError> {
        let geo = &self.space.geometries[genome.geometry];
        let layout = &geo.layout;
        let assignment =
            assignment_from_vertex_columns(&layout.graph, &layout.options, &genome.columns)?;
        let mapping =
            CacheMapping::from_assignment(&assignment, &layout.units, &self.space.symbols, &[]);
        Ok((geo.config, mapping))
    }
}

/// The fitness-cache key of a genome: its geometry as a little-endian `u16`, then one
/// byte per vertex column. Columns stay below `MAX_COLUMNS` = 64, so two genomes of a
/// space are the same candidate exactly when their keys are equal, and a key takes one
/// byte per column where the genome itself takes eight.
fn key(genome: &Genome) -> Vec<u8> {
    let mut key = Vec::with_capacity(2 + genome.columns.len());
    key.extend_from_slice(&(genome.geometry as u16).to_le_bytes());
    key.extend(genome.columns.iter().map(|&c| c as u8));
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::GeometrySearch;
    use ccache_core::RegionMapping;
    use ccache_sim::{CacheConfig, ColumnMask, SystemConfig};
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
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::fixed(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        let mut eval = Evaluator::new(&space, &t, 100, false, &Registry::new());
        let seed = space.seeded(0);
        let batch = vec![seed.clone(), seed.clone(), seed.clone()];
        let scores = eval.evaluate_batch(&batch).unwrap();
        assert_eq!(eval.replays(), 1);
        assert_eq!(scores[0], scores[2]);
        // a second batch with the same genome is free
        eval.evaluate_batch(std::slice::from_ref(&seed)).unwrap();
        assert_eq!(eval.replays(), 1);
        assert!(eval.cached(&seed).is_some());
    }

    #[test]
    fn budget_caps_real_replays_only() {
        let (t, s) = workload();
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::fixed(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        let mut eval = Evaluator::new(&space, &t, 2, false, &Registry::new());
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
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::standard(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        let genomes = space.enumerate(12);
        let mut par = Evaluator::new(&space, &t, 100, false, &Registry::new());
        let mut ser = Evaluator::new(&space, &t, 100, true, &Registry::new());
        let a = par.evaluate_batch(&genomes).unwrap();
        let b = ser.evaluate_batch(&genomes).unwrap();
        assert_eq!(a, b);
        assert_eq!(par.replays(), ser.replays());
    }

    #[test]
    fn reference_points_do_not_touch_the_budget() {
        let (t, s) = workload();
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::fixed(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        let eval = Evaluator::new(&space, &t, 1, false, &Registry::new());
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
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::fixed(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        let registry = Registry::new();
        let eval = Evaluator::new(&space, &t, 1, false, &registry);
        let b = s.iter().find(|r| r.name == "b").unwrap();
        let mut steered = CacheMapping::new();
        steered.map(
            b.base,
            b.size,
            RegionMapping::Columns {
                mask: ColumnMask::single(3),
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

    fn single(column: usize) -> RegionMapping {
        RegionMapping::Columns {
            mask: ColumnMask::single(column),
        }
    }

    /// `a` on column 0 and `b` on column 1: every page the workload references is tinted
    /// to one column.
    fn covering(s: &SymbolTable) -> CacheMapping {
        let mut mapping = CacheMapping::new();
        for (region, column) in s.iter().zip([0, 1]) {
            mapping.map(region.base, region.size, single(column));
        }
        mapping
    }

    /// Scores `mapping` as a candidate under the template geometry and returns the
    /// result, whether the model scored it, and the engine replays it took; then checks
    /// the result against a hand-built engine replay of the same mapping.
    fn score_checked(mapping: &CacheMapping) -> (Result<Fitness, CoreError>, bool, u64) {
        let (t, s) = workload();
        score_checked_on(&t, &s, template(), mapping)
    }

    /// [`score_checked`] on the workload `(t, s)` under the geometry `template`.
    fn score_checked_on(
        t: &Trace,
        s: &SymbolTable,
        template: SystemConfig,
        mapping: &CacheMapping,
    ) -> (Result<Fitness, CoreError>, bool, u64) {
        let space = SearchSpace::build(
            t,
            s,
            template,
            &GeometrySearch::fixed(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        let registry = Registry::new();
        let eval = Evaluator::new(&space, t, 1, true, &registry);
        let result = eval.score(&[(template, mapping.clone())]).pop().unwrap();
        assert_eq!(registry.counter_value("opt.evaluations"), 1);
        let modelled = registry.counter_value("opt.model.evaluations") == 1;

        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, template).unwrap();
        engine.set_telemetry(&Registry::new());
        let by_engine = engine
            .apply(mapping)
            .map(|()| Fitness::from_run(&engine.replay("hand-built", t)));
        assert_eq!(result, by_engine, "{mapping:?}");
        (result, modelled, registry.counter_value("engine.replays"))
    }

    #[test]
    fn single_column_mappings_are_scored_by_the_model() {
        let (_, s) = workload();
        let (result, modelled, replays) = score_checked(&covering(&s));
        assert!(result.is_ok());
        assert!(modelled);
        assert_eq!(replays, 0);
    }

    #[test]
    fn ineligible_mappings_replay_on_the_engine() {
        let (_, s) = workload();
        let with_b = |mapping: RegionMapping| {
            let mut m = covering(&s);
            m.regions[1].2 = mapping;
            m
        };
        let mut defaulted = covering(&s);
        defaulted.default_mask = Some(ColumnMask::from_columns([2, 3]));
        let mut uncovered = covering(&s);
        uncovered.regions.truncate(1);
        let cases = [
            (
                "multi-column mask",
                with_b(RegionMapping::Columns {
                    mask: ColumnMask::from_columns([1, 2]),
                }),
            ),
            ("default mask", defaulted),
            (
                "exclusive region",
                with_b(RegionMapping::Exclusive {
                    mask: ColumnMask::single(2),
                    preload: true,
                }),
            ),
            ("uncached region", with_b(RegionMapping::Uncached)),
            ("uncovered page", uncovered),
        ];
        for (name, mapping) in cases {
            let (result, modelled, replays) = score_checked(&mapping);
            assert!(result.is_ok(), "{name}");
            assert!(!modelled, "{name}");
            assert_eq!(replays, 1, "{name}");
        }
    }

    #[test]
    fn splits_whose_records_do_not_fit_a_u32_replay_on_the_engine() {
        // 64 variables, each on its own 256 MiB page, cached in 1-byte lines: 2^34 line
        // keys, so no `u32` record holds a head's page id and line.
        let mut rec = TraceRecorder::new();
        let vars: Vec<_> = (0..64)
            .map(|i| rec.allocate(&format!("v{i}"), 64, 1 << 28))
            .collect();
        for round in 0..4 {
            for &var in &vars {
                rec.record(var, round * 8, 8, AccessKind::Read);
                rec.record(var, 32 + round * 8, 8, AccessKind::Write);
            }
        }
        let (t, s) = rec.finish();
        let mut mapping = CacheMapping::new();
        for (i, region) in s.iter().enumerate() {
            mapping.map(region.base, region.size, single(i % 4));
        }
        let bytes = CacheConfig::builder().line_size(1).build().unwrap();
        let at_page = |page_size| SystemConfig {
            cache: bytes,
            page_size,
            ..SystemConfig::default()
        };
        let (result, modelled, replays) = score_checked_on(&t, &s, at_page(1 << 28), &mapping);
        assert!(result.is_ok());
        assert!(!modelled);
        assert_eq!(replays, 1);
        // At 1 MiB pages the same candidate has 2^26 line keys, and the model scores it.
        let (result, modelled, replays) = score_checked_on(&t, &s, at_page(1 << 20), &mapping);
        assert!(result.is_ok());
        assert!(modelled);
        assert_eq!(replays, 0);
    }

    #[test]
    fn a_page_covered_twice_takes_the_last_regions_column() {
        let (_, s) = workload();
        let a = s.iter().find(|r| r.name == "a").unwrap();
        // `a` re-tinted onto `b`'s column, where the two conflict
        let mut shadowed = covering(&s);
        shadowed.map(a.base, a.size, single(1));
        let (result, modelled, _) = score_checked(&shadowed);
        assert!(modelled);
        let (separate, _, _) = score_checked(&covering(&s));
        assert_ne!(result.unwrap(), separate.unwrap());
    }

    #[test]
    fn zero_size_regions_are_ignored() {
        let (_, s) = workload();
        let a = s.iter().find(|r| r.name == "a").unwrap();
        let mut mapping = covering(&s);
        mapping.map(a.base, 0, single(1));
        let (result, modelled, _) = score_checked(&mapping);
        assert!(modelled);
        assert_eq!(result, score_checked(&covering(&s)).0);
    }

    #[test]
    fn out_of_range_columns_return_the_engines_error() {
        let (_, s) = workload();
        let mut mapping = covering(&s);
        mapping.regions[1].2 = single(template().cache.columns());
        let (result, modelled, replays) = score_checked(&mapping);
        assert!(matches!(result, Err(CoreError::Sim(_))), "{result:?}");
        assert!(!modelled);
        assert_eq!(replays, 0);
    }

    #[test]
    fn invalid_geometry_is_an_error_not_a_panic() {
        let (t, s) = workload();
        let space = SearchSpace::build(
            &t,
            &s,
            template(),
            &GeometrySearch::fixed(),
            &[],
            &Registry::new(),
        )
        .unwrap();
        let eval = Evaluator::new(&space, &t, 1, false, &Registry::new());
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
