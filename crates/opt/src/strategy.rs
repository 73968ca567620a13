//! The pluggable search strategies: exhaustive, random-restart hill climbing, and
//! (μ+λ) evolutionary search.
//!
//! Every strategy speaks the same [`SearchStrategy`] interface: walk a
//! [`SearchSpace`] through a budgeted [`Evaluator`], append one
//! [`GenerationPoint`] per round to the convergence log, and return the best genome
//! found. Strategies always evaluate the heuristic seeds first (template geometry
//! foremost), so the returned best is never worse than the paper's heuristic layout —
//! even with a budget of one.
//!
//! Determinism: every decision flows from the seeded [`StdRng`] stream and exact integer
//! fitness comparisons, with ties broken by the canonical genome encoding. For a fixed
//! seed the outcome is identical run-to-run and with thread-parallel evaluation on or
//! off.

use crate::error::OptError;
use crate::evaluate::{Evaluator, Fitness};
use crate::space::{Genome, SearchSpace};
use rand::{rngs::StdRng, Rng};

/// One row of the convergence table: the state of the search after a round.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationPoint {
    /// Round index (0-based): batch, restart segment or generation, per strategy.
    pub generation: usize,
    /// Cumulative real replays after the round (cache hits excluded).
    pub replays: usize,
    /// Best fitness found so far.
    pub best: Fitness,
}

/// A live listener for search progress: one callback per convergence row, fired the
/// moment the row is appended. This is how `tune` progress reaches telemetry gauges and
/// streaming `subscribe` clients while the search is still running.
pub trait TuneProgress {
    /// Called after each round with the freshly appended convergence row.
    fn on_generation(&mut self, point: &GenerationPoint);
}

/// The convergence log a search appends to: an owned list of [`GenerationPoint`] rows
/// plus an optional live [`TuneProgress`] observer that sees each row as it lands.
///
/// Strategies only ever [`push`](ProgressLog::push) and read [`len`](ProgressLog::len)
/// (the next generation index), so an observer can never change what gets logged —
/// convergence stays byte-identical whether anyone is listening or not.
#[derive(Default)]
pub struct ProgressLog<'a> {
    points: Vec<GenerationPoint>,
    observer: Option<&'a mut dyn TuneProgress>,
}

impl<'a> ProgressLog<'a> {
    /// An empty log with no observer.
    pub fn new() -> ProgressLog<'static> {
        ProgressLog {
            points: Vec::new(),
            observer: None,
        }
    }

    /// An empty log that forwards each appended row to `observer`.
    pub fn with_observer(observer: &'a mut dyn TuneProgress) -> ProgressLog<'a> {
        ProgressLog {
            points: Vec::new(),
            observer: Some(observer),
        }
    }

    /// Appends a row and notifies the observer, if any.
    pub fn push(&mut self, point: GenerationPoint) {
        if let Some(observer) = self.observer.as_mut() {
            observer.on_generation(&point);
        }
        self.points.push(point);
    }

    /// Rows appended so far — also the next round's generation index.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Read-only view of the rows.
    pub fn points(&self) -> &[GenerationPoint] {
        &self.points
    }

    /// Consumes the log, returning the rows.
    pub fn into_points(self) -> Vec<GenerationPoint> {
        self.points
    }
}

impl std::fmt::Debug for ProgressLog<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressLog")
            .field("points", &self.points)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

/// The best candidate found, with deterministic tie-breaking on the canonical key.
#[derive(Debug, Clone)]
pub struct BestCandidate {
    /// The winning genome.
    pub genome: Genome,
    /// Its replayed fitness.
    pub fitness: Fitness,
}

impl BestCandidate {
    /// Replaces the incumbent if `candidate` is strictly better, or equal-fitness with a
    /// lexicographically smaller canonical key (so outcomes never depend on visit order).
    fn consider(slot: &mut Option<BestCandidate>, genome: &Genome, fitness: Fitness) {
        let replace = match slot {
            None => true,
            Some(best) => {
                fitness.key() < best.fitness.key()
                    || (fitness.key() == best.fitness.key()
                        && genome.encode() < best.genome.encode())
            }
        };
        if replace {
            *slot = Some(BestCandidate {
                genome: genome.clone(),
                fitness,
            });
        }
    }
}

/// Consecutive rounds a stochastic strategy tolerates without a single fresh replay
/// (everything proposed was already cached) before concluding the reachable space is
/// exhausted. Keeps tiny spaces from spinning forever on a large budget.
const DRY_ROUND_LIMIT: usize = 32;

/// A search procedure over genomes.
pub trait SearchStrategy {
    /// The strategy's stable CLI name.
    fn name(&self) -> &'static str;

    /// Runs the search until the evaluator's budget is exhausted (or the space is
    /// covered), returning the best candidate found.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; a search over a well-formed space does not fail.
    fn search(
        &self,
        space: &SearchSpace,
        eval: &mut Evaluator<'_>,
        rng: &mut StdRng,
        log: &mut ProgressLog<'_>,
    ) -> Result<BestCandidate, OptError>;
}

/// Evaluates the heuristic seed of every geometry (template first) and returns the
/// incumbent best. Called by every strategy before its own loop.
fn evaluate_seeds(
    space: &SearchSpace,
    eval: &mut Evaluator<'_>,
) -> Result<Option<BestCandidate>, OptError> {
    let seeds: Vec<Genome> = (0..space.geometries.len())
        .map(|g| space.seeded(g))
        .collect();
    let scores = eval.evaluate_batch(&seeds)?;
    let mut best = None;
    for (genome, fitness) in seeds.iter().zip(scores) {
        if let Some(fitness) = fitness {
            BestCandidate::consider(&mut best, genome, fitness);
        }
    }
    Ok(best)
}

fn log_round(log: &mut ProgressLog<'_>, eval: &Evaluator<'_>, best: &Option<BestCandidate>) {
    if let Some(best) = best {
        log.push(GenerationPoint {
            generation: log.len(),
            replays: eval.replays(),
            best: best.fitness,
        });
    }
}

fn missing_best() -> OptError {
    OptError::BadRequest {
        reason: "search budget must allow at least one evaluation".to_owned(),
    }
}

/// Full enumeration in canonical order — exact for small spaces, a deterministic prefix
/// scan when the space exceeds the budget.
#[derive(Debug, Clone, Default)]
pub struct Exhaustive {
    /// Genomes evaluated per round (one convergence row each).
    pub batch: usize,
}

impl SearchStrategy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn search(
        &self,
        space: &SearchSpace,
        eval: &mut Evaluator<'_>,
        _rng: &mut StdRng,
        log: &mut ProgressLog<'_>,
    ) -> Result<BestCandidate, OptError> {
        let batch = if self.batch == 0 { 64 } else { self.batch };
        let mut best = evaluate_seeds(space, eval)?;
        log_round(log, eval, &best);
        // +seeds again is fine: they come from the cache and cost nothing.
        let genomes = space.enumerate(eval.remaining().saturating_add(eval.distinct()));
        for chunk in genomes.chunks(batch) {
            if eval.remaining() == 0 {
                break;
            }
            let scores = eval.evaluate_batch(chunk)?;
            for (genome, fitness) in chunk.iter().zip(scores) {
                if let Some(fitness) = fitness {
                    BestCandidate::consider(&mut best, genome, fitness);
                }
            }
            log_round(log, eval, &best);
        }
        best.ok_or_else(missing_best)
    }
}

/// Hill climbing with random restarts: batched neighbour proposals, greedy moves, and a
/// jump to a fresh random genome after `patience` non-improving batches.
#[derive(Debug, Clone)]
pub struct HillClimb {
    /// Neighbours proposed per round.
    pub neighbours: usize,
    /// Non-improving rounds tolerated before a random restart.
    pub patience: usize,
}

impl Default for HillClimb {
    fn default() -> Self {
        HillClimb {
            neighbours: 16,
            patience: 3,
        }
    }
}

impl SearchStrategy for HillClimb {
    fn name(&self) -> &'static str {
        "hill-climb"
    }

    fn search(
        &self,
        space: &SearchSpace,
        eval: &mut Evaluator<'_>,
        rng: &mut StdRng,
        log: &mut ProgressLog<'_>,
    ) -> Result<BestCandidate, OptError> {
        let mut best = evaluate_seeds(space, eval)?;
        log_round(log, eval, &best);
        let Some(start) = &best else {
            return Err(missing_best());
        };
        let mut current = start.clone();
        let mut stuck = 0usize;
        let mut dry = 0usize;
        while eval.remaining() > 0 && dry <= DRY_ROUND_LIMIT {
            let replays_before = eval.replays();
            let neighbours: Vec<Genome> = (0..self.neighbours.max(1))
                .map(|_| space.mutate(&current.genome, rng))
                .collect();
            let scores = eval.evaluate_batch(&neighbours)?;
            let mut round_best: Option<BestCandidate> = None;
            for (genome, fitness) in neighbours.iter().zip(scores) {
                if let Some(fitness) = fitness {
                    BestCandidate::consider(&mut round_best, genome, fitness);
                    BestCandidate::consider(&mut best, genome, fitness);
                }
            }
            match round_best {
                Some(rb) if rb.fitness.key() < current.fitness.key() => {
                    current = rb;
                    stuck = 0;
                }
                Some(_) => stuck += 1,
                None => {} // budget ran dry mid-round; the loop exits
            }
            if stuck > self.patience {
                // restart from a fresh random point; its score arrives with the next
                // neighbour round
                let genome = space.random(rng);
                let fitness = eval
                    .evaluate_batch(std::slice::from_ref(&genome))?
                    .pop()
                    .flatten();
                if let Some(fitness) = fitness {
                    BestCandidate::consider(&mut best, &genome, fitness);
                    current = BestCandidate { genome, fitness };
                }
                stuck = 0;
            }
            dry = if eval.replays() == replays_before {
                dry + 1
            } else {
                0
            };
            log_round(log, eval, &best);
        }
        best.ok_or_else(missing_best)
    }
}

/// (μ+λ) evolutionary search: tournament parent selection, uniform crossover, point
/// mutation, and truncation survival over the union of parents and offspring.
#[derive(Debug, Clone)]
pub struct Evolutionary {
    /// Survivor population size μ.
    pub mu: usize,
    /// Offspring per generation λ.
    pub lambda: usize,
    /// Probability an offspring is a crossover of two parents (otherwise a mutant clone).
    pub crossover_rate: f64,
}

impl Default for Evolutionary {
    fn default() -> Self {
        Evolutionary {
            mu: 8,
            lambda: 16,
            crossover_rate: 0.9,
        }
    }
}

impl SearchStrategy for Evolutionary {
    fn name(&self) -> &'static str {
        "evolutionary"
    }

    fn search(
        &self,
        space: &SearchSpace,
        eval: &mut Evaluator<'_>,
        rng: &mut StdRng,
        log: &mut ProgressLog<'_>,
    ) -> Result<BestCandidate, OptError> {
        let mu = self.mu.max(2);
        let lambda = self.lambda.max(1);
        let mut best = evaluate_seeds(space, eval)?;
        log_round(log, eval, &best);
        if best.is_none() {
            return Err(missing_best());
        }

        // Initial population: the heuristic seeds plus random genomes up to μ.
        let mut init: Vec<Genome> = (0..space.geometries.len().min(mu))
            .map(|g| space.seeded(g))
            .collect();
        while init.len() < mu {
            init.push(space.random(rng));
        }
        let scores = eval.evaluate_batch(&init)?;
        let mut population: Vec<BestCandidate> = init
            .into_iter()
            .zip(scores)
            .filter_map(|(genome, fitness)| {
                fitness.map(|fitness| BestCandidate { genome, fitness })
            })
            .collect();
        for member in &population {
            BestCandidate::consider(&mut best, &member.genome, member.fitness);
        }
        sort_population(&mut population);

        let mut dry = 0usize;
        while eval.remaining() > 0 && !population.is_empty() && dry <= DRY_ROUND_LIMIT {
            let replays_before = eval.replays();
            let offspring: Vec<Genome> = (0..lambda)
                .map(|_| {
                    let a = tournament(&population, rng);
                    let child = if rng.random_bool(self.crossover_rate) {
                        let b = tournament(&population, rng);
                        space.crossover(&population[a].genome, &population[b].genome, rng)
                    } else {
                        population[a].genome.clone()
                    };
                    space.mutate(&child, rng)
                })
                .collect();
            let scores = eval.evaluate_batch(&offspring)?;
            for (genome, fitness) in offspring.into_iter().zip(scores) {
                let Some(fitness) = fitness else { continue };
                BestCandidate::consider(&mut best, &genome, fitness);
                population.push(BestCandidate { genome, fitness });
            }
            // (μ+λ) truncation: parents compete with offspring; duplicates collapse so
            // a converged population keeps exploring distinct genomes.
            sort_population(&mut population);
            population.dedup_by(|a, b| a.genome == b.genome);
            population.truncate(mu);
            dry = if eval.replays() == replays_before {
                dry + 1
            } else {
                0
            };
            log_round(log, eval, &best);
        }
        best.ok_or_else(missing_best)
    }
}

/// Sorts by fitness key then canonical encoding — a strict total order, so the survivor
/// set is schedule-independent.
fn sort_population(population: &mut [BestCandidate]) {
    population.sort_by(|a, b| {
        a.fitness
            .key()
            .cmp(&b.fitness.key())
            .then_with(|| a.genome.encode().cmp(&b.genome.encode()))
    });
}

/// Binary tournament: two uniform picks, the fitter index wins.
fn tournament(population: &[BestCandidate], rng: &mut StdRng) -> usize {
    let a = rng.random_range(0..population.len());
    let b = rng.random_range(0..population.len());
    if population[a].fitness.key() <= population[b].fitness.key() {
        a
    } else {
        b
    }
}

/// The strategies `ccache tune` can request by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// Full enumeration (small spaces) — [`Exhaustive`].
    Exhaustive,
    /// Random-restart hill climbing — [`HillClimb`].
    HillClimb,
    /// (μ+λ) evolutionary search — [`Evolutionary`].
    #[default]
    Evolutionary,
}

impl StrategyKind {
    /// Every kind, for sweeps and help text.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::Exhaustive,
        StrategyKind::HillClimb,
        StrategyKind::Evolutionary,
    ];

    /// Parses a strategy name as used on the command line.
    pub fn parse(s: &str) -> Option<StrategyKind> {
        match s {
            "exhaustive" | "exact" => Some(StrategyKind::Exhaustive),
            "hill-climb" | "hill" | "climb" => Some(StrategyKind::HillClimb),
            "evolutionary" | "evolve" | "ea" => Some(StrategyKind::Evolutionary),
            _ => None,
        }
    }

    /// Builds the strategy with its default parameters.
    pub fn build(self) -> Box<dyn SearchStrategy> {
        match self {
            StrategyKind::Exhaustive => Box::new(Exhaustive::default()),
            StrategyKind::HillClimb => Box::new(HillClimb::default()),
            StrategyKind::Evolutionary => Box::new(Evolutionary::default()),
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StrategyKind::Exhaustive => "exhaustive",
            StrategyKind::HillClimb => "hill-climb",
            StrategyKind::Evolutionary => "evolutionary",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::GeometrySearch;
    use ccache_sim::SystemConfig;
    use ccache_telemetry::Registry;
    use ccache_trace::{AccessKind, SymbolTable, Trace, TraceRecorder};
    use rand::SeedableRng;

    fn workload() -> (Trace, SymbolTable) {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 256, 8);
        let b = rec.allocate("b", 256, 8);
        let c = rec.allocate("c", 1024, 8);
        for i in 0..96u64 {
            rec.record(a, (i % 32) * 8, 8, AccessKind::Read);
            rec.record(b, (i % 32) * 8, 8, AccessKind::Write);
            rec.record(c, (i * 8) % 1024, 8, AccessKind::Read);
        }
        rec.finish()
    }

    fn template() -> SystemConfig {
        SystemConfig {
            page_size: 256,
            ..SystemConfig::default()
        }
    }

    fn run_kind(
        kind: StrategyKind,
        budget: usize,
        seed: u64,
    ) -> (BestCandidate, Vec<GenerationPoint>) {
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
        let mut eval = Evaluator::new(&space, &t, budget, false);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = ProgressLog::new();
        let best = kind
            .build()
            .search(&space, &mut eval, &mut rng, &mut log)
            .unwrap();
        (best, log.into_points())
    }

    #[test]
    fn every_strategy_is_at_least_as_good_as_the_heuristic() {
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
        let mut eval = Evaluator::new(&space, &t, 1, false);
        let heuristic = eval
            .evaluate_batch(&[space.seeded(0)])
            .unwrap()
            .pop()
            .flatten()
            .unwrap();
        for kind in StrategyKind::ALL {
            let (best, log) = run_kind(kind, 60, 42);
            assert!(
                best.fitness.key() <= heuristic.key(),
                "{kind} regressed past the heuristic seed"
            );
            assert!(!log.is_empty());
            // convergence is monotone
            for w in log.windows(2) {
                assert!(w[1].best.key() <= w[0].best.key());
                assert!(w[1].replays >= w[0].replays);
            }
        }
    }

    #[test]
    fn fixed_seed_is_reproducible() {
        for kind in StrategyKind::ALL {
            let (a, la) = run_kind(kind, 40, 7);
            let (b, lb) = run_kind(kind, 40, 7);
            assert_eq!(a.genome, b.genome);
            assert_eq!(a.fitness.key(), b.fitness.key());
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn budget_of_one_still_returns_the_heuristic() {
        for kind in StrategyKind::ALL {
            let (best, _) = run_kind(kind, 1, 1);
            assert!(best.fitness.references > 0);
        }
    }

    #[test]
    fn kinds_parse_and_display() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(
            StrategyKind::parse("evolve"),
            Some(StrategyKind::Evolutionary)
        );
        assert_eq!(StrategyKind::parse("bogus"), None);
        assert_eq!(StrategyKind::default(), StrategyKind::Evolutionary);
    }
}
