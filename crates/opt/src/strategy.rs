//! The search strategies — exhaustive enumeration, random-restart hill climbing and
//! (μ+λ) evolutionary search — as the arms of [`StrategyKind::search`].
//!
//! Every strategy walks a [`SearchSpace`] through a budgeted [`Evaluator`], appends one
//! [`GenerationPoint`] per round to the [`ProgressLog`], and returns the best genome
//! found. Strategies always evaluate the heuristic seeds first (template geometry
//! foremost), so the returned best is never worse than the paper's heuristic layout —
//! even with a budget of one. Their parameters are the constants below.
//!
//! Determinism: every decision flows from the seeded [`StdRng`] stream and exact integer
//! fitness comparisons, with ties broken by the genomes' derived order. For a fixed
//! seed the outcome is identical run-to-run and with thread-parallel evaluation on or
//! off.

use crate::error::OptError;
use crate::evaluate::{Evaluator, Fitness};
use crate::space::{Genome, SearchSpace};
use ccache_telemetry::{Counter, Gauge, Registry};
use rand::{rngs::StdRng, Rng};

/// Genomes the exhaustive scan evaluates per round (one convergence row each).
const EXHAUSTIVE_BATCH: usize = 64;
/// Neighbours hill climbing proposes per round.
const CLIMB_NEIGHBOURS: usize = 16;
/// Non-improving rounds hill climbing tolerates before a random restart.
const CLIMB_PATIENCE: usize = 3;
/// Survivor population size μ of the evolutionary search.
const MU: usize = 8;
/// Offspring per generation λ of the evolutionary search.
const LAMBDA: usize = 16;
/// Probability an offspring is a crossover of two parents (otherwise a mutant clone).
const CROSSOVER_RATE: f64 = 0.9;

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
/// moment the row is appended. This is how `tune` progress reaches streaming
/// `subscribe` clients while the search is still running.
pub trait TuneProgress {
    /// Called after each round with the freshly appended convergence row.
    fn on_generation(&mut self, point: &GenerationPoint);
}

/// The convergence log a search appends to: an owned list of [`GenerationPoint`] rows,
/// the `opt.generations` counter and `opt.best.misses` gauge of a registry, and an
/// optional live [`TuneProgress`] observer that sees each row as it lands.
///
/// Strategies only ever [`push`](ProgressLog::push) and read [`len`](ProgressLog::len)
/// (the next generation index), so neither telemetry nor an observer can change what
/// gets logged — convergence stays byte-identical whether anyone is listening or not.
pub struct ProgressLog<'a> {
    points: Vec<GenerationPoint>,
    generations: Counter,
    best_misses: Gauge,
    observer: Option<&'a mut dyn TuneProgress>,
}

impl<'a> ProgressLog<'a> {
    /// An empty log reporting into `registry` and forwarding each row to `observer`.
    pub fn new(registry: &Registry, observer: Option<&'a mut dyn TuneProgress>) -> Self {
        ProgressLog {
            points: Vec::new(),
            generations: registry.counter("opt.generations"),
            best_misses: registry.gauge("opt.best.misses"),
            observer,
        }
    }

    /// Appends a row: counts it, records its best misses, then notifies the observer.
    pub fn push(&mut self, point: GenerationPoint) {
        self.generations.incr();
        self.best_misses.set(point.best.misses);
        if let Some(observer) = self.observer.as_deref_mut() {
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

    /// Consumes the log, returning the rows.
    pub fn into_points(self) -> Vec<GenerationPoint> {
        self.points
    }
}

/// The best candidate found, with deterministic tie-breaking on the genome's order.
#[derive(Debug, Clone)]
pub struct BestCandidate {
    /// The winning genome.
    pub genome: Genome,
    /// Its replayed fitness.
    pub fitness: Fitness,
}

impl BestCandidate {
    /// Replaces the incumbent if `candidate` is strictly better, or equal-fitness with a
    /// smaller genome (so outcomes never depend on visit order).
    fn consider(slot: &mut Option<BestCandidate>, genome: &Genome, fitness: Fitness) {
        let replace = match slot {
            None => true,
            Some(best) => (fitness.key(), genome) < (best.fitness.key(), &best.genome),
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
fn exhaustive(
    space: &SearchSpace,
    eval: &mut Evaluator<'_>,
    log: &mut ProgressLog<'_>,
    mut best: Option<BestCandidate>,
) -> Result<BestCandidate, OptError> {
    // +seeds again is fine: they come from the cache and cost nothing.
    let genomes = space.enumerate(eval.remaining().saturating_add(eval.replays()));
    for chunk in genomes.chunks(EXHAUSTIVE_BATCH) {
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

/// Hill climbing with random restarts: batched neighbour proposals, greedy moves, and a
/// jump to a fresh random genome after `CLIMB_PATIENCE` non-improving batches.
fn hill_climb(
    space: &SearchSpace,
    eval: &mut Evaluator<'_>,
    rng: &mut StdRng,
    log: &mut ProgressLog<'_>,
    mut best: Option<BestCandidate>,
) -> Result<BestCandidate, OptError> {
    let Some(start) = &best else {
        return Err(missing_best());
    };
    let mut current = start.clone();
    let mut stuck = 0usize;
    let mut dry = 0usize;
    while eval.remaining() > 0 && dry <= DRY_ROUND_LIMIT {
        let replays_before = eval.replays();
        let neighbours: Vec<Genome> = (0..CLIMB_NEIGHBOURS)
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
        if stuck > CLIMB_PATIENCE {
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

/// (μ+λ) evolutionary search: tournament parent selection, uniform crossover, point
/// mutation, and truncation survival over the union of parents and offspring.
fn evolutionary(
    space: &SearchSpace,
    eval: &mut Evaluator<'_>,
    rng: &mut StdRng,
    log: &mut ProgressLog<'_>,
    mut best: Option<BestCandidate>,
) -> Result<BestCandidate, OptError> {
    if best.is_none() {
        return Err(missing_best());
    }

    // Initial population: the heuristic seeds plus random genomes up to μ.
    let mut init: Vec<Genome> = (0..space.geometries.len().min(MU))
        .map(|g| space.seeded(g))
        .collect();
    while init.len() < MU {
        init.push(space.random(rng));
    }
    let scores = eval.evaluate_batch(&init)?;
    let mut population: Vec<BestCandidate> = init
        .into_iter()
        .zip(scores)
        .filter_map(|(genome, fitness)| fitness.map(|fitness| BestCandidate { genome, fitness }))
        .collect();
    for member in &population {
        BestCandidate::consider(&mut best, &member.genome, member.fitness);
    }
    sort_population(&mut population);

    let mut dry = 0usize;
    while eval.remaining() > 0 && !population.is_empty() && dry <= DRY_ROUND_LIMIT {
        let replays_before = eval.replays();
        let offspring: Vec<Genome> = (0..LAMBDA)
            .map(|_| {
                let a = tournament(&population, rng);
                let child = if rng.random_bool(CROSSOVER_RATE) {
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
        population.truncate(MU);
        dry = if eval.replays() == replays_before {
            dry + 1
        } else {
            0
        };
        log_round(log, eval, &best);
    }
    best.ok_or_else(missing_best)
}

/// Sorts by fitness key then genome — a strict total order, so the survivor set is
/// schedule-independent.
fn sort_population(population: &mut [BestCandidate]) {
    population.sort_by(|a, b| (a.fitness.key(), &a.genome).cmp(&(b.fitness.key(), &b.genome)));
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

/// The search strategies, which `ccache tune` requests by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// Full enumeration in canonical order: exact on small spaces, a deterministic
    /// prefix scan otherwise, 64 genomes per round.
    Exhaustive,
    /// Random-restart hill climbing: 16 neighbours per round, a restart after 3
    /// non-improving rounds.
    HillClimb,
    /// (μ+λ) evolutionary search with μ = 8, λ = 16 and crossover rate 0.9.
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

    /// Runs this strategy until the evaluator's budget is exhausted (or the space is
    /// covered), returning the best candidate found.
    ///
    /// # Errors
    ///
    /// Fails when the budget allows no evaluation, and propagates evaluation errors; a
    /// search over a well-formed space does not fail otherwise.
    pub fn search(
        self,
        space: &SearchSpace,
        eval: &mut Evaluator<'_>,
        rng: &mut StdRng,
        log: &mut ProgressLog<'_>,
    ) -> Result<BestCandidate, OptError> {
        let best = evaluate_seeds(space, eval)?;
        log_round(log, eval, &best);
        match self {
            StrategyKind::Exhaustive => exhaustive(space, eval, log, best),
            StrategyKind::HillClimb => hill_climb(space, eval, rng, log, best),
            StrategyKind::Evolutionary => evolutionary(space, eval, rng, log, best),
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
        let registry = Registry::new();
        let mut eval = Evaluator::new(&space, &t, budget, false, &registry);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = ProgressLog::new(&registry, None);
        let best = kind.search(&space, &mut eval, &mut rng, &mut log).unwrap();
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
        let mut eval = Evaluator::new(&space, &t, 1, false, &Registry::new());
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
