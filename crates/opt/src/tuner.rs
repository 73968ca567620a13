//! The top-level tuner: build the space, run a strategy, package the result.
//!
//! [`tune_observed`] is the one-call interface the session and tests use. It is fully
//! deterministic for a fixed [`TuneRequest`]: the convergence log, the winning genome and
//! every reported number are identical across runs and across parallel and serial
//! evaluation. The heuristic seed is always evaluated first, so the reported best is never
//! worse than the paper's `assign_columns` layout on the template geometry.

use crate::error::OptError;
use crate::evaluate::{Evaluator, Fitness};
use crate::space::{GeometrySearch, SearchSpace};
use crate::strategy::{BestCandidate, GenerationPoint, ProgressLog, StrategyKind, TuneProgress};
use ccache_core::CacheMapping;
use ccache_json::{Json, ToJson};
use ccache_layout::assignment_from_vertex_columns;
use ccache_sim::backend::BackendKind;
use ccache_sim::SystemConfig;
use ccache_telemetry::Registry;
use ccache_trace::{SymbolTable, Trace, VarId};
use rand::{rngs::StdRng, SeedableRng};

/// Everything a tuning run needs besides the workload itself.
#[derive(Debug, Clone)]
pub struct TuneRequest {
    /// The geometry template: capacity, latencies and page size are fixed; columns,
    /// line size and TLB entries vary within [`TuneRequest::geometry`].
    pub template: SystemConfig,
    /// The geometry knobs to search ([`GeometrySearch::fixed`] pins the template).
    pub geometry: GeometrySearch,
    /// The search strategy to run.
    pub strategy: StrategyKind,
    /// Maximum number of real replays (cache hits are free).
    pub budget: usize,
    /// RNG seed; fixes the entire search trajectory.
    pub seed: u64,
    /// Force single-threaded evaluation (results are identical either way).
    pub serial: bool,
    /// Variables pinned to columns in every candidate.
    pub forced: Vec<(VarId, usize)>,
    /// The backend of the comparison row (default: the set-associative cache; the ideal
    /// scratchpad gives a lower-bound row instead).
    pub baseline: BackendKind,
}

impl Default for TuneRequest {
    fn default() -> Self {
        TuneRequest {
            template: SystemConfig::default(),
            geometry: GeometrySearch::standard(),
            strategy: StrategyKind::default(),
            budget: 256,
            seed: 42,
            serial: false,
            forced: Vec::new(),
            baseline: BackendKind::SetAssociative,
        }
    }
}

/// A reported fitness triple plus the layout cost `W` where one is defined.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredLayout {
    /// Replayed fitness.
    pub fitness: Fitness,
    /// The paper's cost `W` of the assignment (`None` for the set-associative baseline,
    /// which has no assignment).
    pub cost: Option<u64>,
}

/// The winning configuration in reportable form.
#[derive(Debug, Clone, PartialEq)]
pub struct BestConfig {
    /// Columns (ways) of the winning geometry.
    pub columns: usize,
    /// Line size in bytes.
    pub line_size: u64,
    /// TLB entries.
    pub tlb_entries: usize,
    /// Total capacity in bytes (always the template's).
    pub capacity_bytes: u64,
    /// Page size in bytes (always the template's).
    pub page_size: u64,
}

impl BestConfig {
    fn from_config(config: &SystemConfig) -> Self {
        BestConfig {
            columns: config.cache.columns(),
            line_size: config.cache.line_size(),
            tlb_entries: config.tlb_entries,
            capacity_bytes: config.cache.capacity_bytes(),
            page_size: config.page_size,
        }
    }
}

/// The full result of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Name of the strategy that ran.
    pub strategy: String,
    /// The seed the run used.
    pub seed: u64,
    /// The replay budget the run was allowed.
    pub budget: usize,
    /// Real replays performed.
    pub replays: usize,
    /// Distinct candidates scored.
    pub distinct: usize,
    /// Number of geometries in the search space.
    pub geometries: usize,
    /// Exact space size when it fits in a `u128`.
    pub cardinality: Option<u128>,
    /// The winning geometry.
    pub best_config: BestConfig,
    /// The winning per-variable column assignment, as `(variable name, columns)` in
    /// symbol-table order.
    pub best_assignment: Vec<(String, Vec<usize>)>,
    /// The winning candidate's score.
    pub best: ScoredLayout,
    /// The paper's heuristic layout on the template geometry.
    pub heuristic: ScoredLayout,
    /// The set-associative baseline on the template geometry (no mapping).
    pub baseline: ScoredLayout,
    /// One row per search round.
    pub convergence: Vec<GenerationPoint>,
}

impl TuneOutcome {
    /// Miss-rate improvement of the best layout over the heuristic layout
    /// (positive = better; zero when the search only matched the seed).
    pub fn improvement_vs_heuristic(&self) -> f64 {
        self.heuristic.fitness.miss_rate - self.best.fitness.miss_rate
    }

    /// Miss-rate improvement of the best layout over the set-associative baseline.
    pub fn improvement_vs_baseline(&self) -> f64 {
        self.baseline.fitness.miss_rate - self.best.fitness.miss_rate
    }
}

fn fitness_json(fitness: &Fitness) -> Json {
    Json::obj([
        ("misses", fitness.misses.to_json()),
        ("cycles", fitness.cycles.to_json()),
        ("references", fitness.references.to_json()),
        ("miss_rate", fitness.miss_rate.to_json()),
    ])
}

fn scored_json(scored: &ScoredLayout) -> Json {
    let mut pairs = vec![
        ("misses", scored.fitness.misses.to_json()),
        ("cycles", scored.fitness.cycles.to_json()),
        ("references", scored.fitness.references.to_json()),
        ("miss_rate", scored.fitness.miss_rate.to_json()),
    ];
    if let Some(cost) = scored.cost {
        pairs.push(("cost", cost.to_json()));
    }
    Json::obj(pairs)
}

impl ToJson for TuneOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("strategy", self.strategy.to_json()),
            ("seed", self.seed.to_json()),
            ("budget", (self.budget as u64).to_json()),
            ("replays", (self.replays as u64).to_json()),
            ("distinct_candidates", (self.distinct as u64).to_json()),
            ("geometries", (self.geometries as u64).to_json()),
            (
                "cardinality",
                match self.cardinality {
                    Some(n) if n <= u64::MAX as u128 => (n as u64).to_json(),
                    _ => Json::Null,
                },
            ),
            (
                "best",
                Json::obj([
                    (
                        "config",
                        Json::obj([
                            ("columns", (self.best_config.columns as u64).to_json()),
                            ("line_size", self.best_config.line_size.to_json()),
                            (
                                "tlb_entries",
                                (self.best_config.tlb_entries as u64).to_json(),
                            ),
                            ("capacity_bytes", self.best_config.capacity_bytes.to_json()),
                            ("page_size", self.best_config.page_size.to_json()),
                        ]),
                    ),
                    (
                        "assignment",
                        Json::arr(self.best_assignment.iter().map(|(name, cols)| {
                            Json::obj([
                                ("variable", name.to_json()),
                                (
                                    "columns",
                                    Json::arr(cols.iter().map(|&c| (c as u64).to_json())),
                                ),
                            ])
                        })),
                    ),
                    ("misses", self.best.fitness.misses.to_json()),
                    ("cycles", self.best.fitness.cycles.to_json()),
                    ("references", self.best.fitness.references.to_json()),
                    ("miss_rate", self.best.fitness.miss_rate.to_json()),
                    (
                        "cost",
                        match self.best.cost {
                            Some(c) => c.to_json(),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            ("heuristic", scored_json(&self.heuristic)),
            ("baseline", scored_json(&self.baseline)),
            (
                "improvement",
                Json::obj([
                    (
                        "vs_heuristic_miss_rate",
                        self.improvement_vs_heuristic().to_json(),
                    ),
                    (
                        "vs_baseline_miss_rate",
                        self.improvement_vs_baseline().to_json(),
                    ),
                ]),
            ),
            (
                "convergence",
                Json::arr(self.convergence.iter().map(|point| {
                    Json::obj([
                        ("generation", (point.generation as u64).to_json()),
                        ("replays", (point.replays as u64).to_json()),
                        ("best", fitness_json(&point.best)),
                    ])
                })),
            ),
        ])
    }
}

/// Runs one tuning search over a workload, streaming per-generation progress.
///
/// Observation never steers the search: the trajectory and result are the same with or
/// without `progress`, and the full convergence log is on the returned [`TuneOutcome`]
/// either way. `telemetry` receives the `opt.*` counters and gauges (per-generation count,
/// best-so-far misses, fitness-cache traffic); `progress` — when given — is called once
/// per completed generation, after the telemetry update, from the calling thread.
///
/// # Errors
///
/// Fails when the template geometry is invalid, the space is empty, the budget is zero,
/// or evaluation fails.
pub fn tune_observed(
    trace: &Trace,
    symbols: &SymbolTable,
    request: &TuneRequest,
    telemetry: &Registry,
    progress: Option<&mut dyn TuneProgress>,
) -> Result<TuneOutcome, OptError> {
    if request.budget == 0 {
        return Err(OptError::BadRequest {
            reason: "budget must be at least 1 replay".to_owned(),
        });
    }
    let space = SearchSpace::build(
        trace,
        symbols,
        request.template,
        &request.geometry,
        &request.forced,
        telemetry,
    )?;
    let mut eval = Evaluator::new(&space, trace, request.budget, request.serial, telemetry);

    // Reference points: the paper's heuristic layout (geometry 0 is always the
    // template) and the plain set-associative cache. The heuristic replay is also the
    // search seed, so it is paid for exactly once.
    let heuristic_genome = space.seeded(0);
    let heuristic_fitness = eval
        .evaluate_batch(std::slice::from_ref(&heuristic_genome))?
        .pop()
        .flatten()
        .ok_or_else(|| OptError::BadRequest {
            reason: "budget must allow the heuristic seed evaluation".to_owned(),
        })?;
    let heuristic = ScoredLayout {
        fitness: heuristic_fitness,
        cost: Some(space.geometries[0].layout.heuristic.cost),
    };
    let baseline = ScoredLayout {
        fitness: eval.reference_point(request.baseline, request.template, &CacheMapping::new())?,
        cost: None,
    };

    let mut rng = StdRng::seed_from_u64(request.seed);
    let mut log = ProgressLog::new(telemetry, progress);
    let mut best = request
        .strategy
        .search(&space, &mut eval, &mut rng, &mut log)?;
    let convergence = log.into_points();

    // The seeds are evaluated first by every strategy, so this cannot trigger; it is a
    // guarantee, not a hope.
    if heuristic.fitness.key() < best.fitness.key() {
        best = BestCandidate {
            genome: heuristic_genome,
            fitness: heuristic.fitness,
        };
    }

    let geo = &space.geometries[best.genome.geometry];
    let assignment = assignment_from_vertex_columns(
        &geo.layout.graph,
        &geo.layout.options,
        &best.genome.columns,
    )?;
    let best_assignment: Vec<(String, Vec<usize>)> = symbols
        .iter()
        .filter_map(|region| {
            let cols = assignment.columns_of(region.id);
            if cols.is_empty() {
                None
            } else {
                Some((region.name.clone(), cols.to_vec()))
            }
        })
        .collect();

    Ok(TuneOutcome {
        strategy: request.strategy.to_string(),
        seed: request.seed,
        budget: request.budget,
        replays: eval.replays(),
        distinct: eval.replays(),
        geometries: space.geometries.len(),
        cardinality: space.cardinality(),
        best_config: BestConfig::from_config(&geo.config),
        best_assignment,
        best: ScoredLayout {
            fitness: best.fitness,
            cost: Some(assignment.cost),
        },
        heuristic,
        baseline,
        convergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_trace::{AccessKind, TraceRecorder};

    fn tune(
        trace: &Trace,
        symbols: &SymbolTable,
        request: &TuneRequest,
    ) -> Result<TuneOutcome, OptError> {
        tune_observed(trace, symbols, request, &Registry::new(), None)
    }

    fn workload() -> (Trace, SymbolTable) {
        let mut rec = TraceRecorder::new();
        let hot = rec.allocate("hot", 256, 8);
        let table = rec.allocate("table", 256, 8);
        let stream = rec.allocate("stream", 4096, 8);
        for i in 0..256u64 {
            rec.record(hot, (i % 32) * 8, 8, AccessKind::Read);
            rec.record(table, (i % 32) * 8, 8, AccessKind::Read);
            rec.record(stream, (i * 16) % 4096, 8, AccessKind::Write);
        }
        rec.finish()
    }

    fn request() -> TuneRequest {
        TuneRequest {
            template: SystemConfig {
                page_size: 256,
                ..SystemConfig::default()
            },
            geometry: GeometrySearch::fixed(),
            budget: 40,
            ..TuneRequest::default()
        }
    }

    #[test]
    fn tune_never_loses_to_the_heuristic() {
        let (t, s) = workload();
        for strategy in StrategyKind::ALL {
            let outcome = tune(
                &t,
                &s,
                &TuneRequest {
                    strategy,
                    ..request()
                },
            )
            .unwrap();
            assert!(
                outcome.best.fitness.key() <= outcome.heuristic.fitness.key(),
                "{strategy} lost to the heuristic"
            );
            assert!(outcome.improvement_vs_heuristic() >= 0.0);
            assert!(!outcome.convergence.is_empty());
            assert!(outcome.replays <= outcome.budget);
            assert!(!outcome.best_assignment.is_empty());
        }
    }

    #[test]
    fn fixed_seed_means_identical_json() {
        let (t, s) = workload();
        let a = tune(&t, &s, &request()).unwrap();
        let b = tune(&t, &s, &request()).unwrap();
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    #[test]
    fn serial_and_parallel_runs_match_byte_for_byte() {
        let (t, s) = workload();
        let parallel = tune(&t, &s, &request()).unwrap();
        let serial = tune(
            &t,
            &s,
            &TuneRequest {
                serial: true,
                ..request()
            },
        )
        .unwrap();
        assert_eq!(parallel.to_json().pretty(), serial.to_json().pretty());
    }

    #[test]
    fn observed_runs_stream_every_generation_and_match_tune() {
        struct Collect(Vec<GenerationPoint>);
        impl TuneProgress for Collect {
            fn on_generation(&mut self, point: &GenerationPoint) {
                self.0.push(point.clone());
            }
        }

        let (t, s) = workload();
        for strategy in StrategyKind::ALL {
            let request = TuneRequest {
                strategy,
                ..request()
            };
            let plain_registry = Registry::new();
            let plain = tune_observed(&t, &s, &request, &plain_registry, None).unwrap();
            let registry = Registry::new();
            let mut collect = Collect(Vec::new());
            let observed = tune_observed(&t, &s, &request, &registry, Some(&mut collect)).unwrap();

            // Observation never steers the search.
            assert_eq!(plain.to_json().pretty(), observed.to_json().pretty());
            // The live stream is exactly the convergence log, in order.
            assert_eq!(collect.0, observed.convergence, "{strategy}");
            // With or without an observer, telemetry saw one increment per generation
            // and the final best.
            for (registry, outcome) in [(&plain_registry, &plain), (&registry, &observed)] {
                assert_eq!(
                    registry.counter_value("opt.generations"),
                    outcome.convergence.len() as u64,
                    "{strategy}"
                );
                assert_eq!(
                    registry.gauge_value("opt.best.misses"),
                    outcome.best.fitness.misses,
                    "{strategy}"
                );
                assert!(registry.counter_value("opt.evaluations") > 0);
            }
        }
    }

    #[test]
    fn zero_budget_is_rejected() {
        let (t, s) = workload();
        let err = tune(
            &t,
            &s,
            &TuneRequest {
                budget: 0,
                ..request()
            },
        )
        .unwrap_err();
        assert!(matches!(err, OptError::BadRequest { .. }));
    }

    #[test]
    fn json_report_has_the_contract_fields() {
        let (t, s) = workload();
        let outcome = tune(&t, &s, &request()).unwrap();
        let text = outcome.to_json().pretty();
        for field in [
            "\"strategy\"",
            "\"best\"",
            "\"heuristic\"",
            "\"baseline\"",
            "\"improvement\"",
            "\"convergence\"",
            "\"assignment\"",
            "\"miss_rate\"",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }
}
