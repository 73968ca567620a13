//! The executor: run a [`Plan`] through the batched replay engine.
//!
//! Every job is self-contained: a mapping replay builds its own [`ReplayEngine`],
//! programs the job's mapping and replays the workload once; partition points, phase
//! remaps, multitask schedules and tuning runs go through the same experiment
//! functions the legacy commands used, which is what makes the CLI presets
//! byte-identical to their pre-refactor output. Every engine reports into the
//! execution's registry. Jobs run thread-parallel through the order-preserving
//! `par_map`, which balances work per job, so the outcome vector — and therefore the
//! serialized artefact — is byte-identical to a serial run.

use crate::error::ExpError;
use crate::plan::{JobUnit, MultitaskJob, Plan, ReplayJob};
use crate::scale::Scale;
use crate::spec::{GeometrySpec, PolicySpec, WorkloadSel};
use ccache_core::dynamic::{run_dynamic_in, DynamicRunResult};
use ccache_core::engine::ReplayEngine;
use ccache_core::multitask::{run_multitasking_in, MultitaskRun};
use ccache_core::observe::{SeriesRecorder, TimeSeries};
use ccache_core::partition::{run_partition_point_in, PartitionPoint};
use ccache_core::runner::{assign_columns_in, CacheMapping, RegionMapping, RunResult};
use ccache_layout::weights::conflict_graph_from_trace;
use ccache_layout::{LayoutOptions, UnitMap, WeightOptions};
use ccache_opt::{tune_observed, GeometrySearch, TuneOutcome, TuneRequest};
use ccache_sim::backend::BackendKind;
use ccache_sim::ColumnMask;
use ccache_telemetry::{Registry, Span};
use ccache_trace::{SymbolTable, Trace};
use ccache_workloads::gzipsim::run_gzip_job;
use ccache_workloads::multitask::Job;
use ccache_workloads::WorkloadRun;
use std::collections::BTreeMap;

/// Options applied at execution time (not part of the spec).
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Build workloads at the reduced quick scale.
    pub quick: bool,
    /// When set, attach a windowed series recorder to every replay and dynamic job
    /// (`ccache run --observe window=N`). `None` replays unobserved, and observation
    /// never changes results, so artefacts differ only by their `time_series` blocks.
    pub observe: Option<ObserveOptions>,
    /// The telemetry registry the execution reports into (`exp.*` counters and spans,
    /// plus the engine and tuner metrics of every job). `None` uses the process-wide
    /// [`Registry::global`]. Telemetry never changes results or artefact bytes.
    pub telemetry: Option<Registry>,
}

impl ExecOptions {
    /// The workload scale these options select.
    pub fn scale(&self) -> Scale {
        Scale::from_quick(self.quick)
    }

    /// The registry this execution reports into (the explicit one, else the global).
    fn registry(&self) -> Registry {
        self.telemetry.clone().unwrap_or_else(Registry::global)
    }
}

/// Pre-resolved executor telemetry, shared read-only by the workers.
struct ExpTelemetry {
    /// The registry jobs bind their engines and tuners to.
    registry: Registry,
    /// One span per executed plan item (wall time under `timing`).
    job: Span,
}

impl ExpTelemetry {
    fn bind(registry: Registry) -> Self {
        ExpTelemetry {
            job: registry.span("exp.job"),
            registry,
        }
    }
}

/// Observation settings for an execution (see [`ExecOptions::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveOptions {
    /// Window size in references for the miss-rate/CPI time series.
    pub window: u64,
}

/// The layout-algorithm statistics of a heuristic mapping (the paper's cost `W`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutInfo {
    /// Total cost `W` of the assignment.
    pub cost: u64,
    /// Number of vertex merges the algorithm performed.
    pub merges: usize,
    /// Whether the assignment is provably optimal (no merges were forced).
    pub optimal: bool,
}

/// The result of one executed job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// A plain replay (shared, heuristic, round-robin or fixed mapping).
    Replay {
        /// The job label (also the result's `name`).
        label: String,
        /// The replay statistics.
        result: RunResult,
        /// Layout statistics, when the mapping came from the layout algorithm.
        layout: Option<LayoutInfo>,
        /// The windowed time series, when the execution observed (`--observe`).
        series: Option<TimeSeries>,
    },
    /// One Figure 4 partition point.
    Partition {
        /// The job label.
        label: String,
        /// The workload's display name (e.g. `"dequant"`).
        workload: String,
        /// The partition-point result.
        point: PartitionPoint,
    },
    /// A dynamically remapped (per-phase) run.
    Dynamic {
        /// The job label.
        label: String,
        /// The per-phase results and totals.
        run: DynamicRunResult,
        /// The windowed time series with phase/remap events, when observing.
        series: Option<TimeSeries>,
    },
    /// A tuning run (search over column assignments at fixed geometry).
    Tuned {
        /// The job label.
        label: String,
        /// The full search outcome.
        outcome: TuneOutcome,
    },
    /// One multitask schedule replay.
    Multitask {
        /// The series label this point belongs to.
        series: String,
        /// The context-switch quantum.
        quantum: usize,
        /// The run's per-job metrics.
        run: MultitaskRun,
    },
}

impl JobOutcome {
    /// The outcome's label (series label for multitask points).
    pub fn label(&self) -> &str {
        match self {
            JobOutcome::Replay { label, .. }
            | JobOutcome::Partition { label, .. }
            | JobOutcome::Dynamic { label, .. }
            | JobOutcome::Tuned { label, .. } => label,
            JobOutcome::Multitask { series, .. } => series,
        }
    }
}

/// Workloads and multitask job sets loaded once per execution, shared read-only by the
/// workers.
struct Context {
    /// Loaded workloads by [`workload_key`].
    workloads: BTreeMap<(WorkloadSel, Option<(u64, u64)>), WorkloadRun>,
    /// The MPEG phase recordings, when a dynamic job needs them.
    phases: Option<(Vec<(String, Trace)>, SymbolTable)>,
    /// Multitask job sets by canonical descriptor.
    job_sets: BTreeMap<String, Vec<Job>>,
}

/// Cache key of a job's workload: the selector plus what symbol inference depends on
/// under the job's geometry ([`WorkloadSel::inference`]). So a corpus entry loads once
/// by name, and geometries differing only in a sub-4096 page size share one loaded copy
/// of a trace file.
fn workload_key(job: &ReplayJob) -> (WorkloadSel, Option<(u64, u64)>) {
    let inference = job.workload.inference(job.geometry.page, job.geometry.line);
    (job.workload.clone(), inference)
}

fn job_set_key(jobs: &[crate::spec::GzipJobSpec]) -> String {
    use ccache_json::ToJson;
    ccache_json::Json::arr(jobs.iter().map(|j| j.to_json())).compact()
}

/// Whether a replay job streams its trace from disk instead of materialising it:
/// shared-policy replays of binary trace files (the `ccache sweep` path).
fn is_streaming(job: &ReplayJob) -> Result<bool, ExpError> {
    match (&job.workload, &job.policy) {
        (WorkloadSel::Trace { path }, PolicySpec::Shared) => {
            Ok(ccache_trace::binfmt::is_binary_trace_file(path)?)
        }
        _ => Ok(false),
    }
}

impl Context {
    fn load(plan: &Plan, opts: &ExecOptions) -> Result<Self, ExpError> {
        let scale = opts.scale();
        let mut ctx = Context {
            workloads: BTreeMap::new(),
            phases: None,
            job_sets: BTreeMap::new(),
        };
        for unit in &plan.jobs {
            match unit {
                JobUnit::Replay(job) => {
                    if let PolicySpec::DynamicPhases = job.policy {
                        match &job.workload {
                            WorkloadSel::Corpus { name } if name == "mpeg-combined" => {
                                if ctx.phases.is_none() {
                                    ctx.phases =
                                        Some(ccache_workloads::mpeg::run_phases(&scale.mpeg()));
                                }
                            }
                            other => {
                                return Err(ExpError::BadSpec {
                                    reason: format!(
                                        "the 'dynamic' policy needs recorded phases; only \
                                         the 'mpeg-combined' corpus workload has them \
                                         (got '{}')",
                                        other.short()
                                    ),
                                })
                            }
                        }
                        continue;
                    }
                    if is_streaming(job)? {
                        continue;
                    }
                    if let std::collections::btree_map::Entry::Vacant(slot) =
                        ctx.workloads.entry(workload_key(job))
                    {
                        // The JSON path validates corpus names at parse time, but specs
                        // can also be built programmatically; the loader refuses cleanly.
                        let (page, line) = (job.geometry.page, job.geometry.line);
                        slot.insert(job.workload.load(page, line, opts.quick)?);
                    }
                }
                JobUnit::Multitask(job) => {
                    ctx.job_sets
                        .entry(job_set_key(&job.jobs))
                        .or_insert_with(|| {
                            let base_cfg = scale.gzip();
                            job.jobs
                                .iter()
                                .map(|j| {
                                    let run =
                                        run_gzip_job(&base_cfg.with_seed(j.seed), j.base, &j.name);
                                    Job::new(run.name.clone(), run.trace)
                                })
                                .collect()
                        });
                }
            }
        }
        Ok(ctx)
    }

    fn workload(&self, job: &ReplayJob) -> Result<&WorkloadRun, ExpError> {
        self.workloads
            .get(&workload_key(job))
            .ok_or_else(|| ExpError::BadSpec {
                reason: format!("workload '{}' was not preloaded", job.workload.short()),
            })
    }
}

/// Builds the cache mapping of a policy over a loaded workload; the layout algorithm
/// reports into `registry`.
fn build_mapping(
    policy: &PolicySpec,
    workload: &WorkloadRun,
    geometry: &GeometrySpec,
    registry: &Registry,
) -> Result<(CacheMapping, Option<LayoutInfo>), ExpError> {
    let column_bytes = geometry.capacity / geometry.columns.max(1) as u64;
    let weight_opts = WeightOptions {
        column_bytes,
        split_large_variables: true,
        min_accesses: 1,
    };
    match policy {
        PolicySpec::Shared => Ok((CacheMapping::new(), None)),
        PolicySpec::Heuristic => {
            let (graph, units) =
                conflict_graph_from_trace(&workload.trace, &workload.symbols, &weight_opts);
            let layout = assign_columns_in(
                &graph,
                &LayoutOptions::new(geometry.columns, column_bytes),
                registry,
            )
            .map_err(ccache_core::CoreError::from)?;
            let mapping = CacheMapping::from_assignment(&layout, &units, &workload.symbols, &[]);
            Ok((
                mapping,
                Some(LayoutInfo {
                    cost: layout.cost,
                    merges: layout.merges,
                    optimal: layout.optimal,
                }),
            ))
        }
        PolicySpec::RoundRobin => {
            let units = UnitMap::from_symbols(&workload.symbols, &weight_opts);
            let mut mapping = CacheMapping::new();
            for (i, unit) in units.iter().enumerate() {
                if let Some(region) = workload.symbols.region(unit.var) {
                    mapping.map(
                        region.base + unit.offset,
                        unit.size,
                        RegionMapping::Columns {
                            mask: ColumnMask::single(i % geometry.columns.max(1)),
                        },
                    );
                }
            }
            Ok((mapping, None))
        }
        PolicySpec::Fixed { assignment } => {
            let mut mapping = CacheMapping::new();
            for (name, cols) in assignment {
                let region = workload
                    .symbols
                    .iter()
                    .find(|r| &r.name == name)
                    .ok_or_else(|| ExpError::BadSpec {
                        reason: format!(
                            "fixed assignment names unknown variable '{name}' \
                             (workload '{}')",
                            workload.name
                        ),
                    })?;
                mapping.map(
                    region.base,
                    region.size,
                    RegionMapping::Columns {
                        mask: ColumnMask::from_columns(cols.iter().copied()),
                    },
                );
            }
            Ok((mapping, None))
        }
        PolicySpec::Partition { .. }
        | PolicySpec::PartitionSweep
        | PolicySpec::DynamicPhases
        | PolicySpec::Tuned { .. } => Err(ExpError::BadSpec {
            reason: format!(
                "policy '{}' does not reduce to a single cache mapping",
                policy.short()
            ),
        }),
    }
}

/// A mapping replay: a fresh engine, the job's mapping, one replay of the workload —
/// streamed from disk for shared-policy binary trace files, which never have to fit in
/// memory.
fn run_replay(
    job: &ReplayJob,
    ctx: &Context,
    opts: &ExecOptions,
    tel: &ExpTelemetry,
) -> Result<JobOutcome, ExpError> {
    let mut engine = ReplayEngine::new(job.backend, job.geometry.system_config()?)?;
    engine.set_telemetry(&tel.registry);
    let mut recorder = opts.observe.map(|o| SeriesRecorder::new(o.window));
    let observe = recorder.as_mut().map(SeriesRecorder::as_observer);
    let (result, layout) = match &job.workload {
        WorkloadSel::Trace { path } if is_streaming(job)? => {
            let mut reader = ccache_trace::binfmt::TraceReader::open(path)?;
            (engine.replay_from(&job.label, &mut reader, observe)?, None)
        }
        _ => {
            let workload = ctx.workload(job)?;
            let (mapping, layout) =
                build_mapping(&job.policy, workload, &job.geometry, &tel.registry)?;
            engine.apply(&mapping)?;
            let Ok(result) = engine.replay_from(&job.label, workload.trace.as_slice(), observe);
            (result, layout)
        }
    };
    Ok(JobOutcome::Replay {
        label: job.label.clone(),
        result,
        layout,
        series: recorder.map(SeriesRecorder::into_series),
    })
}

fn run_job(
    unit: &JobUnit,
    ctx: &Context,
    opts: &ExecOptions,
    tel: &ExpTelemetry,
) -> Result<JobOutcome, ExpError> {
    let _timed = tel.job.start();
    let job = match unit {
        JobUnit::Replay(job) => job,
        JobUnit::Multitask(job) => return run_multitask_job(job, ctx, tel),
    };
    let outcome = match &job.policy {
        PolicySpec::Shared
        | PolicySpec::Heuristic
        | PolicySpec::RoundRobin
        | PolicySpec::Fixed { .. } => run_replay(job, ctx, opts, tel)?,
        PolicySpec::Partition { cache_columns } => {
            let workload = ctx.workload(job)?;
            let point = run_partition_point_in(
                job.backend,
                workload,
                &job.geometry.partition_config(),
                *cache_columns,
                &tel.registry,
            )?;
            JobOutcome::Partition {
                label: job.label.clone(),
                workload: workload.name.clone(),
                point,
            }
        }
        PolicySpec::DynamicPhases => {
            let (phases, symbols) = ctx.phases.as_ref().expect("phases preloaded");
            let mut recorder = opts.observe.map(|o| SeriesRecorder::new(o.window));
            let run = run_dynamic_in(
                phases,
                symbols,
                &job.geometry.partition_config(),
                &tel.registry,
                recorder.as_mut().map(SeriesRecorder::as_observer),
            )?;
            JobOutcome::Dynamic {
                label: job.label.clone(),
                run,
                series: recorder.map(SeriesRecorder::into_series),
            }
        }
        PolicySpec::Tuned {
            strategy,
            budget,
            seed,
        } => {
            let workload = ctx.workload(job)?;
            let request = TuneRequest {
                template: job.geometry.system_config()?,
                geometry: GeometrySearch::fixed(),
                strategy: *strategy,
                budget: *budget,
                seed: *seed,
                serial: false,
                forced: Vec::new(),
                baseline: BackendKind::SetAssociative,
            };
            let outcome = tune_observed(
                &workload.trace,
                &workload.symbols,
                &request,
                &tel.registry,
                None,
            )?;
            JobOutcome::Tuned {
                label: job.label.clone(),
                outcome,
            }
        }
        PolicySpec::PartitionSweep => {
            return Err(ExpError::BadSpec {
                reason: format!("policy '{}' escaped the planner", job.policy.short()),
            })
        }
    };
    Ok(outcome)
}

fn run_multitask_job(
    job: &MultitaskJob,
    ctx: &Context,
    tel: &ExpTelemetry,
) -> Result<JobOutcome, ExpError> {
    let jobs = ctx
        .job_sets
        .get(&job_set_key(&job.jobs))
        .expect("job sets preloaded");
    let run = run_multitasking_in(
        BackendKind::ColumnCache,
        jobs,
        job.quantum,
        &job.config.config(),
        job.policy,
        &tel.registry,
    )?;
    Ok(JobOutcome::Multitask {
        series: job.series.clone(),
        quantum: job.quantum,
        run,
    })
}

/// Executes every job of a plan, returning outcomes **in plan order**.
///
/// # Errors
///
/// Fails on unloadable workloads/traces, invalid configurations or impossible policies;
/// the first error (in plan order) is reported.
pub fn execute(plan: &Plan, opts: &ExecOptions) -> Result<Vec<JobOutcome>, ExpError> {
    let ctx = Context::load(plan, opts)?;
    let tel = ExpTelemetry::bind(opts.registry());
    ccache_core::parallel::par_map(&plan.jobs, |unit| run_job(unit, &ctx, opts, &tel))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use crate::spec::{ExperimentSpec, LabelScheme, ReplayGrid};

    fn quick() -> ExecOptions {
        ExecOptions {
            quick: true,
            ..ExecOptions::default()
        }
    }

    fn fir_grid(policies: Vec<PolicySpec>) -> ExperimentSpec {
        ExperimentSpec {
            name: "t".into(),
            replay: vec![ReplayGrid {
                workloads: vec![WorkloadSel::Corpus { name: "fir".into() }],
                policies,
                label: LabelScheme::Policy,
                ..ReplayGrid::default()
            }],
            multitask: Vec::new(),
        }
    }

    #[test]
    fn executor_replays_match_one_off_engine_replays() {
        // The same policies through the executor and through one-off engines must
        // produce identical statistics.
        let spec = fir_grid(vec![
            PolicySpec::Shared,
            PolicySpec::Heuristic,
            PolicySpec::RoundRobin,
        ]);
        let p = plan(&spec);
        let outcomes = execute(&p, &quick()).unwrap();
        assert_eq!(outcomes.len(), 3);

        let workload = ccache_workloads::corpus("fir", true).unwrap();
        let geometry = GeometrySpec::default();
        for (outcome, policy) in outcomes.iter().zip([
            PolicySpec::Shared,
            PolicySpec::Heuristic,
            PolicySpec::RoundRobin,
        ]) {
            let JobOutcome::Replay { result, layout, .. } = outcome else {
                panic!("expected replay outcomes");
            };
            let (mapping, _) =
                build_mapping(&policy, &workload, &geometry, &Registry::new()).unwrap();
            let mut engine =
                ReplayEngine::new(BackendKind::ColumnCache, geometry.system_config().unwrap())
                    .unwrap();
            engine.set_telemetry(&Registry::new());
            engine.apply(&mapping).unwrap();
            let fresh = engine.replay(&policy.short(), &workload.trace);
            assert_eq!(result.total_cycles(), fresh.total_cycles());
            assert_eq!(result.misses, fresh.misses);
            assert_eq!(layout.is_some(), matches!(policy, PolicySpec::Heuristic));
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let spec = fir_grid(vec![PolicySpec::Shared, PolicySpec::Heuristic]);
        let p = plan(&spec);
        let a = execute(&p, &quick()).unwrap();
        let b = execute(&p, &quick()).unwrap();
        for (x, y) in a.iter().zip(&b) {
            let (JobOutcome::Replay { result: rx, .. }, JobOutcome::Replay { result: ry, .. }) =
                (x, y)
            else {
                panic!("expected replay outcomes");
            };
            assert_eq!(rx, ry);
        }
    }

    #[test]
    fn fixed_assignments_with_unknown_variables_fail_cleanly() {
        let spec = fir_grid(vec![PolicySpec::Fixed {
            assignment: vec![("no_such_var".into(), vec![0])],
        }]);
        let p = plan(&spec);
        let err = execute(&p, &quick()).unwrap_err();
        assert!(err.to_string().contains("no_such_var"));
    }

    #[test]
    fn dynamic_requires_the_mpeg_application() {
        let spec = ExperimentSpec {
            name: "t".into(),
            replay: vec![ReplayGrid {
                workloads: vec![WorkloadSel::Corpus { name: "fir".into() }],
                policies: vec![PolicySpec::DynamicPhases],
                ..ReplayGrid::default()
            }],
            multitask: Vec::new(),
        };
        let err = execute(&plan(&spec), &quick()).unwrap_err();
        assert!(err.to_string().contains("mpeg-combined"));
    }
}
