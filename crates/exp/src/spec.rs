//! The declarative experiment model: [`ExperimentSpec`] and its JSON grammar.
//!
//! A spec describes a **union of cross-product grids**. Each replay grid crosses
//! workloads × backends × geometries × mapping policies; each multitask grid crosses
//! cache configurations × sharing policies × scheduling quanta over a fixed job set.
//! The [`Planner`](mod@crate::plan) expands the grids into deduplicated jobs, so listing a
//! configuration twice (or in two grids) never replays it twice.
//!
//! Specs are plain JSON files (see `examples/specs/`) parsed through `ccache-json`, and
//! every spec type also serializes back to a **canonical** JSON descriptor: all defaults
//! filled in, fixed key order. Two spellings of the same configuration (`"partition": 2`
//! vs. `{"cache_columns": 2}`) canonicalize identically, which is what the planner's
//! dedup keys are built from.

use crate::error::ExpError;
use ccache_json::{Json, ToJson};
use ccache_opt::StrategyKind;
use ccache_sim::backend::BackendKind;
use ccache_sim::mask::MAX_COLUMNS;
use ccache_sim::{CacheConfig, LatencyConfig, ReplacementPolicy, SystemConfig};
use ccache_workloads::WorkloadRun;

/// A full experiment: a named union of replay and multitask grids.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentSpec {
    /// Name of the experiment (reported in the artefact).
    pub name: String,
    /// Replay grids: workloads × backends × geometries × policies.
    pub replay: Vec<ReplayGrid>,
    /// Multitask grids: configs × sharing policies × quanta over a job set.
    pub multitask: Vec<MultitaskGrid>,
}

/// One replay grid of an [`ExperimentSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayGrid {
    /// The workloads to replay.
    pub workloads: Vec<WorkloadSel>,
    /// The memory backends to replay on.
    pub backends: Vec<BackendKind>,
    /// The cache geometries to replay under.
    pub geometries: Vec<GeometrySpec>,
    /// The mapping policies to apply.
    pub policies: Vec<PolicySpec>,
    /// How job labels (the `name` of each run) are derived.
    pub label: LabelScheme,
}

impl Default for ReplayGrid {
    fn default() -> Self {
        ReplayGrid {
            workloads: Vec::new(),
            backends: vec![BackendKind::ColumnCache],
            geometries: vec![GeometrySpec::default()],
            policies: vec![PolicySpec::Shared],
            label: LabelScheme::Full,
        }
    }
}

/// Selects one workload: a named corpus entry or a trace file on disk.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadSel {
    /// A `ccache-workloads` corpus entry, by name.
    Corpus {
        /// The corpus name (see `ccache_workloads::CORPUS_NAMES`).
        name: String,
    },
    /// A trace file (binary `.cct` or text; detected by magic).
    Trace {
        /// Path to the trace file.
        path: String,
    },
}

impl WorkloadSel {
    /// A short human label for the workload.
    pub fn short(&self) -> &str {
        match self {
            WorkloadSel::Corpus { name } => name,
            WorkloadSel::Trace { path } => path,
        }
    }

    /// The inputs a load at page size `page` and line size `line` depends on beyond the
    /// selector: the region gap and granularity symbol inference uses for a trace file,
    /// nothing for a corpus entry, which carries its recorded symbols. Loads with equal
    /// selectors and equal inputs are identical.
    pub(crate) fn inference(&self, page: u64, line: u64) -> Option<(u64, u64)> {
        matches!(self, WorkloadSel::Trace { .. }).then(|| trace_inference(page, line))
    }

    /// Loads the workload for a geometry with page size `page` and line size `line`: a
    /// corpus entry built at the quick or paper scale, or a trace file (either format)
    /// with symbols inferred from its addresses, using a region gap of the page size but
    /// at least 4 KiB, at line granularity. Each event of a trace file is annotated with
    /// its inferred variable here, once. A trace's name is its path.
    ///
    /// # Errors
    ///
    /// Fails for corpus names not in `ccache_workloads::CORPUS_NAMES` and for trace files
    /// that cannot be read or decoded, naming the file: `trace '<path>': <error>`.
    pub fn load(&self, page: u64, line: u64, quick: bool) -> Result<WorkloadRun, ExpError> {
        match self {
            WorkloadSel::Corpus { name } => {
                ccache_workloads::corpus(name, quick).ok_or_else(|| bad(unknown_workload(name)))
            }
            WorkloadSel::Trace { path } => {
                let mut trace = ccache_trace::read_trace_file(path).map_err(in_trace_file(path))?;
                let (gap, granularity) = trace_inference(page, line);
                let symbols = ccache_trace::infer_symbols(&trace, gap, granularity);
                // Every event lies in an inferred region, so no later pass (profile,
                // scratchpad selection, placement) looks its address up again.
                trace.annotate(&symbols);
                Ok(WorkloadRun {
                    name: path.clone(),
                    trace,
                    symbols,
                    checksum: 0,
                })
            }
        }
    }
}

/// Prefixes a read or decode error of the trace file at `path` with its path, as in
/// `trace '/dev/zero': line 1: longer than 4096 bytes`, keeping the error's kind.
pub(crate) fn in_trace_file(path: &str) -> impl Fn(std::io::Error) -> std::io::Error + '_ {
    move |e| std::io::Error::new(e.kind(), format!("trace '{path}': {e}"))
}

/// The region gap and granularity of symbol inference for a trace file: the page size,
/// but never under 4 KiB, so small pages do not split variables; and the line size.
fn trace_inference(page: u64, line: u64) -> (u64, u64) {
    (page.max(4096), line)
}

/// Refuses a `dynamic` job over `workload` unless it is the one workload with recorded
/// phases, the `mpeg-combined` corpus entry. Spec parsing checks every grid that pairs
/// the policy with a workload; the executor checks specs built in code.
pub(crate) fn require_phases(workload: &WorkloadSel) -> Result<(), ExpError> {
    match workload {
        WorkloadSel::Corpus { name } if name == "mpeg-combined" => Ok(()),
        other => Err(bad(format!(
            "the 'dynamic' policy needs recorded phases; only the 'mpeg-combined' corpus \
             workload has them (got '{}')",
            other.short()
        ))),
    }
}

/// The refusal for a corpus name that is not in `ccache_workloads::CORPUS_NAMES`, which
/// it lists.
pub fn unknown_workload(name: &str) -> String {
    format!(
        "unknown workload '{name}' (expected one of: {})",
        ccache_workloads::CORPUS_NAMES.join(", ")
    )
}

/// A cache geometry plus the latency model, the unit the grid crosses over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometrySpec {
    /// Total cache capacity in bytes.
    pub capacity: u64,
    /// Number of columns (ways).
    pub columns: usize,
    /// Cache-line size in bytes.
    pub line: u64,
    /// Page size of the TLB/page table.
    pub page: u64,
    /// TLB entries.
    pub tlb: usize,
    /// Victim-selection policy within the allowed columns.
    pub replacement: ReplacementPolicy,
    /// The latency model preset.
    pub latency: LatencyPreset,
}

impl Default for GeometrySpec {
    /// The paper's Figure 4 geometry: 2 KB, 4 columns, 32-byte lines, 128-byte pages.
    fn default() -> Self {
        GeometrySpec {
            capacity: 2048,
            columns: 4,
            line: 32,
            page: 128,
            tlb: 64,
            replacement: ReplacementPolicy::Lru,
            latency: LatencyPreset::Default,
        }
    }
}

impl GeometrySpec {
    /// The simulator system configuration for this geometry, under which every policy
    /// of a grid runs.
    ///
    /// # Errors
    ///
    /// Fails when the cache geometry is invalid (non-power-of-two sizes, line larger
    /// than a column, ...) or the system around it is (page size, TLB entries; see
    /// [`SystemConfig::validate`]).
    pub fn system_config(&self) -> Result<SystemConfig, ExpError> {
        let cache = CacheConfig::builder()
            .capacity_bytes(self.capacity)
            .columns(self.columns)
            .line_size(self.line)
            .replacement(self.replacement)
            .build()?;
        let config = SystemConfig {
            cache,
            latency: self.latency.config(),
            page_size: self.page,
            tlb_entries: self.tlb,
        };
        config.validate()?;
        Ok(config)
    }

    /// A short label, e.g. `"2048B.4col.32B"`.
    pub fn short(&self) -> String {
        format!("{}B.{}col.{}B", self.capacity, self.columns, self.line)
    }
}

/// Named latency models a spec can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyPreset {
    /// The default on-chip model (`LatencyConfig::default()`).
    #[default]
    Default,
    /// The deeper Figure 5 hierarchy (60-cycle misses).
    Fig5,
}

impl LatencyPreset {
    /// The latency configuration for this preset.
    pub fn config(self) -> LatencyConfig {
        match self {
            LatencyPreset::Default => LatencyConfig::default(),
            LatencyPreset::Fig5 => ccache_core::multitask::figure5_latency(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            LatencyPreset::Default => "default",
            LatencyPreset::Fig5 => "fig5",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "default" => Some(LatencyPreset::Default),
            "fig5" => Some(LatencyPreset::Fig5),
            _ => None,
        }
    }
}

/// How the data of a replay job is mapped onto the cache.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// No mapping: every page behaves like a normal cache.
    Shared,
    /// The paper's Section 3 layout: conflict graph + `assign_columns`.
    Heuristic,
    /// Naive comparison layout: unit `i` goes to column `i mod columns`.
    RoundRobin,
    /// An explicit per-variable column assignment, by symbol name.
    Fixed {
        /// `(variable name, columns)` pairs applied in order.
        assignment: Vec<(String, Vec<usize>)>,
    },
    /// One Figure 4 partition point: `cache_columns` columns of cache, the rest
    /// scratchpad (critical-data selection + layout as in the paper).
    Partition {
        /// Number of columns used as cache.
        cache_columns: usize,
    },
    /// The whole Figure 4 sweep: expands at plan time to `Partition { 0..=columns }`
    /// of each geometry it is crossed with.
    PartitionSweep,
    /// The dynamically remapped column cache of Figure 4(d) (per-phase remap); only
    /// valid for corpus workloads with recorded phases (the MPEG application).
    DynamicPhases,
    /// Tune the column assignment with `ccache-opt` (fixed geometry) and report the
    /// tuned configuration's replay.
    Tuned {
        /// Search strategy.
        strategy: StrategyKind,
        /// Maximum candidates scored.
        budget: usize,
        /// Search RNG seed.
        seed: u64,
    },
}

impl PolicySpec {
    /// A short label, e.g. `"cache2"` for a partition point.
    pub fn short(&self) -> String {
        match self {
            PolicySpec::Shared => "shared".to_owned(),
            PolicySpec::Heuristic => "heuristic".to_owned(),
            PolicySpec::RoundRobin => "round-robin".to_owned(),
            PolicySpec::Fixed { .. } => "fixed".to_owned(),
            PolicySpec::Partition { cache_columns } => format!("cache{cache_columns}"),
            PolicySpec::PartitionSweep => "partition-sweep".to_owned(),
            PolicySpec::DynamicPhases => "dynamic".to_owned(),
            PolicySpec::Tuned { strategy, .. } => format!("tuned-{strategy}"),
        }
    }
}

/// How replay-job labels (the `name` field of each run result) are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelScheme {
    /// `workload/backend/geometry/policy` (the unambiguous default).
    #[default]
    Full,
    /// The workload name only.
    Workload,
    /// The backend name only (what `ccache sweep` reports).
    Backend,
    /// The policy name only.
    Policy,
}

impl LabelScheme {
    fn name(self) -> &'static str {
        match self {
            LabelScheme::Full => "full",
            LabelScheme::Workload => "workload",
            LabelScheme::Backend => "backend",
            LabelScheme::Policy => "policy",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(LabelScheme::Full),
            "workload" => Some(LabelScheme::Workload),
            "backend" => Some(LabelScheme::Backend),
            "policy" => Some(LabelScheme::Policy),
            _ => None,
        }
    }
}

/// One synthetic gzip job of a multitask grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GzipJobSpec {
    /// Job name (e.g. `"gzip-A"`).
    pub name: String,
    /// Input-data seed.
    pub seed: u64,
    /// Base address of the job's (disjoint) address space.
    pub base: u64,
}

/// One multitask cache configuration (the Figure 5 series unit).
#[derive(Debug, Clone, PartialEq)]
pub struct MtConfigSpec {
    /// Series label (e.g. `"gzip.16k"`).
    pub label: String,
    /// Total cache capacity in bytes.
    pub capacity: u64,
    /// Number of columns.
    pub columns: usize,
    /// Line size in bytes.
    pub line: u64,
    /// Page size in bytes.
    pub page: u64,
    /// Columns owned exclusively by the critical job under the mapped policy.
    pub critical_columns: usize,
    /// The latency model preset (Figure 5's deeper hierarchy by default).
    pub latency: LatencyPreset,
}

impl MtConfigSpec {
    /// The core multitask configuration for this spec.
    pub fn config(&self) -> ccache_core::multitask::MultitaskConfig {
        ccache_core::multitask::MultitaskConfig {
            capacity_bytes: self.capacity,
            columns: self.columns,
            line_size: self.line,
            page_size: self.page,
            latency: self.latency.config(),
            critical_job_columns: self.critical_columns,
        }
    }
}

/// One multitask grid of an [`ExperimentSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultitaskGrid {
    /// The concurrently scheduled jobs (job 0 is the critical job).
    pub jobs: Vec<GzipJobSpec>,
    /// The cache configurations (one series per config × policy).
    pub configs: Vec<MtConfigSpec>,
    /// The sharing policies to run.
    pub policies: Vec<ccache_core::multitask::SharingPolicy>,
    /// The context-switch quanta to sweep.
    pub quanta: Vec<usize>,
}

/// The three-job gzip workload of Figure 5, as spec values.
pub fn figure5_job_specs() -> Vec<GzipJobSpec> {
    (0..3u64)
        .map(|j| GzipJobSpec {
            name: format!("gzip-{}", (b'A' + j as u8) as char),
            seed: 41 + j,
            base: 0x100_0000 * (j + 1),
        })
        .collect()
}

impl Default for MultitaskGrid {
    /// The Figure 5 experiment: three gzip jobs, 16 KiB and 128 KiB configurations,
    /// shared and mapped policies, quanta in powers of four.
    fn default() -> Self {
        MultitaskGrid {
            jobs: figure5_job_specs(),
            configs: vec![
                MtConfigSpec {
                    label: "gzip.16k".to_owned(),
                    capacity: 16 * 1024,
                    columns: 8,
                    line: 32,
                    page: 1024,
                    critical_columns: 6,
                    latency: LatencyPreset::Fig5,
                },
                MtConfigSpec {
                    label: "gzip.128k".to_owned(),
                    capacity: 128 * 1024,
                    columns: 8,
                    line: 32,
                    page: 1024,
                    critical_columns: 4,
                    latency: LatencyPreset::Fig5,
                },
            ],
            policies: vec![
                ccache_core::multitask::SharingPolicy::Shared,
                ccache_core::multitask::SharingPolicy::Mapped,
            ],
            quanta: (0..=7).map(|p| 4usize.pow(p)).collect(),
        }
    }
}

// ------------------------------------------------------------------- canonical JSON out

impl ToJson for WorkloadSel {
    fn to_json(&self) -> Json {
        match self {
            WorkloadSel::Corpus { name } => Json::obj([("corpus", name.to_json())]),
            WorkloadSel::Trace { path } => Json::obj([("trace", path.to_json())]),
        }
    }
}

impl ToJson for GeometrySpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("capacity", self.capacity.to_json()),
            ("columns", self.columns.to_json()),
            ("line", self.line.to_json()),
            ("page", self.page.to_json()),
            ("tlb", self.tlb.to_json()),
            ("replacement", self.replacement.to_string().to_json()),
            ("latency", self.latency.name().to_json()),
        ])
    }
}

impl ToJson for PolicySpec {
    fn to_json(&self) -> Json {
        match self {
            PolicySpec::Shared => Json::Str("shared".to_owned()),
            PolicySpec::Heuristic => Json::Str("heuristic".to_owned()),
            PolicySpec::RoundRobin => Json::Str("round-robin".to_owned()),
            PolicySpec::PartitionSweep => Json::Str("partition-sweep".to_owned()),
            PolicySpec::DynamicPhases => Json::Str("dynamic".to_owned()),
            PolicySpec::Partition { cache_columns } => Json::obj([(
                "partition",
                Json::obj([("cache_columns", cache_columns.to_json())]),
            )]),
            PolicySpec::Fixed { assignment } => Json::obj([(
                "fixed",
                Json::obj([(
                    "assignment",
                    Json::obj(
                        assignment
                            .iter()
                            .map(|(name, cols)| (name.clone(), cols.to_json())),
                    ),
                )]),
            )]),
            PolicySpec::Tuned {
                strategy,
                budget,
                seed,
            } => Json::obj([(
                "tuned",
                Json::obj([
                    ("strategy", strategy.to_string().to_json()),
                    ("budget", budget.to_json()),
                    ("seed", seed.to_json()),
                ]),
            )]),
        }
    }
}

impl ToJson for ReplayGrid {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workloads", self.workloads.to_json()),
            (
                "backends",
                Json::arr(self.backends.iter().map(|b| b.to_string().to_json())),
            ),
            ("geometries", self.geometries.to_json()),
            ("policies", self.policies.to_json()),
            ("label", self.label.name().to_json()),
        ])
    }
}

impl ToJson for GzipJobSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("seed", self.seed.to_json()),
            ("base", self.base.to_json()),
        ])
    }
}

impl ToJson for MtConfigSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.to_json()),
            ("capacity", self.capacity.to_json()),
            ("columns", self.columns.to_json()),
            ("line", self.line.to_json()),
            ("page", self.page.to_json()),
            ("critical_columns", self.critical_columns.to_json()),
            ("latency", self.latency.name().to_json()),
        ])
    }
}

impl ToJson for MultitaskGrid {
    fn to_json(&self) -> Json {
        Json::obj([
            ("jobs", self.jobs.to_json()),
            ("configs", self.configs.to_json()),
            (
                "policies",
                Json::arr(self.policies.iter().map(|p| p.to_json())),
            ),
            ("quanta", self.quanta.to_json()),
        ])
    }
}

impl ToJson for ExperimentSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("replay", self.replay.to_json()),
            ("multitask", self.multitask.to_json()),
        ])
    }
}

// ----------------------------------------------------------------------- JSON in

fn bad(reason: impl Into<String>) -> ExpError {
    ExpError::BadSpec {
        reason: reason.into(),
    }
}

fn parse_replacement(s: &str) -> Option<ReplacementPolicy> {
    ReplacementPolicy::ALL
        .into_iter()
        .find(|p| p.to_string() == s)
}

fn field_u64(obj: &Json, key: &str, default: u64) -> Result<u64, ExpError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer"))),
    }
}

fn field_usize(obj: &Json, key: &str, default: usize) -> Result<usize, ExpError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer"))),
    }
}

fn usize_list(value: &Json, what: &str) -> Result<Vec<usize>, ExpError> {
    value
        .as_arr()
        .ok_or_else(|| bad(format!("{what} must be an array")))?
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| bad(format!("{what} entries must be integers")))
        })
        .collect()
}

impl WorkloadSel {
    fn from_json(value: &Json) -> Result<Self, ExpError> {
        if let Some(name) = value.as_str() {
            return WorkloadSel::corpus(name);
        }
        if let Some(name) = value.get("corpus").and_then(Json::as_str) {
            return WorkloadSel::corpus(name);
        }
        if let Some(path) = value.get("trace").and_then(Json::as_str) {
            return Ok(WorkloadSel::Trace {
                path: path.to_owned(),
            });
        }
        Err(bad(
            "workloads entries must be a corpus name, {\"corpus\": NAME} or {\"trace\": PATH}",
        ))
    }

    /// Builds a corpus selector, validating the name.
    ///
    /// # Errors
    ///
    /// Fails for names not in `ccache_workloads::CORPUS_NAMES`.
    pub fn corpus(name: &str) -> Result<Self, ExpError> {
        if !ccache_workloads::CORPUS_NAMES.contains(&name) {
            return Err(bad(unknown_workload(name)));
        }
        Ok(WorkloadSel::Corpus {
            name: name.to_owned(),
        })
    }
}

impl GeometrySpec {
    fn from_json(value: &Json) -> Result<Self, ExpError> {
        if value.as_obj().is_none() {
            return Err(bad("geometries entries must be objects"));
        }
        let d = GeometrySpec::default();
        let replacement = match value.get("replacement") {
            None => d.replacement,
            Some(v) => {
                let raw = v
                    .as_str()
                    .ok_or_else(|| bad("'replacement' must be a string"))?;
                parse_replacement(raw)
                    .ok_or_else(|| bad(format!("unknown replacement policy '{raw}'")))?
            }
        };
        let latency = match value.get("latency") {
            None => d.latency,
            Some(v) => {
                let raw = v
                    .as_str()
                    .ok_or_else(|| bad("'latency' must be a string"))?;
                LatencyPreset::parse(raw)
                    .ok_or_else(|| bad(format!("unknown latency preset '{raw}'")))?
            }
        };
        Ok(GeometrySpec {
            capacity: field_u64(value, "capacity", d.capacity)?,
            columns: field_usize(value, "columns", d.columns)?,
            line: field_u64(value, "line", d.line)?,
            page: field_u64(value, "page", d.page)?,
            tlb: field_usize(value, "tlb", d.tlb)?,
            replacement,
            latency,
        })
    }
}

impl PolicySpec {
    fn from_json(value: &Json) -> Result<Self, ExpError> {
        if let Some(s) = value.as_str() {
            return match s {
                "shared" => Ok(PolicySpec::Shared),
                "heuristic" => Ok(PolicySpec::Heuristic),
                "round-robin" => Ok(PolicySpec::RoundRobin),
                "partition-sweep" => Ok(PolicySpec::PartitionSweep),
                "dynamic" => Ok(PolicySpec::DynamicPhases),
                "tuned" => Ok(PolicySpec::Tuned {
                    strategy: StrategyKind::default(),
                    budget: 48,
                    seed: 42,
                }),
                other => Err(bad(format!(
                    "unknown policy '{other}' (expected shared, heuristic, round-robin, \
                     partition-sweep, dynamic, tuned, or an object form)"
                ))),
            };
        }
        if let Some(p) = value.get("partition") {
            let cache_columns = match p.as_usize() {
                Some(k) => k,
                None => field_usize(p, "cache_columns", usize::MAX)?,
            };
            if cache_columns == usize::MAX {
                return Err(bad("'partition' needs a cache-column count"));
            }
            return Ok(PolicySpec::Partition { cache_columns });
        }
        if let Some(f) = value.get("fixed") {
            // Accept {"fixed": {"assignment": {...}}} and the shorthand {"fixed": {...}}.
            let table = f.get("assignment").unwrap_or(f);
            let pairs = table
                .as_obj()
                .ok_or_else(|| bad("'fixed' must map variable names to column lists"))?;
            let assignment = pairs
                .iter()
                .map(|(name, cols)| Ok((name.clone(), usize_list(cols, "'fixed' columns")?)))
                .collect::<Result<Vec<_>, ExpError>>()?;
            if let Some(col) = assignment
                .iter()
                .flat_map(|(_, cols)| cols)
                .find(|&&col| col >= MAX_COLUMNS)
            {
                return Err(bad(format!(
                    "'fixed' column {col} is out of range (a cache has at most {MAX_COLUMNS})"
                )));
            }
            return Ok(PolicySpec::Fixed { assignment });
        }
        if let Some(t) = value.get("tuned") {
            let strategy = match t.get("strategy") {
                None => StrategyKind::default(),
                Some(v) => {
                    let raw = v
                        .as_str()
                        .ok_or_else(|| bad("'strategy' must be a string"))?;
                    StrategyKind::parse(raw)
                        .ok_or_else(|| bad(format!("unknown strategy '{raw}'")))?
                }
            };
            return Ok(PolicySpec::Tuned {
                strategy,
                budget: field_usize(t, "budget", 48)?,
                seed: field_u64(t, "seed", 42)?,
            });
        }
        Err(bad("unrecognised policy entry"))
    }
}

impl ReplayGrid {
    fn from_json(value: &Json) -> Result<Self, ExpError> {
        let defaults = ReplayGrid::default();
        let workloads = value
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("replay grids need a 'workloads' array"))?
            .iter()
            .map(WorkloadSel::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if workloads.is_empty() {
            return Err(bad("'workloads' must not be empty"));
        }
        let backends = match value.get("backends") {
            None => defaults.backends,
            Some(v) => v
                .as_arr()
                .ok_or_else(|| bad("'backends' must be an array"))?
                .iter()
                .map(|b| {
                    let raw = b
                        .as_str()
                        .ok_or_else(|| bad("'backends' entries must be strings"))?;
                    // The CLI resolves names through the same parse, so spec spellings
                    // and the error list cannot drift from the CLI's.
                    BackendKind::parse(raw).ok_or_else(|| {
                        bad(format!(
                            "unknown backend '{raw}' (expected {})",
                            BackendKind::expected_single()
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let geometries = match value.get("geometries") {
            None => defaults.geometries,
            Some(v) => v
                .as_arr()
                .ok_or_else(|| bad("'geometries' must be an array"))?
                .iter()
                .map(GeometrySpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        for geometry in &geometries {
            geometry
                .system_config()
                .map_err(|e| bad(format!("geometry {}: {e}", geometry.short())))?;
        }
        let policies = match value.get("policies") {
            None => defaults.policies,
            Some(v) => v
                .as_arr()
                .ok_or_else(|| bad("'policies' must be an array"))?
                .iter()
                .map(PolicySpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let label = match value.get("label") {
            None => LabelScheme::Full,
            Some(v) => {
                let raw = v.as_str().ok_or_else(|| bad("'label' must be a string"))?;
                LabelScheme::parse(raw)
                    .ok_or_else(|| bad(format!("unknown label scheme '{raw}'")))?
            }
        };
        for axis in [
            (backends.is_empty(), "backends"),
            (geometries.is_empty(), "geometries"),
            (policies.is_empty(), "policies"),
        ] {
            if axis.0 {
                return Err(bad(format!("'{}' must not be empty", axis.1)));
            }
        }
        for policy in &policies {
            let PolicySpec::Partition { cache_columns } = *policy else {
                continue;
            };
            if let Some(geometry) = geometries.iter().find(|g| cache_columns > g.columns) {
                return Err(bad(format!(
                    "geometry {}: {{\"partition\": {cache_columns}}} asks for \
                     {cache_columns} cache columns of its {}",
                    geometry.short(),
                    geometry.columns
                )));
            }
        }
        if policies.contains(&PolicySpec::DynamicPhases) {
            workloads.iter().try_for_each(require_phases)?;
        }
        Ok(ReplayGrid {
            workloads,
            backends,
            geometries,
            policies,
            label,
        })
    }

    /// The jobs this grid expands to before deduplication — a partition sweep counts
    /// `columns + 1` per geometry — or `None` if the count overflows.
    fn expansion(&self) -> Option<usize> {
        let sweeps = self
            .policies
            .iter()
            .filter(|p| matches!(p, PolicySpec::PartitionSweep))
            .count();
        let points = self
            .geometries
            .iter()
            .try_fold(0usize, |sum, g| sum.checked_add(g.columns.checked_add(1)?))?;
        let per_pair = (self.policies.len() - sweeps)
            .checked_mul(self.geometries.len())?
            .checked_add(sweeps.checked_mul(points)?)?;
        self.workloads
            .len()
            .checked_mul(self.backends.len())?
            .checked_mul(per_pair)
    }
}

impl MultitaskGrid {
    fn from_json(value: &Json) -> Result<Self, ExpError> {
        let defaults = MultitaskGrid::default();
        let jobs = match value.get("jobs") {
            None => defaults.jobs,
            Some(v) => {
                let arr = v.as_arr().ok_or_else(|| bad("'jobs' must be an array"))?;
                arr.iter()
                    .enumerate()
                    .map(|(i, j)| {
                        let name = match j.get("name").and_then(Json::as_str) {
                            Some(n) => n.to_owned(),
                            None => format!("gzip-{i}"),
                        };
                        Ok(GzipJobSpec {
                            name,
                            seed: field_u64(j, "seed", 41 + i as u64)?,
                            base: field_u64(j, "base", 0x100_0000 * (i as u64 + 1))?,
                        })
                    })
                    .collect::<Result<Vec<_>, ExpError>>()?
            }
        };
        if jobs.is_empty() {
            return Err(bad("'jobs' must not be empty"));
        }
        // Every planned point carries its own copy of the job set.
        if jobs.len() > MAX_MULTITASK_JOBS {
            return Err(bad(format!(
                "'jobs' lists {} jobs; at most {MAX_MULTITASK_JOBS} are allowed",
                jobs.len()
            )));
        }
        let configs = match value.get("configs") {
            None => defaults.configs,
            Some(v) => {
                let arr = v
                    .as_arr()
                    .ok_or_else(|| bad("'configs' must be an array"))?;
                arr.iter()
                    .map(|c| {
                        let label = c
                            .get("label")
                            .and_then(Json::as_str)
                            .ok_or_else(|| bad("multitask configs need a 'label'"))?
                            .to_owned();
                        let latency = match c.get("latency") {
                            None => LatencyPreset::Fig5,
                            Some(v) => {
                                let raw = v
                                    .as_str()
                                    .ok_or_else(|| bad("'latency' must be a string"))?;
                                LatencyPreset::parse(raw)
                                    .ok_or_else(|| bad(format!("unknown latency preset '{raw}'")))?
                            }
                        };
                        let config = MtConfigSpec {
                            label,
                            capacity: field_u64(c, "capacity", 16 * 1024)?,
                            columns: field_usize(c, "columns", 8)?,
                            line: field_u64(c, "line", 32)?,
                            page: field_u64(c, "page", 1024)?,
                            critical_columns: field_usize(c, "critical_columns", 6)?,
                            latency,
                        };
                        config.config().system_config().map_err(|e| {
                            bad(format!("multitask config '{}': {e}", config.label))
                        })?;
                        Ok(config)
                    })
                    .collect::<Result<Vec<_>, ExpError>>()?
            }
        };
        let policies = match value.get("policies") {
            None => defaults.policies,
            Some(v) => {
                let arr = v
                    .as_arr()
                    .ok_or_else(|| bad("'policies' must be an array"))?;
                arr.iter()
                    .map(|p| match p.as_str() {
                        Some("shared") => Ok(ccache_core::multitask::SharingPolicy::Shared),
                        Some("mapped") => Ok(ccache_core::multitask::SharingPolicy::Mapped),
                        _ => Err(bad("multitask policies must be \"shared\" or \"mapped\"")),
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let quanta = match value.get("quanta") {
            None => defaults.quanta,
            Some(v) => usize_list(v, "'quanta'")?,
        };
        for axis in [
            (configs.is_empty(), "configs"),
            (policies.is_empty(), "policies"),
            (quanta.is_empty(), "quanta"),
        ] {
            if axis.0 {
                return Err(bad(format!("'{}' must not be empty", axis.1)));
            }
        }
        Ok(MultitaskGrid {
            jobs,
            configs,
            policies,
            quanta,
        })
    }

    /// The jobs this grid expands to before deduplication, or `None` on overflow.
    fn expansion(&self) -> Option<usize> {
        self.configs
            .len()
            .checked_mul(self.policies.len())?
            .checked_mul(self.quanta.len())
    }
}

/// The most jobs a spec read from JSON may expand to before deduplication. Paper-scale
/// `fig5` expands 44 and `ablation` 42, so the bound leaves about 100× headroom while a
/// hostile spec is refused before the planner builds anything.
pub const MAX_EXPANDED_JOBS: usize = 4096;

/// The most concurrently scheduled jobs a multitask grid read from JSON may list
/// (Figure 5 schedules three).
pub const MAX_MULTITASK_JOBS: usize = 64;

impl ExperimentSpec {
    /// Parses a spec from its JSON document.
    ///
    /// # Errors
    ///
    /// Fails with [`ExpError::BadSpec`] for structural problems (missing fields, unknown
    /// names, empty axes), invalid cache geometries, and grids that expand to more than
    /// [`MAX_EXPANDED_JOBS`] jobs.
    pub fn from_json(doc: &Json) -> Result<Self, ExpError> {
        if doc.as_obj().is_none() {
            return Err(bad("the spec must be a JSON object"));
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("the spec needs a string 'name'"))?
            .to_owned();
        let replay = match doc.get("replay") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| bad("'replay' must be an array of grids"))?
                .iter()
                .map(ReplayGrid::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let multitask = match doc.get("multitask") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| bad("'multitask' must be an array of grids"))?
                .iter()
                .map(MultitaskGrid::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        if replay.is_empty() && multitask.is_empty() {
            return Err(bad(
                "the spec needs at least one 'replay' or 'multitask' grid",
            ));
        }
        let expanded = replay
            .iter()
            .map(ReplayGrid::expansion)
            .chain(multitask.iter().map(MultitaskGrid::expansion))
            .try_fold(0usize, |sum, jobs| sum.checked_add(jobs?));
        match expanded {
            Some(jobs) if jobs <= MAX_EXPANDED_JOBS => {}
            Some(jobs) => {
                return Err(bad(format!(
                    "the grids expand to {jobs} jobs; at most {MAX_EXPANDED_JOBS} are allowed"
                )))
            }
            None => {
                return Err(bad(format!(
                    "the grids expand to more than {MAX_EXPANDED_JOBS} jobs"
                )))
            }
        }
        Ok(ExperimentSpec {
            name,
            replay,
            multitask,
        })
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Fails on JSON syntax errors and on structural spec problems.
    pub fn parse_str(text: &str) -> Result<Self, ExpError> {
        let doc = Json::parse(text)?;
        ExperimentSpec::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_replay_spec_fills_defaults() {
        let spec =
            ExperimentSpec::parse_str(r#"{"name": "t", "replay": [{"workloads": ["fir"]}]}"#)
                .unwrap();
        assert_eq!(spec.name, "t");
        let grid = &spec.replay[0];
        assert_eq!(grid.backends, vec![BackendKind::ColumnCache]);
        assert_eq!(grid.geometries, vec![GeometrySpec::default()]);
        assert_eq!(grid.policies, vec![PolicySpec::Shared]);
        assert_eq!(grid.label, LabelScheme::Full);
    }

    #[test]
    fn policy_spellings_canonicalize_identically() {
        let a = PolicySpec::from_json(&Json::parse(r#"{"partition": 2}"#).unwrap()).unwrap();
        let b =
            PolicySpec::from_json(&Json::parse(r#"{"partition": {"cache_columns": 2}}"#).unwrap())
                .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json().compact(), b.to_json().compact());

        let f =
            PolicySpec::from_json(&Json::parse(r#"{"fixed": {"x": [0, 1]}}"#).unwrap()).unwrap();
        let g = PolicySpec::from_json(
            &Json::parse(r#"{"fixed": {"assignment": {"x": [0, 1]}}}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(f.to_json().compact(), g.to_json().compact());
    }

    #[test]
    fn spec_round_trips_through_canonical_json() {
        let spec = ExperimentSpec::parse_str(
            r#"{
                "name": "round-trip",
                "replay": [{
                    "workloads": ["gzip", {"trace": "x.cct"}],
                    "backends": ["column", "ideal"],
                    "geometries": [{"columns": 8, "replacement": "fifo"}],
                    "policies": ["heuristic", {"partition": 1},
                                 {"tuned": {"strategy": "hill-climb", "budget": 4}}],
                    "label": "backend"
                }],
                "multitask": [{"quanta": [1, 16]}]
            }"#,
        )
        .unwrap();
        let echoed = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, echoed);
        assert_eq!(spec.to_json().pretty(), echoed.to_json().pretty());
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (text, needle) in [
            (r#"[]"#, "must be a JSON object"),
            (r#"{"replay": []}"#, "needs a string 'name'"),
            (r#"{"name": "x"}"#, "at least one"),
            (r#"{"name":"x","replay":[{}]}"#, "'workloads'"),
            (
                r#"{"name":"x","replay":[{"workloads":["nope"]}]}"#,
                "unknown workload 'nope'",
            ),
            (
                r#"{"name":"x","replay":[{"workloads":["fir"],"backends":["victim"]}]}"#,
                "unknown backend 'victim'",
            ),
            (
                r#"{"name":"x","replay":[{"workloads":["fir"],"policies":["magic"]}]}"#,
                "unknown policy 'magic'",
            ),
            (
                r#"{"name":"x","multitask":[{"policies":["exclusive"]}]}"#,
                "shared",
            ),
            (
                r#"{"name":"x","replay":[{"workloads":["fir"],"geometries":[{"replacement":"mru"}]}]}"#,
                "unknown replacement policy",
            ),
            (
                r#"{"name":"x","replay":[{"workloads":["mpeg-combined",{"trace":"t.cct"}],
                    "policies":["heuristic","dynamic"]}]}"#,
                "the 'dynamic' policy needs recorded phases; only the 'mpeg-combined' \
                 corpus workload has them (got 't.cct')",
            ),
        ] {
            let err = ExperimentSpec::parse_str(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text} should fail with {needle}, got: {err}"
            );
        }
    }

    #[test]
    fn hostile_grids_are_refused_before_expansion() {
        let repeated = |item: &str, n: usize| vec![item; n].join(",");
        let huge_grid = format!(
            r#"{{"name":"x","replay":[{{"workloads":[{}],"policies":[{}]}}]}}"#,
            repeated(r#""fir""#, 3000),
            repeated(r#""shared""#, 3000)
        );
        let huge_sweep = r#"{"name":"x","replay":[{"workloads":["fir"],
            "geometries":[{"capacity":2048,"columns":1000000,"line":32}],
            "policies":["partition-sweep"]}]}"#;
        for (text, needle) in [
            (huge_grid.as_str(), "9000000 jobs"),
            (huge_sweep, "column count 1000000"),
            (
                r#"{"name":"x","multitask":[{"configs":[{"label":"m","columns":1000}]}]}"#,
                "multitask config 'm'",
            ),
            (
                r#"{"name":"x","replay":[{"workloads":["fir"],"policies":[{"fixed":{"x":[64]}}]}]}"#,
                "'fixed' column 64",
            ),
            (
                r#"{"name":"x","replay":[{"workloads":["fir"],
                    "geometries":[{"columns":8},{"columns":2}],"policies":[{"partition":4}]}]}"#,
                r#"geometry 2048B.2col.32B: {"partition": 4} asks for 4 cache columns of its 2"#,
            ),
        ] {
            let err = ExperimentSpec::parse_str(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
        let many_jobs = format!(
            r#"{{"name":"x","multitask":[{{"jobs":[{}]}}]}}"#,
            repeated("{}", MAX_MULTITASK_JOBS + 1)
        );
        assert!(ExperimentSpec::parse_str(&many_jobs).is_err());
        // Every column may be cache.
        let all_cache = r#"{"name":"x","replay":[{"workloads":["fir"],
            "geometries":[{"columns":8},{"columns":2}],"policies":[{"partition":2}]}]}"#;
        assert!(ExperimentSpec::parse_str(all_cache).is_ok());
    }

    #[test]
    fn expansion_counts_match_the_planner() {
        // A partition sweep counts columns + 1 per geometry; the bound is inclusive.
        let spec = ExperimentSpec::parse_str(
            r#"{"name":"x","replay":[{"workloads":["fir","gzip"],"backends":["column","ideal"],
                "geometries":[{"columns":2},{"columns":4}],
                "policies":["shared","partition-sweep"]}],
                "multitask":[{"quanta":[1,4,16]}]}"#,
        )
        .unwrap();
        let counted: usize = spec
            .replay
            .iter()
            .map(|g| g.expansion().unwrap())
            .sum::<usize>()
            + spec
                .multitask
                .iter()
                .map(|g| g.expansion().unwrap())
                .sum::<usize>();
        assert_eq!(counted, crate::plan::expand(&spec).len());
        let at_bound = format!(
            r#"{{"name":"x","multitask":[{{"quanta":[{}]}}]}}"#,
            vec!["1"; MAX_EXPANDED_JOBS / 4].join(",")
        );
        assert!(ExperimentSpec::parse_str(&at_bound).is_ok());
    }

    #[test]
    fn default_multitask_grid_matches_figure5() {
        let g = MultitaskGrid::default();
        assert_eq!(g.jobs.len(), 3);
        assert_eq!(g.jobs[0].name, "gzip-A");
        assert_eq!(g.jobs[0].seed, 41);
        assert_eq!(g.configs[0].config().capacity_bytes, 16 * 1024);
        assert_eq!(g.configs[0].config().critical_job_columns, 6);
        assert_eq!(g.configs[1].config().capacity_bytes, 128 * 1024);
        assert_eq!(g.quanta.len(), 8);
    }
}
