//! The unified artefact: one JSON schema for every executed experiment.
//!
//! ```text
//! {
//!   "artefact": "ccache-exp", "version": 1,
//!   "name": ..., "quick": ...,
//!   "jobs": { "expanded": N, "planned": M },
//!   "spec": { ...canonical spec echo... },
//!   "results": [ { "job": {...}, "type": "replay" | "partition" | "dynamic"
//!                  | "tuned" | "multitask", ...payload... }, ... ]
//! }
//! ```
//!
//! Serialization is deterministic (fixed key order, order-preserving execution), so
//! repeated runs of the same spec produce byte-identical artefacts — CI diffs them.

use crate::exec::JobOutcome;
use crate::plan::{JobUnit, Plan};
use crate::spec::ExperimentSpec;
use ccache_json::{Json, ToJson};

/// Schema identifier of the artefact document.
pub const ARTEFACT_KIND: &str = "ccache-exp";
/// Schema version of the artefact document.
pub const ARTEFACT_VERSION: u64 = 1;

/// The result of one full spec → plan → execute run.
#[derive(Debug, Clone)]
pub struct Artefact {
    /// The spec that ran (echoed canonically into the document).
    pub spec: ExperimentSpec,
    /// Whether workloads were built at the quick scale.
    pub quick: bool,
    /// Number of jobs before dedup.
    pub expanded: usize,
    /// The planned jobs, in execution order.
    pub jobs: Vec<JobUnit>,
    /// One outcome per planned job, in the same order.
    pub outcomes: Vec<JobOutcome>,
}

impl Artefact {
    /// Builds an artefact from a plan and its outcomes.
    pub fn new(spec: ExperimentSpec, quick: bool, plan: Plan, outcomes: Vec<JobOutcome>) -> Self {
        Artefact {
            spec,
            quick,
            expanded: plan.expanded,
            jobs: plan.jobs,
            outcomes,
        }
    }

    /// The planned jobs zipped with their outcomes.
    pub fn entries(&self) -> impl Iterator<Item = (&JobUnit, &JobOutcome)> {
        self.jobs.iter().zip(self.outcomes.iter())
    }

    /// Outcomes indexed by canonical job key. Presets assemble their reports by walking
    /// the **expanded** (pre-dedup) job sequence and looking each job up here, so a job
    /// deduplicated across grids still contributes to every report position that wants
    /// it.
    pub fn by_key(&self) -> std::collections::BTreeMap<String, &JobOutcome> {
        self.entries()
            .map(|(job, outcome)| (job.key(), outcome))
            .collect()
    }

    /// The summary table of the artefact: a header row plus one row per result,
    /// shared by the CSV and markdown renderings of `ccache run`.
    pub fn summary_rows(&self) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let header = vec![
            "type",
            "label",
            "quantum",
            "cycles",
            "references",
            "misses",
            "miss_rate",
            "cpi",
        ];
        let rows = self
            .outcomes
            .iter()
            .map(|outcome| match outcome {
                JobOutcome::Replay { label, result, .. } => vec![
                    "replay".to_owned(),
                    label.clone(),
                    String::new(),
                    result.total_cycles().to_string(),
                    result.references.to_string(),
                    result.misses.to_string(),
                    format!("{:.6}", result.miss_rate()),
                    format!("{:.6}", result.cpi()),
                ],
                JobOutcome::Partition { label, point, .. } => vec![
                    "partition".to_owned(),
                    label.clone(),
                    String::new(),
                    point.cycles.to_string(),
                    point.result.references.to_string(),
                    point.result.misses.to_string(),
                    format!("{:.6}", point.result.miss_rate()),
                    format!("{:.6}", point.result.cpi()),
                ],
                JobOutcome::Dynamic { label, run, .. } => vec![
                    "dynamic".to_owned(),
                    label.clone(),
                    String::new(),
                    run.cycles.to_string(),
                    run.phases
                        .iter()
                        .map(|p| p.result.references)
                        .sum::<u64>()
                        .to_string(),
                    run.phases
                        .iter()
                        .map(|p| p.result.misses)
                        .sum::<u64>()
                        .to_string(),
                    String::new(),
                    String::new(),
                ],
                JobOutcome::Tuned { label, outcome } => vec![
                    "tuned".to_owned(),
                    label.clone(),
                    String::new(),
                    outcome.best.fitness.cycles.to_string(),
                    String::new(),
                    outcome.best.fitness.misses.to_string(),
                    format!("{:.6}", outcome.best.fitness.miss_rate),
                    String::new(),
                ],
                JobOutcome::Multitask {
                    series,
                    quantum,
                    run,
                } => vec![
                    "multitask".to_owned(),
                    series.clone(),
                    quantum.to_string(),
                    run.critical_job().memory_cycles.to_string(),
                    run.critical_job().references.to_string(),
                    String::new(),
                    String::new(),
                    format!("{:.6}", run.critical_job().cpi),
                ],
            })
            .collect();
        (header, rows)
    }
}

impl ToJson for JobOutcome {
    fn to_json(&self) -> Json {
        match self {
            JobOutcome::Replay {
                label,
                result,
                layout,
                series,
            } => {
                let mut pairs = vec![
                    ("type".to_owned(), "replay".to_json()),
                    ("label".to_owned(), label.to_json()),
                    ("total_cycles".to_owned(), result.total_cycles().to_json()),
                    ("cpi".to_owned(), result.cpi().to_json()),
                    ("miss_rate".to_owned(), result.miss_rate().to_json()),
                    ("result".to_owned(), result.to_json()),
                ];
                pairs.push((
                    "layout".to_owned(),
                    match layout {
                        None => Json::Null,
                        Some(info) => Json::obj([
                            ("cost", info.cost.to_json()),
                            ("merges", info.merges.to_json()),
                            ("optimal", info.optimal.to_json()),
                        ]),
                    },
                ));
                // Absent (not null) when unobserved, keeping pre-observer artefacts
                // byte-identical.
                if let Some(series) = series {
                    pairs.push(("time_series".to_owned(), series.to_json()));
                }
                Json::Obj(pairs)
            }
            JobOutcome::Partition {
                label,
                workload,
                point,
            } => Json::obj([
                ("type", "partition".to_json()),
                ("label", label.to_json()),
                ("workload", workload.to_json()),
                ("point", point.to_json()),
            ]),
            JobOutcome::Dynamic { label, run, series } => {
                let mut pairs = vec![
                    ("type".to_owned(), "dynamic".to_json()),
                    ("label".to_owned(), label.to_json()),
                    ("run".to_owned(), run.to_json()),
                ];
                if let Some(series) = series {
                    pairs.push(("time_series".to_owned(), series.to_json()));
                }
                Json::Obj(pairs)
            }
            JobOutcome::Tuned { label, outcome } => Json::obj([
                ("type", "tuned".to_json()),
                ("label", label.to_json()),
                ("outcome", outcome.to_json()),
            ]),
            JobOutcome::Multitask {
                series,
                quantum,
                run,
            } => Json::obj([
                ("type", "multitask".to_json()),
                ("series", series.to_json()),
                ("quantum", quantum.to_json()),
                ("cpi", run.critical_job().cpi.to_json()),
                ("run", run.to_json()),
            ]),
        }
    }
}

impl ToJson for Artefact {
    fn to_json(&self) -> Json {
        Json::obj([
            ("artefact", ARTEFACT_KIND.to_json()),
            ("version", ARTEFACT_VERSION.to_json()),
            ("name", self.spec.name.to_json()),
            ("quick", self.quick.to_json()),
            (
                "jobs",
                Json::obj([
                    ("expanded", self.expanded.to_json()),
                    ("planned", self.jobs.len().to_json()),
                ]),
            ),
            ("spec", self.spec.to_json()),
            (
                "results",
                Json::arr(self.entries().map(|(job, outcome)| {
                    let Json::Obj(payload) = outcome.to_json() else {
                        unreachable!("outcomes serialize to objects");
                    };
                    let mut pairs = vec![("job".to_owned(), job.descriptor())];
                    pairs.extend(payload);
                    Json::Obj(pairs)
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecOptions;
    use crate::spec::{LabelScheme, PolicySpec, ReplayGrid, WorkloadSel};

    /// Plans, executes and packages `spec` at the quick scale.
    fn run_quick(spec: &ExperimentSpec) -> Artefact {
        let opts = ExecOptions {
            quick: true,
            telemetry: Some(ccache_telemetry::Registry::new()),
            ..ExecOptions::default()
        };
        let p = crate::plan(spec);
        let outcomes = crate::execute(&p, &opts).unwrap();
        Artefact::new(spec.clone(), opts.quick, p, outcomes)
    }

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "tiny".into(),
            replay: vec![ReplayGrid {
                workloads: vec![WorkloadSel::Corpus { name: "fir".into() }],
                policies: vec![PolicySpec::Shared, PolicySpec::Heuristic],
                label: LabelScheme::Policy,
                ..ReplayGrid::default()
            }],
            multitask: Vec::new(),
        }
    }

    #[test]
    fn artefacts_serialize_deterministically() {
        let a = run_quick(&tiny_spec());
        let b = run_quick(&tiny_spec());
        let ja = a.to_json().pretty();
        assert_eq!(ja, b.to_json().pretty());
        assert!(ja.contains("\"artefact\": \"ccache-exp\""));
        assert!(ja.contains("\"planned\": 2"));
        assert!(ja.contains("\"type\": \"replay\""));
        // the artefact parses back as JSON
        let doc = Json::parse(&ja).unwrap();
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("results").and_then(Json::as_arr).map(|r| r.len()),
            Some(2)
        );
    }

    #[test]
    fn summary_rows_cover_every_result() {
        let a = run_quick(&tiny_spec());
        let (header, rows) = a.summary_rows();
        assert_eq!(rows.len(), a.outcomes.len());
        assert!(rows.iter().all(|r| r.len() == header.len()));
        assert_eq!(rows[0][0], "replay");
        assert_eq!(rows[0][1], "shared");
    }
}
