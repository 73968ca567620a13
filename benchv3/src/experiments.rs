//! `experiments`: `fig4`, `fig5` and every `examples/specs/*.json` at paper scale,
//! each planned and run through `Session::run_plan` and rendered the way `ccache run`
//! does it.
//!
//! The inputs are fixed by the paper, so the workload seed is ignored.

use crate::expect::Expected;
use crate::harness::{self, Checks, Metrics, Tracer};
use crate::{probes, serve, Ctx, PassCounters, PassLog, Workload};
use ccache_json::{Json, ToJson};
use column_caching::exp::exec::JobOutcome;
use column_caching::exp::presets::{fig4_spec, fig5_spec};
use column_caching::exp::scale::{figure5_jobs, Scale};
use column_caching::exp::{Artefact, ExperimentSpec};
use column_caching::telemetry::Registry;
use column_caching::Session;
use std::collections::BTreeMap;

pub struct Experiments {
    seed: u64,
    registry: Registry,
    session: Session,
    specs: Vec<(String, ExperimentSpec)>,
    artefacts: Vec<(String, Artefact, String)>,
    expected: Expected,
}

impl Workload for Experiments {
    const SETUP_REPS: usize = 5;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let dir = ctx.root.join("examples").join("specs");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no specs in {}", dir.display()));
        }
        let mut specs = vec![
            ("fig4".to_owned(), fig4_spec("all")),
            ("fig5".to_owned(), fig5_spec(Scale::Paper.quanta())),
        ];
        for path in files {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let spec =
                ExperimentSpec::parse_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let stem = path.file_stem().unwrap_or_default().to_string_lossy();
            specs.push((stem.into_owned(), spec));
        }
        let registry = Registry::new();
        let session = Session::builder()
            .telemetry(registry.clone())
            .build()
            .map_err(|e| e.to_string())?;
        Ok(Experiments {
            seed: ctx.seed,
            registry,
            session,
            specs,
            artefacts: Vec::new(),
            expected: Expected::load(),
        })
    }

    fn pass(&mut self, tr: &mut Tracer, log: &mut PassLog) -> Result<(), String> {
        self.artefacts.clear();
        for (name, spec) in &self.specs {
            let (artefact, text) = log
                .op(|| run_spec(tr, &self.session, spec))
                .map_err(|e| format!("{name}: {e}"))?;
            self.artefacts.push((name.clone(), artefact, text));
        }
        Ok(())
    }

    fn end_pass(&mut self, checks: &mut Checks) {
        for (name, artefact, text) in &self.artefacts {
            self.expected.check(
                checks,
                &format!("experiments.{name}"),
                harness::digest(text.as_bytes()),
            );
            match name.as_str() {
                "fig4" => fig4_shapes(artefact, checks),
                "fig5" => fig5_shapes(artefact, checks),
                _ => {}
            }
        }
    }

    fn verify(&mut self, _checks: &mut Checks) {
        eprintln!("benchv3: experiments inputs are fixed by the paper; the seed only feeds the tune probe");
        self.expected.finish();
    }

    fn registry(&self) -> Registry {
        self.registry.clone()
    }

    fn reconcile(&self, counters: &PassCounters, m: &mut Metrics) {
        let (refs, replays) = self
            .artefacts
            .iter()
            .map(|(_, a, _)| artefact_work(a))
            .fold((0, 0), |acc, w| (acc.0 + w.0, acc.1 + w.1));
        work_rows(counters, refs, replays, m);
    }

    fn probes(&mut self, m: &mut Metrics, checks: &mut Checks) -> Result<(), String> {
        probes::gen_layer(m, || {
            let routines: Vec<_> = ["mpeg-dequant", "mpeg-plus", "mpeg-idct", "mpeg-combined"]
                .iter()
                .filter_map(|n| column_caching::workloads::corpus(n, false))
                .collect();
            (routines, figure5_jobs(Scale::Paper))
        });
        let run = column_caching::workloads::corpus("mpeg-combined", false)
            .ok_or("mpeg-combined is a corpus workload")?;
        let encoded = probes::trace_layer(&run.trace, m, checks);
        probes::replay_layers(&run.trace, &encoded, *self.session.config(), m, checks)?;
        probes::layout_layer(&run.trace, &run.symbols, &self.session, m)?;
        probes::multitask_layer(Scale::Paper, m)?;
        probes::tune_layer(&run.trace, &run.symbols, self.seed, false, m)?;
        let fig4 = &self.specs[0].1;
        probes::exp_layer(fig4, false, m)?;
        let request = Json::obj([
            ("cmd", "run".to_json()),
            ("spec", fig4.to_json()),
            ("quick", false.to_json()),
        ]);
        let frames = serve::serve_layer(&request, m, checks)?;
        probes::json_layer(&frames, m)
    }
}

/// Runs `spec` the way `ccache run` does (`exp::plan`, then `Session::run_plan`), one
/// span per step, and renders the artefact the way `ccache run` writes it.
pub fn run_spec(
    tr: &mut Tracer,
    session: &Session,
    spec: &ExperimentSpec,
) -> Result<(Artefact, String), String> {
    let plan = tr.span("exp.plan", |_| column_caching::exp::plan(spec));
    let artefact = tr
        .span("exp.execute", |_| session.run_plan(spec, plan))
        .map_err(|e| e.to_string())?;
    let text = tr.span("exp.serialize", |_| artefact.to_json().pretty());
    Ok((artefact, text))
}

/// Fig. 4: dequant and plus are fastest all-scratchpad (0 cache columns), idct with
/// the whole cache (4 columns) — the shapes `tests/figure4_shapes.rs` pins.
fn fig4_shapes(artefact: &Artefact, checks: &mut Checks) {
    let mut best: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for outcome in &artefact.outcomes {
        if let JobOutcome::Partition {
            workload, point, ..
        } = outcome
        {
            let entry = best
                .entry(workload.as_str())
                .or_insert((u64::MAX, usize::MAX));
            if point.cycles < entry.0 {
                *entry = (point.cycles, point.cache_columns);
            }
        }
    }
    for (routine, columns) in [("dequant", 0), ("plus", 0), ("idct", 4)] {
        let found = best
            .iter()
            .find(|(w, _)| w.contains(routine))
            .map(|(_, b)| b.1);
        checks.expect_eq(
            &format!("fig4 {routine} optimum cache columns"),
            found,
            Some(columns),
        );
    }
}

/// Fig. 5: every mapped series is flat (variation ≈ 0) while the shared 16 KiB series
/// varies by about one CPI.
fn fig5_shapes(artefact: &Artefact, checks: &mut Checks) {
    let mut series: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for outcome in &artefact.outcomes {
        if let JobOutcome::Multitask {
            series: label, run, ..
        } = outcome
        {
            let cpi = run.critical_job().cpi;
            let entry = series.entry(label.as_str()).or_insert((f64::MAX, f64::MIN));
            *entry = (entry.0.min(cpi), entry.1.max(cpi));
        }
    }
    checks.check(series.len() == 4, || {
        format!("fig5 has {} series, expected 4", series.len())
    });
    for (label, (lo, hi)) in &series {
        let variation = hi - lo;
        if label.contains("mapped") {
            checks.check(variation < 0.05, || {
                format!("fig5 '{label}' variation {variation:.4}, expected ≈ 0")
            });
        } else if label.contains("16k") {
            checks.check(variation > 0.5, || {
                format!("fig5 '{label}' variation {variation:.4}, expected ≈ 1 CPI")
            });
        }
    }
}

/// References and replays an artefact's outcomes account for: one replay per replay,
/// partition point and multitask schedule, one per phase of a dynamic run, and one per
/// fitness replay of a tuning run (each over the tuned trace).
pub fn artefact_work(artefact: &Artefact) -> (u64, u64) {
    artefact
        .outcomes
        .iter()
        .map(|outcome| match outcome {
            JobOutcome::Replay { result, .. } => (result.references, 1),
            JobOutcome::Partition { point, .. } => (point.result.references, 1),
            JobOutcome::Dynamic { run, .. } => (
                run.phases.iter().map(|p| p.result.references).sum(),
                run.phases.len() as u64,
            ),
            JobOutcome::Tuned { outcome, .. } => (
                outcome.replays as u64 * outcome.best.fitness.references,
                outcome.replays as u64,
            ),
            JobOutcome::Multitask { run, .. } => (run.jobs.iter().map(|j| j.references).sum(), 1),
        })
        .fold((0, 0), |acc, w| (acc.0 + w.0, acc.1 + w.1))
}

/// The `core.*` work counters and the `telemetry.*` reconciliation rows: what the
/// outcomes account for against what the session's registry counted (the global
/// registry's share is reported beside it).
pub fn work_rows(counters: &PassCounters, refs: u64, replays: u64, m: &mut Metrics) {
    let both =
        |name: &str| harness::get(&counters.private, name) + harness::get(&counters.global, name);
    let references = both("engine.references");
    m.set("core.references", references, "count");
    m.set("core.replays", both("engine.replays"), "count");
    m.set("core.batches", both("engine.batches"), "count");
    m.set(
        "core.memo.translation_hit_ratio",
        harness::ratio(both("engine.memo.translation_hits"), references),
        "fraction",
    );
    m.set(
        "core.memo.tint_hit_ratio",
        harness::ratio(both("engine.memo.tint_hits"), references),
        "fraction",
    );
    m.set(
        "telemetry.uncounted_refs",
        refs as f64 - harness::get(&counters.private, "engine.references"),
        "count",
    );
    m.set(
        "telemetry.uncounted_replays",
        replays as f64 - harness::get(&counters.private, "engine.replays"),
        "count",
    );
    m.set(
        "telemetry.global_refs",
        harness::get(&counters.global, "engine.references"),
        "count",
    );
    if !m.has("telemetry.serve_verb_gap") {
        m.set("telemetry.serve_verb_gap", 0.0, "count");
    }
}
