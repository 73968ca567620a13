//! `tune`: `Session::tune` on full-scale `mpeg-combined`, once per strategy
//! (evolutionary, hill-climb, exhaustive) with the `ccache tune` defaults and the
//! workload seed as the search seed. The strategies differ widely in how many
//! candidates repeat, so one pass holds both duplicate-heavy and duplicate-free
//! candidate streams.

use crate::expect::Expected;
use crate::experiments::work_rows;
use crate::harness::{self, Checks, Metrics, Tracer};
use crate::probes::{self, TuneRun, STRATEGIES};
use crate::{serve, Ctx, PassCounters, PassLog, Workload};
use ccache_json::{Json, ToJson};
use column_caching::exp::scale::Scale;
use column_caching::opt::TuneOutcome;
use column_caching::telemetry::Registry;
use column_caching::workloads::WorkloadRun;
use column_caching::Session;
use std::time::Instant;

/// The search seed whose outcomes `expected.json` records.
const REFERENCE_SEED: u64 = 42;

pub struct Tune {
    seed: u64,
    registry: Registry,
    session: Session,
    run: WorkloadRun,
    last: Option<TuneRun>,
    first_digests: Option<Vec<String>>,
    expected: Expected,
}

fn outcome_digest(outcome: &TuneOutcome) -> String {
    harness::digest(outcome.to_json().compact().as_bytes())
}

impl Workload for Tune {
    const SETUP_REPS: usize = 3;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let run = column_caching::workloads::corpus("mpeg-combined", false)
            .ok_or("mpeg-combined is a corpus workload")?;
        let registry = Registry::new();
        let session = Session::builder()
            .telemetry(registry.clone())
            .build()
            .map_err(|e| e.to_string())?;
        Ok(Tune {
            seed: ctx.seed,
            registry,
            session,
            run,
            last: None,
            first_digests: None,
            expected: Expected::load(),
        })
    }

    fn pass(&mut self, tr: &mut Tracer, log: &mut PassLog) -> Result<(), String> {
        let run = probes::tune_all(
            &self.session,
            &self.run.trace,
            &self.run.symbols,
            self.seed,
            false,
            tr,
        )?;
        log.latencies_ms.extend(run.seconds.iter().map(|s| s * 1e3));
        self.last = Some(run);
        Ok(())
    }

    fn end_pass(&mut self, checks: &mut Checks) {
        let Some(run) = &self.last else { return };
        let digests: Vec<String> = run.outcomes.iter().map(outcome_digest).collect();
        for ((_, name), outcome) in STRATEGIES.iter().zip(&run.outcomes) {
            checks.check(
                outcome.best.fitness.miss_rate <= outcome.heuristic.fitness.miss_rate,
                || format!("tune {name}: best is worse than the heuristic seed"),
            );
            checks.check(outcome.replays <= outcome.budget, || {
                format!(
                    "tune {name}: {} replays over a {} budget",
                    outcome.replays, outcome.budget
                )
            });
        }
        match &self.first_digests {
            None => self.first_digests = Some(digests),
            Some(first) => checks.expect_eq("tune outcomes repeat across passes", &digests, first),
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        let mut off = Tracer::new(false, 0, Instant::now());
        match probes::tune_all(
            &self.session,
            &self.run.trace,
            &self.run.symbols,
            REFERENCE_SEED,
            false,
            &mut off,
        ) {
            Ok(run) => {
                for ((_, name), outcome) in STRATEGIES.iter().zip(&run.outcomes) {
                    self.expected.check(
                        checks,
                        &format!("tune.{name}.seed{REFERENCE_SEED}"),
                        outcome_digest(outcome),
                    );
                }
            }
            Err(e) => checks.fail(format!("reference tune failed: {e}")),
        }
        self.expected.finish();
    }

    fn registry(&self) -> Registry {
        self.registry.clone()
    }

    fn reconcile(&self, counters: &PassCounters, m: &mut Metrics) {
        let Some(run) = &self.last else { return };
        let refs = self.run.trace.len() as u64;
        let replays: u64 = run.outcomes.iter().map(|o| o.replays as u64).sum();
        work_rows(counters, replays * refs, replays, m);
        probes::tune_metrics(run, &counters.private, m);
    }

    fn probes(&mut self, m: &mut Metrics, checks: &mut Checks) -> Result<(), String> {
        probes::gen_layer(m, || {
            column_caching::workloads::corpus("mpeg-combined", false)
        });
        let trace = &self.run.trace;
        let encoded = probes::trace_layer(trace, m, checks);
        probes::replay_layers(trace, &encoded, *self.session.config(), m, checks)?;
        probes::layout_layer(trace, &self.run.symbols, &self.session, m)?;
        probes::multitask_layer(Scale::Paper, m)?;
        let spec = column_caching::exp::ExperimentSpec::parse_str(&format!(
            r#"{{"name": "tune-probe", "replay": [{{"workloads": ["mpeg-combined"],
                "policies": [{{"tuned": {{"strategy": "hill-climb", "budget": 16, "seed": {}}}}}]}}]}}"#,
            self.seed
        ))
        .map_err(|e| e.to_string())?;
        probes::exp_layer(&spec, false, m)?;
        let request = Json::obj([
            ("cmd", "tune".to_json()),
            ("workload", "mpeg-combined".to_json()),
            ("strategy", "hill-climb".to_json()),
            ("budget", 16u64.to_json()),
            ("seed", self.seed.to_json()),
            ("quick", false.to_json()),
        ]);
        let frames = serve::serve_layer(&request, m, checks)?;
        probes::json_layer(&frames, m)
    }
}
