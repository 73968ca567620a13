//! `trace-replay`: binary `.cct` traces written at set-up, replayed through experiment
//! specs. `mpeg-combined` mostly fits the Figure 4 2 KiB cache (hit-dominated); a
//! seed-chosen `gzip` input does not (misses and writebacks dominate); two gzip inputs
//! per seed, because the layout cost of one input varies up to 2× between seeds. Each
//! file runs
//! a `ccache sweep`-shaped spec over all three backends (the streaming
//! `replay_reader` path) and a heuristic/partition spec (the `read_to_trace` → infer →
//! layout path).

use crate::expect::Expected;
use crate::experiments::{artefact_work, run_spec, work_rows};
use crate::harness::{self, Checks, Metrics, Tracer};
use crate::{probes, serve, Ctx, PassCounters, PassLog, Workload};
use ccache_json::{Json, ToJson};
use column_caching::exp::exec::JobOutcome;
use column_caching::exp::presets::sweep_spec;
use column_caching::exp::scale::Scale;
use column_caching::exp::spec::{PolicySpec, ReplayGrid, WorkloadSel};
use column_caching::exp::{Artefact, ExperimentSpec, GeometrySpec};
use column_caching::sim::backend::BackendKind;
use column_caching::telemetry::Registry;
use column_caching::trace::binfmt::{write_trace, TraceReader};
use column_caching::trace::Trace;
use column_caching::workloads::gzipsim::{run_gzip_job, GzipConfig};
use column_caching::workloads::WorkloadRun;
use column_caching::Session;
use std::io::Write;
use std::path::Path;

pub struct TraceReplay {
    seed: u64,
    registry: Registry,
    session: Session,
    gzip: WorkloadRun,
    /// `(label, path)` of each trace file.
    files: Vec<(String, String)>,
    /// `(name, spec)`: a sweep and a layout spec per file.
    specs: Vec<(String, ExperimentSpec)>,
    artefacts: Vec<(String, Artefact)>,
    first_digests: Option<Vec<String>>,
    expected: Expected,
}

/// Gzip inputs per seed.
const GZIP_INPUTS: u64 = 2;

/// The seed-chosen gzip inputs: 24 KiB each, the corpus entry's full-scale size.
fn gzip_inputs(seed: u64) -> Vec<WorkloadRun> {
    let config = GzipConfig {
        input_len: 24 * 1024,
        ..GzipConfig::default()
    };
    (0..GZIP_INPUTS)
        .map(|k| {
            let input = seed.wrapping_mul(GZIP_INPUTS).wrapping_add(k);
            run_gzip_job(&config.with_seed(input), 0, "gzip")
        })
        .collect()
}

fn write_cct(trace: &Trace, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sink = write_trace(trace, std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    sink.flush().map_err(|e| format!("{}: {e}", path.display()))
}

fn layout_spec(path: &str) -> ExperimentSpec {
    ExperimentSpec {
        name: "layout".to_owned(),
        replay: vec![ReplayGrid {
            workloads: vec![WorkloadSel::Trace {
                path: path.to_owned(),
            }],
            geometries: vec![GeometrySpec::default()],
            policies: vec![PolicySpec::Heuristic, PolicySpec::PartitionSweep],
            ..ReplayGrid::default()
        }],
        multitask: Vec::new(),
    }
}

/// Digest of every replay statistic in the artefact (labels and paths excluded).
fn results_digest(artefact: &Artefact) -> String {
    let mut text = String::new();
    for outcome in &artefact.outcomes {
        let result = match outcome {
            JobOutcome::Replay { result, .. } => result,
            JobOutcome::Partition { point, .. } => &point.result,
            _ => continue,
        };
        let mut result = result.clone();
        result.name.clear();
        text.push_str(&result.to_json().compact());
    }
    harness::digest(text.as_bytes())
}

impl Workload for TraceReplay {
    const SETUP_REPS: usize = 1;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let dir = ctx.out_dir.join("trace-replay");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mpeg = column_caching::workloads::corpus("mpeg-combined", false)
            .ok_or("mpeg-combined is a corpus workload")?;
        let gzip = gzip_inputs(ctx.seed);
        let mut inputs = vec![("mpeg-combined".to_owned(), &mpeg.trace)];
        inputs.extend(
            gzip.iter()
                .enumerate()
                .map(|(k, g)| (format!("gzip-{k}"), &g.trace)),
        );
        let mut files = Vec::new();
        let mut specs = Vec::new();
        for (label, trace) in inputs {
            let path = dir.join(format!("{label}.cct"));
            write_cct(trace, &path)?;
            let path = path.to_string_lossy().into_owned();
            specs.push((
                format!("{label}.sweep"),
                sweep_spec(&path, BackendKind::ALL.to_vec(), GeometrySpec::default()),
            ));
            specs.push((format!("{label}.layout"), layout_spec(&path)));
            files.push((label, path));
        }
        let registry = Registry::new();
        let session = Session::builder()
            .telemetry(registry.clone())
            .build()
            .map_err(|e| e.to_string())?;
        Ok(TraceReplay {
            seed: ctx.seed,
            registry,
            session,
            gzip: gzip.into_iter().next().expect("at least one gzip input"),
            files,
            specs,
            artefacts: Vec::new(),
            first_digests: None,
            expected: Expected::load(),
        })
    }

    fn pass(&mut self, tr: &mut Tracer, log: &mut PassLog) -> Result<(), String> {
        self.artefacts.clear();
        for (name, spec) in &self.specs {
            let (artefact, _) = log
                .op(|| run_spec(tr, &self.session, spec))
                .map_err(|e| format!("{name}: {e}"))?;
            self.artefacts.push((name.clone(), artefact));
        }
        Ok(())
    }

    fn end_pass(&mut self, checks: &mut Checks) {
        let digests: Vec<String> = self
            .artefacts
            .iter()
            .map(|(_, a)| results_digest(a))
            .collect();
        for ((name, _), digest) in self.artefacts.iter().zip(&digests) {
            if name.starts_with("mpeg-combined") {
                self.expected
                    .check(checks, &format!("trace-replay.{name}"), digest.clone());
            }
        }
        match &self.first_digests {
            None => self.first_digests = Some(digests),
            Some(first) => {
                checks.expect_eq("trace-replay results repeat across passes", &digests, first)
            }
        }
    }

    /// Streamed (sweep artefact) and in-memory (`read_to_trace` + `Session::replay`)
    /// results must agree on every backend.
    fn verify(&mut self, checks: &mut Checks) {
        for (label, path) in &self.files {
            let trace = match TraceReader::open(path).and_then(|mut r| r.read_to_trace()) {
                Ok(trace) => trace,
                Err(e) => return checks.fail(format!("cannot read {path}: {e}")),
            };
            let Some((_, sweep)) = self
                .artefacts
                .iter()
                .find(|(n, _)| *n == format!("{label}.sweep"))
            else {
                return checks.fail(format!("no sweep artefact for {label}"));
            };
            for kind in BackendKind::ALL {
                let streamed = sweep.outcomes.iter().find_map(|o| match o {
                    JobOutcome::Replay { label, result, .. } if label == kind.canonical_name() => {
                        Some(result.clone())
                    }
                    _ => None,
                });
                let in_memory = Session::builder()
                    .backend(kind.canonical_name())
                    .build()
                    .and_then(|s| s.replay(kind.canonical_name(), &trace))
                    .map(|r| r.result)
                    .ok();
                checks.check(streamed.is_some() && streamed == in_memory, || {
                    format!("{label} on {kind}: streamed {streamed:?} != in-memory {in_memory:?}")
                });
            }
        }
        self.expected.finish();
    }

    fn registry(&self) -> Registry {
        self.registry.clone()
    }

    fn reconcile(&self, counters: &PassCounters, m: &mut Metrics) {
        let (refs, replays) = self
            .artefacts
            .iter()
            .map(|(_, a)| artefact_work(a))
            .fold((0, 0), |acc, w| (acc.0 + w.0, acc.1 + w.1));
        work_rows(counters, refs, replays, m);
    }

    fn probes(&mut self, m: &mut Metrics, checks: &mut Checks) -> Result<(), String> {
        let seed = self.seed;
        probes::gen_layer(m, || {
            (
                column_caching::workloads::corpus("mpeg-combined", false),
                gzip_inputs(seed),
            )
        });
        let trace = &self.gzip.trace;
        let config = *self.session.config();
        let symbols = column_caching::trace::infer::infer_symbols(
            trace,
            config.page_size.max(4096),
            config.cache.line_size(),
        );
        let encoded = probes::trace_layer(trace, m, checks);
        probes::replay_layers(trace, &encoded, config, m, checks)?;
        probes::layout_layer(trace, &symbols, &self.session, m)?;
        probes::multitask_layer(Scale::Paper, m)?;
        probes::tune_layer(trace, &symbols, seed, false, m)?;
        let (_, gzip_path) = &self.files[1];
        probes::exp_layer(&layout_spec(gzip_path), false, m)?;
        let request = Json::obj([
            ("cmd", "replay".to_json()),
            ("trace", gzip_path.to_json()),
            ("policy", "heuristic".to_json()),
            ("quick", false.to_json()),
        ]);
        let frames = serve::serve_layer(&request, m, checks)?;
        probes::json_layer(&frames, m)
    }
}
