//! Per-layer probes: one public call per layer, timed in isolation on a workload's own
//! inputs. Every traced run reports every probe, so each per-layer number exists for
//! every workload; the workload decides which inputs a probe sees.

use crate::harness::{self, Checks, Metrics, Tracer};
use ccache_json::{Json, ToJson};
use column_caching::core::multitask::{run_multitasking_on, MultitaskConfig, SharingPolicy};
use column_caching::core::ReplayEngine;
use column_caching::exp::scale::{figure5_jobs, Scale};
use column_caching::exp::ExperimentSpec;
use column_caching::layout::weights::conflict_graph_from_trace;
use column_caching::layout::{assign_columns, LayoutOptions, WeightOptions};
use column_caching::opt::{GeometrySearch, StrategyKind, TuneOutcome, TuneRequest};
use column_caching::sim::backend::{build_backend, BackendKind};
use column_caching::sim::{CacheConfig, LatencyConfig, SystemConfig};
use column_caching::telemetry::Registry;
use column_caching::trace::binfmt::{write_trace, TraceReader};
use column_caching::trace::{SymbolTable, Trace};
use column_caching::Session;
use std::time::Instant;

/// The three search strategies, in reporting order.
pub const STRATEGIES: [(StrategyKind, &str); 3] = [
    (StrategyKind::Evolutionary, "evolutionary"),
    (StrategyKind::HillClimb, "hill-climb"),
    (StrategyKind::Exhaustive, "exhaustive"),
];

/// The `ccache tune` request for `strategy` with the CLI defaults (Figure 4 template,
/// standard geometry search, budget 192 at paper scale and 48 at quick scale).
fn cli_tune_request(strategy: StrategyKind, seed: u64, quick: bool) -> TuneRequest {
    let cache = CacheConfig::builder()
        .capacity_bytes(2048)
        .columns(4)
        .line_size(32)
        .build()
        .expect("the Figure 4 geometry is valid");
    TuneRequest {
        template: SystemConfig {
            cache,
            latency: LatencyConfig::default(),
            page_size: 128,
            tlb_entries: 64,
        },
        geometry: GeometrySearch::standard(),
        strategy,
        budget: if quick { 48 } else { 192 },
        seed,
        serial: false,
        forced: Vec::new(),
        baseline: BackendKind::SetAssociative,
    }
}

/// The stream of `(address, is_write)` pairs a backend consumes.
fn stage(trace: &Trace) -> Vec<(u64, bool)> {
    trace.iter().map(|e| (e.addr, e.is_write())).collect()
}

/// Repetitions so a probe of about `one` seconds runs for at least ~0.1 s in total.
fn reps_for(one: f64) -> usize {
    ((0.1 / one.max(1e-6)).ceil() as usize).clamp(3, 200)
}

/// `trace.*`: binary encode and decode of `trace`; checks the round trip is lossless.
pub fn trace_layer(trace: &Trace, m: &mut Metrics, checks: &mut Checks) -> Vec<u8> {
    let refs = trace.len() as f64;
    let encode =
        || write_trace(trace, Vec::with_capacity(trace.len() * 16)).expect("in-memory write");
    let (first, _) = harness::time_median(1, encode);
    let (enc, bytes) = harness::time_median(reps_for(first), encode);
    let decode = || {
        TraceReader::new(&bytes[..])
            .and_then(|mut r| r.read_to_trace())
            .expect("a trace this program wrote decodes")
    };
    let (first, _) = harness::time_median(1, decode);
    let (dec, decoded) = harness::time_median(reps_for(first), decode);
    let same = decoded.len() == trace.len()
        && decoded
            .iter()
            .zip(trace.iter())
            .all(|(a, b)| (a.addr, a.size, a.is_write()) == (b.addr, b.size, b.is_write()));
    checks.check(same, || {
        "binary trace round trip changed the references".into()
    });
    m.set("trace.encode_refs_per_s", refs / enc, "1/s");
    m.set("trace.decode_refs_per_s", refs / dec, "1/s");
    m.set("trace.bytes_per_ref", bytes.len() as f64 / refs, "B");
    bytes
}

/// `sim.*` and `core.*` replay probes on one trace under `config`; checks that the
/// streamed replay equals the in-memory one.
pub fn replay_layers(
    trace: &Trace,
    encoded: &[u8],
    config: SystemConfig,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let refs = stage(trace);
    let n = refs.len() as f64;
    let mut probe_s = 0.0;
    for kind in BackendKind::ALL {
        let build = || build_backend(kind, config).expect("validated configuration");
        let run = |mut backend: Box<dyn column_caching::sim::backend::MemoryBackend>| {
            let t = Instant::now();
            std::hint::black_box(backend.run_batch(std::hint::black_box(&refs)));
            t.elapsed().as_secs_f64()
        };
        let first = run(build());
        let samples: Vec<f64> = (0..reps_for(first)).map(|_| run(build())).collect();
        let s = harness::median(&samples);
        if kind == BackendKind::ColumnCache {
            probe_s = s;
        }
        m.set(
            format!("sim.probe_refs_per_s.{}", kind.canonical_name()),
            n / s,
            "1/s",
        );
    }

    let new_engine =
        || ReplayEngine::new(BackendKind::ColumnCache, config).map_err(|e| e.to_string());
    let (build_s, _) = harness::time_median(200, new_engine);
    m.set("sim.build_us", build_s * 1e6, "us");
    let mut engine = new_engine()?;
    engine.snapshot();
    let first = engine.replay("probe", trace);
    let (reset_s, _) = harness::time_median(200, || engine.reset());
    m.set("sim.reset_us", reset_s * 1e6, "us");

    let (replay_s, result) = harness::time_median(reps_for(probe_s), || {
        engine.reset();
        engine.replay("probe", trace)
    });
    checks.expect_eq("repeated in-memory replay", &result, &first);
    let stats = *engine.backend().stats();
    m.set("core.replay_refs_per_s", n / replay_s, "1/s");
    m.set("core.staging_share", 1.0 - probe_s / replay_s, "fraction");
    m.set("sim.miss_rate", result.miss_rate(), "fraction");
    m.set(
        "sim.tlb_hit_ratio",
        harness::ratio(
            stats.tlb_hits as f64,
            (stats.tlb_hits + stats.tlb_misses) as f64,
        ),
        "fraction",
    );

    let (stream_s, streamed) = harness::time_median(reps_for(replay_s), || {
        engine.reset();
        let mut reader = TraceReader::new(encoded).map_err(|e| e.to_string())?;
        engine
            .replay_reader("probe", &mut reader)
            .map_err(|e| e.to_string())
    });
    checks.expect_eq(
        "streamed replay equals in-memory replay",
        &streamed?,
        &result,
    );
    m.set("core.stream_refs_per_s", n / stream_s, "1/s");
    Ok(())
}

/// `core.multitask_s`: one Figure 5 point (16 KiB mapped column cache, quantum 1024)
/// through `run_multitasking_on`, at the given scale.
pub fn multitask_layer(scale: Scale, m: &mut Metrics) -> Result<(), String> {
    let jobs = figure5_jobs(scale);
    let config = MultitaskConfig::cache_16k();
    let point = || {
        run_multitasking_on(
            BackendKind::ColumnCache,
            &jobs,
            1024,
            &config,
            SharingPolicy::Mapped,
        )
    };
    let (first, run) = harness::time_median(1, point);
    run.map_err(|e| e.to_string())?;
    let (s, _) = harness::time_median(reps_for(first).min(5), point);
    m.set("core.multitask_s", s, "s");
    Ok(())
}

/// `workloads.gen_s`: the workload's own input generation.
pub fn gen_layer<T>(m: &mut Metrics, generate: impl FnMut() -> T) {
    let (s, _) = harness::time_median(3, generate);
    m.set("workloads.gen_s", s, "s");
}

/// `layout.assign_s`: the paper's layout (conflict graph + column assignment) under
/// the session's geometry.
pub fn layout_layer(
    trace: &Trace,
    symbols: &SymbolTable,
    session: &Session,
    m: &mut Metrics,
) -> Result<(), String> {
    let geometry = session.geometry();
    let column_bytes = geometry.capacity / geometry.columns.max(1) as u64;
    let weights = WeightOptions {
        column_bytes,
        split_large_variables: true,
        min_accesses: 1,
    };
    let assign = || {
        let (graph, _) = conflict_graph_from_trace(trace, symbols, &weights);
        assign_columns(&graph, &LayoutOptions::new(geometry.columns, column_bytes))
    };
    let (first, layout) = harness::time_median(1, assign);
    layout.map_err(|e| e.to_string())?;
    let (s, _) = harness::time_median(reps_for(first).min(20), assign);
    m.set("layout.assign_s", s, "s");
    Ok(())
}

/// Seconds and CPU seconds of each strategy's `Session::tune`, with the registry the
/// session reported into.
pub struct TuneRun {
    pub seconds: Vec<f64>,
    pub cpu_seconds: f64,
    pub outcomes: Vec<TuneOutcome>,
}

/// Runs `Session::tune` once per strategy on `trace`, each call in an `opt.tune` span.
pub fn tune_all(
    session: &Session,
    trace: &Trace,
    symbols: &SymbolTable,
    seed: u64,
    quick: bool,
    tr: &mut Tracer,
) -> Result<TuneRun, String> {
    let cpu0 = harness::cpu_time();
    let mut run = TuneRun {
        seconds: Vec::new(),
        cpu_seconds: 0.0,
        outcomes: Vec::new(),
    };
    for (kind, _) in STRATEGIES {
        let request = cli_tune_request(kind, seed, quick);
        let t = Instant::now();
        let outcome = tr.span("opt.tune", |_| session.tune(trace, symbols, &request));
        run.seconds.push(t.elapsed().as_secs_f64());
        run.outcomes.push(outcome.map_err(|e| e.to_string())?);
    }
    run.cpu_seconds = harness::cpu_time().saturating_sub(cpu0).as_secs_f64();
    Ok(run)
}

/// `opt.*` rows from one tune run and the counters its session recorded.
pub fn tune_metrics(
    run: &TuneRun,
    counters: &std::collections::BTreeMap<String, u64>,
    m: &mut Metrics,
) {
    for ((_, name), s) in STRATEGIES.iter().zip(&run.seconds) {
        m.set(format!("opt.tune_s.{name}"), *s, "s");
    }
    let total: f64 = run.seconds.iter().sum();
    let replays: usize = run.outcomes.iter().map(|o| o.replays).sum();
    m.set(
        "opt.eval_us",
        harness::ratio(total, replays as f64) * 1e6,
        "us",
    );
    let g = |name| harness::get(counters, name);
    m.set(
        "opt.fitness_cache.hit_ratio",
        harness::ratio(
            g("opt.fitness_cache.hits"),
            g("opt.fitness_cache.hits") + g("opt.fitness_cache.misses"),
        ),
        "fraction",
    );
    m.set(
        "opt.engine_pool.hit_ratio",
        harness::ratio(
            g("opt.engine_pool.hits"),
            g("opt.engine_pool.hits") + g("opt.engine_pool.builds"),
        ),
        "fraction",
    );
    m.set(
        "opt.warmup.reuse_ratio",
        harness::ratio(
            g("opt.warmup.reused"),
            g("opt.warmup.reused") + g("opt.warmup.full"),
        ),
        "fraction",
    );
    m.set("opt.cpu_util", run.cpu_seconds / total, "ratio");
}

/// `opt.*` probe: tunes `trace` with every strategy under a private registry.
pub fn tune_layer(
    trace: &Trace,
    symbols: &SymbolTable,
    seed: u64,
    quick: bool,
    m: &mut Metrics,
) -> Result<(), String> {
    let registry = Registry::new();
    let session = Session::builder()
        .quick(quick)
        .telemetry(registry.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let mut off = Tracer::new(false, 0, Instant::now());
    let run = tune_all(&session, trace, symbols, seed, quick, &mut off)?;
    tune_metrics(&run, &harness::counters(&registry), m);
    Ok(())
}

/// `exp.*` probe: plan `spec`, run the plan through `Session::run_plan` and serialize
/// the artefact, one step at a time. Returns the rendered artefact.
pub fn exp_layer(spec: &ExperimentSpec, quick: bool, m: &mut Metrics) -> Result<String, String> {
    let registry = Registry::new();
    let session = Session::builder()
        .quick(quick)
        .telemetry(registry.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let (plan_s, plan) = harness::time_median(50, || column_caching::exp::plan(spec));
    let t = Instant::now();
    let artefact = session.run_plan(spec, plan).map_err(|e| e.to_string())?;
    let execute_s = t.elapsed().as_secs_f64();
    let (ser_s, text) = harness::time_median(10, || artefact.to_json().pretty());
    let reuses = registry.counter_value("exp.snapshot.reuses") as f64;
    let groups = registry.counter_value("exp.groups") as f64;
    m.set("exp.plan_us", plan_s * 1e6, "us");
    m.set("exp.execute_s", execute_s, "s");
    m.set("exp.serialize_us", ser_s * 1e6, "us");
    m.set("exp.artefact_bytes", text.len() as f64, "B");
    m.set(
        "exp.snapshot_reuse_ratio",
        harness::ratio(reuses, reuses + groups),
        "fraction",
    );
    Ok(text)
}

/// `json.*`: mean parse and compact-render time per frame over `frames`.
pub fn json_layer(frames: &[String], m: &mut Metrics) -> Result<(), String> {
    if frames.is_empty() {
        return Err("no frames to parse".into());
    }
    let docs: Vec<Json> = frames
        .iter()
        .map(|f| Json::parse(f).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let per = frames.len() as f64;
    let reps = (2000 / frames.len()).clamp(3, 200);
    let (parse_s, _) = harness::time_median(reps, || {
        for f in frames {
            std::hint::black_box(Json::parse(f).ok());
        }
    });
    let (render_s, _) = harness::time_median(reps, || {
        for d in &docs {
            std::hint::black_box(d.compact());
        }
    });
    m.set("json.parse_us", parse_s / per * 1e6, "us");
    m.set("json.render_us", render_s / per * 1e6, "us");
    Ok(())
}
