//! `benchv3`: end-to-end and per-layer benchmark of the column-caching workspace.
//!
//! ```text
//! benchv3 --workload <experiments|tune|trace-replay|serve-mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every workload drives the same public entry points the `ccache` CLI and server use
//! (`column_caching::Session`, `ccache_serve::spawn_test_server`) and times them from
//! outside. `--trace 0` measures the end-to-end metrics with no span bookkeeping;
//! `--trace 1` is a separate run that wraps each public call in a span and adds the
//! per-layer probes. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! See `benchv3/README.md` for the metric catalogue.

mod expect;
mod experiments;
mod harness;
mod probes;
mod replay;
mod serve;
mod tune;

use column_caching::telemetry::Registry;
use harness::{Checks, CountingAlloc, Metrics, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The end-to-end metrics every `--trace 0` run prints.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// The per-layer metrics every `--trace 1` run prints.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("peak_rss_mb", "MiB"),
    ("host.parallel", "flag"),
    ("error_rate", "fraction"),
    ("trace_overhead", "ratio"),
    ("cpu_util", "ratio"),
    ("alloc.bytes", "B"),
    ("alloc.count", "count"),
    ("latency.samples", "count"),
    ("self_share.opt", "fraction"),
    ("self_share.exp", "fraction"),
    ("self_share.json", "fraction"),
    ("self_share.serve", "fraction"),
    ("workloads.gen_s", "s"),
    ("trace.encode_refs_per_s", "1/s"),
    ("trace.decode_refs_per_s", "1/s"),
    ("trace.bytes_per_ref", "B"),
    ("sim.probe_refs_per_s.column-cache", "1/s"),
    ("sim.probe_refs_per_s.set-assoc", "1/s"),
    ("sim.probe_refs_per_s.ideal-scratchpad", "1/s"),
    ("sim.build_us", "us"),
    ("sim.reset_us", "us"),
    ("sim.miss_rate", "fraction"),
    ("sim.tlb_hit_ratio", "fraction"),
    ("core.replay_refs_per_s", "1/s"),
    ("core.stream_refs_per_s", "1/s"),
    ("core.staging_share", "fraction"),
    ("core.multitask_s", "s"),
    ("core.references", "count"),
    ("core.replays", "count"),
    ("core.batches", "count"),
    ("core.memo.translation_hit_ratio", "fraction"),
    ("core.memo.tint_hit_ratio", "fraction"),
    ("layout.assign_s", "s"),
    ("opt.tune_s.evolutionary", "s"),
    ("opt.tune_s.hill-climb", "s"),
    ("opt.tune_s.exhaustive", "s"),
    ("opt.eval_us", "us"),
    ("opt.fitness_cache.hit_ratio", "fraction"),
    ("opt.engine_pool.hit_ratio", "fraction"),
    ("opt.warmup.reuse_ratio", "fraction"),
    ("opt.cpu_util", "ratio"),
    ("exp.plan_us", "us"),
    ("exp.execute_s", "s"),
    ("exp.serialize_us", "us"),
    ("exp.artefact_bytes", "B"),
    ("exp.snapshot_reuse_ratio", "fraction"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("serve.respond_us.hit", "us"),
    ("serve.spec_key_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.miss_overhead_ms", "ms"),
    ("serve.store.hit_ratio", "fraction"),
    ("telemetry.uncounted_refs", "count"),
    ("telemetry.uncounted_replays", "count"),
    ("telemetry.global_refs", "count"),
    ("telemetry.serve_verb_gap", "count"),
];

/// Span layers whose self-time share the traced run reports.
const LAYERS: [&str; 4] = ["exp", "opt", "serve", "json"];

/// What every workload gets from the command line.
pub struct Ctx {
    /// The workload seed: every input the workload builds derives from it.
    pub seed: u64,
    /// Scratch directory for generated files (inside the checkout).
    pub out_dir: PathBuf,
    /// The repository root (the benchmark's parent directory).
    pub root: PathBuf,
}

/// Per-operation latencies of one pass.
#[derive(Default)]
pub struct PassLog {
    pub latencies_ms: Vec<f64>,
}

impl PassLog {
    /// Times one operation.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out
    }
}

/// Counter deltas of one pass: the workload's private registries and the global one.
pub struct PassCounters {
    pub private: BTreeMap<String, u64>,
    pub global: BTreeMap<String, u64>,
}

/// One benchmark workload. Only `setup` and `pass` are timed; everything else runs
/// outside the timed regions.
pub trait Workload: Sized {
    /// Extra timed set-ups after every measured pass (their instances are dropped);
    /// `setup_s` is the median of all set-up samples. Spreading them over the run
    /// keeps cold-start effects out of a set-up of a millisecond or less.
    const SETUP_REPS: usize;

    /// Builds the workload's inputs from the seed.
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// Untimed preparation before each pass; returns an extra `setup_s` sample (in
    /// seconds) when the pass needs fresh state.
    fn begin_pass(&mut self) -> Result<Option<f64>, String> {
        Ok(None)
    }

    /// One timed pass of the workload body.
    fn pass(&mut self, tr: &mut Tracer, log: &mut PassLog) -> Result<(), String>;

    /// Untimed checks of the pass just run.
    fn end_pass(&mut self, checks: &mut Checks);

    /// Once per run, untimed: checks against recorded digests and oracles.
    fn verify(&mut self, checks: &mut Checks);

    /// The telemetry registry the workload's sessions report into.
    fn registry(&self) -> Registry;

    /// Work-accounting rows for the last pass (`core.*`, `opt.*` counters and the
    /// `telemetry.*` reconciliation rows).
    fn reconcile(&self, counters: &PassCounters, m: &mut Metrics);

    /// Per-layer probes: public calls timed one layer at a time on this workload's
    /// inputs.
    fn probes(&mut self, m: &mut Metrics, checks: &mut Checks) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag '{flag}' needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchv3: {e}");
            eprintln!(
                "usage: benchv3 --workload <experiments|tune|trace-replay|serve-mix> \
                 --seed N --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf();
    let out_dir = root.join(".bench_out").join("benchv3");
    if let Err(e) = std::fs::create_dir_all(out_dir.join("tmp")) {
        eprintln!("benchv3: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    // The server stores uploaded traces under the temp directory; keep them inside the
    // checkout. Set before any thread starts.
    std::env::set_var("TMPDIR", out_dir.join("tmp"));
    let ctx = Ctx {
        seed: args.seed,
        out_dir,
        root,
    };
    let outcome = match args.workload.as_str() {
        "experiments" => run::<experiments::Experiments>(&ctx, &args),
        "tune" => run::<tune::Tune>(&ctx, &args),
        "trace-replay" => run::<replay::TraceReplay>(&ctx, &args),
        "serve-mix" => run::<serve::ServeMix>(&ctx, &args),
        other => Err(format!(
            "unknown workload '{other}' (expected experiments, tune, trace-replay or serve-mix)"
        )),
    };
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchv3: {e}");
            std::process::exit(1);
        }
    }
}

fn run<W: Workload>(ctx: &Ctx, args: &Args) -> Result<String, String> {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    if args.trace {
        traced::<W>(ctx, args, &mut checks, &mut metrics)?;
        for (name, unit) in PER_LAYER {
            if *name != "error_rate" && !metrics.has(name) {
                checks.fail(format!("per-layer metric '{name}' was not measured"));
                metrics.set(*name, 0.0, unit);
            }
        }
        metrics.set(
            "error_rate",
            harness::ratio(checks.failed as f64, checks.attempted as f64),
            "fraction",
        );
        metrics.retain(|name| PER_LAYER.iter().any(|(n, _)| *n == name));
    } else {
        untraced::<W>(ctx, args, &mut checks, &mut metrics)?;
        metrics.retain(|name| END_TO_END.iter().any(|(n, _)| *n == name));
    }
    Ok(ccache_json::Json::obj([
        ("correct", ccache_json::Json::Bool(checks.failed == 0)),
        (
            "attempted",
            ccache_json::Json::UInt(checks.attempted.max(1)),
        ),
        ("failed", ccache_json::Json::UInt(checks.failed)),
        ("metrics", metrics.to_json()),
    ])
    .compact())
}

/// Builds the workload once; returns it with its set-up time in seconds.
fn setup<W: Workload>(ctx: &Ctx) -> Result<(W, f64), String> {
    let t = Instant::now();
    let w = W::setup(ctx)?;
    Ok((w, t.elapsed().as_secs_f64()))
}

/// One pass with its untimed prologue and epilogue; returns the pass wall time in
/// seconds and the heap peak of the pass alone in MiB (set-up and checks excluded).
fn one_pass<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    log: &mut PassLog,
    checks: &mut Checks,
    setup_samples: &mut Vec<f64>,
) -> Result<(f64, f64), String> {
    if let Some(sample) = w.begin_pass()? {
        setup_samples.push(sample);
    }
    harness::reset_peak_heap();
    let t = Instant::now();
    let outcome = w.pass(tr, log);
    let wall = t.elapsed().as_secs_f64();
    let peak = harness::peak_heap_mb();
    match outcome {
        Ok(()) => {
            checks.attempted += log.latencies_ms.len() as u64;
            w.end_pass(checks);
            Ok((wall, peak))
        }
        Err(e) => {
            checks.fail(format!("pass failed: {e}"));
            Err(e)
        }
    }
}

fn untraced<W: Workload>(
    ctx: &Ctx,
    args: &Args,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    let (mut w, first_setup) = setup::<W>(ctx)?;
    let mut setup_samples = vec![first_setup];
    let origin = Instant::now();
    let mut off = Tracer::new(false, 0, origin);
    // Warm-up: lazy state and allocator growth settle before timing.
    one_pass(
        &mut w,
        &mut off,
        &mut PassLog::default(),
        checks,
        &mut setup_samples,
    )?;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    // Per-pass statistics, reported as medians over the passes.
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let (mut ops, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    while walls.len() < 3 || start.elapsed() < budget {
        let mut log = PassLog::default();
        let (wall, peak) = one_pass(&mut w, &mut off, &mut log, checks, &mut setup_samples)?;
        walls.push(wall);
        peaks.push(peak);
        ops.push(log.latencies_ms.len() as f64);
        p50.push(harness::median(&log.latencies_ms));
        p99.push(harness::quantile(&log.latencies_ms, 0.99));
        for _ in 0..W::SETUP_REPS {
            setup_samples.push(setup::<W>(ctx)?.1);
        }
    }
    w.verify(checks);
    let wall = harness::median(&walls);
    m.set("setup_s", harness::median(&setup_samples), "s");
    m.set("wall_s", wall, "s");
    m.set("peak_heap_mb", harness::median(&peaks), "MiB");
    m.set("ops_per_s", harness::median(&ops) / wall, "1/s");
    m.set("latency_p50_ms", harness::median(&p50), "ms");
    m.set("latency_p99_ms", harness::median(&p99), "ms");
    eprintln!(
        "benchv3: {} passes of {} operations (latency samples per pass), {} setups",
        walls.len(),
        harness::median(&ops),
        setup_samples.len()
    );
    Ok(())
}

fn traced<W: Workload>(
    ctx: &Ctx,
    args: &Args,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    let (mut w, first_setup) = setup::<W>(ctx)?;
    let mut setup_samples = vec![first_setup];
    let origin = Instant::now();
    let mut off = Tracer::new(false, 0, origin);
    one_pass(
        &mut w,
        &mut off,
        &mut PassLog::default(),
        checks,
        &mut setup_samples,
    )?;

    // Work accounting over one untraced pass (counters read before `end_pass`, which
    // may replace the workload's state).
    w.begin_pass()?;
    let registry = w.registry();
    let (p0, g0) = (
        harness::counters(&registry),
        harness::counters(&Registry::global()),
    );
    let (b0, c0) = harness::alloc_totals();
    let mut log = PassLog::default();
    if let Err(e) = w.pass(&mut off, &mut log) {
        checks.fail(format!("pass failed: {e}"));
        return Err(e);
    }
    let (b1, c1) = harness::alloc_totals();
    let counters = PassCounters {
        private: harness::delta(&p0, &harness::counters(&registry)),
        global: harness::delta(&g0, &harness::counters(&Registry::global())),
    };
    checks.attempted += log.latencies_ms.len() as u64;
    w.end_pass(checks);
    w.reconcile(&counters, m);
    m.set("alloc.bytes", (b1 - b0) as f64, "B");
    m.set("alloc.count", (c1 - c0) as f64, "count");

    // Alternate untraced and traced passes over half the budget.
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let start = Instant::now();
    let mut spans = Tracer::new(true, 0, origin);
    let (mut plain, mut traced_walls, mut samples) = (Vec::new(), Vec::new(), 0);
    let (mut cpu, mut wall) = (Duration::ZERO, 0.0);
    while traced_walls.len() < 2 || start.elapsed() < budget {
        let mut log = PassLog::default();
        let cpu0 = harness::cpu_time();
        let (t, _) = one_pass(&mut w, &mut off, &mut log, checks, &mut setup_samples)?;
        cpu += harness::cpu_time().saturating_sub(cpu0);
        wall += t;
        plain.push(t);
        samples += log.latencies_ms.len();
        let mut tr = Tracer::new(true, 0, origin);
        let (t, _) = one_pass(
            &mut w,
            &mut tr,
            &mut PassLog::default(),
            checks,
            &mut setup_samples,
        )?;
        traced_walls.push(t);
        spans.absorb(tr);
    }
    m.set(
        "trace_overhead",
        harness::median(&traced_walls) / harness::median(&plain),
        "ratio",
    );
    m.set("cpu_util", cpu.as_secs_f64() / wall, "ratio");
    m.set("latency.samples", samples as f64, "count");
    m.set("peak_rss_mb", harness::peak_rss_mb(), "MiB");
    let (layers, roots) = spans.self_time_by_layer();
    for layer in LAYERS {
        let own = layers.get(layer).copied().unwrap_or(0.0);
        m.set(
            format!("self_share.{layer}"),
            harness::ratio(own, roots),
            "fraction",
        );
    }
    for layer in layers.keys() {
        if !LAYERS.contains(layer) {
            checks.fail(format!("span layer '{layer}' is not in the layer list"));
        }
    }

    m.set("host.nproc", harness::nproc() as f64, "count");
    // The path dependencies are built with their default features, which enable the
    // library's thread-parallel sweeps.
    m.set("host.parallel", 1.0, "flag");
    if let Err(e) = w.probes(m, checks) {
        checks.fail(format!("probes failed: {e}"));
    }
    w.verify(checks);

    let path = ctx
        .out_dir
        .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, spans.to_json().pretty()) {
        checks.fail(format!("cannot write {}: {e}", path.display()));
    }
    Ok(())
}
