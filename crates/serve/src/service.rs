//! The protocol engine: parse one request frame, do the work, emit reply frames.
//!
//! [`Service`] is deliberately socket-free — [`Service::respond`] maps one raw frame to
//! zero or more reply documents through a caller-provided sink, and the TCP layer in
//! [`server`](crate::server) only moves bytes. The protocol tests drive `respond`
//! through real loopback connections *and* assert on the service's counters directly.
//!
//! Compute commands (`replay`, `tune`, `run`) all compile to an
//! [`ExperimentSpec`] and share one path: claim the canonical key in the
//! [`ResultStore`], enqueue on the bounded [`JobQueue`] if owning, block until the
//! outcome is published, reply with the memoized artefact. `subscribe` is the one
//! command that bypasses the queue: it replays on the connection's own thread so it can
//! stream observer windows live.

use crate::queue::{JobQueue, SubmitError};
use crate::store::{Claim, ResultStore, StoreCounters, StoredError, StoredResult};
use crate::ServeConfig;
use ccache_core::observe::{ReplayEvent, ReplayObserver, WindowSample};
use ccache_exp::{ExpError, ExperimentSpec, WorkloadSel};
use ccache_json::{Json, ToJson};
use ccache_opt::{GenerationPoint, StrategyKind, TuneProgress, TuneRequest};
use ccache_telemetry::{bucket_of, Counter, Gauge, Registry};
use ccache_workloads::WorkloadRun;
use column_caching::Session;
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The structured error codes a reply's `error.code` field can carry.
pub mod code {
    /// The frame was not valid UTF-8, not valid JSON, or not a JSON object. The
    /// connection survives.
    pub const BAD_FRAME: &str = "bad_frame";
    /// The frame exceeded `max_frame_bytes`; the connection closes after the reply.
    pub const OVERSIZED_FRAME: &str = "oversized_frame";
    /// The request was well-formed JSON but semantically invalid (unknown command,
    /// unknown workload, malformed spec, …). The connection survives.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The job queue is full; the request was shed without computing. Retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining and accepts no new jobs.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The job executed and failed; the failure is memoized like a result.
    pub const JOB_FAILED: &str = "job_failed";
    /// A worker panicked or an internal invariant broke.
    pub const INTERNAL: &str = "internal";
}

/// Per-tenant request counters, exposed under `status.tenants`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Frames attributed to the tenant (valid JSON objects, any command).
    pub requests: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Compute requests served from the result store.
    pub cache_hits: u64,
    /// Compute requests that started a computation.
    pub cache_misses: u64,
}

impl ToJson for TenantCounters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", self.requests.to_json()),
            ("errors", self.errors.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
        ])
    }
}

/// A queued unit of work.
pub(crate) struct Job {
    key: String,
    task: Task,
}

enum Task {
    /// Run an experiment spec through a session (the normal case).
    Spec {
        session: Box<Session>,
        spec: Box<ExperimentSpec>,
    },
    /// Occupy a worker for a fixed time (`debug_sleep`, lifecycle tests only).
    DebugSleep(Duration),
}

#[derive(Debug)]
struct Upload {
    path: PathBuf,
    events: u64,
}

/// A successful dispatch: the `result` document, and whether to close afterwards.
struct Reply {
    result: Json,
    close: bool,
}

impl Reply {
    fn keep(result: Json) -> Self {
        Reply {
            result,
            close: false,
        }
    }
}

/// A refused request: code + message for the error frame. Refusals never close the
/// connection — every recoverable error leaves the client free to try again.
struct Refusal {
    code: &'static str,
    message: String,
}

impl Refusal {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        Refusal {
            code,
            message: message.into(),
        }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        Refusal::new(code::BAD_REQUEST, message)
    }
}

/// Builds a success frame: `{"id":…,"ok":true,"result":…}`.
pub fn ok_frame(id: &Json, result: Json) -> Json {
    Json::obj([
        ("id", id.clone()),
        ("ok", true.to_json()),
        ("result", result),
    ])
}

/// Builds an error frame: `{"id":…,"ok":false,"error":{"code":…,"message":…}}`.
pub fn error_frame(id: &Json, code: &str, message: &str) -> Json {
    Json::obj([
        ("id", id.clone()),
        ("ok", false.to_json()),
        (
            "error",
            Json::obj([("code", code.to_json()), ("message", message.to_json())]),
        ),
    ])
}

static UPLOAD_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Pre-resolved handles for the service's own registry cells (the hot-path ones;
/// per-tenant and per-verb counters are resolved by name on demand).
struct ServeTelemetry {
    /// `serve.queue.depth` — jobs queued, not yet running.
    queue_depth: Gauge,
    /// `serve.workers.busy` — workers currently executing a job.
    workers_busy: Gauge,
    /// `serve.store.claims` — result-store claims attempted (hit or owner).
    store_claims: Counter,
    /// `serve.store.publishes` — outcomes published by workers.
    store_publishes: Counter,
    /// `serve.store.abandons` — claims released without publishing (shed/closed).
    store_abandons: Counter,
    /// `serve.jobs.executed` — jobs a worker finished successfully.
    jobs_executed: Counter,
    /// `serve.jobs.failed` — jobs that failed or panicked.
    jobs_failed: Counter,
    /// `serve.jobs.shed` — requests shed with `overloaded`.
    jobs_shed: Counter,
}

impl ServeTelemetry {
    fn bind(registry: &Registry) -> Self {
        ServeTelemetry {
            queue_depth: registry.gauge("serve.queue.depth"),
            workers_busy: registry.gauge("serve.workers.busy"),
            store_claims: registry.counter("serve.store.claims"),
            store_publishes: registry.counter("serve.store.publishes"),
            store_abandons: registry.counter("serve.store.abandons"),
            jobs_executed: registry.counter("serve.jobs.executed"),
            jobs_failed: registry.counter("serve.jobs.failed"),
            jobs_shed: registry.counter("serve.jobs.shed"),
        }
    }
}

/// The serve engine: the bounded queue, the content-addressed result store, uploaded
/// traces, the telemetry registry, and the shutdown latch. One `Service` is shared by
/// every connection thread and every worker of a server.
pub struct Service {
    config: ServeConfig,
    store: ResultStore,
    queue: JobQueue<Job>,
    uploads: Mutex<BTreeMap<String, Upload>>,
    telemetry: Registry,
    metrics: ServeTelemetry,
    started: Instant,
    log: Mutex<Option<Box<dyn Write + Send>>>,
    shutting_down: AtomicBool,
    shutdown_latch: Mutex<bool>,
    shutdown_signal: Condvar,
    upload_dir: PathBuf,
    debug_seq: AtomicU64,
}

impl Service {
    /// Creates the engine for `config`. The TCP layer ([`crate::serve`]) does this for
    /// you; constructing a bare `Service` is useful for socket-free protocol tests.
    pub fn new(config: ServeConfig) -> Self {
        let upload_dir = std::env::temp_dir().join(format!(
            "ccache-serve-{}-{}",
            std::process::id(),
            UPLOAD_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // Each service gets a private registry: worker sessions report into it, so the
        // `metrics` verb sees engine/opt/exp numbers for this server only.
        let telemetry = Registry::new();
        let metrics = ServeTelemetry::bind(&telemetry);
        let log: Option<Box<dyn Write + Send>> = if config.log_ndjson {
            Some(Box::new(std::io::stderr()))
        } else {
            None
        };
        Service {
            queue: JobQueue::new(config.queue_depth),
            config,
            store: ResultStore::new(),
            uploads: Mutex::new(BTreeMap::new()),
            telemetry,
            metrics,
            started: Instant::now(),
            log: Mutex::new(log),
            shutting_down: AtomicBool::new(false),
            shutdown_latch: Mutex::new(false),
            shutdown_signal: Condvar::new(),
            upload_dir,
            debug_seq: AtomicU64::new(0),
        }
    }

    /// The configuration the service runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The service's telemetry registry: every worker session, engine and tuner of
    /// this server reports into it, and the `metrics` verb snapshots it.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Redirects (or disables) the NDJSON request log, regardless of
    /// [`ServeConfig::log_ndjson`]. Tests use this to capture the stream.
    pub fn set_log_writer(&self, writer: Option<Box<dyn Write + Send>>) {
        *self.log.lock().unwrap() = writer;
    }

    /// Milliseconds since the service was constructed (the `status` verb's
    /// `uptime_ms`).
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Result-store counters (hits, misses, entries) — the dedup evidence the
    /// concurrency tests assert on.
    pub fn cache_counters(&self) -> StoreCounters {
        self.store.counters()
    }

    /// Whether [`Service::begin_shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Starts a graceful shutdown: new jobs are refused with `shutting_down`, queued
    /// jobs still drain, and [`Service::wait_shutdown`] unblocks.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.queue.close();
        *self.shutdown_latch.lock().unwrap() = true;
        self.shutdown_signal.notify_all();
    }

    /// Blocks until a shutdown begins (from any connection's `shutdown` command or
    /// from [`Service::begin_shutdown`]).
    pub fn wait_shutdown(&self) {
        let mut latch = self.shutdown_latch.lock().unwrap();
        while !*latch {
            latch = self.shutdown_signal.wait(latch).unwrap();
        }
    }

    /// Removes the upload directory (called once the worker pool has drained).
    pub(crate) fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.upload_dir);
    }

    /// The worker-pool body: pop, execute, publish — until close-and-drain. Worker
    /// panics are caught and published as memoized `internal` failures, so a poisoned
    /// job can never wedge its waiters or kill the pool.
    pub fn worker_loop(&self) {
        while let Some(job) = self.queue.pop() {
            self.metrics.queue_depth.set(self.queue.len() as u64);
            self.metrics.workers_busy.add(1);
            let outcome = match job.task {
                Task::DebugSleep(pause) => {
                    std::thread::sleep(pause);
                    self.metrics.jobs_executed.incr();
                    Ok(Arc::new(StoredResult::new(Json::obj([(
                        "slept_ms",
                        (pause.as_millis() as u64).to_json(),
                    )]))))
                }
                Task::Spec { session, spec } => {
                    match std::panic::catch_unwind(AssertUnwindSafe(|| session.run_spec(&spec))) {
                        Ok(Ok(artefact)) => {
                            self.metrics.jobs_executed.incr();
                            Ok(Arc::new(StoredResult::new(artefact.to_json())))
                        }
                        Ok(Err(e)) => {
                            self.metrics.jobs_failed.incr();
                            Err(Arc::new(StoredError {
                                code: code::JOB_FAILED,
                                message: e.to_string(),
                            }))
                        }
                        Err(_) => {
                            self.metrics.jobs_failed.incr();
                            Err(Arc::new(StoredError {
                                code: code::INTERNAL,
                                message: "the job panicked".to_owned(),
                            }))
                        }
                    }
                }
            };
            // Counted before the publish wakes waiters, so a `metrics` request sent
            // right after a job's reply already sees its publish.
            self.metrics.store_publishes.incr();
            self.store.publish(&job.key, outcome);
            self.metrics.workers_busy.sub(1);
        }
    }

    /// Handles one raw frame: parses it, runs the command, and emits every reply frame
    /// through `emit`. Returns `false` when the connection should close (a `shutdown`
    /// reply); every error — malformed frames included — is a structured reply that
    /// keeps the connection open.
    pub fn respond(&self, raw: &[u8], emit: &mut (dyn FnMut(&Json) + Send)) -> bool {
        let start = Instant::now();
        // Telemetry and the request log are recorded *before* the reply is emitted:
        // the moment a client sees a reply, every record for that request exists (the
        // determinism suite snapshots registries right after its final reply).
        let Ok(text) = std::str::from_utf8(raw) else {
            self.finish_request("anonymous", "invalid", code::BAD_FRAME, start);
            emit(&error_frame(
                &Json::Null,
                code::BAD_FRAME,
                "frame is not valid UTF-8",
            ));
            return true;
        };
        if text.trim().is_empty() {
            return true; // blank keep-alive line
        }
        let doc = match Json::parse(text) {
            Ok(doc) => doc,
            Err(e) => {
                self.finish_request("anonymous", "invalid", code::BAD_FRAME, start);
                emit(&error_frame(
                    &Json::Null,
                    code::BAD_FRAME,
                    &format!("frame is not valid JSON: {e}"),
                ));
                return true;
            }
        };
        if doc.as_obj().is_none() {
            self.finish_request("anonymous", "invalid", code::BAD_FRAME, start);
            emit(&error_frame(
                &Json::Null,
                code::BAD_FRAME,
                "a request frame must be a JSON object",
            ));
            return true;
        }
        let id = doc.get("id").cloned().unwrap_or(Json::Null);
        let tenant = doc
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("anonymous")
            .to_owned();
        let verb = known_verb(doc.get("cmd").and_then(Json::as_str));
        self.telemetry.counter(&format!("serve.verb.{verb}")).incr();
        self.tenant_incr(&tenant, "requests");
        match self.dispatch(&doc, &id, &tenant, emit) {
            Ok(reply) => {
                self.finish_request(&tenant, verb, "ok", start);
                emit(&ok_frame(&id, reply.result));
                !reply.close
            }
            Err(refusal) => {
                self.tenant_incr(&tenant, "errors");
                self.finish_request(&tenant, verb, refusal.code, start);
                emit(&error_frame(&id, refusal.code, &refusal.message));
                true
            }
        }
    }

    /// Per-request epilogue: the latency histogram and (when enabled) one NDJSON log
    /// record. The duration only ever feeds quarantined timing cells and the log
    /// stream — never a deterministic counter.
    fn finish_request(&self, tenant: &str, verb: &str, outcome: &str, start: Instant) {
        let micros = start.elapsed().as_micros() as u64;
        self.telemetry
            .histogram(&format!("serve.request.{verb}"))
            .record(micros);
        let mut log = self.log.lock().unwrap();
        if let Some(writer) = log.as_mut() {
            let record = Json::obj([
                ("tenant", tenant.to_json()),
                ("cmd", verb.to_json()),
                ("outcome", outcome.to_json()),
                ("duration_us", micros.to_json()),
                ("duration_log2_us", (bucket_of(micros) as u64).to_json()),
            ])
            .compact();
            let _ = writeln!(writer, "{record}");
        }
    }

    fn dispatch(
        &self,
        doc: &Json,
        id: &Json,
        tenant: &str,
        emit: &mut (dyn FnMut(&Json) + Send),
    ) -> Result<Reply, Refusal> {
        let cmd = doc
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| Refusal::bad_request("the request needs a string 'cmd'"))?;
        match cmd {
            "status" => Ok(Reply::keep(self.status_doc())),
            "metrics" => Ok(Reply::keep(self.telemetry.snapshot())),
            "upload" => self.cmd_upload(doc),
            "run" => self.cmd_run(doc, tenant),
            "replay" => self.cmd_grid(doc, tenant, None),
            "tune" => {
                let tuned: Vec<(String, Json)> = ["strategy", "budget", "seed"]
                    .iter()
                    .filter_map(|k| doc.get(k).map(|v| (k.to_string(), v.clone())))
                    .collect();
                let policy = Json::obj([("tuned", Json::Obj(tuned))]);
                self.cmd_grid(doc, tenant, Some(policy))
            }
            "subscribe" => self.cmd_subscribe(doc, id, emit),
            "shutdown" => {
                let draining = self.queue.len();
                self.begin_shutdown();
                Ok(Reply {
                    result: Json::obj([("draining", draining.to_json())]),
                    close: true,
                })
            }
            "debug_sleep" if self.config.debug_commands => self.cmd_debug_sleep(doc, tenant),
            other => Err(Refusal::bad_request(format!(
                "unknown cmd '{other}' (expected replay, run, tune, upload, subscribe, \
                 status, metrics or shutdown)"
            ))),
        }
    }

    // ------------------------------------------------------------------ commands

    /// `replay` and `tune`: synthesize a one-grid spec document from the request's
    /// fields and feed it through the same validated [`ExperimentSpec::from_json`]
    /// path inline `run` specs use, then through the shared memoized compute path.
    fn cmd_grid(&self, doc: &Json, tenant: &str, policy: Option<Json>) -> Result<Reply, Refusal> {
        let workload = match (doc.get("workload"), doc.get("trace")) {
            (Some(w), None) => w.clone(),
            (None, Some(t)) => Json::obj([("trace", t.clone())]),
            _ => {
                return Err(Refusal::bad_request(
                    "the request needs exactly one of 'workload' (a corpus name) or \
                     'trace' (an uploaded name or a binary trace file)",
                ))
            }
        };
        let mut grid: Vec<(String, Json)> =
            vec![("workloads".to_owned(), Json::Arr(vec![workload]))];
        if let Some(backend) = doc.get("backend") {
            grid.push(("backends".to_owned(), Json::Arr(vec![backend.clone()])));
        }
        if let Some(geometry) = doc.get("geometry") {
            grid.push(("geometries".to_owned(), Json::Arr(vec![geometry.clone()])));
        }
        match (policy, doc.get("policy")) {
            (Some(tuned), _) => grid.push(("policies".to_owned(), Json::Arr(vec![tuned]))),
            (None, Some(p)) => grid.push(("policies".to_owned(), Json::Arr(vec![p.clone()]))),
            (None, None) => {}
        }
        let spec_doc = Json::obj([
            ("name", "serve-grid".to_json()),
            ("replay", Json::Arr(vec![Json::Obj(grid)])),
        ]);
        self.run_spec_doc(spec_doc, doc, tenant)
    }

    /// `run`: an inline spec document, exactly the `ccache run` file format.
    fn cmd_run(&self, doc: &Json, tenant: &str) -> Result<Reply, Refusal> {
        let spec_doc = doc
            .get("spec")
            .cloned()
            .ok_or_else(|| Refusal::bad_request("run needs a 'spec' object"))?;
        self.run_spec_doc(spec_doc, doc, tenant)
    }

    fn run_spec_doc(&self, mut spec_doc: Json, doc: &Json, tenant: &str) -> Result<Reply, Refusal> {
        self.resolve_traces(&mut spec_doc)?;
        let spec = ExperimentSpec::from_json(&spec_doc)
            .map_err(|e| Refusal::bad_request(e.to_string()))?;
        let session = self.session_for(doc)?;
        let key = session.spec_key(&spec);
        let stored = self.submit_job(tenant, key, || Task::Spec {
            session: Box::new(session),
            spec: Box::new(spec),
        })?;
        Ok(Reply::keep(stored.doc.clone()))
    }

    /// The shared memoized compute path — see the module docs for the claim/enqueue/
    /// wait choreography.
    fn submit_job(
        &self,
        tenant: &str,
        key: String,
        task: impl FnOnce() -> Task,
    ) -> Result<Arc<StoredResult>, Refusal> {
        if self.is_shutting_down() {
            return Err(Refusal::new(
                code::SHUTTING_DOWN,
                "the server is draining and accepts no new jobs",
            ));
        }
        self.metrics.store_claims.incr();
        let outcome = match self.store.claim(&key) {
            Claim::Done(outcome) => {
                self.tenant_incr(tenant, "cache_hits");
                outcome
            }
            Claim::Owner => match self.queue.submit(Job {
                key: key.clone(),
                task: task(),
            }) {
                Ok(()) => {
                    self.tenant_incr(tenant, "cache_misses");
                    self.metrics.queue_depth.set(self.queue.len() as u64);
                    self.store.wait(&key).ok_or_else(|| {
                        Refusal::new(code::INTERNAL, "the computation was abandoned")
                    })?
                }
                Err(SubmitError::Full) => {
                    self.store.abandon(&key);
                    self.metrics.store_abandons.incr();
                    self.metrics.jobs_shed.incr();
                    return Err(Refusal::new(
                        code::OVERLOADED,
                        format!(
                            "the job queue is full ({} pending jobs); retry later",
                            self.config.queue_depth
                        ),
                    ));
                }
                Err(SubmitError::Closed) => {
                    self.store.abandon(&key);
                    self.metrics.store_abandons.incr();
                    return Err(Refusal::new(
                        code::SHUTTING_DOWN,
                        "the server is draining and accepts no new jobs",
                    ));
                }
            },
        };
        outcome.map_err(|e| Refusal::new(e.code, e.message.clone()))
    }

    /// `upload`: store a text-format trace under a name usable as `{"trace": NAME}`.
    fn cmd_upload(&self, doc: &Json) -> Result<Reply, Refusal> {
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| Refusal::bad_request("upload needs a string 'name'"))?;
        let valid = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
        if !valid {
            return Err(Refusal::bad_request(
                "upload names may only use [A-Za-z0-9._-], at most 64 characters",
            ));
        }
        let text = doc
            .get("text")
            .and_then(Json::as_str)
            .ok_or_else(|| Refusal::bad_request("upload needs the text-format trace in 'text'"))?;
        let trace = ccache_trace::textfmt::read_trace(text.as_bytes())
            .map_err(|e| Refusal::bad_request(format!("the trace text does not parse: {e}")))?;
        if trace.is_empty() {
            return Err(Refusal::bad_request("the uploaded trace is empty"));
        }
        std::fs::create_dir_all(&self.upload_dir)
            .map_err(|e| Refusal::new(code::INTERNAL, format!("cannot store the trace: {e}")))?;
        let path = self.upload_dir.join(format!("{name}.trace"));
        std::fs::write(&path, text)
            .map_err(|e| Refusal::new(code::INTERNAL, format!("cannot store the trace: {e}")))?;
        let events = trace.len() as u64;
        self.uploads
            .lock()
            .unwrap()
            .insert(name.to_owned(), Upload { path, events });
        Ok(Reply::keep(Json::obj([
            ("name", name.to_json()),
            ("events", events.to_json()),
        ])))
    }

    /// `subscribe`: replay on this thread, streaming one `event` frame per observer
    /// window, then reply with the final statistics. Bypasses the queue and the store —
    /// a live stream is personal to its connection, not shareable cached bytes.
    fn cmd_subscribe(
        &self,
        doc: &Json,
        id: &Json,
        emit: &mut (dyn FnMut(&Json) + Send),
    ) -> Result<Reply, Refusal> {
        if self.is_shutting_down() {
            return Err(Refusal::new(
                code::SHUTTING_DOWN,
                "the server is draining and accepts no new jobs",
            ));
        }
        if let Some(tune) = doc.get("tune") {
            return self.cmd_subscribe_tune(doc, tune, id, emit);
        }
        let quick = self.quick_of(doc)?;
        let window = match doc.get("window") {
            None => 4096,
            Some(v) => v
                .as_u64()
                .filter(|w| *w > 0)
                .ok_or_else(|| Refusal::bad_request("'window' must be a positive integer"))?,
        };
        let backend = doc
            .get("backend")
            .map(|b| {
                b.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| Refusal::bad_request("'backend' must be a string"))
            })
            .transpose()?
            .unwrap_or_else(|| "column-cache".to_owned());
        let session = Session::builder()
            .quick(quick)
            .backend(backend)
            .telemetry(self.telemetry.clone())
            .build()
            .map_err(|e| Refusal::bad_request(e.to_string()))?;
        let run = self.subscribe_workload(doc, &session)?;
        let mut streamer = Streamer {
            emit,
            id,
            windows: 0,
        };
        let result = session
            .replay_with(&run.name, &run.trace, window, &mut streamer)
            .map_err(|e| Refusal::new(code::JOB_FAILED, e.to_string()))?;
        let windows = streamer.windows;
        Ok(Reply::keep(Json::obj([
            ("workload", run.name.to_json()),
            ("window", window.to_json()),
            ("windows", windows.to_json()),
            ("result", result.to_json()),
        ])))
    }

    /// `subscribe` with a `"tune"` object: run a tuning search on this thread,
    /// streaming one `{"event":"generation"}` frame per completed search round, then
    /// reply with the full [`TuneOutcome`]. Like the replay form, it bypasses the
    /// queue and the store — a live stream is personal to its connection.
    fn cmd_subscribe_tune(
        &self,
        doc: &Json,
        tune: &Json,
        id: &Json,
        emit: &mut (dyn FnMut(&Json) + Send),
    ) -> Result<Reply, Refusal> {
        let quick = self.quick_of(doc)?;
        let session = Session::builder()
            .quick(quick)
            .telemetry(self.telemetry.clone())
            .build()
            .map_err(|e| Refusal::bad_request(e.to_string()))?;
        let run = self.subscribe_workload(doc, &session)?;
        let strategy = match tune.get("strategy") {
            None => StrategyKind::default(),
            Some(v) => {
                let raw = v
                    .as_str()
                    .ok_or_else(|| Refusal::bad_request("'strategy' must be a string"))?;
                StrategyKind::parse(raw)
                    .ok_or_else(|| Refusal::bad_request(format!("unknown strategy '{raw}'")))?
            }
        };
        let budget = match tune.get("budget") {
            None => 64,
            Some(v) => v
                .as_u64()
                .filter(|b| *b > 0)
                .ok_or_else(|| Refusal::bad_request("'budget' must be a positive integer"))?
                as usize,
        };
        let seed = match tune.get("seed") {
            None => TuneRequest::default().seed,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| Refusal::bad_request("'seed' must be an integer"))?,
        };
        let request = TuneRequest {
            template: *session.config(),
            geometry: ccache_opt::GeometrySearch::fixed(),
            strategy,
            budget,
            seed,
            ..TuneRequest::default()
        };
        let mut streamer = GenerationStreamer {
            emit,
            id,
            generations: 0,
        };
        let outcome = session
            .tune_with_progress(&run.trace, &run.symbols, &request, &mut streamer)
            .map_err(|e| Refusal::new(code::JOB_FAILED, e.to_string()))?;
        let generations = streamer.generations;
        Ok(Reply::keep(Json::obj([
            ("workload", run.name.to_json()),
            ("strategy", outcome.strategy.to_json()),
            ("generations", generations.to_json()),
            ("result", outcome.to_json()),
        ])))
    }

    /// The workload a `subscribe` names: a corpus entry at the session's scale, or a
    /// `trace` name ([`resolve_trace`]) loaded with symbols inferred under the session's
    /// geometry and named as the client named it.
    fn subscribe_workload(&self, doc: &Json, session: &Session) -> Result<WorkloadRun, Refusal> {
        let (selection, trace) = if let Some(w) = doc.get("workload").and_then(Json::as_str) {
            let name = w.to_owned();
            (WorkloadSel::Corpus { name }, None)
        } else if let Some(t) = doc.get("trace").and_then(Json::as_str) {
            let path = self.trace_path(t)?.display().to_string();
            (WorkloadSel::Trace { path }, Some(t))
        } else {
            return Err(Refusal::bad_request(
                "subscribe needs 'workload' (a corpus name) or 'trace' (an uploaded name)",
            ));
        };
        let config = session.config();
        let mut run = selection
            .load(config.page_size, config.cache.line_size(), session.quick())
            .map_err(|e| match (trace, e) {
                (Some(t), e) => Refusal::bad_request(format!("cannot load trace '{t}': {e}")),
                (None, ExpError::BadSpec { reason }) => Refusal::bad_request(reason),
                (None, e) => Refusal::bad_request(e.to_string()),
            })?;
        if let Some(t) = trace {
            run.name = t.to_owned();
        }
        Ok(run)
    }

    /// `debug_sleep`: occupy one worker slot for `ms` milliseconds. Every call gets a
    /// fresh key, so sleeps are never deduplicated — they exist to pin workers and fill
    /// the queue deterministically in lifecycle tests.
    fn cmd_debug_sleep(&self, doc: &Json, tenant: &str) -> Result<Reply, Refusal> {
        let ms = match doc.get("ms") {
            None => 50,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| Refusal::bad_request("'ms' must be an integer"))?,
        };
        let seq = self.debug_seq.fetch_add(1, Ordering::Relaxed);
        let stored = self.submit_job(tenant, format!("debug-sleep:{seq}"), || {
            Task::DebugSleep(Duration::from_millis(ms))
        })?;
        Ok(Reply::keep(stored.doc.clone()))
    }

    fn status_doc(&self) -> Json {
        let cache = self.store.counters();
        let uploads = self.uploads.lock().unwrap();
        Json::obj([
            (
                "server",
                Json::obj([
                    ("protocol", 1u64.to_json()),
                    ("workers", self.config.workers.to_json()),
                    ("queue_depth", self.config.queue_depth.to_json()),
                    ("queued", self.queue.len().to_json()),
                    ("running", self.metrics.workers_busy.get().to_json()),
                    ("quick", self.config.quick.to_json()),
                    ("shutting_down", self.is_shutting_down().to_json()),
                    ("uptime_ms", self.uptime_ms().to_json()),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("entries", cache.entries.to_json()),
                    ("hits", cache.hits.to_json()),
                    ("misses", cache.misses.to_json()),
                ]),
            ),
            (
                "jobs",
                Json::obj([
                    ("executed", self.metrics.jobs_executed.get().to_json()),
                    ("failed", self.metrics.jobs_failed.get().to_json()),
                    ("shed", self.metrics.jobs_shed.get().to_json()),
                ]),
            ),
            (
                "verbs",
                Json::Obj(
                    self.telemetry
                        .counters_with_prefix("serve.verb.")
                        .into_iter()
                        .map(|(name, count)| {
                            let verb = name
                                .strip_prefix("serve.verb.")
                                .expect("prefix scan")
                                .to_owned();
                            (verb, count.to_json())
                        })
                        .collect(),
                ),
            ),
            (
                "uploads",
                Json::Obj(
                    uploads
                        .iter()
                        .map(|(name, up)| (name.clone(), up.events.to_json()))
                        .collect(),
                ),
            ),
            (
                "tenants",
                Json::Obj(
                    self.tenant_counters()
                        .into_iter()
                        .map(|(name, t)| (name, t.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    // ------------------------------------------------------------------ helpers

    fn quick_of(&self, doc: &Json) -> Result<bool, Refusal> {
        match doc.get("quick") {
            None => Ok(self.config.quick),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| Refusal::bad_request("'quick' must be a boolean")),
        }
    }

    /// The session a compute request runs under: per-request `quick` / `observe`
    /// overrides on top of the server defaults. Both knobs feed the canonical memo key
    /// through [`Session::spec_key`]; the telemetry routing does not (it never changes
    /// artefact bytes).
    fn session_for(&self, doc: &Json) -> Result<Session, Refusal> {
        let mut builder = Session::builder()
            .quick(self.quick_of(doc)?)
            .telemetry(self.telemetry.clone());
        if let Some(v) = doc.get("observe") {
            let window = v
                .as_u64()
                .filter(|w| *w > 0)
                .ok_or_else(|| Refusal::bad_request("'observe' must be a positive window"))?;
            builder = builder.observe(window);
        }
        builder
            .build()
            .map_err(|e| Refusal::bad_request(e.to_string()))
    }

    /// The file a `trace` name refers to; see [`resolve_trace`].
    fn trace_path(&self, name: &str) -> Result<PathBuf, Refusal> {
        resolve_trace(&self.uploads.lock().unwrap(), name)
    }

    /// Rewrites every `{"trace": NAME}` workload selector in a spec document to the file
    /// [`resolve_trace`] resolves it to.
    fn resolve_traces(&self, doc: &mut Json) -> Result<(), Refusal> {
        fn resolve(node: &mut Json, uploads: &BTreeMap<String, Upload>) -> Result<(), Refusal> {
            match node {
                Json::Arr(items) => items.iter_mut().try_for_each(|i| resolve(i, uploads)),
                Json::Obj(pairs) => pairs.iter_mut().try_for_each(|(key, value)| match value {
                    Json::Str(name) if key == "trace" => {
                        *value = Json::Str(resolve_trace(uploads, name)?.display().to_string());
                        Ok(())
                    }
                    _ => resolve(value, uploads),
                }),
                _ => Ok(()),
            }
        }
        resolve(doc, &self.uploads.lock().unwrap())
    }

    /// Bumps one per-tenant registry counter (`serve.tenant.<tenant>.<field>`). The
    /// registry replaces the hand-rolled `Mutex<BTreeMap<_, TenantCounters>>` the
    /// service used to carry; `status` reconstructs the same schema from these cells.
    fn tenant_incr(&self, tenant: &str, field: &str) {
        self.telemetry
            .counter(&format!("serve.tenant.{tenant}.{field}"))
            .incr();
    }

    /// Reassembles the per-tenant counters from the registry, sorted by tenant name —
    /// the exact table `status.tenants` always carried.
    pub fn tenant_counters(&self) -> BTreeMap<String, TenantCounters> {
        let mut tenants: BTreeMap<String, TenantCounters> = BTreeMap::new();
        for (name, value) in self.telemetry.counters_with_prefix("serve.tenant.") {
            let rest = name.strip_prefix("serve.tenant.").expect("prefix scan");
            let Some((tenant, field)) = rest.rsplit_once('.') else {
                continue;
            };
            let entry = tenants.entry(tenant.to_owned()).or_default();
            match field {
                "requests" => entry.requests = value,
                "errors" => entry.errors = value,
                "cache_hits" => entry.cache_hits = value,
                "cache_misses" => entry.cache_misses = value,
                _ => {}
            }
        }
        tenants
    }
}

/// Canonicalizes a request's `cmd` for metric names and the request log: known verbs
/// pass through, anything else (including a missing `cmd`) collapses to `unknown`, so
/// client-controlled strings can never mint unbounded registry cells.
fn known_verb(cmd: Option<&str>) -> &'static str {
    match cmd {
        Some("status") => "status",
        Some("metrics") => "metrics",
        Some("upload") => "upload",
        Some("run") => "run",
        Some("replay") => "replay",
        Some("tune") => "tune",
        Some("subscribe") => "subscribe",
        Some("shutdown") => "shutdown",
        Some("debug_sleep") => "debug_sleep",
        _ => "unknown",
    }
}

/// The `subscribe` observer: forwards every window (and replay event) as an `event`
/// frame on the requesting connection, tagged with the request's `id`.
struct Streamer<'a> {
    emit: &'a mut (dyn FnMut(&Json) + Send),
    id: &'a Json,
    windows: u64,
}

/// The `subscribe`+`tune` observer: forwards each completed search generation as a
/// `{"event":"generation"}` frame tagged with the request's `id`.
struct GenerationStreamer<'a> {
    emit: &'a mut (dyn FnMut(&Json) + Send),
    id: &'a Json,
    generations: u64,
}

impl TuneProgress for GenerationStreamer<'_> {
    fn on_generation(&mut self, point: &GenerationPoint) {
        self.generations += 1;
        (self.emit)(&Json::obj([
            ("id", self.id.clone()),
            ("event", "generation".to_json()),
            (
                "data",
                Json::obj([
                    ("generation", (point.generation as u64).to_json()),
                    ("replays", (point.replays as u64).to_json()),
                    (
                        "best",
                        Json::obj([
                            ("misses", point.best.misses.to_json()),
                            ("cycles", point.best.cycles.to_json()),
                            ("references", point.best.references.to_json()),
                            ("miss_rate", point.best.miss_rate.to_json()),
                        ]),
                    ),
                ]),
            ),
        ]));
    }
}

impl ReplayObserver for Streamer<'_> {
    fn on_window(&mut self, sample: &WindowSample) {
        self.windows += 1;
        (self.emit)(&Json::obj([
            ("id", self.id.clone()),
            ("event", "window".to_json()),
            ("sample", sample.to_json()),
        ]));
    }

    fn on_event(&mut self, event: &ReplayEvent) {
        (self.emit)(&Json::obj([
            ("id", self.id.clone()),
            ("event", "replay".to_json()),
            ("data", event.to_json()),
        ]));
    }
}

/// The file a `trace` name refers to: the stored file of an upload, or a binary (`.cct`)
/// trace on the server.
///
/// # Errors
///
/// Refuses anything else with one message, whether the path is missing, unreadable, not
/// a regular file or not a binary trace. So serve never opens a text file it did not
/// store itself (the text reader quotes the first line it cannot parse), and a client can
/// neither read a server-side file nor learn whether one exists unless it is a binary
/// trace.
fn resolve_trace(uploads: &BTreeMap<String, Upload>, name: &str) -> Result<PathBuf, Refusal> {
    if let Some(up) = uploads.get(name) {
        return Ok(up.path.clone());
    }
    let path = PathBuf::from(name);
    let binary = path.metadata().is_ok_and(|m| m.is_file())
        && ccache_trace::binfmt::is_binary_trace_file(&path).unwrap_or(false);
    if binary {
        Ok(path)
    } else {
        Err(Refusal::bad_request(format!(
            "unknown trace '{name}': 'trace' takes the name of an uploaded trace or the path \
             of a binary (.cct) trace file"
        )))
    }
}
