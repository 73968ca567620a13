//! `serve-mix`: a closed loop of two client connections against a loopback
//! `ccache serve` (two workers, quick scale), plus the serve probe every workload runs.
//!
//! Each pass runs a seeded request script against a fresh server whose result store
//! was warmed at set-up: mostly repeats of warmed `replay`/`tune`/`run` requests
//! (store hits), first-time `replay` computes that publish into the store, trace
//! uploads and replays of an uploaded trace by name, and a few `status`/`metrics`
//! queries. Only each request's round trip is timed. Every compute reply is checked
//! byte for byte against `Session::run_spec_bytes` on the spec the reply echoes.

use crate::experiments::artefact_work;
use crate::harness::{self, Checks, Metrics, Tracer};
use crate::{probes, Ctx, PassCounters, PassLog, Workload};
use ccache_json::{Json, ToJson};
use ccache_serve::{spawn_test_server, Client, ServerHandle, StoreCounters};
use column_caching::exp::ExperimentSpec;
use column_caching::telemetry::Registry;
use column_caching::workloads::CORPUS_NAMES;
use column_caching::Session;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Requests in one pass of the script.
const SCRIPT_LEN: usize = 1000;
/// Client connections (one thread each).
const CONNECTIONS: usize = 2;
/// Name of the trace uploaded at set-up and replayed by name.
const UPLOAD_NAME: &str = "mix-trace";
/// Events per uploaded trace (every quick-scale corpus trace is at least this long).
const UPLOAD_EVENTS: usize = 512;

const POLICIES: [&str; 3] = ["shared", "heuristic", "round-robin"];
const BACKENDS: [&str; 3] = ["column-cache", "set-assoc", "ideal-scratchpad"];
const STRATEGIES: [&str; 3] = ["hill-climb", "evolutionary", "exhaustive"];
const TUNE_WORKLOADS: [&str; 4] = ["fir", "histogram", "triad", "mpeg-dequant"];
/// The corpus workloads whose first-time quick-scale replays take milliseconds.
const HEAVY: [&str; 3] = ["mpeg-combined", "mpeg-idct", "gzip"];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// `replay`/`tune`/`run`; `memo` says whether the expected bytes can be reused
    /// across servers (false when the reply names a per-server upload path).
    Compute {
        memo: bool,
    },
    Upload {
        events: u64,
    },
    Query,
}

#[derive(Clone)]
struct Req {
    doc: Json,
    key: String,
    kind: Kind,
}

impl Req {
    fn new(doc: Json, kind: Kind) -> Self {
        Req {
            key: doc.compact(),
            doc,
            kind,
        }
    }
}

struct Reply {
    index: usize,
    line: String,
}

/// One client thread's replies (with round-trip latencies in ms) and spans.
type ClientRun = Result<(Vec<(Reply, f64)>, Tracer), String>;

/// What the oracle expects for one compute request.
struct Expect {
    result: String,
    work: (u64, u64),
}

pub struct ServeMix {
    seed: u64,
    warm: Vec<Req>,
    script: Vec<Req>,
    server: Option<ServerHandle>,
    pending_setup: Option<f64>,
    store_base: StoreCounters,
    replies: Vec<Reply>,
    oracle: BTreeMap<String, Expect>,
    pass_work: (u64, u64),
    store_hit_ratio: f64,
    frames: Vec<String>,
}

fn replay_request(workload: &str, policy: &str, backend: &str) -> Json {
    Json::obj([
        ("cmd", "replay".to_json()),
        ("workload", workload.to_json()),
        ("policy", policy.to_json()),
        ("backend", backend.to_json()),
    ])
}

fn tune_request(rng: &mut StdRng, workload: &str) -> Json {
    Json::obj([
        ("cmd", "tune".to_json()),
        ("workload", workload.to_json()),
        ("strategy", pick(rng, &STRATEGIES).to_json()),
        ("budget", 16u64.to_json()),
        ("seed", rng.random_range(0..4u64).to_json()),
    ])
}

fn run_request(rng: &mut StdRng, a: &str, b: &str) -> Json {
    let spec = Json::obj([
        ("name", "mix-run".to_json()),
        (
            "replay",
            Json::arr([Json::obj([
                ("workloads", Json::arr([a.to_json(), b.to_json()])),
                ("backends", Json::arr([pick(rng, &BACKENDS).to_json()])),
                (
                    "policies",
                    Json::arr(["shared".to_json(), "heuristic".to_json()]),
                ),
            ])]),
        ),
    ]);
    Json::obj([("cmd", "run".to_json()), ("spec", spec)])
}

/// The seeded request mix: `(warm-up requests, shuffled pass script)`.
///
/// The seed picks the inputs (backends, tune strategies and search seeds, the uploaded
/// slice, the order) but not the cost structure: each kind of request appears as often
/// for every seed, so the latency percentiles fall at the same place in the mix.
fn build_mix(seed: u64) -> (Vec<Req>, Vec<Req>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let compute = |doc: Json| Req::new(doc, Kind::Compute { memo: true });
    // First-time computes: every corpus workload under every mapping policy on the
    // column cache, and the heavy workloads on the set-associative cache too. The 18
    // heavy computes take milliseconds each, so the slowest 1% of a pass lies among
    // them rather than at the edge between them and the uploads.
    let mut cold = Vec::new();
    for w in CORPUS_NAMES {
        for p in POLICIES {
            cold.push(compute(replay_request(w, p, "column-cache")));
        }
    }
    for w in HEAVY {
        for p in POLICIES {
            cold.push(compute(replay_request(w, p, "set-assoc")));
        }
    }
    // Warmed (hot) requests: every repeat in the script is a store hit. Each corpus
    // workload once under a fixed policy (the policy sets the compute cost) on a seeded
    // other backend — the ideal scratchpad for the heavy workloads, whose set-assoc
    // replays are cold — then a tune of each tuning workload (seeded strategy and
    // search seed) and four two-workload runs (seeded backend).
    let mut hot_replays = Vec::new();
    for (i, w) in CORPUS_NAMES.into_iter().enumerate() {
        let backend = if HEAVY.contains(&w) {
            "ideal-scratchpad"
        } else {
            pick(&mut rng, &BACKENDS[1..])
        };
        hot_replays.push(compute(replay_request(w, POLICIES[i % 3], backend)));
    }
    let mut hot_others = Vec::new();
    for (i, w) in TUNE_WORKLOADS.into_iter().enumerate() {
        hot_others.push(compute(tune_request(&mut rng, w)));
        let (a, b) = (CORPUS_NAMES[i], CORPUS_NAMES[i + 4]);
        hot_others.push(compute(run_request(&mut rng, a, b)));
    }
    // The upload replayed by name: a seeded slice of a quick-scale corpus trace, of
    // a fixed length (upload cost grows faster than linearly with size).
    let source = column_caching::workloads::corpus(pick(&mut rng, &CORPUS_NAMES), true)
        .expect("corpus names build");
    let len = UPLOAD_EVENTS.min(source.trace.len());
    let start = rng.random_range(0..source.trace.len() - len + 1);
    let slice = source.trace.slice(start, start + len);
    let text = String::from_utf8(
        column_caching::trace::textfmt::write_trace(&slice, Vec::new()).expect("in-memory write"),
    )
    .expect("the text format is ASCII");
    let upload = |name: &str| {
        Req::new(
            Json::obj([
                ("cmd", "upload".to_json()),
                ("name", name.to_json()),
                ("text", text.to_json()),
            ]),
            Kind::Upload { events: len as u64 },
        )
    };
    let by_name = Req::new(
        Json::obj([
            ("cmd", "replay".to_json()),
            ("trace", UPLOAD_NAME.to_json()),
            ("policy", "shared".to_json()),
        ]),
        Kind::Compute { memo: false },
    );

    let mut warm = vec![upload(UPLOAD_NAME)];
    warm.extend(hot_replays.iter().cloned());
    warm.extend(hot_others.iter().cloned());
    let mut script: Vec<Req> = cold;
    script.extend((0..4).map(|k| upload(&format!("mix-up-{k}"))));
    script.extend((0..8).map(|_| by_name.clone()));
    for cmd in ["status", "metrics"] {
        let q = Req::new(Json::obj([("cmd", cmd.to_json())]), Kind::Query);
        script.extend((0..4).map(|_| q.clone()));
    }
    // Hits: the hot requests in turn, each replay twice per round and each tune and run
    // once, so the median lies well inside the replay hits (the cheapest kind).
    let round: Vec<&Req> = hot_replays
        .iter()
        .flat_map(|r| [r, r])
        .chain(&hot_others)
        .collect();
    for req in round
        .iter()
        .cycle()
        .take(SCRIPT_LEN.saturating_sub(script.len()))
    {
        script.push((*req).clone());
    }
    // Fisher–Yates shuffle.
    for i in (1..script.len()).rev() {
        script.swap(i, rng.random_range(0..=i));
    }
    (warm, script)
}

/// A uniformly chosen element of a non-empty slice.
fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.random_range(0..items.len())]
}

fn start_server() -> Result<ServerHandle, String> {
    spawn_test_server(|c| {
        c.workers = 2;
        c.quick = true;
        c.debug_commands = false;
    })
    .map_err(|e| format!("cannot start the server: {e}"))
}

/// Sends one request and returns the raw reply line.
fn roundtrip(client: &mut Client, frame: &str) -> Result<String, String> {
    client
        .send_raw(format!("{frame}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    client
        .recv_line()
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "the server closed the connection".to_owned())
}

/// Adds `"id"` to a request document.
fn with_id(request: &Json, id: u64) -> Json {
    let Json::Obj(pairs) = request else {
        return request.clone();
    };
    let mut out = vec![("id".to_owned(), id.to_json())];
    out.extend(pairs.iter().cloned());
    Json::Obj(out)
}

/// Starts a server and warms its store with `warm`; returns it with the set-up time.
fn warmed_server(warm: &[Req]) -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let server = start_server()?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    for (i, req) in warm.iter().enumerate() {
        let line = roundtrip(&mut client, &with_id(&req.doc, i as u64).compact())?;
        let ok = Json::parse(&line)
            .ok()
            .and_then(|d| d.get("ok").and_then(Json::as_bool));
        if ok != Some(true) {
            return Err(format!("warm-up request {} was refused: {line}", req.key));
        }
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// The reply frame `ok_frame(id, result).compact()` renders.
fn ok_line(id: u64, result: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"result\":{result}}}")
}

/// Runs the spec a compute reply echoes through `Session::run_spec_bytes`: the
/// expected result document (compact) and the work it accounts for.
fn oracle_for(line: &str) -> Result<Expect, String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    let result = doc.get("result").ok_or("the reply has no result")?;
    let spec = ExperimentSpec::from_json(result.get("spec").ok_or("the artefact has no spec")?)
        .map_err(|e| e.to_string())?;
    let quick = result.get("quick").and_then(Json::as_bool).unwrap_or(true);
    let session = Session::builder()
        .quick(quick)
        .build()
        .map_err(|e| e.to_string())?;
    let (_, bytes) = session.run_spec_bytes(&spec).map_err(|e| e.to_string())?;
    let work = artefact_work(&session.run_spec(&spec).map_err(|e| e.to_string())?);
    Ok(Expect {
        result: Json::parse(&bytes).map_err(|e| e.to_string())?.compact(),
        work,
    })
}

/// The oracle cache key of a compute reply: the request, or — when the reply names a
/// per-server upload path — the reply without its id.
fn oracle_key(req: &Req, memo: bool, line: &str) -> String {
    if memo {
        req.key.clone()
    } else {
        line.split_once(",\"ok\":")
            .map_or(line, |(_, rest)| rest)
            .to_owned()
    }
}

impl ServeMix {
    fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("a server runs between passes")
    }

    fn check_reply(&mut self, reply: &Reply, checks: &mut Checks) {
        let req = &self.script[reply.index];
        match req.kind {
            Kind::Compute { memo } => {
                let key = oracle_key(req, memo, &reply.line);
                if !self.oracle.contains_key(&key) {
                    match oracle_for(&reply.line) {
                        Ok(expect) => {
                            self.oracle.insert(key.clone(), expect);
                        }
                        Err(e) => return checks.fail(format!("{}: {e}: {}", req.key, reply.line)),
                    }
                }
                let expected = ok_line(reply.index as u64, &self.oracle[&key].result);
                checks.check(reply.line == expected, || {
                    format!("reply to {} differs from Session::run_spec_bytes", req.key)
                });
            }
            Kind::Upload { events } => {
                let doc = Json::parse(&reply.line).ok();
                let got = doc
                    .as_ref()
                    .and_then(|d| d.get("result"))
                    .and_then(|r| r.get("events"))
                    .and_then(Json::as_u64);
                checks.expect_eq("upload event count", got, Some(events));
            }
            Kind::Query => {
                let ok = Json::parse(&reply.line)
                    .ok()
                    .and_then(|d| d.get("ok").and_then(Json::as_bool));
                checks.expect_eq("status/metrics reply", ok, Some(true));
            }
        }
    }
}

impl Workload for ServeMix {
    const SETUP_REPS: usize = 0;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let (warm, script) = build_mix(ctx.seed);
        let (server, _) = warmed_server(&warm)?;
        let store_base = server.service().cache_counters();
        Ok(ServeMix {
            seed: ctx.seed,
            warm,
            script,
            server: Some(server),
            pending_setup: None,
            store_base,
            replies: Vec::new(),
            oracle: BTreeMap::new(),
            pass_work: (0, 0),
            store_hit_ratio: 0.0,
            frames: Vec::new(),
        })
    }

    fn begin_pass(&mut self) -> Result<Option<f64>, String> {
        Ok(self.pending_setup.take())
    }

    fn pass(&mut self, tr: &mut Tracer, log: &mut PassLog) -> Result<(), String> {
        let addr = self.server().addr();
        let script = &self.script;
        let clients: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let mut ctr = tr.fork(c + 1);
                    s.spawn(move || {
                        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                        let mut out = Vec::new();
                        for (index, req) in script.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                            // Only the round trip is timed: rendering the request and
                            // parsing the reply are the client's work, not the server's.
                            let frame = ctr
                                .span("json.render", |_| with_id(&req.doc, index as u64).compact());
                            let t = Instant::now();
                            let line =
                                ctr.span("serve.roundtrip", |_| roundtrip(&mut client, &frame))?;
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            let doc = ctr.span("json.parse", |_| Json::parse(&line));
                            if doc.ok().and_then(|d| d.get("ok").and_then(Json::as_bool))
                                != Some(true)
                            {
                                return Err(format!("request {} was refused: {line}", req.key));
                            }
                            out.push((Reply { index, line }, ms));
                        }
                        Ok((out, ctr))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a client thread panicked".into()))
                })
                .collect()
        });
        self.replies.clear();
        for client in clients {
            let (replies, ctr) = client?;
            tr.absorb(ctr);
            for (reply, ms) in replies {
                log.latencies_ms.push(ms);
                self.replies.push(reply);
            }
        }
        self.replies.sort_by_key(|r| r.index);
        Ok(())
    }

    fn end_pass(&mut self, checks: &mut Checks) {
        let replies = std::mem::take(&mut self.replies);
        for reply in &replies {
            self.check_reply(reply, checks);
        }
        // Work of the computes this pass started: first-time requests plus the
        // by-name replay (the warmed requests were computed at set-up).
        let warmed: BTreeSet<&str> = self.warm.iter().map(|r| r.key.as_str()).collect();
        let mut computed = BTreeSet::new();
        self.pass_work = (0, 0);
        for reply in &replies {
            let req = &self.script[reply.index];
            let Kind::Compute { memo } = req.kind else {
                continue;
            };
            let key = oracle_key(req, memo, &reply.line);
            if !warmed.contains(req.key.as_str()) && computed.insert(key.clone()) {
                if let Some(expect) = self.oracle.get(&key) {
                    self.pass_work.0 += expect.work.0;
                    self.pass_work.1 += expect.work.1;
                }
            }
        }
        let after = self.server().service().cache_counters();
        let (hits, misses) = (
            (after.hits - self.store_base.hits) as f64,
            (after.misses - self.store_base.misses) as f64,
        );
        self.store_hit_ratio = harness::ratio(hits, hits + misses);
        let frames: BTreeSet<&String> = replies.iter().map(|r| &r.line).collect();
        self.frames = frames.into_iter().cloned().collect();
        self.replies = replies;

        // A fresh, warmed server for the next pass; its start-up is a set-up sample.
        if let Some(mut old) = self.server.take() {
            old.shutdown();
        }
        match warmed_server(&self.warm) {
            Ok((server, seconds)) => {
                self.store_base = server.service().cache_counters();
                self.server = Some(server);
                self.pending_setup = Some(seconds);
            }
            Err(e) => checks.fail(format!("cannot restart the server: {e}")),
        }
    }

    fn verify(&mut self, _checks: &mut Checks) {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
    }

    fn registry(&self) -> Registry {
        self.server().service().telemetry().clone()
    }

    fn reconcile(&self, counters: &PassCounters, m: &mut Metrics) {
        crate::experiments::work_rows(counters, self.pass_work.0, self.pass_work.1, m);
        let verbs: u64 = counters
            .private
            .iter()
            .filter(|(k, _)| k.starts_with("serve.verb."))
            .map(|(_, v)| *v)
            .sum();
        m.set(
            "telemetry.serve_verb_gap",
            verbs as f64 - self.script.len() as f64,
            "count",
        );
    }

    fn probes(&mut self, m: &mut Metrics, checks: &mut Checks) -> Result<(), String> {
        let hot = self
            .warm
            .iter()
            .find(|r| matches!(r.kind, Kind::Compute { .. }))
            .ok_or("the mix has no compute request")?
            .doc
            .clone();
        let workload = hot
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("fir")
            .to_owned();
        probes::gen_layer(m, || {
            self.warm
                .iter()
                .filter_map(|r| r.doc.get("workload").and_then(Json::as_str))
                .filter_map(|w| column_caching::workloads::corpus(w, true))
                .count()
        });
        let run = column_caching::workloads::corpus(&workload, true).ok_or("corpus workload")?;
        let session = Session::builder()
            .quick(true)
            .build()
            .map_err(|e| e.to_string())?;
        let encoded = probes::trace_layer(&run.trace, m, checks);
        probes::replay_layers(&run.trace, &encoded, *session.config(), m, checks)?;
        probes::layout_layer(&run.trace, &run.symbols, &session, m)?;
        probes::multitask_layer(column_caching::exp::scale::Scale::Quick, m)?;
        probes::tune_layer(&run.trace, &run.symbols, self.seed, true, m)?;
        let run_req = self
            .warm
            .iter()
            .find_map(|r| {
                (r.doc.get("cmd").and_then(Json::as_str) == Some("run")).then(|| r.doc.get("spec"))
            })
            .flatten()
            .ok_or("the mix has no run request")?;
        let spec = ExperimentSpec::from_json(run_req).map_err(|e| e.to_string())?;
        probes::exp_layer(&spec, true, m)?;
        serve_layer(&hot, m, checks)?;
        // The mix's own store and frames replace the probe's.
        m.set("serve.store.hit_ratio", self.store_hit_ratio, "fraction");
        probes::json_layer(&self.frames, m)
    }
}

/// The serve probe: `request` through a loopback server (two workers, quick default),
/// first as a compute on three fresh servers (each timed against the same spec run
/// through `Session::run_spec_bytes`), then as a memoized hit over TCP and through
/// the socket-free `Service::respond`, alternately. Returns the reply frames it saw.
pub fn serve_layer(
    request: &Json,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<Vec<String>, String> {
    let frame = |id: u64| with_id(request, id).compact();
    let (mut miss, mut oracle) = (Vec::new(), Vec::new());
    let mut first: Option<(String, ExperimentSpec, Session)> = None;
    for i in 0..3u64 {
        let mut server = start_server()?;
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let line = roundtrip(&mut client, &frame(i))?;
        miss.push(t.elapsed().as_secs_f64());
        server.shutdown();
        if first.is_none() {
            let doc = Json::parse(&line).map_err(|e| e.to_string())?;
            let result = doc.get("result").ok_or("the reply has no result")?;
            let spec = ExperimentSpec::from_json(result.get("spec").ok_or("no spec")?)
                .map_err(|e| e.to_string())?;
            let quick = result.get("quick").and_then(Json::as_bool).unwrap_or(true);
            let session = Session::builder()
                .quick(quick)
                .build()
                .map_err(|e| e.to_string())?;
            first = Some((line, spec, session));
        }
        let (_, spec, session) = first.as_ref().expect("set above");
        let t = Instant::now();
        std::hint::black_box(session.run_spec_bytes(spec).map_err(|e| e.to_string())?);
        oracle.push(t.elapsed().as_secs_f64());
    }
    let (first, spec, session) = first.expect("three misses ran");
    let expect = oracle_for(&first)?;
    checks.check(first == ok_line(0, &expect.result), || {
        "serve probe reply differs from Session::run_spec_bytes".into()
    });
    m.set(
        "serve.miss_overhead_ms",
        (harness::median(&miss) - harness::median(&oracle)) * 1e3,
        "ms",
    );
    let (key_s, _) = harness::time_median(200, || session.spec_key(&spec));
    m.set("serve.spec_key_us", key_s * 1e6, "us");

    let mut server = start_server()?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    roundtrip(&mut client, &frame(0))?;
    let service = server.service().clone();
    let bytes = frame(0).into_bytes();
    let (mut rtt, mut respond) = (Vec::new(), Vec::new());
    let mut hit = String::new();
    for i in 0..200u64 {
        let t = Instant::now();
        hit = roundtrip(&mut client, &frame(i))?;
        rtt.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut out = String::new();
        service.respond(&bytes, &mut |doc: &Json| out = doc.compact());
        std::hint::black_box(out);
        respond.push(t.elapsed().as_secs_f64());
    }
    checks.check(hit == ok_line(199, &expect.result), || {
        "memoized serve reply differs from the computed one".into()
    });
    let store = service.cache_counters();
    server.shutdown();
    let respond_s = harness::median(&respond);
    m.set("serve.respond_us.hit", respond_s * 1e6, "us");
    m.set(
        "serve.transport_us",
        (harness::median(&rtt) - respond_s) * 1e6,
        "us",
    );
    m.set(
        "serve.store.hit_ratio",
        harness::ratio(store.hits as f64, (store.hits + store.misses) as f64),
        "fraction",
    );
    Ok(vec![first, hit])
}
