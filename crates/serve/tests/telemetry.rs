//! The observability surface of the service: the `metrics` verb, registry-backed
//! `status` fields, streamed tuning progress, and the NDJSON request log.

use ccache_json::{Json, ToJson};
use ccache_serve::{spawn_test_server, Client};
use std::sync::{Arc, Mutex};

/// A `Write` sink tests can read back: the NDJSON log goes into a shared buffer.
struct SharedLog(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn counter(snapshot: &Json, name: &str) -> u64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// One server, one client, compute through every layer — then `metrics` must show
/// engine, tuner, executor and server cells in a single snapshot.
#[test]
fn metrics_snapshot_covers_every_layer() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let replay = client
        .request(&Json::obj([
            ("cmd", "replay".to_json()),
            ("workload", "fir".to_json()),
        ]))
        .expect("replay reply");
    assert_eq!(replay.get("ok").and_then(Json::as_bool), Some(true));
    let tune = client
        .request(&Json::obj([
            ("cmd", "tune".to_json()),
            ("workload", "fir".to_json()),
            ("budget", 4u64.to_json()),
        ]))
        .expect("tune reply");
    assert_eq!(tune.get("ok").and_then(Json::as_bool), Some(true));

    let reply = client
        .request(&Json::obj([("cmd", "metrics".to_json())]))
        .expect("metrics reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let snap = reply.get("result").expect("snapshot result");
    assert_eq!(
        snap.get("telemetry").and_then(Json::as_str),
        Some("ccache-telemetry")
    );
    assert_eq!(snap.get("version").and_then(Json::as_u64), Some(1));

    // Engine layer (worker sessions bind the service registry)...
    assert!(counter(snap, "engine.replays") >= 1);
    assert!(counter(snap, "engine.batches") >= 1);
    // ... tuner layer (the tune job streams evaluator counts into the same registry)...
    assert!(counter(snap, "opt.evaluations") >= 1);
    assert!(counter(snap, "opt.generations") >= 1);
    // ... executor layer (every job runs under an exp.job span)...
    assert!(
        snap.get("spans")
            .and_then(|s| s.get("exp.job"))
            .and_then(|s| s.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 2,
        "replay and tune each time an exp.job span"
    );
    // ... and the server layer itself.
    assert_eq!(counter(snap, "serve.verb.replay"), 1);
    assert_eq!(counter(snap, "serve.verb.tune"), 1);
    assert_eq!(counter(snap, "serve.verb.metrics"), 1);
    assert!(counter(snap, "serve.store.publishes") >= 2);
    assert_eq!(
        snap.get("histograms")
            .and_then(|h| h.get("serve.request.replay"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        Some(1),
        "per-verb latency histograms count one record per finished request"
    );
    // Host-dependent numbers stay quarantined under `timing`.
    assert!(snap.get("timing").is_some());
    assert!(snap
        .get("timing")
        .and_then(|t| t.get("histograms"))
        .and_then(|h| h.get("serve.request.replay"))
        .and_then(|h| h.get("sum"))
        .is_some());
    server.shutdown();
}

/// `status` keeps its original schema and gains `uptime_ms` plus per-verb counts.
#[test]
fn status_reports_uptime_and_verb_counts() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let first = client
        .request(&Json::obj([
            ("cmd", "status".to_json()),
            ("tenant", "ops".to_json()),
        ]))
        .expect("status reply");
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    let second = client
        .request(&Json::obj([
            ("cmd", "status".to_json()),
            ("tenant", "ops".to_json()),
        ]))
        .expect("status reply");
    let result = second.get("result").expect("status result");

    // Original contract intact (CI's jq checks key off these fields).
    assert_eq!(
        result
            .get("server")
            .and_then(|s| s.get("protocol"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert!(result.get("cache").is_some() && result.get("jobs").is_some());
    // New: wall-clock uptime and registry-derived per-verb request counts.
    assert!(result
        .get("server")
        .and_then(|s| s.get("uptime_ms"))
        .and_then(Json::as_u64)
        .is_some());
    assert_eq!(
        result
            .get("verbs")
            .and_then(|v| v.get("status"))
            .and_then(Json::as_u64),
        Some(2),
        "the in-flight status request counts itself"
    );
    // Tenant counters now live in the registry but render identically.
    let ops = result
        .get("tenants")
        .and_then(|t| t.get("ops"))
        .expect("ops tenant row");
    assert_eq!(ops.get("requests").and_then(Json::as_u64), Some(2));
    assert_eq!(ops.get("errors").and_then(Json::as_u64), Some(0));
    server.shutdown();
}

/// `subscribe` with a `tune` object streams one generation event per search round,
/// then replies with the full outcome.
#[test]
fn subscribe_tune_streams_generation_events() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (events, done) = client
        .request_streaming(&Json::obj([
            ("cmd", "subscribe".to_json()),
            ("id", "tune-1".to_json()),
            ("workload", "fir".to_json()),
            (
                "tune",
                Json::obj([
                    ("strategy", "hill-climb".to_json()),
                    ("budget", 8u64.to_json()),
                ]),
            ),
        ]))
        .expect("subscribe tune");
    assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true));
    let result = done.get("result").expect("tune result");
    assert_eq!(result.get("workload").and_then(Json::as_str), Some("fir"));

    let generations: Vec<_> = events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("generation"))
        .collect();
    assert!(!generations.is_empty(), "tuning must stream its progress");
    assert_eq!(
        result.get("generations").and_then(Json::as_u64),
        Some(generations.len() as u64)
    );
    let mut last_replays = 0;
    for (i, event) in generations.iter().enumerate() {
        assert_eq!(event.get("id").and_then(Json::as_str), Some("tune-1"));
        let data = event.get("data").expect("generation data");
        assert_eq!(
            data.get("generation").and_then(Json::as_u64),
            Some(i as u64)
        );
        assert!(data
            .get("best")
            .and_then(|b| b.get("misses"))
            .and_then(Json::as_u64)
            .is_some());
        let replays = data
            .get("replays")
            .and_then(Json::as_u64)
            .expect("cumulative replays");
        assert!(replays >= last_replays, "replay counts are cumulative");
        last_replays = replays;
    }
    // The final frame carries the same outcome schema as the plain `tune` verb.
    assert!(result.get("result").and_then(|r| r.get("best")).is_some());
    server.shutdown();
}

/// The JSON-object frames of the fixed serve session, in order.
fn session_requests() -> Vec<Json> {
    vec![
        Json::obj([("cmd", "status".to_json()), ("tenant", "ci".to_json())]),
        Json::obj([
            ("cmd", "replay".to_json()),
            ("workload", "fir".to_json()),
            ("tenant", "ci".to_json()),
        ]),
        // Identical resubmission: served from the content-addressed store, so the
        // second run must count a cache hit, not a second replay.
        Json::obj([
            ("cmd", "replay".to_json()),
            ("workload", "fir".to_json()),
            ("tenant", "ci".to_json()),
        ]),
        Json::obj([
            ("cmd", "tune".to_json()),
            ("workload", "fir".to_json()),
            ("budget", 4u64.to_json()),
        ]),
        Json::obj([("cmd", "metrics".to_json())]),
        Json::obj([("cmd", "frobnicate".to_json())]),
    ]
}

/// Runs the fixed request sequence, then one malformed frame, against a fresh server
/// and returns the final deterministic snapshot of its private registry (taken after
/// shutdown has joined every worker, so queue/busy gauges have settled).
fn serve_session_snapshot() -> Json {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let service = std::sync::Arc::clone(server.service());
    let mut client = Client::connect(server.addr()).expect("connect");
    for request in &session_requests() {
        let _ = client.request(request).expect("reply");
    }
    client.send_raw(b"{not json\n").expect("send garbage");
    let _ = client
        .recv()
        .expect("read error frame")
        .expect("error frame");
    drop(client);
    server.shutdown();
    service.telemetry().snapshot_deterministic()
}

/// Two identical serve sessions must report byte-identical deterministic snapshots:
/// metrics are diffable in CI because only behaviour — never host noise — moves them.
#[test]
fn identical_serve_sessions_snapshot_identically() {
    let first = serve_session_snapshot().pretty();
    let second = serve_session_snapshot().pretty();
    assert_eq!(
        first, second,
        "the deterministic snapshot must not vary across identical serve sessions"
    );
    // Sanity: the compared snapshot is substantial — every layer present, timing gone.
    for name in [
        "engine.replays",
        "opt.evaluations",
        "exp.job",
        "serve.verb.replay",
        "serve.tenant.ci.requests",
        "serve.request.tune",
    ] {
        assert!(first.contains(name), "snapshot must cover {name}:\n{first}");
    }
    assert!(
        !first.contains("timing"),
        "host-dependent timing must be quarantined out of the deterministic form"
    );
}

/// The verb counters reconcile with the request histograms and with the traffic:
/// every JSON-object frame counts one `serve.verb.*` and records one
/// `serve.request.<verb>` latency; a malformed frame records only
/// `serve.request.invalid`.
#[test]
fn verb_counters_reconcile_with_request_histograms_and_frames() {
    let snapshot = serve_session_snapshot();
    let cells = |section: &str| snapshot.get(section).and_then(Json::as_obj).unwrap_or(&[]);
    let verbs: u64 = cells("counters")
        .iter()
        .filter(|(name, _)| name.starts_with("serve.verb."))
        .filter_map(|(_, value)| value.as_u64())
        .sum();
    let request_count = |name: &str| {
        cells("histograms")
            .iter()
            .find(|(cell, _)| cell == name)
            .and_then(|(_, h)| h.get("count").and_then(Json::as_u64))
    };
    let requests: u64 = cells("histograms")
        .iter()
        .filter(|(name, _)| name.starts_with("serve.request.") && name != "serve.request.invalid")
        .filter_map(|(name, _)| request_count(name))
        .sum();
    assert_eq!(verbs, requests, "one verb count per recorded request");
    assert_eq!(
        verbs,
        session_requests().len() as u64,
        "one per JSON-object frame"
    );
    assert_eq!(request_count("serve.request.invalid"), Some(1));
}

/// With `log_ndjson` on, every handled request — including malformed frames — writes
/// exactly one structured record with the tenant, verb, outcome and latency bucket.
#[test]
fn ndjson_log_records_every_request() {
    let mut server = spawn_test_server(|config| {
        config.log_ndjson = true;
    })
    .expect("bind test server");
    let buf = Arc::new(Mutex::new(Vec::new()));
    server
        .service()
        .set_log_writer(Some(Box::new(SharedLog(buf.clone()))));

    let mut client = Client::connect(server.addr()).expect("connect");
    let ok = client
        .request(&Json::obj([
            ("cmd", "status".to_json()),
            ("tenant", "ci".to_json()),
        ]))
        .expect("status reply");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    let refused = client
        .request(&Json::obj([("cmd", "frobnicate".to_json())]))
        .expect("unknown-cmd reply");
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    client.send_raw(b"{not json\n").expect("send garbage");
    let bad = client
        .recv()
        .expect("read error frame")
        .expect("error frame");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    drop(client);
    server.shutdown(); // joins everything: all log records are flushed

    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("utf-8 log");
    let records: Vec<Json> = text
        .lines()
        .map(|line| Json::parse(line).expect("each log line is one JSON record"))
        .collect();
    assert_eq!(records.len(), 3, "one record per handled request:\n{text}");
    for record in &records {
        assert!(record.get("duration_us").and_then(Json::as_u64).is_some());
        assert!(record
            .get("duration_log2_us")
            .and_then(Json::as_u64)
            .is_some());
    }
    assert_eq!(records[0].get("tenant").and_then(Json::as_str), Some("ci"));
    assert_eq!(records[0].get("cmd").and_then(Json::as_str), Some("status"));
    assert_eq!(records[0].get("outcome").and_then(Json::as_str), Some("ok"));
    // Unknown commands are sanitized to 'unknown' — client strings never mint cells.
    assert_eq!(
        records[1].get("cmd").and_then(Json::as_str),
        Some("unknown")
    );
    assert_eq!(
        records[1].get("outcome").and_then(Json::as_str),
        Some("bad_request")
    );
    assert_eq!(
        records[2].get("tenant").and_then(Json::as_str),
        Some("anonymous")
    );
    assert_eq!(
        records[2].get("cmd").and_then(Json::as_str),
        Some("invalid")
    );
    assert_eq!(
        records[2].get("outcome").and_then(Json::as_str),
        Some("bad_frame")
    );
}
