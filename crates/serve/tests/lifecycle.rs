//! Lifecycle behaviours: graceful shutdown drains in-flight work and refuses new jobs
//! with `shutting_down`; a full queue sheds with `overloaded` without stalling other
//! clients; an idle connection is closed cleanly at the read timeout.
//!
//! Determinism comes from the `debug_sleep` test command (each call occupies a worker
//! or queue slot for a fixed time under a fresh memo key) plus polling the `status`
//! counters (`running`, `queued`) instead of sleeping on guesses.

use ccache_json::{Json, ToJson};
use ccache_serve::{spawn_test_server, Client};
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

fn status(addr: SocketAddr) -> Json {
    let mut client = Client::connect(addr).expect("connect for status");
    let reply = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status");
    reply.get("result").cloned().expect("status result")
}

/// Polls `status` until `pred` holds (5s cap — generous; the polls are cheap).
fn wait_for(addr: SocketAddr, what: &str, pred: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if pred(&status(addr)) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

fn server_gauge(doc: &Json, field: &str) -> u64 {
    doc.get("server")
        .and_then(|s| s.get(field))
        .and_then(Json::as_u64)
        .unwrap()
}

fn sleep_request(ms: u64) -> Json {
    Json::obj([("cmd", "debug_sleep".to_json()), ("ms", ms.to_json())])
}

fn error_code(frame: &Json) -> Option<String> {
    frame
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .map(str::to_owned)
}

#[test]
fn graceful_shutdown_drains_inflight_jobs_and_refuses_new_ones() {
    let mut server = spawn_test_server(|config| {
        config.workers = 1;
        config.queue_depth = 4;
    })
    .expect("bind test server");
    let addr = server.addr();

    // Pin the single worker, then queue one more job behind it.
    let running = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.request(&sleep_request(400)).expect("reply")
    });
    wait_for(addr, "the worker to pick the job up", |doc| {
        server_gauge(doc, "running") == 1
    });
    let queued = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.request(&sleep_request(100)).expect("reply")
    });
    wait_for(addr, "the second job to queue", |doc| {
        server_gauge(doc, "queued") == 1
    });

    // A connection established *before* the shutdown: it must stay served, and its
    // post-shutdown submissions must be refused with the structured code.
    let mut survivor = Client::connect(addr).expect("connect");

    let mut closer = Client::connect(addr).expect("connect");
    let reply = closer
        .request(&Json::obj([("cmd", "shutdown".to_json())]))
        .expect("shutdown reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert!(reply
        .get("result")
        .and_then(|r| r.get("draining"))
        .and_then(Json::as_u64)
        .is_some());
    // The shutdown reply is the connection's last frame.
    assert!(closer.recv().expect("clean close").is_none());

    let refused = survivor.request(&sleep_request(10)).expect("refusal reply");
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&refused).as_deref(), Some("shutting_down"));

    // Both accepted jobs drained to completion despite the shutdown between them.
    let first = running.join().expect("running client");
    let second = queued.join().expect("queued client");
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(second.get("ok").and_then(Json::as_bool), Some(true));

    server.shutdown();
    assert_eq!(
        server
            .service()
            .telemetry()
            .counter_value("serve.jobs.executed"),
        2
    );
}

#[test]
fn full_queue_sheds_overloaded_without_stalling_other_clients() {
    let mut server = spawn_test_server(|config| {
        config.workers = 1;
        config.queue_depth = 1;
    })
    .expect("bind test server");
    let addr = server.addr();

    let running = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.request(&sleep_request(400)).expect("reply")
    });
    wait_for(addr, "the worker to pick the job up", |doc| {
        server_gauge(doc, "running") == 1
    });
    let queued = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.request(&sleep_request(100)).expect("reply")
    });
    wait_for(addr, "the queue slot to fill", |doc| {
        server_gauge(doc, "queued") == 1
    });

    // Worker busy + queue full: the next submission is shed immediately...
    let mut shed_client = Client::connect(addr).expect("connect");
    let started = Instant::now();
    let refused = shed_client
        .request(&sleep_request(10))
        .expect("overload reply");
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&refused).as_deref(), Some("overloaded"));
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "shedding must not wait for capacity"
    );
    assert!(
        server
            .service()
            .telemetry()
            .counter_value("serve.jobs.shed")
            >= 1
    );

    // ... and the shed request did not stall anyone: status answers, accepted jobs run.
    assert!(server_gauge(&status(addr), "running") == 1);
    assert_eq!(
        running
            .join()
            .expect("running client")
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        queued
            .join()
            .expect("queued client")
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    server.shutdown();
}

/// The job counters `metrics` exports (`serve.jobs.*` and the `serve.workers.busy`
/// gauge) next to the values `status` reports for them.
fn status_and_metrics_job_counters(addr: SocketAddr) -> (Vec<u64>, Vec<u64>) {
    let status = status(addr);
    let jobs = |field: &str| {
        status
            .get("jobs")
            .and_then(|j| j.get(field))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let mut client = Client::connect(addr).expect("connect for metrics");
    let metrics = client
        .request(&Json::obj([("cmd", "metrics".to_json())]))
        .expect("metrics")
        .get("result")
        .cloned()
        .expect("metrics result");
    let cell = |kind: &str, name: &str| {
        metrics
            .get(kind)
            .and_then(|cells| cells.get(name))
            .and_then(Json::as_u64)
            .unwrap()
    };
    (
        vec![
            jobs("executed"),
            jobs("failed"),
            jobs("shed"),
            server_gauge(&status, "running"),
        ],
        vec![
            cell("counters", "serve.jobs.executed"),
            cell("counters", "serve.jobs.failed"),
            cell("counters", "serve.jobs.shed"),
            cell("gauges", "serve.workers.busy"),
        ],
    )
}

#[test]
fn status_and_metrics_agree_after_the_lifecycle_scenario() {
    let mut server = spawn_test_server(|config| {
        config.workers = 1;
        config.queue_depth = 1;
    })
    .expect("bind test server");
    let addr = server.addr();

    // One job running, one queued, one shed, then one that fails. The running job is
    // long enough for both snapshots to see the same state.
    let running = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.request(&sleep_request(1500)).expect("reply")
    });
    wait_for(addr, "the worker to pick the job up", |doc| {
        server_gauge(doc, "running") == 1
    });
    let queued = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.request(&sleep_request(50)).expect("reply")
    });
    wait_for(addr, "the queue slot to fill", |doc| {
        server_gauge(doc, "queued") == 1
    });
    let mut client = Client::connect(addr).expect("connect");
    let shed = client.request(&sleep_request(10)).expect("overload reply");
    assert_eq!(error_code(&shed).as_deref(), Some("overloaded"));
    let (status, metrics) = status_and_metrics_job_counters(addr);
    assert_eq!(status, metrics, "while a job runs");
    assert_eq!(status[2..], [1, 1]);

    running.join().expect("running client");
    queued.join().expect("queued client");
    let failing = Json::parse(
        r#"{"cmd": "run", "spec": {"name": "f", "replay": [{"workloads": ["fir"],
            "policies": [{"fixed": {"no_such_var": [0]}}]}]}}"#,
    )
    .unwrap();
    let failed = client.request(&failing).expect("failure reply");
    assert_eq!(error_code(&failed).as_deref(), Some("job_failed"));
    // The worker leaves the busy gauge just after publishing the reply.
    wait_for(addr, "the worker to go idle", |doc| {
        server_gauge(doc, "running") == 0
    });
    let (status, metrics) = status_and_metrics_job_counters(addr);
    assert_eq!(status, metrics, "after every job finished");
    assert_eq!(status, [2, 1, 1, 0]);
    server.shutdown();
}

#[test]
fn idle_connections_close_cleanly_at_the_read_timeout() {
    let mut server = spawn_test_server(|config| {
        config.read_timeout = Some(Duration::from_millis(100));
    })
    .expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("client timeout");

    // Active request inside the window: served normally.
    let reply = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    // Then going idle: the server closes with a clean EOF, not an error or a reset.
    let started = Instant::now();
    assert!(client.recv().expect("clean EOF").is_none());
    assert!(
        started.elapsed() >= Duration::from_millis(80),
        "the close should come from the timeout, not immediately"
    );
    server.shutdown();
}
