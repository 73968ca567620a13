//! The concurrency stress suite: 32 client threads submitting a mix of identical and
//! distinct specs. Asserts the three dedup guarantees: each canonical key computes
//! exactly once (store counters), every response for a key is byte-identical on the
//! wire, and the bytes match a single-threaded `Session::run_spec` oracle.

use ccache_exp::ExperimentSpec;
use ccache_json::{Json, ToJson};
use ccache_serve::{spawn_test_server, Client, ServeConfig, Service};
use column_caching::Session;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const CLIENTS: usize = 32;

/// The four spec variants the 32 clients share (8 clients per variant).
fn policies() -> Vec<Json> {
    vec![
        "shared".to_json(),
        "heuristic".to_json(),
        "round-robin".to_json(),
        Json::obj([("partition", 2u64.to_json())]),
    ]
}

/// The spec document the server synthesizes for `replay {workload, policy}` — the
/// oracle must run the exact same spec.
fn spec_doc(policy: &Json) -> Json {
    Json::obj([
        ("name", "serve-grid".to_json()),
        (
            "replay",
            Json::arr([Json::obj([
                ("workloads", Json::arr(["fir".to_json()])),
                ("policies", Json::arr([policy.clone()])),
            ])]),
        ),
    ])
}

#[test]
fn stress_32_clients_compute_each_key_exactly_once() {
    let mut server = spawn_test_server(|config| {
        config.workers = 4;
        config.queue_depth = 64;
    })
    .expect("bind test server");
    let addr = server.addr();
    let policies = policies();

    // 32 threads, thread i drives variant i % 4. Requests for one variant are fully
    // identical (same id, same tenant), so their reply lines must be byte-identical.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let variant = i % policies.len();
            let policy = policies[variant].clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let request = Json::obj([
                    ("cmd", "replay".to_json()),
                    ("id", (variant as u64).to_json()),
                    ("tenant", format!("tenant-{variant}").to_json()),
                    ("workload", "fir".to_json()),
                    ("policy", policy),
                ]);
                client.send(&request).expect("send");
                let line = client
                    .recv_line()
                    .expect("recv")
                    .expect("a reply before close");
                (variant, line)
            })
        })
        .collect();

    let mut by_variant: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for handle in handles {
        let (variant, line) = handle.join().expect("client thread panicked");
        by_variant.entry(variant).or_default().push(line);
    }

    // Dedup evidence from the store: 4 computations, 28 served from cache.
    let counters = server.service().cache_counters();
    assert_eq!(
        counters.misses,
        policies.len() as u64,
        "one compute per key"
    );
    assert_eq!(counters.hits, (CLIENTS - policies.len()) as u64);
    assert_eq!(counters.entries, policies.len() as u64);
    assert_eq!(
        server
            .service()
            .telemetry()
            .counter_value("serve.jobs.executed"),
        policies.len() as u64
    );

    let oracle = Session::builder().quick(true).build().expect("session");
    for (variant, lines) in &by_variant {
        assert_eq!(lines.len(), CLIENTS / policies.len());
        // Byte-identity on the wire: every reply line for this key is the same bytes.
        for line in lines {
            assert_eq!(
                line, &lines[0],
                "replies for variant {variant} must be byte-identical"
            );
        }
        let frame = Json::parse(&lines[0]).expect("reply parses");
        assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            frame.get("id").and_then(Json::as_u64),
            Some(*variant as u64)
        );
        let result = frame.get("result").expect("result document");
        assert_eq!(
            result.get("artefact").and_then(Json::as_str),
            Some("ccache-exp"),
            "replies are the schema-versioned artefact"
        );
        // Single-threaded oracle: the exact same spec through a plain Session must
        // produce the exact bytes the server memoized and replied with.
        let spec = ExperimentSpec::from_json(&spec_doc(&policies[*variant])).expect("spec");
        let (_, oracle_bytes) = oracle.run_spec_bytes(&spec).expect("oracle run");
        assert_eq!(
            result.pretty(),
            oracle_bytes,
            "variant {variant} drifted from the Session::run_spec oracle"
        );
    }

    // Per-tenant counters add up: 8 requests per tenant, one compute per tenant's key
    // across all its threads.
    let mut client = Client::connect(addr).expect("connect");
    let status = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status");
    let tenants = status
        .get("result")
        .and_then(|r| r.get("tenants"))
        .expect("tenant table");
    let mut total_misses = 0;
    for variant in 0..policies.len() {
        let t = tenants
            .get(&format!("tenant-{variant}"))
            .expect("tenant entry");
        assert_eq!(t.get("requests").and_then(Json::as_u64), Some(8));
        assert_eq!(t.get("errors").and_then(Json::as_u64), Some(0));
        let hits = t.get("cache_hits").and_then(Json::as_u64).unwrap();
        let misses = t.get("cache_misses").and_then(Json::as_u64).unwrap();
        assert_eq!(hits + misses, 8);
        total_misses += misses;
    }
    assert_eq!(total_misses, policies.len() as u64);

    server.shutdown();
}

#[test]
fn sequential_resubmission_is_served_from_the_store() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let request = Json::obj([
        ("cmd", "replay".to_json()),
        ("id", "twice".to_json()),
        ("workload", "fir".to_json()),
    ]);
    let first = client.request(&request).expect("first");
    let second = client.request(&request).expect("second");
    assert_eq!(first.compact(), second.compact());
    let counters = server.service().cache_counters();
    assert_eq!((counters.misses, counters.hits), (1, 1));
    server.shutdown();
}

#[test]
fn a_socket_free_service_computes_on_the_requesting_thread() {
    let service = Service::new(ServeConfig {
        quick: true,
        ..ServeConfig::default()
    });
    let (sent, received) = mpsc::channel();
    let requester = thread::spawn(move || {
        let mut frames = Vec::new();
        let request = br#"{"cmd": "replay", "workload": "fir", "policy": "shared"}"#;
        service.respond(request, &mut |doc: &Json| frames.push(doc.clone()));
        let _ = sent.send(frames);
    });
    let frames = received
        .recv_timeout(Duration::from_secs(10))
        .expect("respond answers without a server around it");
    requester.join().expect("the requesting thread");
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].get("ok").and_then(Json::as_bool), Some(true));
    let spec = ExperimentSpec::from_json(&spec_doc(&"shared".to_json())).expect("spec");
    let oracle = Session::builder().quick(true).build().expect("session");
    let (_, oracle_bytes) = oracle.run_spec_bytes(&spec).expect("oracle run");
    assert_eq!(
        frames[0].get("result").expect("result document").pretty(),
        oracle_bytes
    );
}
