//! End-to-end command round trips over a loopback server: inline `run` specs, trace
//! upload + replay-by-name, and the `subscribe` observer stream.

use ccache_json::{Json, ToJson};
use ccache_serve::{spawn_test_server, Client};
use std::fmt::Write as _;
use std::path::Path;

#[test]
fn run_executes_inline_specs() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let spec = Json::parse(
        r#"{"name": "inline", "replay": [{"workloads": ["fir"],
            "policies": ["shared", "heuristic"], "label": "policy"}]}"#,
    )
    .unwrap();
    let reply = client
        .request(&Json::obj([
            ("cmd", "run".to_json()),
            ("id", 1u64.to_json()),
            ("spec", spec),
        ]))
        .expect("run reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let result = reply.get("result").unwrap();
    assert_eq!(
        result.get("artefact").and_then(Json::as_str),
        Some("ccache-exp")
    );
    assert_eq!(result.get("version").and_then(Json::as_u64), Some(1));
    assert_eq!(
        result
            .get("results")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2)
    );
    server.shutdown();
}

#[test]
fn uploaded_traces_replay_by_name_everywhere() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A small strided read/write pattern in the text trace format.
    let mut text = String::from("# synthetic upload\n");
    for i in 0..256u64 {
        writeln!(text, "R {:#x} 4", 0x1000 + (i % 64) * 16).unwrap();
        writeln!(text, "W {:#x} 4", 0x8000 + i * 4).unwrap();
    }
    let upload = client
        .request(&Json::obj([
            ("cmd", "upload".to_json()),
            ("name", "synthetic".to_json()),
            ("text", text.to_json()),
        ]))
        .expect("upload reply");
    assert_eq!(upload.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        upload
            .get("result")
            .and_then(|r| r.get("events"))
            .and_then(Json::as_u64),
        Some(512)
    );

    // The name now works as a workload selector in the grid commands...
    let replay = client
        .request(&Json::obj([
            ("cmd", "replay".to_json()),
            ("trace", "synthetic".to_json()),
        ]))
        .expect("replay reply");
    assert_eq!(replay.get("ok").and_then(Json::as_bool), Some(true));

    // ... in inline run specs ...
    let spec =
        Json::parse(r#"{"name": "uploaded", "replay": [{"workloads": [{"trace": "synthetic"}]}]}"#)
            .unwrap();
    let run = client
        .request(&Json::obj([("cmd", "run".to_json()), ("spec", spec)]))
        .expect("run reply");
    assert_eq!(run.get("ok").and_then(Json::as_bool), Some(true));

    // ... and in subscribe streams.
    let (events, done) = client
        .request_streaming(&Json::obj([
            ("cmd", "subscribe".to_json()),
            ("trace", "synthetic".to_json()),
            ("window", 128u64.to_json()),
        ]))
        .expect("subscribe");
    assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true));
    assert!(!events.is_empty(), "subscribe must stream window events");

    // Bad names are refused before touching the filesystem.
    let bad = client
        .request(&Json::obj([
            ("cmd", "upload".to_json()),
            ("name", "../escape".to_json()),
            ("text", "R 0x0 4\n".to_json()),
        ]))
        .expect("bad-name reply");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    server.shutdown();
}

#[test]
fn uploads_past_the_address_limit_are_refused_and_the_connection_keeps_serving() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    for text in [
        "R 0xffffffffffffffff 8\nW 0x10 4\n",
        "R 0xffffffffffffffe0 4\n",
    ] {
        let reply = client
            .request(&Json::obj([
                ("cmd", "upload".to_json()),
                ("name", "wrapped".to_json()),
                ("text", text.to_json()),
            ]))
            .expect("upload reply");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let error = reply.get("error").expect("error object");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("bad_request")
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains("line 1: "), "{message}");
    }
    // The refused name was never stored, and the same connection still serves.
    let replay = client
        .request(&Json::obj([
            ("cmd", "replay".to_json()),
            ("trace", "wrapped".to_json()),
        ]))
        .expect("replay reply");
    assert_eq!(replay.get("ok").and_then(Json::as_bool), Some(false));
    let status = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status reply");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn uploads_with_overlong_lines_are_refused_and_the_connection_keeps_serving() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let text = format!("R 0x10 4\nW 0x20 4{}\n", " ".repeat(4096));
    let reply = client
        .request(&Json::obj([
            ("cmd", "upload".to_json()),
            ("name", "overlong".to_json()),
            ("text", text.to_json()),
        ]))
        .expect("upload reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").expect("error object");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("bad_request")
    );
    let message = error.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(
        message.ends_with("line 2: longer than 4096 bytes"),
        "{message}"
    );
    let status = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status reply");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        status
            .get("result")
            .and_then(|r| r.get("uploads"))
            .and_then(Json::as_obj)
            .map(|uploads| uploads.len()),
        Some(0)
    );
    server.shutdown();
}

#[test]
fn hostile_run_specs_are_refused_and_the_connection_keeps_serving() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let repeated = |item: &str| vec![item; 3000].join(",");
    let specs = [
        // 3000 x 3000 duplicate grid entries: 9,000,000 jobs before deduplication.
        format!(
            r#"{{"name": "huge", "replay": [{{"workloads": [{}], "policies": [{}]}}]}}"#,
            repeated(r#""fir""#),
            repeated(r#""shared""#)
        ),
        // A partition sweep over a geometry with 1,000,000 columns.
        r#"{"name": "wide", "replay": [{"workloads": ["fir"],
            "geometries": [{"capacity": 2048, "columns": 1000000, "line": 32}],
            "policies": ["partition-sweep"]}]}"#
            .to_owned(),
        // A 2^40-byte cache, whose set state once aborted the whole server.
        r#"{"name": "vast", "replay": [{"workloads": ["fir"],
            "geometries": [{"capacity": 1099511627776, "columns": 4, "line": 32}]}]}"#
            .to_owned(),
        // A billion-entry TLB, which scanned every resident entry on each miss.
        r#"{"name": "vast-tlb", "replay": [{"workloads": ["fir"],
            "geometries": [{"capacity": 2048, "columns": 4, "line": 32, "tlb": 1000000000}]}]}"#
            .to_owned(),
    ];
    for spec in &specs {
        let reply = client
            .request(&Json::obj([
                ("cmd", "run".to_json()),
                ("spec", Json::parse(spec).unwrap()),
            ]))
            .expect("run reply");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let error = reply.get("error").expect("error object");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("bad_request")
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(
            message.starts_with("invalid experiment spec: "),
            "{message}"
        );
    }
    let status = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status reply");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn traces_that_are_neither_uploads_nor_binary_files_are_refused_by_every_command() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let trace = ccache_trace::textfmt::read_trace("R 0x1000 4\nW 0x2000 4\n".as_bytes())
        .expect("the text trace parses");
    let text_file = dir.join("serve-not-uploaded.trace");
    std::fs::write(&text_file, "R 0x1000 4\nW 0x2000 4\n").expect("write text trace");
    // `/etc/passwd` once came back as its first line in the error message, and
    // `/dev/zero` made the text reader buffer one endless line. A text file the server
    // did not store is refused like a missing one.
    let text_file = text_file.to_str().expect("utf-8 path");
    for path in ["/etc/passwd", "/dev/zero", "/no/such/file", text_file] {
        let spec = Json::obj([
            ("name", "leak".to_json()),
            (
                "replay",
                Json::arr([Json::obj([(
                    "workloads",
                    Json::arr([Json::obj([("trace", path.to_json())])]),
                )])]),
            ),
        ]);
        let requests = [
            Json::obj([("cmd", "replay".to_json()), ("trace", path.to_json())]),
            Json::obj([("cmd", "tune".to_json()), ("trace", path.to_json())]),
            Json::obj([("cmd", "run".to_json()), ("spec", spec)]),
            Json::obj([("cmd", "subscribe".to_json()), ("trace", path.to_json())]),
            Json::obj([
                ("cmd", "subscribe".to_json()),
                ("trace", path.to_json()),
                ("tune", Json::obj([("budget", 2u64.to_json())])),
            ]),
        ];
        for request in &requests {
            let reply = client.request(request).expect("reply");
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
            let error = reply.get("error").expect("error object");
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some("bad_request"),
                "{}",
                request.compact()
            );
            let message = error.get("message").and_then(Json::as_str).unwrap_or("");
            assert!(message.starts_with("unknown trace '"), "{message}");
            for leak in ["root:", "os error", "No such file", "line 1"] {
                assert!(!message.contains(leak), "{message}");
            }
        }
    }
    // A binary trace file on the server still replays by path.
    let binary_file = dir.join("serve-by-path.cct");
    let file = std::fs::File::create(&binary_file).expect("create binary trace");
    ccache_trace::binfmt::write_trace(&trace, file).expect("write binary trace");
    let replay = client
        .request(&Json::obj([
            ("cmd", "replay".to_json()),
            ("trace", binary_file.to_str().expect("utf-8 path").to_json()),
        ]))
        .expect("replay reply");
    assert_eq!(replay.get("ok").and_then(Json::as_bool), Some(true));
    let status = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status reply");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn subscribe_streams_windows_then_the_final_statistics() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (events, done) = client
        .request_streaming(&Json::obj([
            ("cmd", "subscribe".to_json()),
            ("id", "sub-1".to_json()),
            ("workload", "fir".to_json()),
            ("window", 256u64.to_json()),
        ]))
        .expect("subscribe");
    assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true));
    let result = done.get("result").unwrap();
    let windows = result.get("windows").and_then(Json::as_u64).unwrap();
    let window_events: Vec<_> = events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("window"))
        .collect();
    assert_eq!(window_events.len() as u64, windows);
    assert!(windows > 0);
    // Every event frame carries the request id and a well-formed sample.
    let mut references = 0;
    for event in &window_events {
        assert_eq!(event.get("id").and_then(Json::as_str), Some("sub-1"));
        let sample = event.get("sample").expect("window sample");
        references += sample.get("references").and_then(Json::as_u64).unwrap();
    }
    // The streamed windows tile the replay exactly.
    assert_eq!(
        Some(references),
        result
            .get("result")
            .and_then(|r| r.get("references"))
            .and_then(Json::as_u64)
    );
    server.shutdown();
}
