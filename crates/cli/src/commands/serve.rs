//! `ccache serve` — run the cache-advisory service, or drive one as a client.
//!
//! Server mode binds the NDJSON-over-TCP service from `ccache-serve` and blocks until
//! a client sends `shutdown` (or the process is killed). Client mode (`--connect`)
//! sends one request document and prints every reply frame — including streamed
//! `subscribe` events — one per line, exiting non-zero if the final reply is a
//! refusal. Together they make the protocol scriptable from CI and shell pipelines
//! without any external tooling.

use crate::args::ArgParser;
use crate::error::CliError;
use ccache_json::Json;
use ccache_serve::{serve, Client, ServeConfig};
use std::io::Write as _;
use std::time::Duration;

/// Help text for `ccache serve`.
pub const USAGE: &str = "\
usage: ccache serve [options]
       ccache serve --connect ADDR --request JSON

Runs the concurrent cache-advisory service: newline-delimited JSON over TCP, each
connection computing its own requests behind one bounded admission gate, and a
content-addressed result store that computes each canonical experiment key exactly
once. Prints one line — 'ccache-serve listening on HOST:PORT' — once the socket is
bound, then blocks until a client sends {\"cmd\": \"shutdown\"}. Admitted jobs
drain before exit.

server options:
  --host HOST            bind address (default: 127.0.0.1)
  --port N               TCP port; 0 picks an ephemeral port (default: 7341)
  --workers N            jobs that compute at once (default: 4)
  --queue N              jobs that may wait for a slot, in arrival order; beyond
                         them requests are shed with a structured 'overloaded'
                         reply (default: 64)
  --read-timeout-ms N    per-connection idle read timeout; idle connections are
                         closed cleanly (default: none)
  --max-frame-bytes N    largest accepted request line (default: 1048576)
  --quick, -q            reduced working sets for every job (smoke/CI scale)
  --log FORMAT           structured request log on stderr; the only FORMAT is
                         'ndjson' — one JSON record per request with tenant,
                         verb, outcome and duration bucket

client options:
  --connect ADDR         act as a client of the server at ADDR (host:port)
  --request JSON         the request document to send (one JSON object)

  --help, -h             show this help
";

/// Default TCP port when `--port` is not given.
const DEFAULT_PORT: u16 = 7341;

/// Runs the subcommand.
///
/// # Errors
///
/// Fails on usage errors, bind/connect failures, and — in client mode — if the final
/// reply is a refusal (`ok: false`).
pub fn run(args: Vec<String>) -> Result<(), CliError> {
    let mut p = ArgParser::new("serve", args);
    if p.flag(&["--help", "-h"]) {
        print!("{USAGE}");
        return Ok(());
    }
    let connect = p.value("--connect")?;
    match connect {
        Some(addr) => run_client(p, &addr),
        None => run_server(p),
    }
}

/// Server mode: bind, announce, block until shutdown.
fn run_server(mut p: ArgParser) -> Result<(), CliError> {
    let mut config = ServeConfig::default();
    if let Some(host) = p.value("--host")? {
        config.host = host;
    }
    config.port = p.parsed::<u16>("--port")?.unwrap_or(DEFAULT_PORT);
    if let Some(workers) = p.parsed::<usize>("--workers")? {
        if workers == 0 {
            return Err(p.usage("'--workers' must be at least 1"));
        }
        config.workers = workers;
    }
    if let Some(depth) = p.parsed::<usize>("--queue")? {
        if depth == 0 {
            return Err(p.usage("'--queue' must be at least 1"));
        }
        config.queue_depth = depth;
    }
    if let Some(ms) = p.parsed::<u64>("--read-timeout-ms")? {
        config.read_timeout = Some(Duration::from_millis(ms));
    }
    if let Some(bytes) = p.parsed::<usize>("--max-frame-bytes")? {
        config.max_frame_bytes = bytes;
    }
    config.quick = p.flag(&["--quick", "-q"]);
    if let Some(format) = p.value("--log")? {
        if format != "ndjson" {
            return Err(p.usage(format!(
                "unknown '--log' format '{format}' (the only format is 'ndjson')"
            )));
        }
        config.log_ndjson = true;
    }
    p.finish()?;

    let handle = serve(config)?;
    // The announcement line is the machine-readable contract scripts parse for the
    // ephemeral port, so it must be flushed before blocking.
    println!("ccache-serve listening on {}", handle.addr());
    std::io::stdout().flush()?;
    handle.wait();
    Ok(())
}

/// Client mode: send one request, print every reply frame, exit by the final `ok`.
fn run_client(mut p: ArgParser, addr: &str) -> Result<(), CliError> {
    let request = p
        .value("--request")?
        .ok_or_else(|| p.usage("'--connect' requires '--request JSON'"))?;
    p.finish()?;
    let doc = Json::parse(&request)
        .map_err(|e| CliError::usage(format!("invalid '--request' document: {e}")))?;

    let mut client = Client::connect(addr)?;
    client.send(&doc)?;
    // Print frames as they arrive; the first non-event frame is the final reply.
    loop {
        let Some(line) = client.recv_line()? else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "the server closed before replying",
            )
            .into());
        };
        println!("{line}");
        let frame = Json::parse(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        if frame.get("event").is_some() {
            continue;
        }
        return match frame.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(()),
            _ => {
                let message = frame
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("the server refused the request");
                Err(CliError::Io(std::io::Error::other(format!(
                    "request refused: {message}"
                ))))
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_json::ToJson;
    use ccache_serve::spawn_test_server;

    #[test]
    fn bad_flags_are_usage_errors() {
        let err = run(vec!["--workers".to_owned(), "0".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("'--workers' must be at least 1"));
        assert_eq!(err.exit_code(), 2);

        let err = run(vec!["--connect".to_owned(), "127.0.0.1:1".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("requires '--request JSON'"));
        assert_eq!(err.exit_code(), 2);

        let err = run(vec![
            "--connect".to_owned(),
            "127.0.0.1:1".to_owned(),
            "--request".to_owned(),
            "{not json".to_owned(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("invalid '--request' document"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn client_mode_round_trips_against_a_live_server() {
        let mut server = spawn_test_server(|_| {}).expect("bind test server");
        let addr = server.addr().to_string();
        run(vec![
            "--connect".to_owned(),
            addr.clone(),
            "--request".to_owned(),
            Json::obj([("cmd", "status".to_json())]).compact(),
        ])
        .expect("status round trip");

        // A refusal maps to a non-zero (non-usage) exit.
        let err = run(vec![
            "--connect".to_owned(),
            addr,
            "--request".to_owned(),
            Json::obj([("cmd", "frobnicate".to_json())]).compact(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("request refused"));
        assert_eq!(err.exit_code(), 1);
        server.shutdown();
    }
}
