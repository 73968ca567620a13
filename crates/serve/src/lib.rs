//! A concurrent cache-advisory service: newline-delimited JSON over TCP.
//!
//! The library crates decide cache policy for one caller at a time; this crate turns
//! them into a long-running system. Any number of clients connect to a server
//! ([`serve`]) over TCP and exchange one JSON document per line (the whole stack is
//! `std::net` + `ccache-json`, so it builds offline). Each connection drives its own
//! [`Session`](column_caching::Session)s on its own thread, behind one admission gate
//! that bounds how many computations run and wait at once.
//!
//! # Protocol in one paragraph
//!
//! A request is one line: a JSON object with a `"cmd"` field (`replay`, `run`, `tune`,
//! `upload`, `subscribe`, `status`, `metrics`, `shutdown`) plus command parameters, and optional
//! `"id"` (echoed verbatim into every reply frame) and `"tenant"` (counted in `status`)
//! fields. A reply is one line: `{"id":…,"ok":true,"result":…}` on success or
//! `{"id":…,"ok":false,"error":{"code":…,"message":…}}` on refusal; `subscribe`
//! additionally streams `{"id":…,"event":…}` frames while its replay runs. Compute
//! commands compile to [`ExperimentSpec`](ccache_exp::ExperimentSpec)s, so results are
//! the same schema-versioned artefacts `ccache run` writes — and they are memoized in a
//! content-addressed store keyed by [`Session::spec_key`](column_caching::Session::spec_key),
//! so identical concurrent submissions compute once and every caller gets byte-identical
//! bytes. See DESIGN.md's "Serve protocol" section for the full grammar.
//!
//! Production behaviours are first-class: bounded admission with structured
//! `overloaded` shedding (never a dropped connection), read and write timeouts,
//! malformed-frame tolerance (structured error, the connection survives), and graceful
//! shutdown that drains admitted jobs. Everything protocol-level lives in [`Service`],
//! which is socket-free and driven directly by the test suite; [`spawn_test_server`]
//! starts the real TCP stack on an ephemeral loopback port for end-to-end tests.
//!
//! ```
//! use ccache_serve::{spawn_test_server, Client};
//! use ccache_json::{Json, ToJson};
//!
//! let mut server = spawn_test_server(|_| {})?;
//! let mut client = Client::connect(server.addr())?;
//! let reply = client.request(&Json::obj([("cmd", "status".to_json())]))?;
//! assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod frame;
mod gate;
pub mod server;
pub mod service;
pub mod store;

pub use client::Client;
pub use server::{serve, spawn_test_server, ServerHandle};
pub use service::{code, Service};
pub use store::StoreCounters;

use std::time::Duration;

/// Configuration for [`serve`]. `ServeConfig::default()` is a production-shaped local
/// server; [`spawn_test_server`] layers the test defaults (ephemeral port, quick scale,
/// debug commands) on top.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind.
    pub host: String,
    /// TCP port; `0` binds an ephemeral port (read it back from [`ServerHandle::addr`]).
    pub port: u16,
    /// Computations that run at once, each on the thread of the connection that asked
    /// for it (at least 1).
    pub workers: usize,
    /// Computations that may wait for a running one to finish, admitted in arrival
    /// order (at least 1); an arrival past them is shed with a structured `overloaded`
    /// error.
    pub queue_depth: usize,
    /// Maximum size of one request frame; longer lines get an `oversized_frame` error
    /// and the connection closes (the server never buffers more than this per client).
    pub max_frame_bytes: usize,
    /// Per-connection read timeout; a connection idle past it is closed cleanly.
    pub read_timeout: Option<Duration>,
    /// Default workload scale for requests that do not set `"quick"` themselves.
    pub quick: bool,
    /// Enables the `debug_sleep` command (deterministic lifecycle tests only).
    pub debug_commands: bool,
    /// Emit one NDJSON record per handled request (tenant, verb, outcome, duration
    /// bucket) to stderr — `ccache serve --log ndjson`. Tests can redirect the stream
    /// with [`Service::set_log_writer`].
    pub log_ndjson: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_owned(),
            port: 0,
            workers: 4,
            queue_depth: 64,
            max_frame_bytes: 1 << 20,
            read_timeout: None,
            quick: false,
            debug_commands: false,
            log_ndjson: false,
        }
    }
}
