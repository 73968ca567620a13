//! The TCP layer: bind, accept, move frames — all protocol logic lives in
//! [`Service`].
//!
//! Threading model: one accept thread and one detached thread per connection. A
//! connection thread computes its own requests inside [`Service::respond`], once the
//! service's admission gate lets it in. Shutdown closes the gate (waiting jobs still
//! run), wakes the accept loop with a throwaway loopback connection, joins the accept
//! thread and waits until the gate is empty.
//!
//! A frame not written within [`WRITE_TIMEOUT`] closes its connection once the request
//! ends, dropping the rest of its frames: a client that stops reading holds a compute
//! slot, and a drain, only that long plus the rest of its `subscribe` replay.

use crate::frame::{read_frame, Frame};
use crate::service::{error_frame, Service};
use crate::{code, ServeConfig};
use ccache_json::Json;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long one reply or event frame may take to write before its connection is dropped.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// A running server: its bound address plus the handles needed to stop it.
///
/// Dropping the handle shuts the server down gracefully (drain, join); call
/// [`ServerHandle::shutdown`] to do so explicitly, or [`ServerHandle::wait`] to park
/// until some client sends the `shutdown` command.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    accept: Option<JoinHandle<()>>,
}

/// Binds `config.host:config.port` and starts the accept loop.
///
/// # Errors
///
/// Fails if the address cannot be bound.
pub fn serve(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind((config.host.as_str(), config.port))?;
    let addr = listener.local_addr()?;
    let service = Arc::new(Service::new(config));
    let accept = {
        let service = Arc::clone(&service);
        thread::Builder::new()
            .name("ccache-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &service))
            .expect("spawn accept thread")
    };
    Ok(ServerHandle {
        addr,
        service,
        accept: Some(accept),
    })
}

/// Starts a loopback server shaped for tests — ephemeral port, quick workload scale,
/// debug commands enabled — after letting `tweak` adjust the configuration.
///
/// # Errors
///
/// Fails if the loopback address cannot be bound.
pub fn spawn_test_server(tweak: impl FnOnce(&mut ServeConfig)) -> io::Result<ServerHandle> {
    let mut config = ServeConfig {
        quick: true,
        debug_commands: true,
        ..ServeConfig::default()
    };
    tweak(&mut config);
    serve(config)
}

impl ServerHandle {
    /// The bound address — read the ephemeral port back from here after `port: 0`.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The protocol engine behind this server (counters, shutdown state, `respond`).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Begins a graceful shutdown and blocks until the accept thread has joined and
    /// every admitted job has finished.
    pub fn shutdown(&mut self) {
        self.service.begin_shutdown();
        self.finish();
    }

    /// Parks until a client's `shutdown` command (or another thread's
    /// [`Service::begin_shutdown`]) starts a shutdown, then drains and joins — the
    /// `ccache serve` foreground loop.
    pub fn wait(mut self) {
        self.service.wait_shutdown();
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(accept) = self.accept.take() {
            // The accept thread is parked in accept(); poke it awake so it can observe
            // the shutdown flag and exit.
            let _ = TcpStream::connect(self.addr);
            let _ = accept.join();
        }
        self.service.cleanup();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.service.is_shutting_down() {
            self.service.begin_shutdown();
        }
        self.finish(); // idempotent: the accept handle is taken and the gate stays empty
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if service.is_shutting_down() {
                    break; // the wake-up poke from finish(), or a post-shutdown client
                }
                let service = Arc::clone(service);
                let _ = thread::Builder::new()
                    .name("ccache-serve-conn".to_owned())
                    .spawn(move || handle_connection(&service, stream));
            }
            Err(_) => {
                if service.is_shutting_down() {
                    break;
                }
            }
        }
    }
}

fn handle_connection(service: &Arc<Service>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(service.config().read_timeout);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let max_frame = service.config().max_frame_bytes;
    loop {
        match read_frame(&mut reader, max_frame) {
            // Transport errors and read-timeout expiry both end the connection
            // cleanly — for the client that is an orderly EOF, not a reset.
            Err(_) | Ok(Frame::Eof) => break,
            Ok(Frame::Oversized) => {
                let reply = error_frame(
                    &Json::Null,
                    code::OVERSIZED_FRAME,
                    &format!("the frame exceeds the {max_frame}-byte limit"),
                );
                let _ = write_frame(&mut writer, &reply);
                break;
            }
            Ok(Frame::Line(line)) => {
                let mut write_ok = true;
                let keep_open = {
                    let writer = &mut writer;
                    let write_ok = &mut write_ok;
                    let mut emit = move |doc: &Json| {
                        if *write_ok && write_frame(writer, doc).is_err() {
                            *write_ok = false;
                        }
                    };
                    service.respond(&line, &mut emit)
                };
                if !keep_open || !write_ok {
                    break;
                }
            }
        }
    }
}

/// Writes one frame within [`WRITE_TIMEOUT`]: the socket timeout bounds each write, and
/// the frame's deadline stops a stalled client whose socket takes a few bytes per write.
fn write_frame(writer: &mut TcpStream, doc: &Json) -> io::Result<()> {
    let mut text = doc.compact();
    text.push('\n');
    let started = Instant::now();
    let mut rest = text.as_bytes();
    while !rest.is_empty() {
        if started.elapsed() > WRITE_TIMEOUT {
            return Err(io::ErrorKind::TimedOut.into());
        }
        match writer.write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
