//! `fourcycle-server` — the network front door of the workspace.
//!
//! Everything below this crate is in-process: [`ShardedRuntime`] serves
//! the command vocabulary to callers holding a Rust handle. This crate
//! puts that vocabulary on a wire — a **std-only TCP listener** (no
//! external async runtime, matching ADR-004's thread-per-shard
//! philosophy; see `docs/adr/ADR-008-network-front-door.md`) speaking the
//! line-based command text format of `fourcycle-service`, plus the
//! blocking [`Client`] the tests, the socket-mode load generator, and any
//! external tool use to drive it.
//!
//! # Architecture
//!
//! ```text
//!   client sockets          fourcycle-server                fourcycle-runtime
//!  ┌──────────────┐   accept   ┌───────────────────┐
//!  │ TCP conn 1   │──────────► │ conn thread 1     │ try_submit()  ┌─────────┐
//!  │  "layered…\n"│            │  parse_request    │─────────────► │ shard 0 │
//!  └──────────────┘            │  full? err busy   │   Ticket      │ shard 1 │
//!                              │  ≤ 128 owed       │ lone line:    │   …     │
//!                              │                   │ try_call()    └─────────┘
//!                              │                   │   Ticket::wait     │
//!         responses ◄──────────│  render_response  │◄───────────────────┘
//!         "ok applied g1 1 4"  └───────────────────┘
//!                         (TCP conn 2 ──► conn thread 2, …)
//! ```
//!
//! * **One thread per connection.** The thread frames newline-delimited
//!   commands, parses them, and *fires* every complete line already in
//!   its read buffer at the runtime with the non-blocking
//!   [`try_submit`](ShardedRuntime::try_submit). It then waits each
//!   resulting [`Ticket`] in turn, writes the framed responses back **in
//!   submission order**, flushes once and reads again; it never blocks on
//!   a read while it owes a reply. Because commands from every connection
//!   meet only in the runtime's shards, one slow client never blocks
//!   another — and pipelined commands from one client overlap across
//!   shards while their responses stay ordered.
//! * **A lone line skips the mailbox.** A line the thread would wait on at
//!   once — no reply owed before it, no other complete line buffered —
//!   goes through [`try_call`](ShardedRuntime::try_call) instead, which
//!   runs it on the connection thread while its shard is idle (and is
//!   `try_submit` otherwise). A closed-loop request then wakes two
//!   threads, the client's and the connection's, instead of four.
//! * **Backpressure, not buffering.** A full shard mailbox surfaces as a
//!   documented `err busy` response (counted in both the front door's
//!   `busy_rejections` and the shard's `queue_full_stalls`) instead of
//!   the server queueing unboundedly. A connection owes at most 128
//!   replies before its thread stops reading to answer them, so a client
//!   that pipelines faster than it reads is eventually paused by TCP
//!   itself.
//! * **Framing.** Requests are one line each; responses use the
//!   length-declared `ok` / `ok+<n>` / `err <code>` framing defined in
//!   `fourcycle_service::command` (see its module docs) — a client reads
//!   exactly one response per command without heuristics. Blank lines and
//!   `#` comments are accepted and produce **no** response, so command
//!   scripts can be piped in verbatim.
//! * **Observability.** The server counts itself into the runtime's
//!   telemetry (connections, commands, busy rejections, bytes in/out),
//!   beside the shards' stage histograms and counters, and three commands
//!   expose it: `metrics` (Prometheus-style text exposition), `metrics
//!   json` (the same snapshot as all-integer JSON with nearest-rank
//!   percentiles, parseable by the in-tree `fourcycle_store::json`
//!   reader), and `events` (drains the bounded structured event ring —
//!   slow requests, group commits, checkpoints, recovery phases, chaos
//!   faults, connection lifecycle). Each is rendered when its reply is
//!   due, after every earlier command of the connection has been
//!   answered, so it counts them. Connection accept/close are themselves
//!   emitted into the ring as `conn_open` / `conn_close` events.
//! * **Graceful shutdown.** [`Server::shutdown`] stops accepting, shuts
//!   the read half of every live connection (in-flight commands still get
//!   their replies), joins all connection threads, and only then shuts the
//!   runtime down — which drains every shard and syncs every journal. A
//!   client that saw `ok` for a journaled command holds a durable command.
//!
//! # Quick start
//!
//! ```
//! use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
//! use fourcycle_server::{Client, Server, ServerConfig};
//! use fourcycle_service::{GraphId, Request, Response};
//!
//! let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(2));
//! let server = Server::start(ServerConfig::new(), runtime).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let id = GraphId(1);
//! client.call(&Request::CreateGraph { id, spec: None }).unwrap();
//! assert_eq!(
//!     client.call(&Request::Count { id }).unwrap(),
//!     Response::Count { id, count: 0 },
//! );
//!
//! let report = server.shutdown();
//! assert_eq!(report.totals.commands, 2);
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::as_conversions,
        reason = "unit tests may unwrap, panic and cast"
    )
)]

pub mod client;
pub mod wire;

pub use client::{Client, ClientError};
pub use wire::WireError;

use fourcycle_runtime::{ShardedRuntime, SubmitOutcome, Ticket};
use fourcycle_service::{parse_request, render_response};
use fourcycle_telemetry::{expose, EventKind, FrontDoor, ServerStats, TelemetrySnapshot, NO_SHARD};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Most replies one connection may owe before its thread stops reading to
/// answer them. This bounds server memory per connection; shard-level
/// backpressure is separate (`err busy`).
const MAX_OWED: usize = 128;

/// How long the accept loop waits after a failed `accept` before retrying.
/// A failure such as an exhausted descriptor table repeats at once until
/// something frees a descriptor, so retrying without a pause would spin.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// Configuration of a [`Server`], builder-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    addr: String,
    max_line_bytes: usize,
}

impl Default for ServerConfig {
    /// Loopback on an ephemeral port (`127.0.0.1:0`), 1 MiB line limit.
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_line_bytes: 1 << 20,
        }
    }
}

impl ServerConfig {
    /// The default configuration (see [`ServerConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the listen address (`host:port`; port 0 picks an ephemeral
    /// port, reported by [`Server::local_addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the maximum accepted command line length in bytes (clamped to
    /// at least 64). A longer line is answered with `err parse ...` and
    /// the connection is closed — the server cannot resynchronize inside
    /// an unterminated line.
    pub fn max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes.max(64);
        self
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    config: ServerConfig,
    runtime: ShardedRuntime,
    shutting_down: AtomicBool,
    /// Clones of live connections, so shutdown can shut their read halves
    /// and unblock threads parked on a read without waiting for client
    /// EOFs.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    /// The front door's counters, in the runtime's telemetry.
    fn counters(&self) -> &FrontDoor {
        self.runtime.telemetry().front_door()
    }
}

/// One reply owed to a connection, in submission order: an in-flight
/// runtime ticket, a line rendered when its command was read (parse
/// errors, `busy`), or a document the server renders when the reply is
/// due (`metrics`, `metrics json`, `events`).
enum Pending {
    Ticket(Ticket),
    Line(String),
    Render(fn(&Shared) -> String),
}

/// The TCP front door (see the crate docs for the architecture).
pub struct Server {
    shared: Option<Arc<Shared>>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `config`'s listen address and starts serving `runtime` over
    /// it. The runtime is owned by the server from here on;
    /// [`Server::shutdown`] shuts it down too (draining shards and
    /// syncing journals) and returns its final telemetry snapshot.
    pub fn start(config: ServerConfig, runtime: ShardedRuntime) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            runtime,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
        });
        let conn_handles = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_handles = Arc::clone(&conn_handles);
        let accept = thread::Builder::new()
            .name("fourcycle-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared, accept_handles))?;
        Ok(Server {
            shared: Some(shared),
            local_addr,
            accept: Some(accept),
            conn_handles,
        })
    }

    #[expect(
        clippy::expect_used,
        reason = "shared is Some until shutdown() consumes self"
    )]
    fn shared(&self) -> &Shared {
        self.shared.as_ref().expect("server not shut down")
    }

    /// The bound listen address (the actual port when the config asked
    /// for an ephemeral one).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live front-door counters.
    pub fn stats(&self) -> ServerStats {
        self.shared().counters().snapshot()
    }

    /// A live snapshot of the runtime's telemetry, front door included
    /// (see [`ShardedRuntime::report`]).
    pub fn report(&self) -> TelemetrySnapshot {
        self.shared().runtime.report()
    }

    /// Stops accepting, unblocks and joins every connection thread, and
    /// returns. In-flight commands still receive their replies before
    /// their connections close.
    fn stop(&mut self) {
        let Some(shared) = self.shared.as_ref() else {
            return;
        };
        shared.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the accept loop: it re-checks the flag per connection,
        // so one throwaway local connection wakes it into its exit path.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Shut the read half of every live connection: a thread parked on
        // its read sees EOF, writes every reply it still owes out of the
        // write half, and winds down.
        let conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        drop(conns);
        let handles: Vec<JoinHandle<()>> = self
            .conn_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown: stops accepting, drains in-flight connections
    /// (every submitted command is answered), then shuts the runtime down
    /// — draining every shard mailbox and syncing every journal — and
    /// returns the final telemetry snapshot.
    pub fn shutdown(mut self) -> TelemetrySnapshot {
        self.stop();
        #[expect(
            clippy::expect_used,
            reason = "shutdown() takes self, so shared is still Some"
        )]
        let shared = self.shared.take().expect("server shut down twice");
        match Arc::try_unwrap(shared) {
            // All threads joined, so ours is the last reference and the
            // runtime can be consumed for its draining shutdown.
            Ok(shared) => shared.runtime.shutdown(),
            // Unreachable in practice; degrade to a live snapshot (the
            // runtime still drains on drop).
            Err(shared) => shared.runtime.report(),
        }
    }
}

impl Drop for Server {
    /// Best-effort [`Server::shutdown`] for servers dropped without one:
    /// stops the listener and joins every thread; the runtime inside the
    /// shared state then drains on its own `Drop`.
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for (id, stream) in listener.incoming().enumerate() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                thread::sleep(ACCEPT_RETRY_PAUSE);
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        let id = u64::try_from(id).unwrap_or(u64::MAX);
        let _ = stream.set_nodelay(true);
        shared.counters().connections.add(1);
        shared.counters().open_connections.add(1);
        note_conn_event(&shared, EventKind::ConnOpen, id);
        let handle = stream.try_clone().ok().and_then(|clone| {
            shared
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(id, clone);
            let conn_shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("fourcycle-conn-{id}"))
                .spawn(move || serve_connection(conn_shared, stream, id))
                .ok()
        });
        // Descriptor or thread exhaustion sheds this one connection
        // (dropping the stream closes it cleanly) instead of killing the
        // acceptor. `stop` reaches a connection only through its registered
        // clone, so an unregistered one would block it until its client
        // hung up.
        let Some(handle) = handle else {
            shared
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&id);
            shared.counters().open_connections.sub(1);
            note_conn_event(&shared, EventKind::ConnClose, id);
            continue;
        };
        let mut guard = handles.lock().unwrap_or_else(|e| e.into_inner());
        // Reap finished connections so a long-lived server doesn't grow
        // an unbounded list of dead join handles.
        let mut i = 0;
        while i < guard.len() {
            if guard[i].is_finished() {
                let _ = guard.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        guard.push(handle);
    }
}

/// Serves one connection on its own thread until EOF, `shutdown(Read)`,
/// an oversize line, a read error or a failed write, then deregisters it.
///
/// Every complete command line already buffered is submitted before any
/// reply is awaited, so a pipelined burst overlaps across shards. Every
/// accepted line owes exactly one [`Pending`] reply; blank lines and `#`
/// comments owe none (scripts pipe through verbatim).
fn serve_connection(shared: Arc<Shared>, stream: TcpStream, id: u64) {
    let max = shared.config.max_line_bytes;
    // The +1 sentinel byte distinguishes "exactly max bytes plus the
    // newline" (fine) from "still no newline after max bytes" (fatal:
    // resynchronization inside an unterminated line is impossible).
    let limit = u64::try_from(max).unwrap_or(u64::MAX).saturating_add(1);
    let mut reader = BufReader::new(&stream);
    let mut writer = BufWriter::new(&stream);
    let mut owed: Vec<Pending> = Vec::new();
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    loop {
        // A read with no complete line buffered may block, and a client
        // waiting for its replies sends nothing more: answer first.
        let answer_now =
            !owed.is_empty() && (owed.len() >= MAX_OWED || !reader.buffer().contains(&b'\n'));
        if answer_now && answer(&shared, &mut writer, &mut owed).is_err() {
            break; // unwritable: the client closed its read half
        }
        buf.clear();
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF, or shutdown(Read)
            Ok(n) => {
                shared
                    .counters()
                    .bytes_in
                    .add(u64::try_from(n).unwrap_or(u64::MAX));
                if buf.len() > max && !buf.ends_with(b"\n") {
                    let oversize = WireError::Parse(format!(
                        "line exceeds the {max}-byte limit; closing connection"
                    ));
                    owed.push(Pending::Line(oversize.render()));
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        let pending = match std::str::from_utf8(&buf) {
            Ok(raw) => {
                // Same comment/blank handling as the script parser, so
                // recorded scripts replay over the wire unchanged.
                let line = raw.split('#').next().unwrap_or("").trim();
                if line.is_empty() {
                    continue;
                }
                match line {
                    "metrics" => Pending::Render(render_metrics_text),
                    "metrics json" => Pending::Render(render_metrics_json),
                    "events" => Pending::Render(render_events),
                    _ => {
                        let lone = owed.is_empty() && !reader.buffer().contains(&b'\n');
                        route_command(&shared, line, lone)
                    }
                }
            }
            Err(_) => Pending::Line(WireError::Parse("invalid utf-8".to_string()).render()),
        };
        owed.push(pending);
    }
    // Graceful shutdown and a half-closing client still get every reply
    // owed; after a failed write nothing is owed any more.
    let _ = answer(&shared, &mut writer, &mut owed);
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&id);
    note_conn_event(&shared, EventKind::ConnClose, id);
    shared.counters().open_connections.sub(1);
}

/// Parses one command line and fires it at the runtime without blocking:
/// a full shard mailbox becomes `err busy` for this client instead of a
/// parked connection thread. A `lone` line (no reply owed before it, no
/// other complete line buffered) is one the thread would wait on at once,
/// so it goes through [`ShardedRuntime::try_call`], which runs it on this
/// thread when its shard is idle.
fn route_command(shared: &Shared, line: &str, lone: bool) -> Pending {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(e) => return Pending::Line(WireError::Parse(e.message).render()),
    };
    let outcome = if lone {
        shared.runtime.try_call(request)
    } else {
        shared.runtime.try_submit(request)
    };
    match outcome {
        SubmitOutcome::Queued(ticket) => {
            shared.counters().commands.add(1);
            Pending::Ticket(ticket)
        }
        SubmitOutcome::Busy(_) => {
            shared.counters().busy_rejections.add(1);
            Pending::Line(WireError::Busy.render())
        }
    }
}

/// Writes every owed reply in submission order, waiting each ticket in
/// turn and rendering each document once every reply before it is in
/// hand, then flushes once. On an error the connection is unwritable and
/// the replies not yet written are dropped.
fn answer(
    shared: &Shared,
    writer: &mut BufWriter<&TcpStream>,
    owed: &mut Vec<Pending>,
) -> io::Result<()> {
    for pending in owed.drain(..) {
        let text = match pending {
            Pending::Line(line) => line,
            Pending::Render(render) => render(shared),
            Pending::Ticket(ticket) => match ticket.wait() {
                Ok(response) => render_response(&response),
                Err(e) => WireError::from(&e).render(),
            },
        };
        let sent = u64::try_from(text.len())
            .unwrap_or(u64::MAX)
            .saturating_add(1);
        shared.counters().bytes_out.add(sent);
        writer.write_all(text.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    writer.flush()
}

/// Frames a multi-line document as `ok+<n> <tag>` plus its lines.
fn frame(tag: &str, body: &str) -> String {
    let body = body.trim_end_matches('\n');
    format!("ok+{} {tag}\n{body}", body.lines().count())
}

/// Builds the framed `metrics` response: a Prometheus-style text
/// exposition of the telemetry snapshot.
fn render_metrics_text(shared: &Shared) -> String {
    frame("metrics", &shared.runtime.report().render_prometheus())
}

/// Builds the framed `metrics json` response: the same snapshot as an
/// all-integer JSON document (stage counts, sums and nearest-rank
/// percentiles, and every counter).
fn render_metrics_json(shared: &Shared) -> String {
    frame("metrics", &shared.runtime.report().render_json())
}

/// Builds the framed `events` response, **draining** the event ring:
/// each buffered event renders as one all-integer JSON object. Draining
/// never blocks shard workers (they drop rather than wait on contention).
fn render_events(shared: &Shared) -> String {
    let events = shared.runtime.telemetry().ring().drain();
    frame("events", &expose::render_events_json(&events))
}

/// Emits a connection-lifecycle event into the runtime's ring.
fn note_conn_event(shared: &Shared, kind: EventKind, id: u64) {
    shared
        .runtime
        .telemetry()
        .ring()
        .emit(NO_SHARD, kind, id, 0);
}
