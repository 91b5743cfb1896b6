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
//!  │ TCP conn 1   │──────────► │ reader thread 1   │ try_submit()  ┌─────────┐
//!  │  "layered…\n"│            │  parse_request    │─────────────► │ shard 0 │
//!  └──────────────┘            │  full? err busy   │   Ticket      │ shard 1 │
//!  ┌──────────────┐            ├───────────────────┤               │   …     │
//!  │ TCP conn 2   │──────────► │ bounded pending   │               └─────────┘
//!  └──────────────┘            │ queue (per conn)  │                    │
//!                              ├───────────────────┤   Ticket::wait     │
//!         responses ◄──────────│ writer thread 1   │◄───────────────────┘
//!         "ok applied g1 1 4"  │  render_response  │
//!                              └───────────────────┘
//! ```
//!
//! * **One reader + one writer thread per connection.** The reader frames
//!   newline-delimited commands, parses them, and *fires* them at the
//!   runtime with the non-blocking
//!   [`try_submit`](ShardedRuntime::try_submit); the resulting
//!   [`Ticket`]s flow through a bounded per-connection queue to the
//!   writer, which waits each ticket and streams framed responses back
//!   **in submission order**. Because commands from every connection meet
//!   only in the runtime's shard mailboxes, one slow client never blocks
//!   another — and pipelined commands from one client overlap across
//!   shards while their responses stay ordered.
//! * **Backpressure, not buffering.** A full shard mailbox surfaces as a
//!   documented `err busy` response (counted in both the server's
//!   `busy_rejections` and the runtime's `queue_full_stalls`) instead of
//!   the server queueing unboundedly; the per-connection pending queue is
//!   bounded too ([`ServerConfig::pipeline_depth`]), so a client that
//!   pipelines faster than it reads is eventually paused by TCP itself.
//! * **Framing.** Requests are one line each; responses use the
//!   length-declared `ok` / `ok+<n>` / `err <code>` framing defined in
//!   `fourcycle_service::command` (see its module docs) — a client reads
//!   exactly one response per command without heuristics. Blank lines and
//!   `#` comments are accepted and produce **no** response, so command
//!   scripts can be piped in verbatim.
//! * **Observability.** The `stats` wire command returns a framed
//!   all-integer JSON document — server counters (connections, commands,
//!   busy rejections, bytes in/out) plus the full
//!   [`RuntimeReport`] — parseable by the in-tree `fourcycle_store::json`
//!   reader. Three more commands expose the runtime's live telemetry:
//!   `metrics` (Prometheus-style text exposition of the per-stage latency
//!   histograms and the event ring's counters), `metrics json` (the same
//!   snapshot as all-integer JSON with nearest-rank percentiles), and
//!   `events` (drains the bounded structured event ring — slow requests,
//!   group commits, checkpoints, recovery phases, chaos faults,
//!   connection lifecycle). Connection accept/close are themselves
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

use fourcycle_runtime::{RuntimeReport, RuntimeStats, ShardedRuntime, SubmitOutcome, Ticket};
use fourcycle_service::{parse_request, render_response};
use fourcycle_telemetry::{expose, EventKind, NO_SHARD};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// Configuration of a [`Server`], builder-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    addr: String,
    pipeline_depth: usize,
    max_line_bytes: usize,
}

impl Default for ServerConfig {
    /// Loopback on an ephemeral port (`127.0.0.1:0`), pipeline depth 128,
    /// 1 MiB line limit.
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            pipeline_depth: 128,
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

    /// Sets the bounded per-connection pending-reply queue depth (clamped
    /// to at least 1): how many commands one connection may have in flight
    /// before its reader pauses. This bounds server-side memory per
    /// connection; shard-level backpressure is separate (`err busy`).
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
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

    /// The configured listen address.
    pub fn listen_addr(&self) -> &str {
        &self.addr
    }
}

/// Point-in-time server-level counters (the wire-facing totals; shard
/// execution detail lives in [`RuntimeReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections currently open.
    pub open_connections: u64,
    /// Service commands accepted from the wire and submitted to the
    /// runtime (busy-rejected lines and the `stats` command excluded).
    pub commands: u64,
    /// Commands refused with `err busy` because the target shard's
    /// mailbox was full.
    pub busy_rejections: u64,
    /// Bytes read off accepted connections.
    pub bytes_in: u64,
    /// Bytes written back (responses, including line terminators).
    pub bytes_out: u64,
}

#[derive(Debug, Default)]
struct ServerCounters {
    connections: AtomicU64,
    open_connections: AtomicU64,
    commands: AtomicU64,
    busy_rejections: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl ServerCounters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            commands: self.commands.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    config: ServerConfig,
    runtime: ShardedRuntime,
    counters: ServerCounters,
    shutting_down: AtomicBool,
    /// Read-half clones of live connections, so shutdown can unblock
    /// parked readers without waiting for client EOFs.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// One reply owed to a connection, in submission order: either an
/// in-flight runtime ticket or an immediately-rendered line (parse
/// errors, `busy`, `stats`).
enum Pending {
    Ticket(Ticket),
    Line(String),
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
    /// syncing journals) and returns its final report.
    pub fn start(config: ServerConfig, runtime: ShardedRuntime) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            runtime,
            counters: ServerCounters::default(),
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

    /// Live server-level counters.
    pub fn stats(&self) -> ServerStats {
        self.shared().counters.snapshot()
    }

    /// Live runtime-wide report (per-shard statistics plus totals).
    pub fn report(&self) -> RuntimeReport {
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
        // Shut the read half of every live connection: parked readers
        // return 0, submit no further commands, and wind down — while
        // replies already owed still flow out the write half.
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
    /// returns the final report.
    pub fn shutdown(mut self) -> RuntimeReport {
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
            // Unreachable in practice; degrade to a live report (the
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
            Err(_) => continue,
        };
        let id = u64::try_from(id).unwrap_or(u64::MAX);
        let _ = stream.set_nodelay(true);
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .open_connections
            .fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(id, clone);
        }
        note_conn_event(&shared, EventKind::ConnOpen, id);
        let conn_shared = Arc::clone(&shared);
        let handle = match thread::Builder::new()
            .name(format!("fourcycle-conn-{id}"))
            .spawn(move || serve_connection(conn_shared, stream, id))
        {
            Ok(handle) => handle,
            // Thread exhaustion sheds this one connection (dropping the
            // stream closes it cleanly) instead of killing the acceptor.
            Err(_) => {
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(&id);
                shared
                    .counters
                    .open_connections
                    .fetch_sub(1, Ordering::Relaxed);
                note_conn_event(&shared, EventKind::ConnClose, id);
                continue;
            }
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

/// Runs one connection to completion: spawns the writer, then reads and
/// routes commands until EOF / shutdown / overflow, then joins the writer
/// and deregisters.
fn serve_connection(shared: Arc<Shared>, stream: TcpStream, id: u64) {
    let depth = shared.config.pipeline_depth;
    let (tx, rx) = mpsc::sync_channel::<Pending>(depth);
    let writer = match stream.try_clone() {
        Ok(write_half) => {
            let writer_shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("fourcycle-conn-{id}-writer"))
                .spawn(move || write_loop(&writer_shared, write_half, rx))
                .ok()
        }
        Err(_) => None,
    };
    if writer.is_some() {
        read_loop(&shared, stream, &tx);
    }
    // Closing our sender ends the writer once it has drained every reply
    // still owed (the bounded queue plus in-flight tickets).
    drop(tx);
    if let Some(writer) = writer {
        let _ = writer.join();
    }
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&id);
    note_conn_event(&shared, EventKind::ConnClose, id);
    shared
        .counters
        .open_connections
        .fetch_sub(1, Ordering::Relaxed);
}

/// Frames and routes commands until the stream ends. Every accepted line
/// enqueues exactly one [`Pending`] reply; blank lines and `#` comments
/// enqueue nothing (scripts pipe through verbatim).
fn read_loop(shared: &Shared, stream: TcpStream, tx: &SyncSender<Pending>) {
    let max = shared.config.max_line_bytes;
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    loop {
        buf.clear();
        // The +1 sentinel byte distinguishes "exactly max bytes plus the
        // newline" (fine) from "still no newline after max bytes" (fatal:
        // resynchronization inside an unterminated line is impossible).
        let limit = u64::try_from(max).unwrap_or(u64::MAX).saturating_add(1);
        let mut limited = (&mut reader).take(limit);
        match limited.read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF, or shutdown(Read)
            Ok(n) => {
                shared
                    .counters
                    .bytes_in
                    .fetch_add(u64::try_from(n).unwrap_or(u64::MAX), Ordering::Relaxed);
                if buf.len() > max && !buf.ends_with(b"\n") {
                    let oversize = WireError::Parse(format!(
                        "line exceeds the {max}-byte limit; closing connection"
                    ));
                    let _ = tx.send(Pending::Line(oversize.render()));
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
                    "stats" => Pending::Line(render_stats(shared)),
                    "metrics" => Pending::Line(render_metrics_text(shared)),
                    "metrics json" => Pending::Line(render_metrics_json(shared)),
                    "events" => Pending::Line(render_events(shared)),
                    _ => route_command(shared, line),
                }
            }
            Err(_) => Pending::Line(WireError::Parse("invalid utf-8".to_string()).render()),
        };
        // Blocks when `pipeline_depth` replies are already owed: the
        // per-connection bound that turns a non-reading pipeliner into
        // TCP backpressure instead of unbounded server memory.
        if tx.send(pending).is_err() {
            break; // writer is gone (client closed its read half)
        }
    }
}

/// Parses one command line and fires it at the runtime without blocking:
/// a full shard mailbox becomes `err busy` for this client instead of a
/// parked reader thread.
fn route_command(shared: &Shared, line: &str) -> Pending {
    match parse_request(line) {
        Err(e) => Pending::Line(WireError::Parse(e.message).render()),
        Ok(request) => match shared.runtime.try_submit(request) {
            SubmitOutcome::Queued(ticket) => {
                shared.counters.commands.fetch_add(1, Ordering::Relaxed);
                Pending::Ticket(ticket)
            }
            SubmitOutcome::Busy(_) => {
                shared
                    .counters
                    .busy_rejections
                    .fetch_add(1, Ordering::Relaxed);
                Pending::Line(WireError::Busy.render())
            }
        },
    }
}

/// Streams replies back in submission order, flushing whenever the
/// pending queue momentarily drains (batching syscalls under pipelining
/// without ever withholding a quiescent client's reply).
fn write_loop(shared: &Shared, stream: TcpStream, rx: Receiver<Pending>) {
    let mut writer = BufWriter::new(stream);
    'serve: while let Ok(pending) = rx.recv() {
        if !write_reply(shared, &mut writer, pending) {
            break;
        }
        loop {
            match rx.try_recv() {
                Ok(next) => {
                    if !write_reply(shared, &mut writer, next) {
                        break 'serve;
                    }
                }
                Err(TryRecvError::Empty) => {
                    let _ = writer.flush();
                    break;
                }
                Err(TryRecvError::Disconnected) => break 'serve,
            }
        }
    }
    let _ = writer.flush();
}

/// Renders and writes one reply (waiting its ticket first if needed);
/// `false` when the connection is unwritable.
fn write_reply(shared: &Shared, writer: &mut BufWriter<TcpStream>, pending: Pending) -> bool {
    let text = match pending {
        Pending::Line(line) => line,
        Pending::Ticket(ticket) => match ticket.wait() {
            Ok(response) => render_response(&response),
            Err(e) => WireError::from(&e).render(),
        },
    };
    let sent = u64::try_from(text.len())
        .unwrap_or(u64::MAX)
        .saturating_add(1);
    shared.counters.bytes_out.fetch_add(sent, Ordering::Relaxed);
    writer
        .write_all(text.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .is_ok()
}

/// Builds the framed `stats` response: `ok+<n> stats` followed by the
/// JSON document, one continuation line per JSON line.
fn render_stats(shared: &Shared) -> String {
    let json = render_stats_json(&shared.counters.snapshot(), &shared.runtime.report());
    frame("stats", &json)
}

/// Frames a multi-line document as `ok+<n> <tag>` plus its lines.
fn frame(tag: &str, body: &str) -> String {
    let body = body.trim_end_matches('\n');
    format!("ok+{} {tag}\n{body}", body.lines().count())
}

/// Builds the framed `metrics` response: a Prometheus-style text
/// exposition of the telemetry snapshot.
fn render_metrics_text(shared: &Shared) -> String {
    frame(
        "metrics",
        &shared.runtime.telemetry().snapshot().render_prometheus(),
    )
}

/// Builds the framed `metrics json` response: the same snapshot as an
/// all-integer JSON document (counts, sums, nearest-rank percentiles).
fn render_metrics_json(shared: &Shared) -> String {
    frame(
        "metrics",
        &shared.runtime.telemetry().snapshot().render_json(),
    )
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

/// Renders server counters plus a [`RuntimeReport`] as an **all-integer**
/// JSON document — by construction parseable by `fourcycle_store::json`
/// (which rejects floats by design).
pub fn render_stats_json(server: &ServerStats, report: &RuntimeReport) -> String {
    fn shard_object(s: &RuntimeStats) -> String {
        format!(
            "{{\"commands\": {}, \"updates_applied\": {}, \"rejected\": {}, \
             \"queue_full_stalls\": {}, \"groups\": {}, \"journal_fsyncs\": {}, \
             \"busy_nanos\": {}, \"idle_nanos\": {}}}",
            s.commands,
            s.updates_applied,
            s.rejected,
            s.queue_full_stalls,
            s.groups,
            s.journal_fsyncs,
            s.busy_nanos,
            s.idle_nanos
        )
    }
    let mut out = String::new();
    out.push_str("{\n  \"server\": {\n");
    out.push_str(&format!(
        "    \"connections\": {},\n    \"open_connections\": {},\n    \"commands\": {},\n",
        server.connections, server.open_connections, server.commands
    ));
    out.push_str(&format!(
        "    \"busy_rejections\": {},\n    \"bytes_in\": {},\n    \"bytes_out\": {}\n",
        server.busy_rejections, server.bytes_in, server.bytes_out
    ));
    out.push_str("  },\n  \"runtime\": {\n");
    out.push_str(&format!("    \"shards\": {},\n", report.per_shard.len()));
    out.push_str("    \"per_shard\": [\n");
    for (i, shard) in report.per_shard.iter().enumerate() {
        let comma = if i + 1 < report.per_shard.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!("      {}{comma}\n", shard_object(shard)));
    }
    out.push_str("    ],\n");
    out.push_str(&format!(
        "    \"totals\": {}\n  }}\n}}",
        shard_object(&report.totals)
    ));
    out
}

/// Resolves `addr` like [`Client::connect`] does — a tiny convenience for
/// binaries taking `host:port` strings.
pub fn resolve_addr(addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing"))
}
