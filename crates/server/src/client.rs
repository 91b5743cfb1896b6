//! The blocking wire client: connect, [`call`](Client::call) one command
//! at a time, or [`pipeline`](Client::pipeline) many and collect the
//! replies in order. Tests, the socket-mode load generator, and external
//! tools all speak to the server through this — it is the reference
//! implementation of the framing rules (`fourcycle_service::command`
//! module docs) and of the error grammar ([`WireError`](crate::wire)).

use crate::wire::WireError;
use fourcycle_service::{parse_response, render_request, response_extra_lines, Request, Response};
use fourcycle_store::json::Json;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client operation failed. Server-side rejections arrive as
/// [`ClientError::Wire`] (or as the inner `Err` of
/// [`Client::read_reply`]); everything else means the conversation
/// itself broke.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, read, or write).
    Io(io::Error),
    /// The server's bytes violated the framing or response grammar — a
    /// protocol bug or a non-fourcycle peer, not a rejected command.
    Protocol(String),
    /// The server answered with an `err` line ([`Client::call`] only;
    /// the lower-level readers hand wire errors back as values).
    Wire(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(message) => write!(f, "protocol violation: {message}"),
            ClientError::Wire(e) => write!(f, "server rejected the command: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(_) => None,
            ClientError::Wire(e) => Some(e),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a `fourcycle-server`.
///
/// Not `Sync` by design: one client is one conversation with strict
/// request/reply ordering. Concurrency is modeled as one `Client` per
/// thread (exactly how the socket-mode load generator drives K clients).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server (e.g. `server.local_addr()` or
    /// `"127.0.0.1:4444"`).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Executes one command and blocks for its outcome; server rejections
    /// surface as [`ClientError::Wire`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.flush()?;
        self.read_reply()?.map_err(ClientError::Wire)
    }

    /// Buffers one command without flushing or reading — the pipelining
    /// primitive. Every `send` owes exactly one [`Client::read_reply`].
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let line = render_request(request);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        Ok(())
    }

    /// Flushes buffered commands to the socket.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Reads exactly one framed reply, in submission order. Wire errors
    /// are values here (the inner `Err`), so pipelined callers can retry
    /// `busy` commands without losing their place in the reply stream.
    pub fn read_reply(&mut self) -> Result<Result<Response, WireError>, ClientError> {
        let framed = self.read_framed()?;
        if framed.split_whitespace().next() == Some("err") {
            let wire = WireError::parse(&framed)
                .map_err(|e| ClientError::Protocol(format!("unparseable error line: {e}")))?;
            return Ok(Err(wire));
        }
        parse_response(&framed)
            .map(Ok)
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))
    }

    /// Fires a whole batch of commands, then collects every reply in
    /// submission order — the fire-collect shape that keeps the server's
    /// shards busy across one connection.
    pub fn pipeline(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<Result<Response, WireError>>, ClientError> {
        for request in requests {
            self.send(request)?;
        }
        self.flush()?;
        requests.iter().map(|_| self.read_reply()).collect()
    }

    /// Sends one raw line and returns the complete framed reply text
    /// (header plus declared continuation lines, `\n`-joined). Escape
    /// hatch for protocol tests and for commands outside the [`Request`]
    /// vocabulary.
    pub fn call_line(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.flush()?;
        self.read_framed()
    }

    /// Sends `command` and returns the framed document's body (the lines
    /// after the `ok+<n> <tag>` header), verifying the tag.
    fn framed_body(&mut self, command: &str, tag: &str) -> Result<String, ClientError> {
        let framed = self.call_line(command)?;
        match framed.split_once('\n') {
            Some((header, body)) if header.split_whitespace().nth(1) == Some(tag) => {
                Ok(body.to_string())
            }
            _ => Err(ClientError::Protocol(format!(
                "expected a framed {tag} document, got {framed:?}"
            ))),
        }
    }

    /// Fetches the server's `metrics` exposition as Prometheus-style
    /// text: the per-stage latency histograms, the shard and front-door
    /// counters and the event ring's counters.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        self.framed_body("metrics", "metrics")
    }

    /// Fetches and parses the server's `metrics json` document
    /// (all-integer JSON, read with the in-tree `fourcycle_store::json`
    /// reader).
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        let body = self.framed_body("metrics json", "metrics")?;
        Json::parse(&body).map_err(|e| ClientError::Protocol(format!("invalid metrics JSON: {e}")))
    }

    /// Drains and parses the server's event ring (`events` command).
    pub fn events(&mut self) -> Result<Json, ClientError> {
        let body = self.framed_body("events", "events")?;
        Json::parse(&body).map_err(|e| ClientError::Protocol(format!("invalid events JSON: {e}")))
    }

    /// Reads one `\n`-terminated line, without the terminator.
    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "connection closed by server".to_string(),
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Reads one complete framed reply: the header line plus exactly the
    /// continuation lines it declares.
    fn read_framed(&mut self) -> Result<String, ClientError> {
        let mut text = self.read_line()?;
        let extra = response_extra_lines(&text)
            .map_err(|e| ClientError::Protocol(format!("bad response header: {e}")))?;
        for _ in 0..extra {
            let line = self.read_line()?;
            text.push('\n');
            text.push_str(&line);
        }
        Ok(text)
    }
}
