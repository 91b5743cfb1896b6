//! The service command vocabulary — [`Request`] / [`Response`] values and a
//! line-based text format, so traffic can be driven programmatically, logged
//! and replayed, or piped in from other tools (the same role the trace
//! format of `fourcycle-workloads` plays one layer down).
//!
//! # Text format
//!
//! One command per line; blank lines and `#` comments are skipped.
//!
//! ```text
//! create g1 layered threshold      # create session (mode, engine)
//! create g2                        # create with the service default spec
//! layered g1 A+1:2                 # one layered update (rel, op, left:right)
//! layered g1 A+1:2 B+2:3 C+3:4     # atomic batch
//! general g3 +1:2 -2:3             # general updates (op, u:v)
//! count g1
//! snapshot g1
//! list
//! drop g1
//! ```
//!
//! An `<engine>` token is one of `naive`, `simple`, `threshold`, `fmm`,
//! `fmm-dense` and `auto` (each kind's `EngineKind::name` is accepted too).
//! `auto` starts on the simple engine and rebuilds into fmm once the
//! session's engines grow past a measured size (ADR-011); it is the kind of
//! `SessionSpec::default()`, so a bare `create g2` gets it unless the
//! service was built with another default.
//!
//! Graph ids are `u64`, written with an optional `g` prefix. A one-update
//! batch renders as a single-update command (the two are semantically
//! identical), so `parse(render(r))` is identity up to that normalization.
//!
//! # Response framing
//!
//! Responses are framed so a wire client can read **exactly one** response
//! without heuristics: the first line declares how many continuation lines
//! follow (length-declared framing, not a terminator scan).
//!
//! ```text
//! ok <tag> ...                 # single-line response, nothing follows
//! ok+<n> <tag> ...             # header + exactly n continuation lines
//! err <code> [detail...]       # single-line failure (see fourcycle-server)
//! ```
//!
//! The success renderings ([`render_response`] / [`parse_response`]):
//!
//! ```text
//! ok created g1
//! ok dropped g1
//! ok applied g1 <count> <epoch>
//! ok count g1 <count>
//! ok+7 snapshot g1             # then 7 lines: `<field> <value>` in fixed
//!                              # order: count, total_edges, work,
//!                              # era_rebuilds, phase_rollovers,
//!                              # class_transitions, epoch
//! ok+<n> graphs                # then n lines, one graph id each
//! ```
//!
//! A reader consumes the header line, asks [`response_extra_lines`] how
//! many more lines belong to this response, reads exactly that many, and
//! is done — `err` lines and plain `ok` lines always stand alone, and an
//! empty listing frames as `ok+0 graphs` (zero continuation lines), never
//! as an absent payload.
//!
//! ```
//! use fourcycle_service::{parse_script, CycleCountService, Response};
//!
//! let script = "
//!     create g1 layered simple
//!     layered g1 A+1:2 B+2:3 C+3:4 D+4:1
//!     count g1
//! ";
//! let mut service = CycleCountService::new();
//! let responses = service.execute_all(&parse_script(script).unwrap()).unwrap();
//! assert!(matches!(responses[2], Response::Count { count: 1, .. }));
//! ```

use crate::{GraphId, SessionSpec, WorkloadMode};
use fourcycle_core::{EngineConfig, EngineKind, Snapshot};
use fourcycle_graph::{GraphUpdate, LayeredUpdate, Rel, UpdateOp, VertexId};
use std::fmt;
use std::fmt::Write as _;

/// One service command. Every operation of the underlying counters is
/// representable, so a `Vec<Request>` is a complete, replayable
/// description of a traffic trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create a session; `None` uses the service's default spec.
    CreateGraph {
        /// New session id.
        id: GraphId,
        /// Spec override, or `None` for the service default.
        spec: Option<SessionSpec>,
    },
    /// Drop a session.
    DropGraph {
        /// Session to drop.
        id: GraphId,
    },
    /// One layered update.
    ApplyLayered {
        /// Target session (layered mode).
        id: GraphId,
        /// The update.
        update: LayeredUpdate,
    },
    /// An atomic batch of layered updates.
    ApplyLayeredBatch {
        /// Target session (layered mode).
        id: GraphId,
        /// The updates, in order.
        updates: Vec<LayeredUpdate>,
    },
    /// One general-graph update.
    ApplyGeneral {
        /// Target session (general mode).
        id: GraphId,
        /// The update.
        update: GraphUpdate,
    },
    /// An atomic batch of general-graph updates.
    ApplyGeneralBatch {
        /// Target session (general mode).
        id: GraphId,
        /// The updates, in order.
        updates: Vec<GraphUpdate>,
    },
    /// Read a session's current count.
    Count {
        /// Session to read.
        id: GraphId,
    },
    /// Read a session's consistent snapshot.
    GetSnapshot {
        /// Session to read.
        id: GraphId,
    },
    /// List all live session ids.
    ListGraphs,
}

impl Request {
    /// The session a command addresses, or `None` for service-wide commands
    /// ([`Request::ListGraphs`]). This is the routing key of the sharded
    /// runtime: every command with a `graph_id` is served by exactly one
    /// shard, the rest fan out to all of them.
    pub fn graph_id(&self) -> Option<GraphId> {
        match self {
            Request::CreateGraph { id, .. }
            | Request::DropGraph { id }
            | Request::ApplyLayered { id, .. }
            | Request::ApplyLayeredBatch { id, .. }
            | Request::ApplyGeneral { id, .. }
            | Request::ApplyGeneralBatch { id, .. }
            | Request::Count { id }
            | Request::GetSnapshot { id } => Some(*id),
            Request::ListGraphs => None,
        }
    }

    /// `true` if executing this command successfully changes service state
    /// (session creation/drop, updates) — exactly the commands a
    /// [`JournalSink`](crate::JournalSink) must persist for replay to
    /// reconstruct the service. Reads (`count`, `snapshot`, `list`) are
    /// never journaled, and neither is an **empty** batch: it is an
    /// accepted no-op (atomic validation of zero updates succeeds and the
    /// epoch does not move), and it has no text-format rendering — a
    /// journaled `layered g1 ` line would poison recovery of the whole
    /// shard at parse time.
    pub fn is_mutation(&self) -> bool {
        match self {
            Request::CreateGraph { .. }
            | Request::DropGraph { .. }
            | Request::ApplyLayered { .. }
            | Request::ApplyGeneral { .. } => true,
            Request::ApplyLayeredBatch { updates, .. } => !updates.is_empty(),
            Request::ApplyGeneralBatch { updates, .. } => !updates.is_empty(),
            Request::Count { .. } | Request::GetSnapshot { .. } | Request::ListGraphs => false,
        }
    }

    /// How many updates this command would apply if it succeeds (0 for
    /// reads and session management) — the unit the runtime's
    /// `updates_applied` statistic counts in.
    pub fn update_count(&self) -> usize {
        match self {
            Request::ApplyLayered { .. } | Request::ApplyGeneral { .. } => 1,
            Request::ApplyLayeredBatch { updates, .. } => updates.len(),
            Request::ApplyGeneralBatch { updates, .. } => updates.len(),
            _ => 0,
        }
    }
}

/// The successful result of one [`Request`] (failures are
/// [`ServiceError`](crate::ServiceError)s).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session was created.
    Created {
        /// Its id.
        id: GraphId,
    },
    /// The session was dropped.
    Dropped {
        /// Its id.
        id: GraphId,
    },
    /// Updates were applied; the session's new count and epoch.
    Applied {
        /// The updated session.
        id: GraphId,
        /// Count after the update(s).
        count: i64,
        /// Epoch after the update(s) — total successfully applied updates.
        epoch: u64,
    },
    /// A count read.
    Count {
        /// The session read.
        id: GraphId,
        /// Its current count.
        count: i64,
    },
    /// A snapshot read.
    Snapshot {
        /// The session read.
        id: GraphId,
        /// Its consistent point-in-time view.
        snapshot: Snapshot,
    },
    /// The live session ids.
    Graphs {
        /// Ascending session ids.
        ids: Vec<GraphId>,
    },
}

/// A command line that could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the script (0 for single-line parses).
    pub line: usize,
    /// What was wrong.
    pub message: String,
    /// The offending line as it appeared in the script (comments stripped,
    /// trimmed); empty for single-line parses, where the caller already
    /// holds the input.
    pub text: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "parse error: {}", self.message)?;
        } else {
            write!(f, "parse error on line {}: {}", self.line, self.message)?;
        }
        if !self.text.is_empty() {
            write!(f, " in {:?}", self.text)?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

fn err(message: impl Into<String>) -> ParseError {
    ParseError {
        line: 0,
        message: message.into(),
        text: String::new(),
    }
}

fn parse_graph_id(token: &str) -> Result<GraphId, ParseError> {
    let digits = token.strip_prefix('g').unwrap_or(token);
    digits
        .parse::<u64>()
        .map(GraphId)
        .map_err(|_| err(format!("invalid graph id {token:?}")))
}

fn parse_mode(token: &str) -> Result<WorkloadMode, ParseError> {
    WorkloadMode::from_token(token)
        .ok_or_else(|| err(format!("unknown mode {token:?} (layered|general)")))
}

/// Short engine token for the text format (`EngineKind::name` is also
/// accepted on parse).
fn engine_token(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Naive => "naive",
        EngineKind::Simple => "simple",
        EngineKind::Threshold => "threshold",
        EngineKind::Fmm => "fmm",
        EngineKind::FmmDense => "fmm-dense",
        EngineKind::Auto => "auto",
    }
}

fn parse_engine(token: &str) -> Result<EngineKind, ParseError> {
    EngineKind::ALL
        .into_iter()
        .find(|&k| engine_token(k) == token || k.name() == token)
        .ok_or_else(|| err(format!("unknown engine {token:?}")))
}

fn rel_token(rel: Rel) -> char {
    match rel {
        Rel::A => 'A',
        Rel::B => 'B',
        Rel::C => 'C',
        Rel::D => 'D',
    }
}

fn op_token(op: UpdateOp) -> char {
    match op {
        UpdateOp::Insert => '+',
        UpdateOp::Delete => '-',
    }
}

fn parse_op(c: char) -> Result<UpdateOp, ParseError> {
    match c {
        '+' => Ok(UpdateOp::Insert),
        '-' => Ok(UpdateOp::Delete),
        _ => Err(err(format!("expected + or -, got {c:?}"))),
    }
}

fn parse_endpoints(token: &str) -> Result<(VertexId, VertexId), ParseError> {
    let (l, r) = token
        .split_once(':')
        .ok_or_else(|| err(format!("expected <left>:<right>, got {token:?}")))?;
    let parse = |t: &str| {
        t.parse::<VertexId>()
            .map_err(|_| err(format!("invalid vertex id {t:?}")))
    };
    Ok((parse(l)?, parse(r)?))
}

/// Parses one layered-update token, e.g. `A+1:2`.
fn parse_layered_token(token: &str) -> Result<LayeredUpdate, ParseError> {
    let mut chars = token.chars();
    let rel = match chars.next() {
        Some('A') => Rel::A,
        Some('B') => Rel::B,
        Some('C') => Rel::C,
        Some('D') => Rel::D,
        other => return Err(err(format!("expected relation A|B|C|D, got {other:?}"))),
    };
    let op = parse_op(chars.next().ok_or_else(|| err("truncated update token"))?)?;
    let (left, right) = parse_endpoints(chars.as_str())?;
    Ok(LayeredUpdate {
        op,
        rel,
        left,
        right,
    })
}

/// Parses one general-update token, e.g. `+1:2`.
fn parse_general_token(token: &str) -> Result<GraphUpdate, ParseError> {
    let mut chars = token.chars();
    let op = parse_op(chars.next().ok_or_else(|| err("truncated update token"))?)?;
    let (u, v) = parse_endpoints(chars.as_str())?;
    Ok(GraphUpdate { op, u, v })
}

/// Parses one command line (see the module docs for the grammar).
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().ok_or_else(|| err("empty command"))?;
    let rest: Vec<&str> = tokens.collect();
    let want_id = |rest: &[&str]| -> Result<GraphId, ParseError> {
        match rest {
            [id] => parse_graph_id(id),
            _ => Err(err(format!("{verb} takes exactly one graph id"))),
        }
    };
    match verb {
        "create" => match rest.as_slice() {
            [id] => Ok(Request::CreateGraph {
                id: parse_graph_id(id)?,
                spec: None,
            }),
            [id, mode, engine] => Ok(Request::CreateGraph {
                id: parse_graph_id(id)?,
                spec: Some(SessionSpec {
                    kind: parse_engine(engine)?,
                    config: EngineConfig::default(),
                    mode: parse_mode(mode)?,
                }),
            }),
            _ => Err(err("create takes <id> or <id> <mode> <engine>")),
        },
        "drop" => Ok(Request::DropGraph {
            id: want_id(&rest)?,
        }),
        "count" => Ok(Request::Count {
            id: want_id(&rest)?,
        }),
        "snapshot" => Ok(Request::GetSnapshot {
            id: want_id(&rest)?,
        }),
        "list" => {
            if rest.is_empty() {
                Ok(Request::ListGraphs)
            } else {
                Err(err("list takes no arguments"))
            }
        }
        "layered" => {
            let (id, updates) = rest
                .split_first()
                .ok_or_else(|| err("layered takes <id> <update>..."))?;
            let id = parse_graph_id(id)?;
            let updates: Vec<LayeredUpdate> = updates
                .iter()
                .map(|t| parse_layered_token(t))
                .collect::<Result<_, _>>()?;
            match updates.as_slice() {
                [] => Err(err("layered takes at least one update token")),
                [single] => Ok(Request::ApplyLayered {
                    id,
                    update: *single,
                }),
                _ => Ok(Request::ApplyLayeredBatch { id, updates }),
            }
        }
        "general" => {
            let (id, updates) = rest
                .split_first()
                .ok_or_else(|| err("general takes <id> <update>..."))?;
            let id = parse_graph_id(id)?;
            let updates: Vec<GraphUpdate> = updates
                .iter()
                .map(|t| parse_general_token(t))
                .collect::<Result<_, _>>()?;
            match updates.as_slice() {
                [] => Err(err("general takes at least one update token")),
                [single] => Ok(Request::ApplyGeneral {
                    id,
                    update: *single,
                }),
                _ => Ok(Request::ApplyGeneralBatch { id, updates }),
            }
        }
        _ => Err(err(format!("unknown command {verb:?}"))),
    }
}

/// Parses a whole script: one command per line, blank lines and `#`
/// comments skipped; errors carry 1-based line numbers and the offending
/// line text.
pub fn parse_script(script: &str) -> Result<Vec<Request>, ParseError> {
    let mut requests = Vec::new();
    for (i, raw) in script.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        requests.push(parse_request(line).map_err(|mut e| {
            e.line = i + 1;
            e.text = line.to_string();
            e
        })?);
    }
    Ok(requests)
}

/// Appends one layered-update token, e.g. `A+1:2`.
fn push_layered_token(out: &mut String, u: &LayeredUpdate) {
    out.push(rel_token(u.rel));
    out.push(op_token(u.op));
    let _ = write!(out, "{}:{}", u.left, u.right);
}

/// Appends one general-update token, e.g. `+1:2`.
fn push_general_token(out: &mut String, u: &GraphUpdate) {
    out.push(op_token(u.op));
    let _ = write!(out, "{}:{}", u.u, u.v);
}

/// `<verb> <id> ` and then each update's token, space-separated, written
/// into one `String`.
fn render_updates<U>(verb: &str, id: GraphId, updates: &[U], token: fn(&mut String, &U)) -> String {
    let mut out = String::with_capacity(16 + 12 * updates.len());
    let _ = write!(out, "{verb} {id} ");
    for (i, update) in updates.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        token(&mut out, update);
    }
    out
}

/// Renders a command in the text format (inverse of [`parse_request`], up
/// to single-update-batch normalization). Specs render only when the
/// request carries one; custom `EngineConfig`s are not representable in the
/// text format and render as their mode + engine.
pub fn render_request(request: &Request) -> String {
    use std::slice::from_ref;
    match request {
        Request::CreateGraph { id, spec: None } => format!("create {id}"),
        Request::CreateGraph { id, spec: Some(s) } => {
            format!("create {id} {} {}", s.mode.token(), engine_token(s.kind))
        }
        Request::DropGraph { id } => format!("drop {id}"),
        Request::ApplyLayered { id, update } => {
            render_updates("layered", *id, from_ref(update), push_layered_token)
        }
        Request::ApplyLayeredBatch { id, updates } => {
            render_updates("layered", *id, updates, push_layered_token)
        }
        Request::ApplyGeneral { id, update } => {
            render_updates("general", *id, from_ref(update), push_general_token)
        }
        Request::ApplyGeneralBatch { id, updates } => {
            render_updates("general", *id, updates, push_general_token)
        }
        Request::Count { id } => format!("count {id}"),
        Request::GetSnapshot { id } => format!("snapshot {id}"),
        Request::ListGraphs => "list".to_string(),
    }
}

/// The snapshot continuation fields, in their fixed wire order (see the
/// module docs' framing section). The array length is the declared
/// continuation count of every `snapshot` response.
const SNAPSHOT_FIELDS: [&str; 7] = [
    "count",
    "total_edges",
    "work",
    "era_rebuilds",
    "phase_rollovers",
    "class_transitions",
    "epoch",
];

/// Renders a successful response in the framed text format (inverse of
/// [`parse_response`]). Multi-line responses embed `\n` between their
/// header and continuation lines; no rendering carries a trailing newline
/// (the wire writer appends the line terminator).
pub fn render_response(response: &Response) -> String {
    match response {
        Response::Created { id } => format!("ok created {id}"),
        Response::Dropped { id } => format!("ok dropped {id}"),
        Response::Applied { id, count, epoch } => format!("ok applied {id} {count} {epoch}"),
        Response::Count { id, count } => format!("ok count {id} {count}"),
        Response::Snapshot { id, snapshot: s } => {
            let values: [&dyn fmt::Display; 7] = [
                &s.count,
                &s.total_edges,
                &s.work,
                &s.slow_path.era_rebuilds,
                &s.slow_path.phase_rollovers,
                &s.slow_path.class_transitions,
                &s.epoch,
            ];
            let mut out = String::with_capacity(160);
            let _ = write!(out, "ok+{} snapshot {id}", SNAPSHOT_FIELDS.len());
            for (field, value) in SNAPSHOT_FIELDS.iter().zip(values) {
                let _ = write!(out, "\n{field} {value}");
            }
            out
        }
        Response::Graphs { ids } => {
            let mut out = format!("ok+{} graphs", ids.len());
            for id in ids {
                out.push('\n');
                out.push_str(&id.to_string());
            }
            out
        }
    }
}

/// How many continuation lines follow a response header line: 0 for plain
/// `ok ...` and for `err ...` lines, `n` for `ok+<n> ...` headers. This is
/// the whole framing rule — a wire client reads one header line, then
/// exactly this many more lines, and holds one complete response.
pub fn response_extra_lines(header: &str) -> Result<usize, ParseError> {
    let status = header
        .split_whitespace()
        .next()
        .ok_or_else(|| err("empty response header"))?;
    if status == "ok" || status == "err" {
        return Ok(0);
    }
    match status.strip_prefix("ok+") {
        Some(digits) => digits
            .parse::<usize>()
            .map_err(|_| err(format!("invalid continuation count in {status:?}"))),
        None => Err(err(format!("expected ok, ok+<n> or err, got {status:?}"))),
    }
}

/// Parses one framed successful response (see the module docs for the
/// grammar): the header's declared continuation count must match the lines
/// actually present. `err` lines are *not* successful responses and are
/// rejected here — wire clients route them to the error parser of
/// `fourcycle-server` instead.
pub fn parse_response(text: &str) -> Result<Response, ParseError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| err("empty response"))?;
    let declared = response_extra_lines(header)?;
    if header.split_whitespace().next() == Some("err") {
        return Err(err(format!("not a successful response: {header:?}")));
    }
    let body: Vec<&str> = lines.collect();
    if body.len() != declared {
        return Err(err(format!(
            "header declares {declared} continuation lines, found {}",
            body.len()
        )));
    }
    let mut tokens = header.split_whitespace().skip(1);
    let tag = tokens.next().ok_or_else(|| err("missing response tag"))?;
    let rest: Vec<&str> = tokens.collect();
    let want_id = |rest: &[&str]| -> Result<GraphId, ParseError> {
        match rest {
            [id] => parse_graph_id(id),
            _ => Err(err(format!("{tag} takes exactly one graph id"))),
        }
    };
    let int = |token: &str, what: &str| -> Result<i64, ParseError> {
        token
            .parse::<i64>()
            .map_err(|_| err(format!("invalid {what} {token:?}")))
    };
    let uint = |token: &str, what: &str| -> Result<u64, ParseError> {
        token
            .parse::<u64>()
            .map_err(|_| err(format!("invalid {what} {token:?}")))
    };
    match tag {
        "created" => Ok(Response::Created {
            id: want_id(&rest)?,
        }),
        "dropped" => Ok(Response::Dropped {
            id: want_id(&rest)?,
        }),
        "applied" => match rest.as_slice() {
            [id, count, epoch] => Ok(Response::Applied {
                id: parse_graph_id(id)?,
                count: int(count, "count")?,
                epoch: uint(epoch, "epoch")?,
            }),
            _ => Err(err("applied takes <id> <count> <epoch>")),
        },
        "count" => match rest.as_slice() {
            [id, count] => Ok(Response::Count {
                id: parse_graph_id(id)?,
                count: int(count, "count")?,
            }),
            _ => Err(err("count takes <id> <count>")),
        },
        "snapshot" => {
            let id = want_id(&rest)?;
            if body.len() != SNAPSHOT_FIELDS.len() {
                return Err(err(format!(
                    "snapshot frames exactly {} fields, found {}",
                    SNAPSHOT_FIELDS.len(),
                    body.len()
                )));
            }
            let mut values = [0u64; 7];
            let mut count = 0i64;
            for (i, (line, field)) in body.iter().zip(SNAPSHOT_FIELDS).enumerate() {
                let (key, value) = line
                    .split_once(' ')
                    .ok_or_else(|| err(format!("expected `<field> <value>`, got {line:?}")))?;
                if key != field {
                    return Err(err(format!(
                        "snapshot field {}: expected {field:?}, got {key:?}",
                        i + 1
                    )));
                }
                if field == "count" {
                    count = int(value, "count")?;
                } else {
                    values[i] = uint(value, field)?;
                }
            }
            Ok(Response::Snapshot {
                id,
                snapshot: Snapshot {
                    count,
                    total_edges: usize::try_from(values[1])
                        .map_err(|_| err("total_edges exceeds this platform's usize"))?,
                    work: values[2],
                    slow_path: fourcycle_core::SlowPathStats {
                        era_rebuilds: values[3],
                        phase_rollovers: values[4],
                        class_transitions: values[5],
                    },
                    epoch: values[6],
                },
            })
        }
        "graphs" => {
            if !rest.is_empty() {
                return Err(err("graphs takes no header arguments"));
            }
            let ids: Vec<GraphId> = body
                .iter()
                .map(|line| parse_graph_id(line.trim()))
                .collect::<Result<_, _>>()?;
            Ok(Response::Graphs { ids })
        }
        _ => Err(err(format!("unknown response tag {tag:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_the_text_format() {
        let requests = vec![
            Request::CreateGraph {
                id: GraphId(1),
                spec: None,
            },
            Request::CreateGraph {
                id: GraphId(2),
                spec: Some(SessionSpec {
                    kind: EngineKind::FmmDense,
                    config: EngineConfig::default(),
                    mode: WorkloadMode::Layered,
                }),
            },
            Request::ApplyLayered {
                id: GraphId(2),
                update: LayeredUpdate::insert(Rel::B, 5, 9),
            },
            Request::ApplyLayeredBatch {
                id: GraphId(2),
                updates: vec![
                    LayeredUpdate::insert(Rel::A, 1, 2),
                    LayeredUpdate::delete(Rel::D, 3, 4),
                ],
            },
            Request::ApplyGeneral {
                id: GraphId(1),
                update: GraphUpdate::delete(7, 8),
            },
            Request::ApplyGeneralBatch {
                id: GraphId(1),
                updates: vec![GraphUpdate::insert(1, 2), GraphUpdate::insert(2, 3)],
            },
            Request::Count { id: GraphId(1) },
            Request::GetSnapshot { id: GraphId(2) },
            Request::ListGraphs,
        ];
        for request in &requests {
            let line = render_request(request);
            assert_eq!(&parse_request(&line).unwrap(), request, "{line}");
        }
        // And the whole thing as one script with comments and blanks.
        let script: String = requests
            .iter()
            .map(|r| format!("  {}   # inline comment\n\n", render_request(r)))
            .collect();
        assert_eq!(parse_script(&script).unwrap(), requests);

        // The former join mode's token still parses, as a layered session,
        // and renders back as `layered`.
        let request = parse_request("create g2 join fmm-dense").unwrap();
        assert_eq!(request, requests[1]);
        assert_eq!(render_request(&request), "create g2 layered fmm-dense");
    }

    #[test]
    fn parse_errors_name_the_line_and_problem() {
        let e = parse_script("create g1\nfrobnicate g2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
        assert!(e.to_string().contains("line 2"));
        // The offending line text rides along (comments stripped, trimmed),
        // so a rejected multi-thousand-line replay names the exact input.
        assert_eq!(e.text, "frobnicate g2");
        assert!(e.to_string().contains("\"frobnicate g2\""));
        let e = parse_script("count g1\n\n  layered g9 Q+1:2  # bad rel\n").unwrap_err();
        assert_eq!((e.line, e.text.as_str()), (3, "layered g9 Q+1:2"));
        // Single-line parses leave the text empty (the caller holds the
        // input) and keep the line at 0.
        let e = parse_request("frobnicate g1").unwrap_err();
        assert_eq!((e.line, e.text.as_str()), (0, ""));
        assert!(!e.to_string().contains("line"));

        assert!(parse_request("layered g1").is_err());
        assert!(parse_request("layered g1 E+1:2").is_err());
        assert!(parse_request("layered g1 A*1:2").is_err());
        assert!(parse_request("general g1 +1-2").is_err());
        assert!(parse_request("create g1 sideways simple").is_err());
        assert!(parse_request("create g1 layered quantum").is_err());
        assert!(parse_request("count one").is_err());
        assert!(parse_request("list extra").is_err());
    }

    #[test]
    fn mutation_classification_matches_the_journal_contract() {
        let id = GraphId(1);
        let mutating = [
            Request::CreateGraph { id, spec: None },
            Request::DropGraph { id },
            Request::ApplyLayered {
                id,
                update: LayeredUpdate::insert(Rel::A, 1, 2),
            },
            Request::ApplyLayeredBatch {
                id,
                updates: vec![LayeredUpdate::insert(Rel::A, 1, 2)],
            },
            Request::ApplyGeneral {
                id,
                update: GraphUpdate::insert(1, 2),
            },
            Request::ApplyGeneralBatch {
                id,
                updates: vec![GraphUpdate::insert(1, 2)],
            },
        ];
        assert!(mutating.iter().all(Request::is_mutation));
        let reads = [
            Request::Count { id },
            Request::GetSnapshot { id },
            Request::ListGraphs,
        ];
        assert!(reads.iter().all(|r| !r.is_mutation()));
        // Empty batches are accepted no-ops with no text rendering; they
        // must not be classified as mutations or the journal would record
        // an unparseable line and poison recovery.
        assert!(!Request::ApplyLayeredBatch {
            id,
            updates: vec![]
        }
        .is_mutation());
        assert!(!Request::ApplyGeneralBatch {
            id,
            updates: vec![]
        }
        .is_mutation());
    }

    #[test]
    fn responses_roundtrip_through_the_framed_text_format() {
        use fourcycle_core::SlowPathStats;
        let responses = vec![
            Response::Created { id: GraphId(1) },
            Response::Dropped { id: GraphId(7) },
            Response::Applied {
                id: GraphId(2),
                count: -3, // deletes can drive the count delta negative
                epoch: 11,
            },
            Response::Count {
                id: GraphId(3),
                count: 42,
            },
            Response::Snapshot {
                id: GraphId(4),
                snapshot: Snapshot {
                    count: -1,
                    total_edges: 17,
                    work: 9001,
                    slow_path: SlowPathStats {
                        era_rebuilds: 2,
                        phase_rollovers: 1,
                        class_transitions: 33,
                    },
                    epoch: 64,
                },
            },
            Response::Graphs {
                ids: vec![GraphId(1), GraphId(5), GraphId(9)],
            },
            Response::Graphs { ids: vec![] },
        ];
        for response in &responses {
            let framed = render_response(response);
            // The framing invariant: header declares the continuation
            // count, and the rendering contains exactly that many.
            let header = framed.lines().next().unwrap();
            let declared = response_extra_lines(header).unwrap();
            assert_eq!(framed.lines().count(), declared + 1, "{framed}");
            assert!(!framed.ends_with('\n'));
            assert_eq!(&parse_response(&framed).unwrap(), response, "{framed}");
        }
        // Single-line responses and err lines both declare zero
        // continuation lines; the empty listing still frames explicitly.
        assert_eq!(response_extra_lines("ok created g1").unwrap(), 0);
        assert_eq!(response_extra_lines("err busy").unwrap(), 0);
        assert_eq!(response_extra_lines("ok+0 graphs").unwrap(), 0);
        assert_eq!(response_extra_lines("ok+7 snapshot g4").unwrap(), 7);
        assert_eq!(
            render_response(&Response::Graphs { ids: vec![] }),
            "ok+0 graphs"
        );
    }

    #[test]
    fn ill_framed_responses_are_rejected() {
        // Header/payload mismatch in both directions.
        assert!(parse_response("ok+2 graphs\ng1").is_err());
        assert!(parse_response("ok+1 graphs\ng1\ng2").is_err());
        assert!(parse_response("ok created g1\ng2").is_err());
        // Snapshot fields must appear in the fixed order with sane values.
        assert!(parse_response("ok+1 snapshot g1\ncount 0").is_err());
        let good = render_response(&Response::Snapshot {
            id: GraphId(1),
            snapshot: Snapshot::default(),
        });
        let swapped = good.replace("total_edges", "edges_total");
        assert!(parse_response(&swapped).is_err());
        let negative_epoch = good.replace("epoch 0", "epoch -1");
        assert!(parse_response(&negative_epoch).is_err());
        // Unknown status / tag, and err lines are not successes.
        assert!(parse_response("done created g1").is_err());
        assert!(parse_response("ok frobnicated g1").is_err());
        assert!(parse_response("err busy").is_err());
        assert!(parse_response("").is_err());
        assert!(response_extra_lines("ok+x graphs").is_err());
        assert!(response_extra_lines("gibberish").is_err());
        // Malformed numeric payloads.
        assert!(parse_response("ok applied g1 three 4").is_err());
        assert!(parse_response("ok count g1").is_err());
        assert!(parse_response("ok+1 graphs\nnot-an-id").is_err());
    }

    /// The renderings these replaced, one `String` per token or field:
    /// the reference the one-buffer renderings must match byte for byte.
    fn former_render_request(request: &Request) -> String {
        let layered = |u: &LayeredUpdate| {
            format!(
                "{}{}{}:{}",
                rel_token(u.rel),
                op_token(u.op),
                u.left,
                u.right
            )
        };
        let general = |u: &GraphUpdate| format!("{}{}:{}", op_token(u.op), u.u, u.v);
        match request {
            Request::ApplyLayered { id, update } => format!("layered {id} {}", layered(update)),
            Request::ApplyLayeredBatch { id, updates } => {
                let tokens: Vec<String> = updates.iter().map(layered).collect();
                format!("layered {id} {}", tokens.join(" "))
            }
            Request::ApplyGeneral { id, update } => format!("general {id} {}", general(update)),
            Request::ApplyGeneralBatch { id, updates } => {
                let tokens: Vec<String> = updates.iter().map(general).collect();
                format!("general {id} {}", tokens.join(" "))
            }
            other => render_request(other),
        }
    }

    fn former_render_snapshot(id: GraphId, s: &Snapshot) -> String {
        let values: [String; 7] = [
            s.count.to_string(),
            s.total_edges.to_string(),
            s.work.to_string(),
            s.slow_path.era_rebuilds.to_string(),
            s.slow_path.phase_rollovers.to_string(),
            s.slow_path.class_transitions.to_string(),
            s.epoch.to_string(),
        ];
        let mut out = format!("ok+{} snapshot {id}", SNAPSHOT_FIELDS.len());
        for (field, value) in SNAPSHOT_FIELDS.iter().zip(values) {
            out.push('\n');
            out.push_str(field);
            out.push(' ');
            out.push_str(&value);
        }
        out
    }

    #[test]
    fn one_buffer_renderings_match_the_former_text_and_round_trip() {
        use fourcycle_core::SlowPathStats;
        let ids = [GraphId(0), GraphId(7), GraphId(u64::MAX)];
        let ends = [(0, 0), (1, 2), (u32::MAX, 0), (u32::MAX, u32::MAX)];
        let mut requests = vec![Request::ListGraphs];
        for id in ids {
            requests.push(Request::CreateGraph { id, spec: None });
            for mode in WorkloadMode::ALL {
                for kind in EngineKind::ALL {
                    let spec = SessionSpec {
                        kind,
                        config: EngineConfig::default(),
                        mode,
                    };
                    requests.push(Request::CreateGraph {
                        id,
                        spec: Some(spec),
                    });
                }
            }
            requests.push(Request::DropGraph { id });
            requests.push(Request::Count { id });
            requests.push(Request::GetSnapshot { id });
            let mut layered = Vec::new();
            let mut general = Vec::new();
            for (i, &(l, r)) in ends.iter().enumerate() {
                for rel in Rel::ALL {
                    for op in [UpdateOp::Insert, UpdateOp::Delete] {
                        let update = LayeredUpdate {
                            op,
                            rel,
                            left: l,
                            right: r,
                        };
                        requests.push(Request::ApplyLayered { id, update });
                        layered.push(update);
                    }
                }
                let update = GraphUpdate {
                    op: if i % 2 == 0 {
                        UpdateOp::Insert
                    } else {
                        UpdateOp::Delete
                    },
                    u: l,
                    v: r,
                };
                requests.push(Request::ApplyGeneral { id, update });
                general.push(update);
            }
            requests.push(Request::ApplyLayeredBatch {
                id,
                updates: layered,
            });
            requests.push(Request::ApplyGeneralBatch {
                id,
                updates: general,
            });
        }
        for request in &requests {
            let line = render_request(request);
            assert_eq!(line, former_render_request(request));
            assert_eq!(&parse_request(&line).unwrap(), request, "{line}");
        }
        // An empty batch renders as before, `<verb> <id> `, and has no
        // text form: it never parses (nor is it journaled).
        for empty in [
            Request::ApplyLayeredBatch {
                id: GraphId(3),
                updates: vec![],
            },
            Request::ApplyGeneralBatch {
                id: GraphId(3),
                updates: vec![],
            },
        ] {
            let line = render_request(&empty);
            assert_eq!(line, former_render_request(&empty));
            assert!(line.ends_with("g3 "), "{line:?}");
            assert!(parse_request(&line).is_err());
        }

        let mut responses = vec![Response::Graphs { ids: vec![] }];
        responses.push(Response::Graphs { ids: ids.to_vec() });
        for id in ids {
            responses.push(Response::Created { id });
            responses.push(Response::Dropped { id });
            for count in [i64::MIN, -1, 0, 5, i64::MAX] {
                responses.push(Response::Count { id, count });
                for epoch in [0, u64::MAX] {
                    responses.push(Response::Applied { id, count, epoch });
                }
                for big in [0, u64::MAX] {
                    let snapshot = Snapshot {
                        count,
                        total_edges: usize::try_from(big).unwrap_or(usize::MAX),
                        work: big,
                        slow_path: SlowPathStats {
                            era_rebuilds: big,
                            phase_rollovers: 1,
                            class_transitions: big / 3,
                        },
                        epoch: big,
                    };
                    let text = render_response(&Response::Snapshot { id, snapshot });
                    assert_eq!(text, former_render_snapshot(id, &snapshot));
                    responses.push(Response::Snapshot { id, snapshot });
                }
            }
        }
        for response in &responses {
            let text = render_response(response);
            assert_eq!(&parse_response(&text).unwrap(), response, "{text}");
        }
    }

    #[test]
    fn engine_tokens_cover_every_kind_and_accept_long_names() {
        for kind in EngineKind::ALL {
            assert_eq!(parse_engine(engine_token(kind)).unwrap(), kind);
            assert_eq!(parse_engine(kind.name()).unwrap(), kind);
        }
    }
}
