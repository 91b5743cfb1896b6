//! Stable wire rendering of failures: every [`ServiceError`] /
//! [`RuntimeError`] variant maps to a one-line `err <code> [detail...]`
//! response with a parse round-trip, so wire clients can react to error
//! *kinds* without scraping prose. The codes are part of the protocol —
//! changing one is a breaking wire change, and each is pinned by a test.
//!
//! # Grammar
//!
//! ```text
//! err busy                             # mailbox full — NOT executed, retry
//! err shard-unavailable                # runtime shutting down — NOT executed
//! err parse <message...>               # line rejected — NOT executed
//! err unknown-graph g7
//! err graph-exists g7
//! err mode-mismatch g7 layered
//! err update <verdict>                 # duplicate-edge | missing-edge
//!                                      # | self-loop
//! err batch <index> <verdict>
//! err journal <io-kind>                # APPLIED but not journaled — never
//!                                      # re-submit (double-apply hazard)
//! err journal-checkpoint <io-kind>     # applied AND journaled; checkpoint
//!                                      # stale — never re-submit
//! err store <message...>               # journal store failed to open
//! ```
//!
//! The retry contract wire clients program against:
//!
//! * [`WireError::retryable`] — the command was **not executed** and a
//!   retry may succeed (`busy`, `shard-unavailable`).
//! * [`WireError::command_applied`] — the command **changed state** despite
//!   the error (`journal`, `journal-checkpoint`); re-submitting would apply
//!   it twice. Everything else is a clean rejection: state unchanged,
//!   re-submitting is safe but will fail again unless the world changed.

use fourcycle_core::UpdateError;
use fourcycle_runtime::RuntimeError;
use fourcycle_service::{GraphId, ParseError, ServiceError, WorkloadMode};
use std::fmt;
use std::io;

/// A failure as it crosses the wire: the flattening of [`RuntimeError`]
/// (and the [`ServiceError`] inside it) into stable codes, plus the two
/// failures only the server itself produces ([`WireError::Busy`] and
/// oversized/ill-formed input as [`WireError::Parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The target shard's mailbox was full and the server refused to
    /// buffer unboundedly. The command was not executed; retry later.
    Busy,
    /// The runtime is shutting down (or the shard worker died). The
    /// command was not executed.
    ShardUnavailable,
    /// The command line could not be parsed (or violated a server limit,
    /// e.g. the maximum line length). Nothing was executed.
    Parse(String),
    /// No session with this id exists.
    UnknownGraph(GraphId),
    /// A session with this id already exists.
    GraphExists(GraphId),
    /// The update family does not match the session's mode; carries the
    /// session's actual mode.
    ModeMismatch {
        /// The addressed session.
        id: GraphId,
        /// Its actual mode.
        mode: WorkloadMode,
    },
    /// A single update was rejected; state unchanged.
    Update(UpdateError),
    /// A batch was rejected at `index`; state unchanged (atomic batches).
    Batch {
        /// Index of the first rejected update.
        index: usize,
        /// Why it was rejected.
        error: UpdateError,
    },
    /// The journal failed to persist an **applied** command — the state
    /// change is live but not durable. Never re-submit.
    Journal(io::ErrorKind),
    /// A checkpoint failed after the command was applied *and* journaled;
    /// recovery stays complete (full replay), only checkpoint-accelerated
    /// recovery is stale. Never re-submit.
    JournalCheckpoint(io::ErrorKind),
    /// The durable journal store failed (only on runtime startup paths;
    /// carries the store's rendered message).
    Store(String),
}

impl WireError {
    /// The stable first token after `err` — the part of the rendering a
    /// client switches on.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::Busy => "busy",
            WireError::ShardUnavailable => "shard-unavailable",
            WireError::Parse(_) => "parse",
            WireError::UnknownGraph(_) => "unknown-graph",
            WireError::GraphExists(_) => "graph-exists",
            WireError::ModeMismatch { .. } => "mode-mismatch",
            WireError::Update(_) => "update",
            WireError::Batch { .. } => "batch",
            WireError::Journal(_) => "journal",
            WireError::JournalCheckpoint(_) => "journal-checkpoint",
            WireError::Store(_) => "store",
        }
    }

    /// `true` when the command was **not executed** and retrying the same
    /// command may succeed once the transient condition clears.
    ///
    /// Deliberately an exhaustive match (no `_` arm): adding a variant
    /// must force an explicit retry classification here, and
    /// `tests/wire_contract.rs` pins it with the variant's code.
    pub fn retryable(&self) -> bool {
        match self {
            WireError::Busy => true,
            WireError::ShardUnavailable => true,
            WireError::Parse(_) => false,
            WireError::UnknownGraph(_) => false,
            WireError::GraphExists(_) => false,
            WireError::ModeMismatch { .. } => false,
            WireError::Update(_) => false,
            WireError::Batch { .. } => false,
            WireError::Journal(_) => false,
            WireError::JournalCheckpoint(_) => false,
            WireError::Store(_) => false,
        }
    }

    /// `true` when the command **changed service state** despite the error
    /// — the journal-failure family. Re-submitting such a command would
    /// apply it a second time; clients must reconcile by reading instead.
    ///
    /// Exhaustive for the same reason as [`WireError::retryable`]: a new
    /// variant must take a stance on the double-apply hazard.
    pub fn command_applied(&self) -> bool {
        match self {
            WireError::Busy => false,
            WireError::ShardUnavailable => false,
            WireError::Parse(_) => false,
            WireError::UnknownGraph(_) => false,
            WireError::GraphExists(_) => false,
            WireError::ModeMismatch { .. } => false,
            WireError::Update(_) => false,
            WireError::Batch { .. } => false,
            WireError::Journal(_) => true,
            WireError::JournalCheckpoint(_) => true,
            WireError::Store(_) => false,
        }
    }

    /// Renders the stable one-line wire form, `err <code> [detail...]`.
    /// Never contains a newline: free-text details are flattened so they
    /// cannot break the line framing.
    pub fn render(&self) -> String {
        let line = match self {
            WireError::Busy | WireError::ShardUnavailable => format!("err {}", self.code()),
            WireError::Parse(message) => format!("err parse {message}"),
            WireError::UnknownGraph(id) => format!("err unknown-graph {id}"),
            WireError::GraphExists(id) => format!("err graph-exists {id}"),
            WireError::ModeMismatch { id, mode } => {
                format!("err mode-mismatch {id} {}", mode.token())
            }
            WireError::Update(e) => format!("err update {}", verdict_token(*e)),
            WireError::Batch { index, error } => {
                format!("err batch {index} {}", verdict_token(*error))
            }
            WireError::Journal(kind) => format!("err journal {}", io_kind_token(*kind)),
            WireError::JournalCheckpoint(kind) => {
                format!("err journal-checkpoint {}", io_kind_token(*kind))
            }
            WireError::Store(message) => format!("err store {message}"),
        };
        // Belt and braces: a detail string with embedded newlines would
        // desynchronize the framing for every later response.
        line.replace(['\n', '\r'], " ")
    }

    /// Parses a wire error line (inverse of [`WireError::render`], up to
    /// the documented `io::ErrorKind` token normalization: kinds outside
    /// the stable set render as `other` and parse back as
    /// [`io::ErrorKind::Other`]).
    pub fn parse(line: &str) -> Result<WireError, ParseError> {
        let rest = line
            .trim()
            .strip_prefix("err")
            .ok_or_else(|| parse_err(format!("expected an err line, got {line:?}")))?
            .trim_start();
        let (code, detail) = match rest.split_once(char::is_whitespace) {
            Some((code, detail)) => (code, detail.trim()),
            None => (rest, ""),
        };
        let want_empty = |detail: &str, e: WireError| {
            if detail.is_empty() {
                Ok(e)
            } else {
                Err(parse_err(format!("{code} takes no detail, got {detail:?}")))
            }
        };
        match code {
            "busy" => want_empty(detail, WireError::Busy),
            "shard-unavailable" => want_empty(detail, WireError::ShardUnavailable),
            "parse" => Ok(WireError::Parse(detail.to_string())),
            "store" => Ok(WireError::Store(detail.to_string())),
            "unknown-graph" => Ok(WireError::UnknownGraph(parse_graph_id(detail)?)),
            "graph-exists" => Ok(WireError::GraphExists(parse_graph_id(detail)?)),
            "mode-mismatch" => match detail.split_whitespace().collect::<Vec<_>>().as_slice() {
                [id, mode] => Ok(WireError::ModeMismatch {
                    id: parse_graph_id(id)?,
                    mode: parse_mode(mode)?,
                }),
                _ => Err(parse_err("mode-mismatch takes <id> <mode>")),
            },
            "update" => Ok(WireError::Update(parse_verdict(detail)?)),
            "batch" => match detail.split_whitespace().collect::<Vec<_>>().as_slice() {
                [index, verdict] => Ok(WireError::Batch {
                    index: index
                        .parse::<usize>()
                        .map_err(|_| parse_err(format!("invalid batch index {index:?}")))?,
                    error: parse_verdict(verdict)?,
                }),
                _ => Err(parse_err("batch takes <index> <verdict>")),
            },
            "journal" => Ok(WireError::Journal(parse_io_kind(detail)?)),
            "journal-checkpoint" => Ok(WireError::JournalCheckpoint(parse_io_kind(detail)?)),
            _ => Err(parse_err(format!("unknown error code {code:?}"))),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl std::error::Error for WireError {}

impl From<&ServiceError> for WireError {
    fn from(e: &ServiceError) -> Self {
        match e {
            ServiceError::UnknownGraph(id) => WireError::UnknownGraph(*id),
            ServiceError::GraphAlreadyExists(id) => WireError::GraphExists(*id),
            ServiceError::ModeMismatch { id, mode } => WireError::ModeMismatch {
                id: *id,
                mode: *mode,
            },
            ServiceError::Update(e) => WireError::Update(*e),
            ServiceError::Batch(b) => WireError::Batch {
                index: b.index,
                error: b.error,
            },
            ServiceError::Journal(kind) => WireError::Journal(*kind),
            ServiceError::JournalCheckpoint(kind) => WireError::JournalCheckpoint(*kind),
        }
    }
}

impl From<&RuntimeError> for WireError {
    fn from(e: &RuntimeError) -> Self {
        match e {
            RuntimeError::ShardUnavailable => WireError::ShardUnavailable,
            RuntimeError::Service(service) => WireError::from(service),
            RuntimeError::Store(store) => WireError::Store(store.to_string()),
        }
    }
}

fn parse_err(message: impl Into<String>) -> ParseError {
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
        .map_err(|_| parse_err(format!("invalid graph id {token:?}")))
}

fn parse_mode(token: &str) -> Result<WorkloadMode, ParseError> {
    WorkloadMode::from_token(token).ok_or_else(|| parse_err(format!("unknown mode {token:?}")))
}

/// The stable verdict tokens of the core update rejections.
fn verdict_token(e: UpdateError) -> &'static str {
    match e {
        UpdateError::DuplicateEdge => "duplicate-edge",
        UpdateError::MissingEdge => "missing-edge",
        UpdateError::SelfLoop => "self-loop",
    }
}

const ALL_VERDICTS: [UpdateError; 3] = [
    UpdateError::DuplicateEdge,
    UpdateError::MissingEdge,
    UpdateError::SelfLoop,
];

fn parse_verdict(token: &str) -> Result<UpdateError, ParseError> {
    ALL_VERDICTS
        .into_iter()
        .find(|&v| verdict_token(v) == token)
        .ok_or_else(|| parse_err(format!("unknown update verdict {token:?}")))
}

/// The `io::ErrorKind`s with a stable wire token. Kinds outside this set
/// (including future additions to std) render as `other` — the journal
/// error *family* is the contract; the kind is diagnostic color.
const IO_KIND_TOKENS: [(io::ErrorKind, &str); 13] = [
    (io::ErrorKind::NotFound, "not-found"),
    (io::ErrorKind::PermissionDenied, "permission-denied"),
    (io::ErrorKind::AlreadyExists, "already-exists"),
    (io::ErrorKind::InvalidInput, "invalid-input"),
    (io::ErrorKind::InvalidData, "invalid-data"),
    (io::ErrorKind::TimedOut, "timed-out"),
    (io::ErrorKind::WriteZero, "write-zero"),
    (io::ErrorKind::Interrupted, "interrupted"),
    (io::ErrorKind::Unsupported, "unsupported"),
    (io::ErrorKind::UnexpectedEof, "unexpected-eof"),
    (io::ErrorKind::OutOfMemory, "out-of-memory"),
    (io::ErrorKind::StorageFull, "storage-full"),
    (io::ErrorKind::Other, "other"),
];

fn io_kind_token(kind: io::ErrorKind) -> &'static str {
    IO_KIND_TOKENS
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, token)| *token)
        .unwrap_or("other")
}

fn parse_io_kind(token: &str) -> Result<io::ErrorKind, ParseError> {
    IO_KIND_TOKENS
        .iter()
        .find(|(_, t)| *t == token)
        .map(|(kind, _)| *kind)
        .ok_or_else(|| parse_err(format!("unknown io kind {token:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_core::BatchError;
    use fourcycle_store::StoreError;

    fn roundtrip(e: WireError) -> WireError {
        let line = e.render();
        assert!(line.starts_with("err "), "{line}");
        assert!(!line.contains('\n'), "{line}");
        let parsed = WireError::parse(&line).unwrap_or_else(|p| panic!("{line}: {p}"));
        assert_eq!(parsed, e, "{line}");
        parsed
    }

    /// Satellite pin: one test arm per `ServiceError` variant — the code
    /// mapping, the rendering, and the parse round-trip.
    #[test]
    fn every_service_error_variant_has_a_stable_code() {
        let id = GraphId(7);
        let cases: Vec<(ServiceError, &str, &str)> = vec![
            (
                ServiceError::UnknownGraph(id),
                "unknown-graph",
                "err unknown-graph g7",
            ),
            (
                ServiceError::GraphAlreadyExists(id),
                "graph-exists",
                "err graph-exists g7",
            ),
            (
                ServiceError::ModeMismatch {
                    id,
                    mode: WorkloadMode::Layered,
                },
                "mode-mismatch",
                "err mode-mismatch g7 layered",
            ),
            (
                ServiceError::Update(UpdateError::SelfLoop),
                "update",
                "err update self-loop",
            ),
            (
                ServiceError::Batch(BatchError::at(3, UpdateError::DuplicateEdge)),
                "batch",
                "err batch 3 duplicate-edge",
            ),
            (
                ServiceError::Journal(io::ErrorKind::StorageFull),
                "journal",
                "err journal storage-full",
            ),
            (
                ServiceError::JournalCheckpoint(io::ErrorKind::PermissionDenied),
                "journal-checkpoint",
                "err journal-checkpoint permission-denied",
            ),
        ];
        for (service, code, line) in cases {
            let wire = WireError::from(&service);
            assert_eq!(wire.code(), code);
            assert_eq!(wire.render(), line);
            roundtrip(wire);
        }
    }

    /// Satellite pin: one test arm per `RuntimeError` variant (the
    /// service arm is covered variant-by-variant above).
    #[test]
    fn every_runtime_error_variant_has_a_stable_code() {
        let shard = WireError::from(&RuntimeError::ShardUnavailable);
        assert_eq!(shard.render(), "err shard-unavailable");
        roundtrip(shard);

        let service = WireError::from(&RuntimeError::Service(ServiceError::UnknownGraph(GraphId(
            1,
        ))));
        assert_eq!(service.code(), "unknown-graph");

        let store = WireError::from(&RuntimeError::Store(StoreError::UnknownShard {
            shard: 9,
            shards: 2,
        }));
        assert_eq!(store.code(), "store");
        let reparsed = roundtrip(store);
        match reparsed {
            WireError::Store(message) => assert!(message.contains("shard 9"), "{message}"),
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn server_only_errors_roundtrip() {
        assert_eq!(roundtrip(WireError::Busy).render(), "err busy");
        for verdict in ALL_VERDICTS {
            roundtrip(WireError::Update(verdict));
            roundtrip(WireError::Batch {
                index: 12,
                error: verdict,
            });
        }
        // Free-text details survive, newlines are flattened (framing).
        let evil = WireError::Parse("line\none\ntwo".into());
        assert!(!evil.render().contains('\n'));
        roundtrip(WireError::Parse("expected + or - got '*'".into()));
    }

    /// The retry contract is the point of stable codes: `journal` means
    /// "applied but not durable — never re-submit", while `busy` /
    /// `shard-unavailable` mean "not executed — safe to retry".
    #[test]
    fn retry_contract_distinguishes_journal_from_transients() {
        let journal = WireError::Journal(io::ErrorKind::StorageFull);
        let checkpoint = WireError::JournalCheckpoint(io::ErrorKind::Other);
        assert!(journal.command_applied() && !journal.retryable());
        assert!(checkpoint.command_applied() && !checkpoint.retryable());
        for transient in [WireError::Busy, WireError::ShardUnavailable] {
            assert!(transient.retryable() && !transient.command_applied());
        }
        for rejection in [
            WireError::UnknownGraph(GraphId(1)),
            WireError::GraphExists(GraphId(1)),
            WireError::Update(UpdateError::MissingEdge),
            WireError::Parse("x".into()),
            WireError::Store("y".into()),
        ] {
            assert!(!rejection.retryable() && !rejection.command_applied());
        }
    }

    #[test]
    fn io_kind_tokens_roundtrip_and_unknown_kinds_normalize_to_other() {
        for (kind, token) in IO_KIND_TOKENS {
            assert_eq!(io_kind_token(kind), token);
            assert_eq!(parse_io_kind(token).unwrap(), kind);
        }
        // A kind outside the stable set renders as `other` and parses back
        // to `Other` — normalization, not an error.
        let exotic = WireError::Journal(io::ErrorKind::BrokenPipe);
        assert_eq!(exotic.render(), "err journal other");
        assert_eq!(
            WireError::parse("err journal other").unwrap(),
            WireError::Journal(io::ErrorKind::Other)
        );
    }

    #[test]
    fn malformed_error_lines_are_rejected() {
        for line in [
            "ok created g1",
            "err",
            "err frobnicated",
            "err busy now",
            "err unknown-graph",
            "err unknown-graph seven",
            "err mode-mismatch g1",
            "err mode-mismatch g1 sideways",
            "err update exploded",
            "err batch x duplicate-edge",
            "err batch 1",
            "err journal full-disk",
        ] {
            assert!(WireError::parse(line).is_err(), "{line}");
        }
    }
}
