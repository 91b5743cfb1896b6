//! The wire retry contract, pinned variant by variant.
//!
//! `expected_contract` is an exhaustive `match` over [`WireError`]: adding
//! a variant breaks this file at compile time until the new variant's
//! `(code, retryable, command_applied)` triple is pinned here. The
//! `retryable()` and `command_applied()` matches in `wire.rs` have no `_`
//! arm either, and `codes_agree_across_code_fn_grammar_and_exemplars` reads
//! `wire.rs` itself so that a new code also reaches the module's
//! `err <code>` grammar and this file's exemplar list. Together they make
//! "what does a client do with this error" a decision that cannot be
//! skipped.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::UpdateError;
use fourcycle_server::WireError;
use fourcycle_service::{GraphId, WorkloadMode};
use std::collections::BTreeSet;
use std::io;

/// The source of `WireError`, read for its `code()` match and its
/// `//! err <code>` grammar lines.
const WIRE_RS: &str = include_str!("../src/wire.rs");

/// The pinned `(wire code, retryable, command_applied)` triple for every
/// variant. Exhaustive on purpose — no `_` arm, ever.
fn expected_contract(e: &WireError) -> (&'static str, bool, bool) {
    match e {
        WireError::Busy => ("busy", true, false),
        WireError::ShardUnavailable => ("shard-unavailable", true, false),
        WireError::Parse(_) => ("parse", false, false),
        WireError::UnknownGraph(_) => ("unknown-graph", false, false),
        WireError::GraphExists(_) => ("graph-exists", false, false),
        WireError::ModeMismatch { .. } => ("mode-mismatch", false, false),
        WireError::Update(_) => ("update", false, false),
        WireError::Batch { .. } => ("batch", false, false),
        WireError::Journal(_) => ("journal", false, true),
        WireError::JournalCheckpoint(_) => ("journal-checkpoint", false, true),
        WireError::Store(_) => ("store", false, false),
    }
}

/// One concrete exemplar per variant, in declaration order.
fn exemplars() -> Vec<WireError> {
    vec![
        WireError::Busy,
        WireError::ShardUnavailable,
        WireError::Parse("bad line".to_string()),
        WireError::UnknownGraph(GraphId(7)),
        WireError::GraphExists(GraphId(7)),
        WireError::ModeMismatch {
            id: GraphId(7),
            mode: WorkloadMode::Layered,
        },
        WireError::Update(UpdateError::SelfLoop),
        WireError::Batch {
            index: 3,
            error: UpdateError::DuplicateEdge,
        },
        WireError::Journal(io::ErrorKind::WriteZero),
        WireError::JournalCheckpoint(io::ErrorKind::Other),
        WireError::Store("store open failed".to_string()),
    ]
}

#[test]
fn every_variant_is_pinned_and_classified() {
    let all = exemplars();
    let mut codes = Vec::new();
    for e in &all {
        let (code, retryable, applied) = expected_contract(e);
        assert_eq!(e.code(), code, "wire code drifted for {e:?}");
        assert_eq!(e.retryable(), retryable, "retryable drifted for {e:?}");
        assert_eq!(
            e.command_applied(),
            applied,
            "command_applied drifted for {e:?}"
        );
        assert!(
            !(retryable && applied),
            "{e:?} claims both `safe to retry` and `already applied`"
        );
        codes.push(code);
    }
    // No code has two exemplars.
    let unique: BTreeSet<_> = codes.iter().collect();
    assert_eq!(unique.len(), codes.len(), "duplicate exemplar codes");
}

/// The string literals returned by `WireError::code()` in `wire.rs`.
fn code_fn_codes() -> BTreeSet<&'static str> {
    let body = WIRE_RS
        .split_once("pub fn code(&self)")
        .and_then(|(_, rest)| rest.split_once("\n    }\n"))
        .map(|(body, _)| body)
        .expect("wire.rs defines `pub fn code(&self)`");
    body.lines()
        .filter_map(|line| line.split_once("=> \""))
        .map(|(_, rest)| rest.split('"').next().unwrap())
        .collect()
}

/// The codes documented by the `//! err <code> ...` grammar lines.
fn grammar_codes() -> BTreeSet<&'static str> {
    WIRE_RS
        .lines()
        .filter_map(|line| line.strip_prefix("//! err "))
        .map(|rest| rest.split_whitespace().next().unwrap())
        .collect()
}

#[test]
fn codes_agree_across_code_fn_grammar_and_exemplars() {
    let code_fn = code_fn_codes();
    assert!(
        !code_fn.is_empty(),
        "no codes parsed from WireError::code()"
    );
    assert_eq!(
        grammar_codes(),
        code_fn,
        "the `//! err <code>` grammar in wire.rs and WireError::code() disagree"
    );
    let exemplified: BTreeSet<_> = exemplars().iter().map(WireError::code).collect();
    assert_eq!(
        exemplified, code_fn,
        "the exemplar list and WireError::code() disagree"
    );
}

#[test]
fn every_variant_round_trips_through_the_wire() {
    for e in exemplars() {
        let line = e.render();
        assert!(
            line.starts_with(&format!("err {}", e.code())),
            "rendering of {e:?} does not lead with its code: {line:?}"
        );
        let parsed = WireError::parse(&line).unwrap();
        assert_eq!(
            (parsed.code(), parsed.retryable(), parsed.command_applied()),
            (e.code(), e.retryable(), e.command_applied()),
            "contract not preserved across render/parse for {e:?}"
        );
    }
}

#[test]
fn applied_and_retryable_are_disjoint_families() {
    let retryable: Vec<_> = exemplars()
        .into_iter()
        .filter(WireError::retryable)
        .collect();
    let applied: Vec<_> = exemplars()
        .into_iter()
        .filter(WireError::command_applied)
        .collect();
    assert_eq!(
        retryable.iter().map(WireError::code).collect::<Vec<_>>(),
        ["busy", "shard-unavailable"]
    );
    assert_eq!(
        applied.iter().map(WireError::code).collect::<Vec<_>>(),
        ["journal", "journal-checkpoint"]
    );
}
