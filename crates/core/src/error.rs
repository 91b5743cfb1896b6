//! The first-class error model of the update path.
//!
//! The original API returned `Option<i64>` from every mutating entry point
//! and silently ignored ill-formed updates inside batches. That is fine for
//! a single-process experiment harness but useless for a service front door:
//! a caller that sent a duplicate insert needs to know *what* was wrong, and
//! a caller that sent a 10 000-update transaction needs to know *which*
//! update was rejected. [`UpdateError`] names the rejection reasons and
//! [`BatchError`] attributes one to its batch index; every engine, counter
//! and view now offers `try_*` entry points returning these (the old
//! infallible methods remain as thin wrappers).

use fourcycle_graph::UpdateOp;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Why a single edge/tuple update was rejected.
///
/// All validation happens *before* any state is touched: a rejected update
/// (and, for the atomic `try_apply_batch` entry points, a rejected batch)
/// leaves the structure exactly as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateError {
    /// Insertion of an edge/tuple that is already present.
    DuplicateEdge,
    /// Deletion of an edge/tuple that is not present.
    MissingEdge,
    /// A self-loop `{u, u}` in a general simple graph (layered relations
    /// connect distinct layers, so equal endpoint ids are legal there).
    SelfLoop,
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::DuplicateEdge => write!(f, "insert of an edge that is already present"),
            UpdateError::MissingEdge => write!(f, "delete of an edge that is not present"),
            UpdateError::SelfLoop => write!(f, "self-loop in a general simple graph"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// A rejected batch: the first offending update's index and reason.
///
/// Returned by the atomic `try_apply_batch` entry points, which validate the
/// whole batch (against the current state plus the batch's own earlier
/// updates — an insert followed by a delete of the same edge inside one
/// batch is well-formed) and apply nothing unless every update is valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchError {
    /// Index into the submitted batch of the first rejected update.
    pub index: usize,
    /// Why that update was rejected.
    pub error: UpdateError,
}

impl BatchError {
    /// Attributes `error` to position `index` of the batch.
    pub fn at(index: usize, error: UpdateError) -> Self {
        Self { index, error }
    }
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch update #{}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The shared front-end of every atomic `try_apply_batch`: validates a
/// batch against the *current* membership state plus the batch's own
/// earlier updates (an insert followed by a delete of the same key within
/// one batch is well-formed), without touching any state.
///
/// `key_and_op` extracts an update's dedup key and operation — or rejects
/// the update outright (e.g. a self-loop) with the [`UpdateError`] to
/// attribute. `present` answers whether the key's edge/tuple currently
/// exists; it is consulted once per distinct key, on first occurrence.
/// Returns the first offending batch index, exactly as sequential
/// validation would find it.
pub fn validate_batch<U, K, KF, PF>(
    updates: &[U],
    mut key_and_op: KF,
    mut present: PF,
) -> Result<(), BatchError>
where
    K: Eq + Hash,
    KF: FnMut(&U) -> Result<(K, UpdateOp), UpdateError>,
    PF: FnMut(&U) -> bool,
{
    // A single update (every `try_apply`) needs no overlay, so no hashing.
    if let [update] = updates {
        let (_, op) = key_and_op(update).map_err(|e| BatchError::at(0, e))?;
        return check(op, present(update)).map_err(|e| BatchError::at(0, e));
    }
    let mut overlay: HashMap<K, bool> = HashMap::with_capacity(updates.len());
    for (i, update) in updates.iter().enumerate() {
        let (key, op) = key_and_op(update).map_err(|e| BatchError::at(i, e))?;
        let entry = overlay.entry(key).or_insert_with(|| present(update));
        check(op, *entry).map_err(|e| BatchError::at(i, e))?;
        *entry = op == UpdateOp::Insert;
    }
    Ok(())
}

/// Whether `op` is valid on a key whose edge/tuple is `present`.
fn check(op: UpdateOp, present: bool) -> Result<(), UpdateError> {
    match op {
        UpdateOp::Insert if present => Err(UpdateError::DuplicateEdge),
        UpdateOp::Delete if !present => Err(UpdateError::MissingEdge),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_batch_tracks_in_batch_state_and_attributes_indices() {
        let present = |&(_, _, _): &(u32, u32, UpdateOp)| false;
        let key = |&(l, r, op): &(u32, u32, UpdateOp)| Ok(((l, r), op));
        use UpdateOp::{Delete, Insert};
        // Insert-then-delete of one pair is fine; re-delete is not.
        assert_eq!(
            validate_batch(&[(1, 2, Insert), (1, 2, Delete)], key, present),
            Ok(())
        );
        assert_eq!(
            validate_batch(
                &[(1, 2, Insert), (1, 2, Delete), (1, 2, Delete)],
                key,
                present
            ),
            Err(BatchError::at(2, UpdateError::MissingEdge))
        );
        // `present` seeds from current state per distinct key.
        assert_eq!(
            validate_batch(&[(5, 5, Insert)], key, |_| true),
            Err(BatchError::at(0, UpdateError::DuplicateEdge))
        );
        // key_and_op rejections are attributed too.
        assert_eq!(
            validate_batch(
                &[(1, 2, Insert), (3, 3, Insert)],
                |&(l, r, op): &(u32, u32, UpdateOp)| {
                    if l == r {
                        Err(UpdateError::SelfLoop)
                    } else {
                        Ok(((l, r), op))
                    }
                },
                present,
            ),
            Err(BatchError::at(1, UpdateError::SelfLoop))
        );
    }

    #[test]
    fn display_names_the_rejection() {
        assert!(UpdateError::DuplicateEdge
            .to_string()
            .contains("already present"));
        assert!(UpdateError::MissingEdge.to_string().contains("not present"));
        assert!(
            UpdateError::SelfLoop.to_string().contains("Self-loop")
                || UpdateError::SelfLoop.to_string().contains("self-loop")
        );
        let batch = BatchError::at(7, UpdateError::MissingEdge);
        assert_eq!(batch.index, 7);
        assert!(batch.to_string().contains("#7"));
        use std::error::Error;
        assert!(batch.source().is_some());
    }
}
