//! Batched trace playback.
//!
//! The trace format (`trace.rs`) stores one update per line; replaying a
//! trace update-by-update forfeits the batch entry points of the counters.
//! This module groups a parsed stream into [`UpdateBatch`]es of a
//! configured size — mirroring the paper's phase structure of `m^{1−δ}`
//! updates (§5.1) — so that experiment drivers and ingestion pipelines can
//! feed `LayeredCycleCounter::apply_batch` directly.

use crate::trace::parse_layered_trace;
use fourcycle_graph::{LayeredUpdate, UpdateBatch};

/// Groups a layered update stream into batches of at most `batch_size`
/// updates, preserving order (the last batch may be shorter).
pub fn chunk_layered_stream(stream: &[LayeredUpdate], batch_size: usize) -> Vec<UpdateBatch> {
    let batch_size = batch_size.max(1);
    stream
        .chunks(batch_size)
        .map(|chunk| chunk.iter().copied().collect())
        .collect()
}

/// Parses a layered trace (see [`crate::trace`]) directly into batches of at
/// most `batch_size` updates. Returns the line-indexed parse error on
/// malformed input.
pub fn parse_layered_trace_batched(
    text: &str,
    batch_size: usize,
) -> Result<Vec<UpdateBatch>, String> {
    Ok(chunk_layered_stream(
        &parse_layered_trace(text)?,
        batch_size,
    ))
}

/// An iterator-style player over a layered stream: yields successive
/// batches, tracking how many updates have been dispatched. Useful when the
/// consumer paces ingestion (e.g. one batch per tick) rather than draining
/// the whole trace at once.
#[derive(Debug, Clone)]
pub struct TracePlayer {
    stream: Vec<LayeredUpdate>,
    batch_size: usize,
    cursor: usize,
}

impl TracePlayer {
    /// Creates a player over a stream with the given batch size.
    pub fn new(stream: Vec<LayeredUpdate>, batch_size: usize) -> Self {
        Self {
            stream,
            batch_size: batch_size.max(1),
            cursor: 0,
        }
    }

    /// Creates a player from trace text.
    pub fn from_trace(text: &str, batch_size: usize) -> Result<Self, String> {
        Ok(Self::new(parse_layered_trace(text)?, batch_size))
    }

    /// Number of updates already handed out.
    pub fn dispatched(&self) -> usize {
        self.cursor
    }

    /// Number of updates still queued.
    pub fn remaining(&self) -> usize {
        self.stream.len() - self.cursor
    }

    /// The batch size in use.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

impl Iterator for TracePlayer {
    type Item = UpdateBatch;

    fn next(&mut self) -> Option<UpdateBatch> {
        if self.cursor >= self.stream.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.stream.len());
        let batch: UpdateBatch = self.stream[self.cursor..end].iter().copied().collect();
        self.cursor = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layered::LayeredStreamConfig;
    use crate::trace::render_layered_trace;

    #[test]
    fn chunking_preserves_order_and_length() {
        let stream = LayeredStreamConfig {
            updates: 250,
            ..Default::default()
        }
        .generate();
        let batches = chunk_layered_stream(&stream, 64);
        assert_eq!(batches.len(), 4);
        assert_eq!(batches.last().unwrap().len(), 250 - 3 * 64);
        let rejoined: Vec<_> = batches.iter().flat_map(|b| b.iter().copied()).collect();
        assert_eq!(rejoined, stream);
        // Degenerate batch size is clamped to 1.
        assert_eq!(chunk_layered_stream(&stream, 0).len(), 250);
    }

    #[test]
    fn trace_text_roundtrips_through_batches() {
        let stream = LayeredStreamConfig {
            updates: 100,
            ..Default::default()
        }
        .generate();
        let text = render_layered_trace(&stream);
        let batches = parse_layered_trace_batched(&text, 33).expect("valid trace");
        assert_eq!(batches.len(), 4);
        let rejoined: Vec<_> = batches.iter().flat_map(|b| b.iter().copied()).collect();
        assert_eq!(rejoined, stream);
        assert!(parse_layered_trace_batched("+ A 1\n", 8).is_err());
    }

    #[test]
    fn player_paces_batches() {
        let stream = LayeredStreamConfig {
            updates: 70,
            ..Default::default()
        }
        .generate();
        let mut player = TracePlayer::new(stream.clone(), 32);
        assert_eq!(player.batch_size(), 32);
        assert_eq!(player.remaining(), 70);
        let first = player.next().expect("first batch");
        assert_eq!(first.len(), 32);
        assert_eq!(player.dispatched(), 32);
        assert_eq!(player.remaining(), 38);
        let sizes: Vec<usize> = player.by_ref().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![32, 6]);
        assert!(player.next().is_none());

        let text = render_layered_trace(&stream);
        let replayed: Vec<_> = TracePlayer::from_trace(&text, 32)
            .expect("valid trace")
            .flat_map(|b| b.updates().to_vec())
            .collect();
        assert_eq!(replayed, stream);
    }
}
