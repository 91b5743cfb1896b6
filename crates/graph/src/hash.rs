//! The hasher of the engines' integer-keyed maps.
//!
//! [`crate::CompactIndex`], through which every engine interns client ids,
//! and `fourcycle-core`'s pair-count tables hash one integer key per probe.
//! [`SeededState`] hashes a key with one folded multiply: the 128-bit
//! product of the key xor a seed and a fixed odd constant, its two 64-bit
//! halves xored together. On a general-hubs-shaped stream the fmm engine
//! ran about a sixth faster with it than with std's SipHash-1-3 in the
//! same maps (ADR-002's pair-table amendment).
//!
//! The seed is drawn once per map from std's [`RandomState`], so the
//! hash is not a fixed function of the key. Client ids reach
//! [`crate::CompactIndex`] unchanged, and an unseeded multiply would let a
//! client choose ids that share their hash bits (multiples of a power of
//! two, say) and turn every probe into a scan of one long probe sequence.
//! There is no option to turn the seed off.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A [`HashMap`] hashed by [`SeededState`].
pub type SeededHashMap<K, V> = HashMap<K, V, SeededState>;

/// The multiplier of the fold: the odd integer nearest 2^64 / φ.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The two 64-bit halves of the 128-bit product `x · y`, xored.
#[expect(
    clippy::as_conversions,
    reason = "the fold keeps each 64-bit half of the product; truncation is the point"
)]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let product = u128::from(x) * u128::from(y);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Builds [`SeededHasher`]s that share one seed, drawn when the state is
/// made (module docs).
#[derive(Debug, Clone, Copy)]
pub struct SeededState {
    seed: u64,
}

impl Default for SeededState {
    fn default() -> Self {
        Self {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for SeededState {
    type Hasher = SeededHasher;

    fn build_hasher(&self) -> SeededHasher {
        SeededHasher { state: self.seed }
    }
}

/// Folds each written word into its state with one folded multiply.
#[derive(Debug, Clone, Copy)]
pub struct SeededHasher {
    state: u64,
}

impl Hasher for SeededHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.state = folded_multiply(self.state ^ n, MULTIPLIER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_state_hashes_alike_and_two_states_differ() {
        let (s, t) = (SeededState::default(), SeededState::default());
        assert_eq!(s.hash_one(7u32), s.hash_one(7u32));
        assert_ne!(
            s.hash_one(7u32),
            t.hash_one(7u32),
            "seeds are drawn per state"
        );
    }

    #[test]
    fn a_u32_key_hashes_as_its_u64_widening() {
        let s = SeededState::default();
        assert_eq!(s.hash_one(9u32), s.hash_one(9u64));
        let mut h = s.build_hasher();
        h.write(&9u64.to_le_bytes());
        assert_eq!(h.finish(), s.hash_one(9u64));
    }

    #[test]
    fn the_fold_mixes_both_halves() {
        assert_eq!(folded_multiply(0, MULTIPLIER), 0);
        assert_eq!(folded_multiply(1, MULTIPLIER), MULTIPLIER);
        assert_eq!(folded_multiply(1 << 32, 1 << 32), 1);
    }
}
