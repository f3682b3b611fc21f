//! A fixed multiplicative hasher for maps keyed by identifiers the
//! program assigns itself ([`TupleId`](crate::TupleId)s, component ids,
//! sorted tuple-id sets).
//!
//! The standard library's SipHash guards a map against keys an adversary
//! picks to collide. Tuple identifiers are not picked by clients: an
//! insert takes the minimal unused id, so the keys of an id-keyed map are
//! a dense range whatever the client sends. For them SipHash's per-word
//! rounds and random seed buy nothing, and they dominate small lookups on
//! the write path. [`IdHasher`] is the word-at-a-time multiply-rotate
//! hash of the Firefox and rustc hash tables: one rotate, one xor and one
//! multiply per machine word, and no seed, so iteration order is the same
//! in every process.
//!
//! Maps keyed by client data (dictionary [`Value`](crate::Value)s) keep
//! SipHash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier: `2^64 / φ`, rounded to odd.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-rotate hasher for program-assigned identifiers; see the
/// module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by program-assigned identifiers.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of program-assigned identifiers.
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TupleId;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: &T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_alike_and_neighbours_apart() {
        assert_eq!(hash(&TupleId(7)), hash(&TupleId(7)));
        let ids: IdSet<u64> = (0..10_000u32).map(|i| hash(&TupleId(i))).collect();
        assert_eq!(ids.len(), 10_000, "dense ids collide");
        // A set's hash covers every member and its length.
        let pair: Box<[TupleId]> = vec![TupleId(1), TupleId(2)].into();
        let swapped: Box<[TupleId]> = vec![TupleId(2), TupleId(1)].into();
        let one: Box<[TupleId]> = vec![TupleId(1)].into();
        assert_ne!(hash(&pair), hash(&swapped));
        assert_ne!(hash(&pair), hash(&one));
    }

    #[test]
    fn byte_writes_cover_a_partial_last_word() {
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IdHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn maps_iterate_alike_in_every_build() {
        let build = || -> Vec<TupleId> {
            let map: IdMap<TupleId, ()> = (0..500).map(|i| (TupleId(i * 7 % 501), ())).collect();
            map.into_keys().collect()
        };
        assert_eq!(build(), build());
    }
}
