//! Packed code-key hash maps — the one definition of "how a composite
//! dictionary-code key becomes a hash-map key", used by the binary hash
//! join ([`crate::engine`]).
//!
//! One or two `u32` codes pack losslessly into a `u64` (the
//! overwhelmingly common case — FD keys are narrow); wider keys fall back
//! to boxed code slices, probed via a caller-reused scratch buffer so the
//! probe side never allocates.

use std::collections::HashMap;

/// Hash map from a fixed-width sequence of dictionary codes to a bucket.
#[derive(Debug)]
pub enum PackedKeyMap<B> {
    /// Key width ≤ 2: codes packed into a `u64`.
    Packed(HashMap<u64, B>),
    /// Wider keys: boxed code slices.
    Wide(HashMap<Box<[u32]>, B>),
}

impl<B: Default> PackedKeyMap<B> {
    /// An empty map for keys of `width` code components.
    pub fn with_key_width(width: usize) -> Self {
        if width <= 2 {
            PackedKeyMap::Packed(HashMap::new())
        } else {
            PackedKeyMap::Wide(HashMap::new())
        }
    }

    #[inline]
    fn pack(codes: &[u32]) -> u64 {
        match codes {
            [a] => *a as u64,
            [a, b] => ((*a as u64) << 32) | *b as u64,
            _ => unreachable!("packed keys have width ≤ 2"),
        }
    }

    /// The bucket for `codes`, created empty on first use.
    pub fn bucket_mut(&mut self, codes: &[u32]) -> &mut B {
        match self {
            PackedKeyMap::Packed(m) => m.entry(Self::pack(codes)).or_default(),
            PackedKeyMap::Wide(m) => m.entry(codes.into()).or_default(),
        }
    }

    /// The bucket for `codes`, if any (no allocation on the probe side).
    pub fn get(&self, codes: &[u32]) -> Option<&B> {
        match self {
            PackedKeyMap::Packed(m) => m.get(&Self::pack(codes)),
            PackedKeyMap::Wide(m) => m.get(codes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_keys_pack_and_round_trip() {
        let mut m: PackedKeyMap<Vec<u32>> = PackedKeyMap::with_key_width(2);
        assert!(matches!(m, PackedKeyMap::Packed(_)));
        m.bucket_mut(&[1, 2]).push(10);
        m.bucket_mut(&[1, 2]).push(11);
        m.bucket_mut(&[2, 1]).push(20); // order matters in the packing
        assert_eq!(m.get(&[1, 2]), Some(&vec![10, 11]));
        assert_eq!(m.get(&[2, 1]), Some(&vec![20]));
        assert_eq!(m.get(&[9, 9]), None);
    }

    #[test]
    fn wide_keys_use_slices() {
        let mut m: PackedKeyMap<Vec<u32>> = PackedKeyMap::with_key_width(3);
        assert!(matches!(m, PackedKeyMap::Wide(_)));
        m.bucket_mut(&[1, 2, 3]).push(1);
        // Probe with a scratch buffer (borrowed slice lookup).
        let scratch = vec![1u32, 2, 3];
        assert_eq!(m.get(&scratch), Some(&vec![1]));
        assert_eq!(m.get(&[1, 2, 4]), None);
    }
}
