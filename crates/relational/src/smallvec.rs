//! A small-buffer vector for index buckets.
//!
//! The column postings of [`crate::Database::postings`] and the binary
//! hash join of the violation engine map a dictionary code to the tuples
//! (or dense scan positions) carrying that value. On real data most codes
//! identify a handful of tuples (keys are near-unique), so a heap `Vec`
//! per bucket wastes an allocation and a pointer chase for the common
//! case. This is the usual `smallvec` trick (the crates.io crate is
//! unavailable in this build environment), specialized to the two `u32`-
//! sized item types stored: up to [`SmallVec::INLINE`] items live inside
//! the map entry itself, spilling to a heap `Vec` beyond that.

use crate::database::TupleId;

/// Items storable inline: `Copy` with a filler value for unoccupied slots.
pub trait InlineItem: Copy {
    /// Arbitrary value used to initialize unoccupied inline slots.
    const FILLER: Self;
}

impl InlineItem for TupleId {
    const FILLER: Self = TupleId(0);
}

impl InlineItem for u32 {
    const FILLER: Self = 0;
}

/// Inline capacity: 6 `u32`-sized items keep the enum at 32 bytes,
/// matching the allocation granularity of the hash-map entries it lives
/// in. A single constant shared by the variant type, the constructor and
/// the `push` bound, so retuning it cannot desynchronize them.
const INLINE_CAP: usize = 6;

/// Inline-first vector of index entries.
#[derive(Clone, Debug)]
pub enum SmallVec<T: InlineItem> {
    /// Up to [`SmallVec::INLINE`] items stored in place.
    Inline {
        /// Number of occupied slots.
        len: u8,
        /// Storage; slots `>= len` hold [`InlineItem::FILLER`].
        buf: [T; INLINE_CAP],
    },
    /// Spilled storage once the inline capacity is exceeded.
    Heap(Vec<T>),
}

/// Bucket of tuple identifiers (the postings payload).
pub type SmallIdVec = SmallVec<TupleId>;

impl<T: InlineItem> SmallVec<T> {
    /// Inline capacity (the module-private `INLINE_CAP`).
    pub const INLINE: usize = INLINE_CAP;

    /// An empty vector (no allocation).
    pub fn new() -> Self {
        SmallVec::Inline {
            len: 0,
            buf: [T::FILLER; INLINE_CAP],
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        match self {
            SmallVec::Inline { len, .. } => *len as usize,
            SmallVec::Heap(v) => v.len(),
        }
    }

    /// Whether no item is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an item, spilling to the heap past the inline capacity.
    pub fn push(&mut self, item: T) {
        match self {
            SmallVec::Inline { len, buf } => {
                if (*len as usize) < Self::INLINE {
                    buf[*len as usize] = item;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(Self::INLINE * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(item);
                    *self = SmallVec::Heap(v);
                }
            }
            SmallVec::Heap(v) => v.push(item),
        }
    }

    /// Inserts `item` at `index`, shifting later items right (panics when
    /// `index > len`, like [`Vec::insert`]).
    pub fn insert(&mut self, index: usize, item: T) {
        let len = self.len();
        assert!(index <= len, "insert index {index} out of bounds ({len})");
        self.push(item);
        let items = self.as_mut_slice();
        items[index..].rotate_right(1);
    }

    /// Removes and returns the item at `index`, shifting later items left
    /// (panics when out of bounds, like [`Vec::remove`]). A spilled vector
    /// stays on the heap.
    pub fn remove(&mut self, index: usize) -> T {
        match self {
            SmallVec::Inline { len, buf } => {
                assert!(index < *len as usize, "remove index {index} out of bounds");
                let item = buf[index];
                buf[index..*len as usize].rotate_left(1);
                *len -= 1;
                buf[*len as usize] = T::FILLER;
                item
            }
            SmallVec::Heap(v) => v.remove(index),
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            SmallVec::Inline { len, buf } => &mut buf[..*len as usize],
            SmallVec::Heap(v) => v,
        }
    }

    /// The items as a slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            SmallVec::Inline { len, buf } => &buf[..*len as usize],
            SmallVec::Heap(v) => v,
        }
    }

    /// Iterates the items.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

/// Equality of the items, whatever their storage: a heap vector shrunk
/// back to a few items equals the inline vector holding the same ones.
impl<T: InlineItem + PartialEq> PartialEq for SmallVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: InlineItem + Eq> Eq for SmallVec<T> {}

impl<T: InlineItem> Default for SmallVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, T: InlineItem> IntoIterator for &'a SmallVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_then_spills() {
        let mut v = SmallIdVec::new();
        assert!(v.is_empty());
        for i in 0..SmallIdVec::INLINE as u32 {
            v.push(TupleId(i));
            assert!(matches!(v, SmallVec::Inline { .. }));
        }
        v.push(TupleId(99));
        assert!(matches!(v, SmallVec::Heap(_)));
        let expected: Vec<TupleId> = (0..SmallIdVec::INLINE as u32)
            .map(TupleId)
            .chain([TupleId(99)])
            .collect();
        assert_eq!(v.as_slice(), expected.as_slice());
        assert_eq!(v.len(), SmallIdVec::INLINE + 1);
    }

    #[test]
    fn insert_and_remove_keep_order_across_the_spill() {
        let mut v = SmallIdVec::new();
        for i in [1, 3, 5] {
            v.push(TupleId(i));
        }
        v.insert(1, TupleId(2));
        v.insert(0, TupleId(0));
        v.insert(5, TupleId(6));
        v.insert(4, TupleId(4));
        let ids: Vec<u32> = v.iter().map(|t| t.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(matches!(v, SmallVec::Heap(_)));
        assert_eq!(v.remove(0), TupleId(0));
        assert_eq!(v.remove(5), TupleId(6));
        let ids: Vec<u32> = v.iter().map(|t| t.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);

        let mut w = SmallVec::<u32>::new();
        w.push(7);
        w.push(9);
        assert_eq!(w.remove(0), 7);
        assert_eq!(w.as_slice(), &[9]);
        assert_eq!(w.remove(0), 9);
        assert!(w.is_empty());
    }

    #[test]
    fn enum_is_compact() {
        assert!(std::mem::size_of::<SmallIdVec>() <= 32);
        assert!(std::mem::size_of::<SmallVec<u32>>() <= 32);
    }
}
