//! Typed index newtypes and dense arena containers.
//!
//! Every entity in the flat simulation IR lives in a contiguous `Vec` and
//! is referred to by a 32-bit typed index. The newtypes make it a compile
//! error to index the port arena with a cell index, while keeping the
//! runtime representation a bare `u32` — an [`IndexRange`] is eight bytes,
//! a `FlatAtom` fits in a word, and iterating an arena is a linear scan.

use std::marker::PhantomData;

/// A typed 32-bit index into one arena.
pub trait FlatIdx: Copy + Eq {
    /// Wrap a raw position.
    fn new(idx: usize) -> Self;
    /// The raw position.
    fn index(self) -> usize;
}

macro_rules! flat_idx {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl FlatIdx for $name {
            fn new(idx: usize) -> Self {
                debug_assert!(idx <= u32::MAX as usize, "arena overflow");
                $name(idx as u32)
            }

            fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

flat_idx!(
    /// Index into the port arena.
    PortIdx
);
flat_idx!(
    /// Index into the cell (primitive-instance) arena.
    CellIdx
);
flat_idx!(
    /// Index into the group arena.
    GroupIdx
);
flat_idx!(
    /// Index into the assignment arena.
    AssignIdx
);
flat_idx!(
    /// Index into the flattened control-node arena.
    CtrlIdx
);
flat_idx!(
    /// Index into the interned guard-node arena.
    GuardIdx
);

/// A dense arena indexed by a typed [`FlatIdx`].
#[derive(Debug, Clone)]
pub struct IndexedMap<I, T> {
    data: Vec<T>,
    _marker: PhantomData<I>,
}

impl<I: FlatIdx, T> IndexedMap<I, T> {
    /// An empty arena.
    pub fn new() -> Self {
        IndexedMap {
            data: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Append a value, returning its index.
    pub fn push(&mut self, value: T) -> I {
        let idx = I::new(self.data.len());
        self.data.push(value);
        idx
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the arena holds nothing.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The index the next `push` will return.
    pub fn next_idx(&self) -> I {
        I::new(self.data.len())
    }

    /// Iterate over the stored values in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Iterate over `(index, value)` pairs.
    pub fn enumerate(&self) -> impl Iterator<Item = (I, &T)> {
        self.data.iter().enumerate().map(|(i, t)| (I::new(i), t))
    }

    /// All valid indices, in order.
    pub fn keys(&self) -> impl Iterator<Item = I> {
        (0..self.data.len()).map(I::new)
    }

    /// The contiguous slice covered by `range` — lets hot loops walk a
    /// range without per-element index conversions.
    pub fn range(&self, range: IndexRange<I>) -> &[T] {
        &self.data[range.start as usize..range.end as usize]
    }
}

impl<I: FlatIdx, T> Default for IndexedMap<I, T> {
    fn default() -> Self {
        IndexedMap::new()
    }
}

impl<I: FlatIdx, T> std::ops::Index<I> for IndexedMap<I, T> {
    type Output = T;

    fn index(&self, idx: I) -> &T {
        &self.data[idx.index()]
    }
}

impl<I: FlatIdx, T> std::ops::IndexMut<I> for IndexedMap<I, T> {
    fn index_mut(&mut self, idx: I) -> &mut T {
        &mut self.data[idx.index()]
    }
}

/// A half-open, contiguous range of typed indices — how the flat IR
/// represents "the assignments of group `g`" without a side `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRange<I> {
    start: u32,
    end: u32,
    _marker: PhantomData<I>,
}

impl<I: FlatIdx> IndexRange<I> {
    /// The range `[start, end)`.
    pub fn new(start: I, end: I) -> Self {
        debug_assert!(start.index() <= end.index());
        IndexRange {
            start: start.index() as u32,
            end: end.index() as u32,
            _marker: PhantomData,
        }
    }

    /// An empty range.
    pub fn empty() -> Self {
        IndexRange {
            start: 0,
            end: 0,
            _marker: PhantomData,
        }
    }

    /// Number of indices covered.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when the range covers nothing.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Iterate the covered indices in order.
    pub fn iter(self) -> impl Iterator<Item = I> {
        (self.start..self.end).map(|i| I::new(i as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_push_and_index_round_trip() {
        let mut map: IndexedMap<PortIdx, u32> = IndexedMap::new();
        let a = map.push(10);
        let b = map.push(20);
        assert_eq!(map[a], 10);
        assert_eq!(map[b], 20);
        assert_eq!(map.len(), 2);
        assert_eq!(map.keys().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn index_range_iterates_half_open() {
        let mut map: IndexedMap<AssignIdx, char> = IndexedMap::new();
        let start = map.next_idx();
        map.push('a');
        map.push('b');
        let end = map.next_idx();
        map.push('c');
        let range = IndexRange::new(start, end);
        assert_eq!(range.len(), 2);
        let vals: Vec<char> = range.iter().map(|i| map[i]).collect();
        assert_eq!(vals, vec!['a', 'b']);
        assert!(IndexRange::<AssignIdx>::empty().is_empty());
    }

    #[test]
    fn typed_indices_are_word_sized() {
        assert_eq!(std::mem::size_of::<PortIdx>(), 4);
        assert_eq!(std::mem::size_of::<IndexRange<AssignIdx>>(), 8);
    }
}
