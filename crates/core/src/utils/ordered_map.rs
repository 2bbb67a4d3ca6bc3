//! An insertion-ordered map keyed by interned identifiers.

use crate::ir::Id;
use rustc_hash::FxHashMap;

/// Types that carry their own name.
///
/// [`OrderedMap`] uses this to key entries, so the name acts as a primary
/// key: renaming an entry requires removing and re-inserting it.
pub trait Named {
    /// The identifier this value is stored under.
    fn name(&self) -> Id;
}

/// A map that preserves insertion order and offers O(1) lookup by [`Id`].
///
/// Calyx programs are ordered documents: cells, groups, and components print
/// and elaborate in the order a frontend created them, which keeps compiler
/// output deterministic. A `FxHashMap` alone would make pass output depend on
/// hash order; a `Vec` alone would make lookups linear. This structure keeps
/// both properties.
#[derive(Debug, Clone)]
pub struct OrderedMap<V> {
    values: Vec<V>,
    index: FxHashMap<Id, usize>,
}

impl<V> Default for OrderedMap<V> {
    fn default() -> Self {
        OrderedMap {
            values: Vec::new(),
            index: FxHashMap::default(),
        }
    }
}

impl<V: Named> OrderedMap<V> {
    /// Create an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True when an entry named `key` exists.
    pub fn contains(&self, key: Id) -> bool {
        self.index.contains_key(&key)
    }

    /// Look up an entry by name.
    pub fn get(&self, key: Id) -> Option<&V> {
        self.index.get(&key).map(|&i| &self.values[i])
    }

    /// Look up an entry mutably by name.
    ///
    /// Mutating the entry's *name* through this reference would desynchronize
    /// the index; use [`OrderedMap::remove`] + [`OrderedMap::insert`] to
    /// rename.
    pub fn get_mut(&mut self, key: Id) -> Option<&mut V> {
        self.index.get(&key).map(|&i| &mut self.values[i])
    }

    /// Insert a value keyed by its [`Named::name`].
    ///
    /// Returns the previous value with the same name, if any (the new value
    /// keeps the *old* position in that case).
    pub fn insert(&mut self, value: V) -> Option<V> {
        let name = value.name();
        match self.index.get(&name) {
            Some(&i) => Some(std::mem::replace(&mut self.values[i], value)),
            None => {
                self.index.insert(name, self.values.len());
                self.values.push(value);
                None
            }
        }
    }

    /// Remove the entry named `key`, preserving the order of the rest.
    pub fn remove(&mut self, key: Id) -> Option<V> {
        let i = self.index.remove(&key)?;
        let v = self.values.remove(i);
        for idx in self.index.values_mut() {
            if *idx > i {
                *idx -= 1;
            }
        }
        Some(v)
    }

    /// The position of `key` in insertion order.
    pub fn position(&self, key: Id) -> Option<usize> {
        self.index.get(&key).copied()
    }

    /// Keep only entries satisfying the predicate, preserving order.
    pub fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        let mut removed = Vec::new();
        self.values.retain(|v| {
            let k = keep(v);
            if !k {
                removed.push(v.name());
            }
            k
        });
        if !removed.is_empty() {
            self.index.clear();
            for (i, v) in self.values.iter().enumerate() {
                self.index.insert(v.name(), i);
            }
        }
    }

    /// Iterate over values in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &V> {
        self.values.iter()
    }

    /// Iterate mutably over values in insertion order.
    ///
    /// See [`OrderedMap::get_mut`] for the caveat about renaming entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.values.iter_mut()
    }

    /// Names of all entries in insertion order.
    pub fn names(&self) -> impl Iterator<Item = Id> + '_ {
        self.values.iter().map(|v| v.name())
    }
}

impl<V: Named> FromIterator<V> for OrderedMap<V> {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        let mut map = OrderedMap::new();
        for v in iter {
            map.insert(v);
        }
        map
    }
}

impl<'a, V: Named> IntoIterator for &'a OrderedMap<V> {
    type Item = &'a V;
    type IntoIter = std::slice::Iter<'a, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Entry(Id, u32);
    impl Named for Entry {
        fn name(&self) -> Id {
            self.0
        }
    }

    fn entry(name: &str, v: u32) -> Entry {
        Entry(Id::new(name), v)
    }

    #[test]
    fn insert_and_get() {
        let mut m = OrderedMap::new();
        assert!(m.insert(entry("a", 1)).is_none());
        assert!(m.insert(entry("b", 2)).is_none());
        assert_eq!(m.get(Id::new("a")), Some(&entry("a", 1)));
        assert_eq!(m.get(Id::new("c")), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn insert_replaces_and_keeps_position() {
        let mut m = OrderedMap::new();
        m.insert(entry("a", 1));
        m.insert(entry("b", 2));
        assert_eq!(m.insert(entry("a", 3)), Some(entry("a", 1)));
        let order: Vec<_> = m.iter().map(|e| e.1).collect();
        assert_eq!(order, vec![3, 2]);
    }

    #[test]
    fn remove_preserves_order() {
        let mut m = OrderedMap::new();
        for (n, v) in [("a", 1), ("b", 2), ("c", 3)] {
            m.insert(entry(n, v));
        }
        assert_eq!(m.remove(Id::new("b")), Some(entry("b", 2)));
        let order: Vec<_> = m.iter().map(|e| e.1).collect();
        assert_eq!(order, vec![1, 3]);
        assert_eq!(m.get(Id::new("c")), Some(&entry("c", 3)));
    }

    #[test]
    fn retain_reindexes() {
        let mut m = OrderedMap::new();
        for (n, v) in [("a", 1), ("b", 2), ("c", 3), ("d", 4)] {
            m.insert(entry(n, v));
        }
        m.retain(|e| e.1 % 2 == 0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(Id::new("d")), Some(&entry("d", 4)));
        assert!(!m.contains(Id::new("a")));
    }

    #[test]
    fn iterates_in_insertion_order() {
        let mut m = OrderedMap::new();
        for (n, v) in [("z", 1), ("y", 2), ("x", 3)] {
            m.insert(entry(n, v));
        }
        let names: Vec<_> = m.names().map(|i| i.to_string()).collect();
        assert_eq!(names, vec!["z", "y", "x"]);
    }
}
