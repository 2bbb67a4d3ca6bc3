//! Key–value attributes (paper §3.5).
//!
//! Attributes let frontends and passes attach information to components,
//! cells, groups, ports, and control statements without extending the IL.
//! The paper's examples: `"latency"`/`"static"` for cycle counts consumed by
//! the latency-sensitive compiler, and `"share"` marking components that the
//! resource-sharing pass may duplicate across groups.

use super::Id;
use std::collections::BTreeMap;

/// Names of attributes with meaning to the compiler itself.
pub mod attr {
    use super::Id;

    /// Latency in cycles; consumed by
    /// [`StaticTiming`](crate::passes::StaticTiming) and produced by
    /// [`InferStaticTiming`](crate::passes::InferStaticTiming).
    pub const STATIC: Id = Id::STATIC;

    /// Marks a cell type safe for
    /// [`ResourceSharing`](crate::passes::ResourceSharing).
    pub const SHARE: Id = Id::SHARE;

    /// Marks a memory whose contents are externally visible; such cells are
    /// never shared and survive dead-cell removal.
    pub const EXTERNAL: Id = Id::EXTERNAL;

    /// Marks the implicit `go`/`done` interface ports on components.
    pub const INTERFACE: Id = Id::INTERFACE;

    /// Marks compiler-generated FSM state registers so area reporting can
    /// distinguish control from data state.
    pub const FSM: Id = Id::FSM;

    /// Marks compiler-generated groups (compilation groups).
    pub const GENERATED: Id = Id::GENERATED;
}

/// An ordered collection of `name = value` attributes.
///
/// ```
/// use calyx_core::ir::{attr, Attributes};
/// let mut attrs = Attributes::default();
/// attrs.insert(attr::STATIC, 3);
/// assert_eq!(attrs.get(attr::STATIC), Some(3));
/// assert!(attrs.has(attr::STATIC));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attributes(BTreeMap<Id, u64>);

impl Attributes {
    /// An empty attribute set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `key` to `value`, returning the previous value if present.
    pub fn insert(&mut self, key: Id, value: u64) -> Option<u64> {
        self.0.insert(key, value)
    }

    /// The value bound to `key`, if any.
    pub fn get(&self, key: Id) -> Option<u64> {
        self.0.get(&key).copied()
    }

    /// True when `key` is bound (to any value).
    pub fn has(&self, key: Id) -> bool {
        self.0.contains_key(&key)
    }

    /// Remove `key`, returning its value if it was bound.
    pub fn remove(&mut self, key: Id) -> Option<u64> {
        self.0.remove(&key)
    }

    /// True when no attributes are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, u64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }

    /// Builder-style insertion for construction sites.
    pub fn with(mut self, key: Id, value: u64) -> Self {
        self.insert(key, value);
        self
    }
}

impl FromIterator<(Id, u64)> for Attributes {
    fn from_iter<T: IntoIterator<Item = (Id, u64)>>(iter: T) -> Self {
        Attributes(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut a = Attributes::new();
        assert_eq!(a.insert(attr::STATIC, 2), None);
        assert_eq!(a.insert(attr::STATIC, 5), Some(2));
        assert_eq!(a.get(attr::STATIC), Some(5));
        assert_eq!(a.remove(attr::STATIC), Some(5));
        assert!(a.is_empty());
    }

    #[test]
    fn iterates_in_name_order() {
        let a: Attributes = [(Id::new("z"), 1), (Id::new("a"), 2)].into_iter().collect();
        let keys: Vec<_> = a.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "z"]);
    }

    #[test]
    fn with_chains() {
        let a = Attributes::new().with(attr::SHARE, 1).with(attr::STATIC, 4);
        assert!(a.has(attr::SHARE));
        assert_eq!(a.get(attr::STATIC), Some(4));
    }
}
