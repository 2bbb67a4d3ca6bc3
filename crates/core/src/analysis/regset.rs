//! Dense register sets over one per-component numbering.
//!
//! Register liveness, interference and the register lints reason about
//! sets of `std_reg` cells. [`RegIndex`] numbers a component's registers
//! `0..n` in *name* order — the order `Id`'s `Ord` gives — so a
//! [`RegSet`], a bitset over that numbering, lists its registers in
//! ascending bit order exactly as a `BTreeSet<Id>` of the same registers
//! would: [`RegIndex::names`] is the `BTreeSet<Id>` view, and nothing
//! downstream can tell the representations apart by order. Set operations
//! are word operations; no fact compares a string.
//!
//! The numbering is held by [`ReadWriteSets`](super::ReadWriteSets), the
//! analysis every register consumer already pulls, so a component has
//! exactly one and every set of its registers is over it.

use super::dataflow::Lattice;
use crate::ir::{Component, Id};
use std::collections::HashMap;

/// A component's registers, numbered `0..n` in name order.
#[derive(Debug, Clone, Default)]
pub struct RegIndex {
    names: Vec<Id>,
    index: HashMap<Id, usize>,
}

impl RegIndex {
    /// Number the `std_reg` cells of `comp`.
    pub(crate) fn new(comp: &Component) -> Self {
        let mut names: Vec<Id> = comp
            .cells
            .iter()
            .filter(|c| c.is_register())
            .map(|c| c.name)
            .collect();
        names.sort();
        let index = names.iter().enumerate().map(|(i, &reg)| (reg, i)).collect();
        RegIndex { names, index }
    }

    /// Number of registers.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// The number of `reg`, if it is a register of the component.
    pub(crate) fn index(&self, reg: Id) -> Option<usize> {
        self.index.get(&reg).copied()
    }

    /// The register numbered `i`.
    pub(crate) fn name(&self, i: usize) -> Id {
        self.names[i]
    }

    /// The set of `regs`; names that are not registers are left out.
    pub fn set(&self, regs: impl IntoIterator<Item = Id>) -> RegSet {
        let mut set = RegSet::new();
        for i in regs.into_iter().filter_map(|reg| self.index(reg)) {
            set.insert(i);
        }
        set
    }

    /// Is `reg` in `set`? False for a name that is not a register.
    pub(crate) fn contains(&self, set: &RegSet, reg: Id) -> bool {
        self.index(reg).is_some_and(|i| set.contains(i))
    }

    /// The registers of `set` in name order: the `BTreeSet<Id>` view.
    pub fn names<'a>(&'a self, set: &'a RegSet) -> impl Iterator<Item = Id> + 'a {
        set.iter().map(|i| self.names[i])
    }
}

/// A set of registers: bit `i` is register `i` of a [`RegIndex`].
///
/// The set grows on demand, so the lattice bottom is the empty vector and
/// sets over one numbering combine whatever their lengths; trailing zero
/// words are not observable (equality ignores them).
#[derive(Debug, Clone, Default)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// The empty set.
    pub const fn new() -> Self {
        RegSet { words: Vec::new() }
    }

    /// Add register `i`.
    pub(crate) fn insert(&mut self, i: usize) {
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Is register `i` in the set?
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The set's words, bit `i % 64` of word `i / 64` being register `i`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The registers in the set, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Remove every register of `other`.
    pub(crate) fn subtract(&mut self, other: &RegSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// The registers in both sets.
    pub(crate) fn intersection(&self, other: &RegSet) -> RegSet {
        RegSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }
}

impl PartialEq for RegSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

/// Union is the join: liveness's lattice.
impl Lattice for RegSet {
    fn bottom() -> Self {
        RegSet::new()
    }

    fn join(&mut self, other: &Self) -> bool {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            changed |= o & !*w != 0;
            *w |= o;
        }
        changed
    }

    fn leq(&self, other: &Self) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{AnalysisCache, ReadWriteSets};
    use crate::ir::parse_context;
    use crate::lint::{DeadWrite, DiagnosticSink, Lint, ParRace};
    use std::collections::BTreeSet;

    fn set(bits: &[usize]) -> RegSet {
        let mut set = RegSet::new();
        for &i in bits {
            set.insert(i);
        }
        set
    }

    #[test]
    fn word_ops_and_trailing_zeros() {
        let a = set(&[0, 63, 64, 130]);
        assert_eq!(a.iter().collect::<Vec<_>>(), [0, 63, 64, 130]);
        assert!(a.contains(64) && !a.contains(65) && !a.contains(1000));
        let mut b = set(&[63, 130]);
        b.subtract(&set(&[130]));
        assert_eq!(b, set(&[63]), "a zero trailing word is not observable");
        assert_eq!(a.intersection(&set(&[1, 64])), set(&[64]));
        assert_eq!(set(&[5]).intersection(&set(&[6])), RegSet::new());
    }

    #[test]
    fn union_lattice_laws() {
        let a = set(&[3, 70]);
        let mut b = RegSet::bottom();
        assert!(b.leq(&a) && !a.leq(&b));
        assert!(b.join(&a), "joining new registers reports a change");
        assert!(!b.join(&a), "re-joining is idempotent");
        assert!(!b.join(&set(&[3])), "a shorter subset changes nothing");
        assert!(a.leq(&b) && b.leq(&a) && a == b);
    }

    /// The messages `lint` pushes for `src`, in push order.
    fn messages(lint: impl Lint, src: &str) -> Vec<String> {
        let ctx = parse_context(src).unwrap();
        let mut sink = DiagnosticSink::new();
        lint.check(&ctx, &mut AnalysisCache::new(), &mut sink);
        sink.diagnostics()
            .iter()
            .map(|d| d.message.clone())
            .collect()
    }

    /// Both groups write both registers, which are declared — and so
    /// interned — `ord_b` first: intern order is not name order.
    const WRITES: &str = r#"
        group wa {
          add.left = 8'd1; add.right = 8'd2;
          ord_b.in = add.out; ord_b.write_en = 1'd1;
          ord_a.in = add.out; ord_a.write_en = 1'd1;
          wa[done] = ord_a.done;
        }
        group wb {
          add.left = 8'd3; add.right = 8'd4;
          ord_b.in = add.out; ord_b.write_en = 1'd1;
          ord_a.in = add.out; ord_a.write_en = 1'd1;
          wb[done] = ord_b.done;
        }
        group store {
          add.left = ord_b.out; add.right = ord_a.out;
          m.addr0 = 1'd0; m.write_data = add.out; m.write_en = 1'd1;
          store[done] = m.done;
        }"#;

    fn program(control: &str) -> String {
        format!(
            "component main() -> () {{
               cells {{ ord_b = std_reg(8); ord_a = std_reg(8); add = std_add(8);
                        @external m = std_mem_d1(8, 1, 1); }}
               wires {{ {WRITES} }}
               control {{ {control} }}
             }}"
        )
    }

    /// The numbering, the `BTreeSet<Id>` view, and the diagnostics of the
    /// lints that list registers out of a `RegSet` come out in name
    /// order, as a `BTreeSet<Id>` of the same registers iterates.
    #[test]
    fn numbering_is_name_order_not_intern_order() {
        let ctx = parse_context(&program("seq { wa; wb; store; }")).unwrap();
        let (a, b) = (Id::new("ord_a"), Id::new("ord_b"));
        assert!(b.raw() < a.raw(), "`ord_b` is interned first");
        let oracle: BTreeSet<Id> = [b, a].into_iter().collect();

        let comp = ctx.component("main").unwrap();
        let rw = AnalysisCache::new().get::<ReadWriteSets>(comp);
        let regs = rw.regs();
        assert_eq!((regs.index(a), regs.index(b)), (Some(0), Some(1)));
        let written = rw.may_writes(Id::new("wa"));
        assert!(regs.names(written).eq(oracle.iter().copied()));
        assert_eq!(regs.set([b, a, Id::new("add")]), *written);

        // `wb` overwrites both of `wa`'s registers before `store` reads.
        let dead = messages(DeadWrite, &program("seq { wa; wb; store; }"));
        let expected: Vec<String> = oracle
            .iter()
            .map(|r| format!("group `wa` writes `{r}` but nothing ever reads that value"))
            .collect();
        assert_eq!(dead, expected);

        let races = messages(ParRace, &program("seq { par { wa; wb; } store; }"));
        let expected: Vec<String> = oracle
            .iter()
            .map(|r| {
                format!(
                    "groups `wa` and `wb` may run in the same `par` and both write register `{r}`"
                )
            })
            .collect();
        assert_eq!(races, expected);
    }
}
