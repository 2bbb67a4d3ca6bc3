//! Interned identifiers.
//!
//! Compilers compare and hash names constantly; interning makes [`Id`] a
//! `Copy` handle with O(1) equality while `as_str` recovers the text. The
//! interner lives for the whole process (strings are leaked), which is the
//! right trade-off for a compiler: the set of distinct names is small and
//! bounded by the input programs.
//!
//! **Well-known names.** The names the compiler itself spells — interface
//! and primitive ports (`go`, `done`, `out`, …), the attributes, the std
//! primitives, the prefixes of generated groups and cells, and the
//! keywords of the textual format — sit at
//! fixed indices, each a `const` on `Id` ([`Id::GO`], [`Id::STATIC`], …).
//! Their text is a static array, so a const reads before any `Id::new`
//! has run, and hot code passes the const instead of interning the text
//! again.
//!
//! **What takes the lock.** Only [`Id::new`] of a name that is not
//! well-known. A well-known name is found in a fixed table built once and
//! never written again, so `Id::new("done")` returns [`Id::DONE`] without
//! locking. Any other name is looked up in a `Mutex`-guarded
//! `HashMap<&'static str, u32>`, appended if new. Everything that *reads*
//! an `Id` — [`Id::as_str`], `Ord`, `Display`, `Debug` — takes no lock.
//! The index → text table of the other names is append-only storage
//! outside the mutex: a fixed array of buckets of doubling size, each
//! allocated once and each slot written once (both `OnceLock`s), and
//! `Id::new` writes a name's slot before it returns the index, so whoever
//! holds an `Id` finds its slot filled. Reads are the hot side: every
//! `BTreeSet<Id>` and `BTreeMap<Id, _>` in the compiler compares keys on
//! each step of each lookup, and a comparison that locked would make the
//! liveness sets of a large `par` cost lock round-trips by the million and
//! queue concurrent compiles (`futil --batch`) on one mutex.
//!
//! **Which hash where.** The text map hashes with std's `RandomState`:
//! its keys come from the input, and `futil serve` takes hostile input.
//! A map keyed by `Id`s themselves hashes the index with `FxHasher`.
//!
//! **Why `Id` stays 4 bytes.** `Id` is a field of every port reference,
//! assignment and guard leaf, so its width is the width of the IR. A
//! pointer-sized `Id` (`&'static` entry, no table) reads as fast, but
//! when this layout was chosen it cost 6 % of resident memory and 3.5 %
//! of the interpreter benchmark's sweep. `Eq` and `Hash` are the derived
//! integer ones.
//!
//! **Why `Ord` is still textual.** Sorted containers of `Id`s drive the
//! printer, the Verilog backend and every deterministic analysis, and
//! intern indices depend on creation order — on which program a
//! long-lived `futil serve` compiled first. `cmp` answers `Equal` from the
//! indices alone and otherwise compares the two strings, so sorted output
//! is alphabetical and the same in every process, well-known names
//! included.

use parking_lot::{Mutex, MutexGuard};
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::fmt;
use std::sync::OnceLock;

/// Declares the well-known names in index order: the text table and one
/// `const` on [`Id`] per name.
macro_rules! well_known {
    ($($konst:ident = $text:literal,)*) => {
        /// The text of each well-known name, by index.
        const WELL_KNOWN: &[&str] = &[$($text),*];

        /// Numbers the names, so each const gets its position.
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u32)]
        enum WellKnown { $($konst),* }

        impl Id {
            $(
                #[doc = concat!("`", $text, "`, interned at a fixed index.")]
                pub const $konst: Id = Id(WellKnown::$konst as u32);
            )*
        }
    };
}

well_known! {
    // Interface and primitive ports.
    GO = "go",
    DONE = "done",
    IN = "in",
    OUT = "out",
    WRITE_EN = "write_en",
    LEFT = "left",
    RIGHT = "right",
    READ_DATA = "read_data",
    WRITE_DATA = "write_data",
    ADDR0 = "addr0",
    ADDR1 = "addr1",
    ADDR2 = "addr2",
    OUT_QUOTIENT = "out_quotient",
    OUT_REMAINDER = "out_remainder",
    // Attributes (`attr`).
    STATIC = "static",
    SHARE = "share",
    EXTERNAL = "external",
    INTERFACE = "interface",
    FSM = "fsm",
    GENERATED = "generated",
    // The std primitives.
    STD_REG = "std_reg",
    STD_WIRE = "std_wire",
    STD_ADD = "std_add",
    STD_SUB = "std_sub",
    STD_AND = "std_and",
    STD_OR = "std_or",
    STD_XOR = "std_xor",
    STD_LSH = "std_lsh",
    STD_RSH = "std_rsh",
    STD_NOT = "std_not",
    STD_LT = "std_lt",
    STD_GT = "std_gt",
    STD_EQ = "std_eq",
    STD_NEQ = "std_neq",
    STD_GE = "std_ge",
    STD_LE = "std_le",
    STD_SLT = "std_slt",
    STD_SGT = "std_sgt",
    STD_SLICE = "std_slice",
    STD_PAD = "std_pad",
    STD_MULT_PIPE = "std_mult_pipe",
    STD_DIV_PIPE = "std_div_pipe",
    STD_SQRT = "std_sqrt",
    STD_MEM_D1 = "std_mem_d1",
    STD_MEM_D2 = "std_mem_d2",
    STD_MEM_D3 = "std_mem_d3",
    // The entry point, and the prefixes of generated groups and cells.
    MAIN = "main",
    SEQ = "seq",
    PAR = "par",
    IF = "if",
    WHILE = "while",
    CS = "cs",
    CC = "cc",
    INCR = "incr",
    STATIC_SEQ = "static_seq",
    STATIC_PAR = "static_par",
    PROBE = "__probe",
    // The keywords of the textual format (`seq`, `par`, `if` and `while`
    // are above), so the parser compares a keyword as an index.
    IMPORT = "import",
    EXTERN = "extern",
    COMPONENT = "component",
    CELLS = "cells",
    WIRES = "wires",
    CONTROL = "control",
    GROUP = "group",
    WITH = "with",
    ELSE = "else",
}

impl Id {
    /// The address ports of a memory, by dimension.
    pub const ADDRS: [Id; 3] = [Id::ADDR0, Id::ADDR1, Id::ADDR2];
}

/// The first index of a name that is not well-known.
const FIRST_DYNAMIC: u32 = WELL_KNOWN.len() as u32;

/// Text → index of the well-known names. Built once and never written
/// again, so it is read without a lock; its keys are fixed, so a hash that
/// input could steer is harmless here.
fn lookup_well_known(name: &str) -> Option<Id> {
    static BY_TEXT: OnceLock<FxHashMap<&'static str, Id>> = OnceLock::new();
    let by_text = BY_TEXT.get_or_init(|| (0..).zip(WELL_KNOWN).map(|(i, &t)| (t, Id(i))).collect());
    by_text.get(name).copied()
}

/// Slots in bucket 0; bucket `b` holds `FIRST_BUCKET << b`.
const FIRST_BUCKET: u64 = 64;
/// Enough doubling buckets for every `u32` index.
const BUCKETS: usize = 27;

type Bucket = Box<[OnceLock<&'static str>]>;

/// Index → text of the names that are not well-known, read without a
/// lock. A slot is written once, under the [`lock_names`] lock, before its
/// index is handed out.
static TABLE: [OnceLock<Bucket>; BUCKETS] = [const { OnceLock::new() }; BUCKETS];

/// Lock text → index of the names that are not well-known; the next index
/// is [`FIRST_DYNAMIC`] plus the map's length.
#[allow(clippy::disallowed_types)] // keys are input text: keep SipHash
fn lock_names() -> MutexGuard<'static, std::collections::HashMap<&'static str, u32>> {
    static NAMES: OnceLock<Mutex<std::collections::HashMap<&'static str, u32>>> = OnceLock::new();
    #[cfg(test)]
    tests::LOCKS_TAKEN.with(|n| n.set(n.get() + 1));
    NAMES.get_or_init(Mutex::default).lock()
}

/// The (bucket, slot) of the `idx`-th name that is not well-known.
fn locate(idx: u32) -> (usize, usize) {
    let pos = u64::from(idx) + FIRST_BUCKET;
    let bucket = pos.ilog2() - FIRST_BUCKET.ilog2();
    (bucket as usize, (pos - (FIRST_BUCKET << bucket)) as usize)
}

/// An interned identifier: a cheap, copyable handle to a name.
///
/// Two `Id`s constructed from equal strings are equal:
///
/// ```
/// use calyx_core::ir::Id;
/// let a = Id::new("adder");
/// let b = Id::new("adder");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "adder");
/// ```
///
/// `Ord` compares the underlying strings so that sorted output (e.g. in the
/// printer and in deterministic analyses) is alphabetical rather than
/// creation-ordered.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Id(u32);

impl Id {
    /// The raw intern index, which tests of the interner inspect. Only
    /// meaningful within one process, so never an output order.
    #[cfg(test)]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Intern `name` and return its handle.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        if let Some(id) = lookup_well_known(name) {
            return id;
        }
        let mut names = lock_names();
        if let Some(&idx) = names.get(name) {
            return Id(idx);
        }
        let nth = u32::try_from(names.len()).expect("fewer than 2^32 distinct names");
        let idx = nth
            .checked_add(FIRST_DYNAMIC)
            .expect("fewer than 2^32 distinct names");
        let (bucket, slot) = locate(nth);
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let bucket = TABLE[bucket].get_or_init(|| {
            (0..FIRST_BUCKET << bucket)
                .map(|_| OnceLock::new())
                .collect()
        });
        bucket[slot]
            .set(leaked)
            .expect("the lock serialises appends, so each slot is written once");
        names.insert(leaked, idx);
        Id(idx)
    }

    /// The interned text.
    pub fn as_str(self) -> &'static str {
        let Some(nth) = self.0.checked_sub(FIRST_DYNAMIC) else {
            return WELL_KNOWN[self.0 as usize];
        };
        let (bucket, slot) = locate(nth);
        TABLE[bucket]
            .get()
            .and_then(|bucket| bucket[slot].get())
            .expect("`Id::new` fills the slot before it returns the index")
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({:?})", self.as_str())
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialOrd for Id {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Id {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl From<&str> for Id {
    fn from(s: &str) -> Self {
        Id::new(s)
    }
}

impl From<String> for Id {
    fn from(s: String) -> Self {
        Id::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PortRef;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{mpsc, Barrier};

    thread_local! {
        /// Interner lock acquisitions made by the current thread.
        pub(super) static LOCKS_TAKEN: Cell<usize> = const { Cell::new(0) };
    }

    fn locks_taken() -> usize {
        LOCKS_TAKEN.with(Cell::get)
    }

    #[test]
    fn equal_strings_intern_to_equal_ids() {
        assert_eq!(Id::new("x"), Id::new("x"));
        assert_ne!(Id::new("x"), Id::new("y"));
    }

    #[test]
    fn round_trips_text() {
        let id = Id::new("a_long_component_name");
        assert_eq!(id.as_str(), "a_long_component_name");
        assert_eq!(id.to_string(), "a_long_component_name");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut ids = [Id::new("zeta"), Id::new("alpha"), Id::new("mid")];
        ids.sort();
        let names: Vec<_> = ids.iter().map(|i| i.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn usable_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|i| std::thread::spawn(move || Id::new(format!("shared{}", i % 2))))
            .collect();
        let ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(ids[0], ids[2]);
    }

    #[test]
    fn id_is_four_bytes() {
        assert_eq!(std::mem::size_of::<Id>(), 4);
    }

    #[test]
    fn reads_take_no_lock() {
        let mut ids: Vec<Id> = (0..1000)
            .map(|i| Id::new(format!("lockfree{}", (i * 7919) % 1000)))
            .collect();
        let before = locks_taken();
        assert!(before >= 1000, "`Id::new` is counted");

        ids.sort();
        assert!(ids.windows(2).all(|w| w[0].as_str() < w[1].as_str()));
        let mut set = BTreeSet::new();
        for &id in &ids {
            assert!(set.insert(id));
        }
        assert!(ids.iter().all(|id| set.contains(id)));
        let text: usize = ids
            .iter()
            .map(|id| id.as_str().len() + format!("{id}").len() + format!("{id:?}").len())
            .sum();
        assert!(text > 0);
        assert_eq!(locks_taken(), before, "a read took the interner lock");

        Id::new("lockfree0");
        assert_eq!(locks_taken(), before + 1);
    }

    #[test]
    fn every_well_known_name_round_trips() {
        for (idx, &text) in (0..).zip(WELL_KNOWN) {
            let id = Id(idx);
            assert_eq!(id.as_str(), text);
            assert_eq!(Id::new(id.as_str()), id, "`{text}` is listed twice");
        }
        assert_eq!(Id::GO.as_str(), "go");
        assert_eq!(Id::PROBE.as_str(), "__probe");
        let addrs = Id::ADDRS.map(Id::as_str);
        assert_eq!(addrs, ["addr0", "addr1", "addr2"]);
        // A name that is not well-known never takes a fixed index.
        assert!(Id::new("not_well_known").raw() >= FIRST_DYNAMIC);
    }

    #[test]
    fn well_known_names_take_no_lock() {
        let group = Id::new("well_known_group");
        let before = locks_taken();
        assert_eq!(Id::new("done"), Id::DONE);
        assert_eq!(Id::from("write_en"), Id::WRITE_EN);
        let hole = PortRef::hole(group, Id::GO);
        assert_eq!(hole.to_string(), "well_known_group[go]");
        assert_eq!(locks_taken(), before, "a well-known name took the lock");
    }

    #[test]
    fn well_known_names_sort_by_text() {
        let mut ids = [
            Id::new("zz_dynamic"),
            Id::OUT,
            Id::new("aa_dynamic"),
            Id::DONE,
        ];
        ids.sort();
        assert_eq!(
            ids.map(Id::as_str),
            ["aa_dynamic", "done", "out", "zz_dynamic"]
        );
    }

    #[test]
    fn many_names_cross_bucket_boundaries() {
        // At least 10,000 names, and on until they span four buckets:
        // where the first lands depends on what other tests interned.
        let (mut names, mut ids) = (Vec::new(), Vec::new());
        let mut buckets = BTreeSet::new();
        while names.len() < 10_000 || buckets.len() < 4 {
            let name = format!("bucketed{}", names.len());
            let id = Id::new(&name);
            buckets.insert(locate(id.raw() - FIRST_DYNAMIC).0);
            names.push(name);
            ids.push(id);
        }
        for (name, &id) in names.iter().zip(&ids) {
            assert_eq!(id.as_str(), name);
            assert_eq!(Id::new(name), id);
        }
    }

    #[test]
    fn bucket_layout_is_contiguous() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        let (bucket, slot) = locate(u32::MAX);
        assert!(bucket < BUCKETS && (slot as u64) < FIRST_BUCKET << bucket);
    }

    /// Eight writers intern overlapping name ranges at once (released
    /// together by a barrier); each hands its `Id`s to a reader of its
    /// own over a channel, and the reader uses them straight away.
    #[test]
    fn concurrent_interning_and_reading() {
        const THREADS: usize = 8;
        let barrier = Barrier::new(THREADS);
        let seen: Vec<Vec<(String, Id)>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (tx, rx) = mpsc::channel::<(String, Id)>();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        for k in t * 50..t * 50 + 200 {
                            let name = format!("concurrent{k}");
                            let id = Id::new(&name);
                            tx.send((name, id)).expect("the reader outlives the writer");
                        }
                    });
                    scope.spawn(move || {
                        let mut got: Vec<(String, Id)> = Vec::new();
                        for (name, id) in rx {
                            assert_eq!(id.as_str(), name);
                            if let Some((last_name, last)) = got.last() {
                                assert_eq!(last.cmp(&id), last_name.cmp(&name));
                            }
                            got.push((name, id));
                        }
                        got
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("reader thread"))
                .collect()
        });
        let mut by_name: BTreeMap<&str, Id> = BTreeMap::new();
        for (name, id) in seen.iter().flatten() {
            assert_eq!(*by_name.entry(name).or_insert(*id), *id, "`{name}`");
        }
        assert_eq!(by_name.len(), (THREADS - 1) * 50 + 200);
    }

    fn name() -> impl Strategy<Value = String> {
        prop::collection::vec('a'..'d', 0..5).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #[test]
        fn ordering_is_the_strings_ordering(a in name(), b in name()) {
            let (x, y) = (Id::new(&a), Id::new(&b));
            prop_assert_eq!(x.cmp(&y), a.cmp(&b));
            prop_assert_eq!(x == y, a == b);
        }
    }
}
