//! Interned identifiers.
//!
//! Compilers compare and hash names constantly; interning makes [`Id`] a
//! `Copy` handle with O(1) equality while `as_str` recovers the text. The
//! interner lives for the whole process (strings are leaked), which is the
//! right trade-off for a compiler: the set of distinct names is small and
//! bounded by the input programs.
//!
//! **What takes the lock.** Only [`Id::new`]: it looks the name up in a
//! `Mutex`-guarded `HashMap<&'static str, u32>` and, for a new name,
//! appends it. Everything that *reads* an `Id` — [`Id::as_str`], `Ord`,
//! `Display`, `Debug` — takes no lock. The index → text table is
//! append-only storage outside the mutex: a fixed array of buckets of
//! doubling size, each allocated once and each slot written once (both
//! `OnceLock`s), and `Id::new` writes a name's slot before it returns the
//! index, so whoever holds an `Id` finds its slot filled. Reads are the
//! hot side: every `BTreeSet<Id>` and `BTreeMap<Id, _>` in the compiler
//! compares keys on each step of each lookup, and a comparison that
//! locked would make the liveness sets of a large `par` cost lock
//! round-trips by the million and queue concurrent compiles (`futil
//! --batch`) on one mutex.
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
//! is alphabetical and the same in every process.

use parking_lot::{Mutex, MutexGuard};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Slots in bucket 0; bucket `b` holds `FIRST_BUCKET << b`.
const FIRST_BUCKET: u64 = 64;
/// Enough doubling buckets for every `u32` index.
const BUCKETS: usize = 27;

type Bucket = Box<[OnceLock<&'static str>]>;

/// Index → text, read without a lock. A slot is written once, under the
/// [`lock_names`] lock, before its index is handed out.
static TABLE: [OnceLock<Bucket>; BUCKETS] = [const { OnceLock::new() }; BUCKETS];

/// Lock text → index; the next index is the map's length.
fn lock_names() -> MutexGuard<'static, HashMap<&'static str, u32>> {
    static NAMES: OnceLock<Mutex<HashMap<&'static str, u32>>> = OnceLock::new();
    #[cfg(test)]
    tests::LOCKS_TAKEN.with(|n| n.set(n.get() + 1));
    NAMES.get_or_init(|| Mutex::new(HashMap::new())).lock()
}

/// The (bucket, slot) of intern index `idx`.
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
    /// The raw intern index. Only meaningful within one process: use it for
    /// hashing/sorting where determinism across runs is not observable
    /// (e.g. grouping map entries that are only ever looked up by key),
    /// never for ordered output.
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Intern `name` and return its handle.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        let mut names = lock_names();
        if let Some(&idx) = names.get(name) {
            return Id(idx);
        }
        let idx = u32::try_from(names.len()).expect("fewer than 2^32 distinct names");
        let (bucket, slot) = locate(idx);
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
        let (bucket, slot) = locate(self.0);
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
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;
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
    fn many_names_cross_bucket_boundaries() {
        // At least 10,000 names, and on until they span four buckets:
        // where the first lands depends on what other tests interned.
        let (mut names, mut ids) = (Vec::new(), Vec::new());
        let mut buckets = BTreeSet::new();
        while names.len() < 10_000 || buckets.len() < 4 {
            let name = format!("bucketed{}", names.len());
            let id = Id::new(&name);
            buckets.insert(locate(id.raw()).0);
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
        let mut by_name: HashMap<&str, Id> = HashMap::new();
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
