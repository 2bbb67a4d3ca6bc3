//! The service's job cache, and the content key both compile caches use.
//!
//! Batch and serve clients send the same job again and again — a kernel
//! swept twice, a program recompiled in a loop. [`JobCache`] keys a job
//! by [`content_key`] over everything its compile reads (the shown input
//! name, the frontend and its canonical options, the source, the expanded
//! pipeline, the backend, `cycles` and `format`) and keeps what the
//! compile decided, an [`Outcome`]: the output text, or the message of
//! the stage error that rejected the job. A hit skips parse, passes and
//! emit, and shares the text instead of copying it.
//!
//! [`JobCache::get_or_run`] is the protocol a worker runs: one call looks
//! the key up and, on a miss, runs the job while holding that key's slot,
//! so concurrent identical jobs wait for the first instead of each
//! compiling. [`JobCache::get`] is the read-only half, for callers that
//! must not block: it returns a kept output and never claims or waits. A job that panics or is abandoned (timed out) keeps
//! nothing and leaves the key free for the next identical job. The cache
//! holds at most [`JOB_CACHE_BUDGET`] bytes of text, evicting the least
//! recently used outcome first.

use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHasher};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The bytes of outcome text one service's job cache holds: 64 MiB.
/// The largest artifact measured is the 8×8 systolic array under `lower`
/// emitted as Verilog, 10,527,547 bytes, so the budget holds six of it.
/// An output larger than the whole budget is served but not kept. Only
/// the text counts; each entry's few dozen bytes of bookkeeping do not.
pub const JOB_CACHE_BUDGET: usize = 64 << 20;

/// The content key of both compile caches. A job's key is
/// `content_key` over everything its compile reads (see
/// [`Session::job_key`](crate::session::Session::job_key)): the service's
/// [`JobCache`] keys a request by it, and `futil build`'s artifact cache
/// names the output of a step that compiles a job by it too. A step of
/// an op that compiles no job is named by `content_key` over the op's
/// fingerprint, every build option and its input.
///
/// The parts are hashed in order by the vendored `rustc_hash` byte mixer
/// ([`FxHasher::write`], a wyhash-style mix that reads eight bytes at a
/// time), each preceded by its length. The lengths make the split
/// unambiguous, so `("op", ":v1input")` and `("op:v1", "input")` are
/// different keys with no separator byte, and the input is never copied
/// into a joined string first.
///
/// The key is deterministic across runs, processes and platforms (the
/// mixer reads little-endian words, lengths go in as `u64`), because it
/// names files that outlive the process. It is not
/// collision-resistant against a chosen input: someone who picks both
/// texts can make two of them share a key and be served the other's
/// artifact. [`digest64`] never was either. Both caches hold the user's
/// own inputs; a service that caches other people's text needs a keyed or
/// cryptographic hash first.
///
/// A change to this function orphans every existing `.futil-cache` entry
/// (old files are never misread, only never found again), so its output
/// is pinned by a known-answer test.
pub fn content_key(parts: &[&[u8]]) -> u64 {
    let mut key = KeyHasher::default();
    for part in parts {
        key.part(part);
    }
    key.finish()
}

/// A [`content_key`] fed one part at a time, for callers whose parts
/// are not all byte strings at hand: `key.part(a).part(b).finish()` is
/// `content_key(&[a, b])`, and [`number`](KeyHasher::number) hashes a
/// number as the part its decimal text would be, without formatting it
/// into a `String`.
#[derive(Default)]
pub struct KeyHasher(FxHasher);

impl KeyHasher {
    /// Hash `bytes` as the next part: its length, then the bytes.
    pub fn part(&mut self, bytes: impl AsRef<[u8]>) -> &mut Self {
        let bytes = bytes.as_ref();
        self.0.write_usize(bytes.len());
        self.0.write(bytes);
        self
    }

    /// Hash `n`'s decimal text as the next part.
    pub fn number(&mut self, n: u64) -> &mut Self {
        let mut digits = [0; 20];
        let mut at = digits.len();
        let mut rest = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.part(&digits[at..])
    }

    /// Hash `--fopt` pairs in [`canonical_fopts`] form, so flag order
    /// never changes a key: their count, then each key and value as a
    /// part of its own.
    pub fn fopts(&mut self, fopts: &[(String, String)]) -> &mut Self {
        let fopts = canonical_fopts(fopts);
        let key = self.number(fopts.len() as u64);
        fopts
            .into_iter()
            .fold(key, |key, (name, value)| key.part(name).part(value))
    }

    /// The key of the parts so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// FNV-1a 64-bit digest of `bytes`: the pin format. The golden tables
/// (`tests/lowered_output_pinned.txt`, `sim_state_pinned.txt`), the
/// `pass_registry` digests, `scripts/goldens.sh`'s perl twin and the
/// benchmark's output checks all record it, so it must stay byte-for-byte
/// FNV-1a. It is byte-serial (≈0.6 GB/s); no cache keys on it, see
/// [`content_key`].
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `--fopt` pairs in canonical form: sorted by key, the last occurrence
/// of a key winning (as `FrontendOpts` lookups do), so `n=8 kernel=gemm`
/// and `kernel=gemm n=8` name one job while `n=8` and `n=16` do not.
/// Callers hash each key and value as a part of its own, so no byte of
/// an option can be taken for a separator.
pub fn canonical_fopts(fopts: &[(String, String)]) -> Vec<(&str, &str)> {
    let mut last: Vec<(&str, &str)> = Vec::new();
    for (k, v) in fopts {
        match last.iter_mut().find(|(lk, _)| *lk == k) {
            Some(slot) => slot.1 = v,
            None => last.push((k, v)),
        }
    }
    last.sort_unstable_by_key(|(k, _)| *k);
    last
}

/// Running hit/miss counters, readable while workers are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Jobs answered from the cache.
    pub hits: u64,
    /// Jobs that had to compile.
    pub misses: u64,
}

/// What a compile job decided, as the job cache keeps it. A clone shares
/// the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The backend's output and its file extension.
    Output {
        /// The output text.
        text: Arc<str>,
        /// The backend's file extension for it.
        extension: &'static str,
    },
    /// The message of the stage error (parse, passes, validate or emit)
    /// that rejected the job.
    Failed(Arc<str>),
}

impl Outcome {
    /// The bytes it holds against the budget.
    fn bytes(&self) -> usize {
        match self {
            Outcome::Output { text, .. } | Outcome::Failed(text) => text.len(),
        }
    }
}

/// One key's slot while its first job runs: that job holds the lock,
/// identical jobs queue on it, and it is `Some` once the outcome is in.
type Slot = Arc<Mutex<Option<Outcome>>>;

enum Entry {
    /// The first job for the key is running. `abandoned` is its cancel
    /// flag: once set, the key is free for the next identical job.
    Running {
        slot: Slot,
        abandoned: Arc<AtomicBool>,
    },
    /// The outcome, and the tick of its last use (its key in
    /// [`Store::order`]).
    Done { outcome: Outcome, used: u64 },
}

/// The map behind one lock. Invariant: `order` lists exactly the `Done`
/// entries, by `used`, and `held` sums their bytes.
#[derive(Default)]
struct Store {
    entries: FxHashMap<u64, Entry>,
    /// Done entries by last use, least recent first.
    order: BTreeMap<u64, u64>,
    /// Bytes held by the done entries, at most the budget.
    held: usize,
    /// The last use's tick.
    tick: u64,
}

impl Store {
    /// The kept outcome for `key`, marked most recently used.
    fn touch(&mut self, key: u64) -> Option<Outcome> {
        let Some(Entry::Done { outcome, used }) = self.entries.get_mut(&key) else {
            return None;
        };
        self.tick += 1;
        self.order.remove(used);
        *used = self.tick;
        self.order.insert(self.tick, key);
        Some(outcome.clone())
    }

    /// Keep `outcome` for `key` in place of the running entry `slot`,
    /// evicting least recently used outcomes until it fits. An outcome
    /// larger than the budget is dropped with the entry. Nothing happens
    /// when the entry is no longer `slot`'s (its job was abandoned and a
    /// newer one took the key).
    fn finish(&mut self, key: u64, slot: &Slot, outcome: Outcome, budget: usize) {
        if !self.is_running(key, slot) {
            return;
        }
        let bytes = outcome.bytes();
        if bytes > budget {
            self.entries.remove(&key);
            return;
        }
        while self.held + bytes > budget {
            let (_, old) = self
                .order
                .pop_first()
                .expect("held bytes belong to done entries");
            if let Some(Entry::Done { outcome, .. }) = self.entries.remove(&old) {
                self.held -= outcome.bytes();
            }
        }
        self.tick += 1;
        let used = self.tick;
        self.order.insert(used, key);
        self.held += bytes;
        self.entries.insert(key, Entry::Done { outcome, used });
    }

    fn is_running(&self, key: u64, slot: &Slot) -> bool {
        matches!(self.entries.get(&key), Some(Entry::Running { slot: s, .. }) if Arc::ptr_eq(s, slot))
    }
}

/// Frees a running job's entry when the job ends without filling it:
/// dropped during the unwind of a panic, or after an abandoned run.
struct Claim<'a> {
    store: &'a Mutex<Store>,
    key: u64,
    slot: Slot,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut store = self.store.lock();
        if store.is_running(self.key, &self.slot) {
            store.entries.remove(&self.key);
        }
    }
}

/// A thread-safe, byte-bounded LRU map from a job's key to its
/// [`Outcome`], with one slot per key so identical concurrent jobs run
/// once.
pub struct JobCache {
    budget: usize,
    store: Mutex<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for JobCache {
    fn default() -> Self {
        Self::new(JOB_CACHE_BUDGET)
    }
}

impl JobCache {
    /// An empty cache holding at most `budget` bytes of text: a service's
    /// holds [`JOB_CACHE_BUDGET`], the tests' a few bytes.
    pub(crate) fn new(budget: usize) -> Self {
        JobCache {
            budget,
            store: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The outcome for `key` and whether it was a hit: the kept one, else
    /// what `run` returns, which is kept unless `cancelled` is set by the
    /// time it returns. The lookup and the claim are one step per key —
    /// of N concurrent identical jobs exactly one runs (a miss) and the
    /// rest wait for it (hits). If the running job panics, or is
    /// abandoned (`cancelled` set), the next identical job runs afresh
    /// without waiting for it; jobs already waiting wait for it to end,
    /// then look again.
    pub fn get_or_run(
        &self,
        key: u64,
        cancelled: &Arc<AtomicBool>,
        run: impl FnOnce() -> Outcome,
    ) -> (Outcome, bool) {
        loop {
            let mut store = self.store.lock();
            if let Some(outcome) = store.touch(key) {
                drop(store);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (outcome, true);
            }
            let slot = match store.entries.get(&key) {
                Some(Entry::Running { slot, abandoned }) if !abandoned.load(Ordering::SeqCst) => {
                    Arc::clone(slot)
                }
                _ => {
                    // Free, or its first job was abandoned: this job runs.
                    let slot = Slot::default();
                    let mut filled = slot.lock();
                    store.entries.insert(
                        key,
                        Entry::Running {
                            slot: Arc::clone(&slot),
                            abandoned: Arc::clone(cancelled),
                        },
                    );
                    drop(store);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let claim = Claim {
                        store: &self.store,
                        key,
                        slot: Arc::clone(&slot),
                    };
                    let outcome = run();
                    if !cancelled.load(Ordering::SeqCst) {
                        *filled = Some(outcome.clone());
                        let kept = outcome.clone();
                        self.store.lock().finish(key, &slot, kept, self.budget);
                    }
                    drop(claim);
                    drop(filled);
                    return (outcome, false);
                }
            };
            drop(store);
            let filled = slot.lock().clone();
            if let Some(outcome) = filled {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (outcome, true);
            }
            // The job we waited for panicked or was abandoned: look again.
        }
    }

    /// The kept output text for `key`, marked most recently used and
    /// counted as a hit. `None`, counting nothing, when the key is free,
    /// its first job is still running, or what it kept is a failure: the
    /// caller then queues the job, which runs through
    /// [`get_or_run`](JobCache::get_or_run) and is counted there (a
    /// running key's job waits on its slot). Never claims a key and never
    /// waits.
    pub fn get(&self, key: u64) -> Option<Arc<str>> {
        let mut store = self.store.lock();
        let text = match store.entries.get(&key) {
            Some(Entry::Done {
                outcome: Outcome::Output { text, .. },
                ..
            }) => Arc::clone(text),
            _ => return None,
        };
        store.touch(key);
        drop(store);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(text)
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Job, Session};
    use proptest::prelude::*;
    use rustc_hash::FxHashSet;

    #[test]
    fn content_key_is_pinned() {
        // Known answers: a change here orphans every user's
        // `.futil-cache`, so it must be deliberate.
        assert_eq!(content_key(&[]), 0);
        assert_eq!(content_key(&[b""]), 0xf456_d268_76d7_2d91);
        assert_eq!(content_key(&[b"a"]), 0x726c_272e_190e_ce3d);
        assert_eq!(
            content_key(&[b"op:v1", b"component main() -> () {}"]),
            0xfa0c_454d_3d14_2eac
        );
        // Where one part ends is part of the key.
        assert_ne!(
            content_key(&[b"op", b":v1input"]),
            content_key(&[b"op:v1", b"input"])
        );
    }

    proptest! {
        /// Every one-byte change of a text, and every split of it into
        /// two parts, is a key of its own.
        #[test]
        fn a_changed_byte_or_moved_boundary_changes_the_key(
            text in prop::collection::vec(0u8..=255, 0..80),
            flip in 1u8..=255,
        ) {
            let mut keys = FxHashSet::default();
            keys.insert(content_key(&[&text]));
            for at in 0..=text.len() {
                keys.insert(content_key(&[&text[..at], &text[at..]]));
            }
            for at in 0..text.len() {
                let mut changed = text.clone();
                changed[at] ^= flip;
                keys.insert(content_key(&[&changed]));
            }
            prop_assert_eq!(keys.len(), 2 * text.len() + 2);
        }
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        // Pinned FNV-1a test vector: an accidental algorithm change
        // would silently invalidate every cross-run expectation.
        assert_eq!(digest64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest64(b"component a"), digest64(b"component b"));
    }

    #[test]
    fn fingerprint_canonicalizes_options() {
        let pairs = |kv: &[(&str, &str)]| -> Vec<(String, String)> {
            kv.iter().map(|&(k, v)| (k.into(), v.into())).collect()
        };
        let a = pairs(&[("n", "8"), ("kernel", "gemm")]);
        let b = pairs(&[("kernel", "gemm"), ("n", "8")]);
        assert_eq!(canonical_fopts(&a), [("kernel", "gemm"), ("n", "8")]);
        assert_eq!(canonical_fopts(&a), canonical_fopts(&b));

        // Last occurrence wins, as in FrontendOpts::get.
        let c = pairs(&[("n", "4"), ("kernel", "gemm"), ("n", "8")]);
        assert_eq!(canonical_fopts(&a), canonical_fopts(&c));

        // A value is one part, whatever bytes it holds: a separator
        // character inside it splits nothing.
        let d = pairs(&[("kernel", "gemm\u{1f}n\u{1f}8")]);
        assert_eq!(canonical_fopts(&d), [("kernel", "gemm\u{1f}n\u{1f}8")]);
        assert_ne!(canonical_fopts(&a), canonical_fopts(&d));
    }

    fn output(text: &str) -> Outcome {
        Outcome::Output {
            text: text.into(),
            extension: "txt",
        }
    }

    fn live() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }

    /// Run a job whose outcome is `text`, unless `key` is kept.
    fn put(cache: &JobCache, key: u64, text: &str) -> (Outcome, bool) {
        cache.get_or_run(key, &live(), || output(text))
    }

    #[test]
    fn get_or_run_counts_hits_and_misses_and_keeps_failed_outcomes() {
        let cache = JobCache::default();
        let never = || -> Outcome { panic!("a hit must not run") };

        // A stage error is an outcome like any other: the hit returns
        // its message without running the job again.
        let failed = Outcome::Failed("parse error".into());
        assert_eq!(
            cache.get_or_run(1, &live(), || failed.clone()),
            (failed.clone(), false)
        );
        assert_eq!(cache.get_or_run(1, &live(), never), (failed, true));

        assert_eq!(put(&cache, 2, "a"), (output("a"), false));
        assert_eq!(cache.get_or_run(2, &live(), never), (output("a"), true));
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn the_bound_holds_and_the_least_recently_used_goes_first() {
        let cache = JobCache::new(10);
        let held = || cache.store.lock().held;
        let kept = |key| cache.store.lock().entries.contains_key(&key);
        for (key, text) in [(1, "aaaa"), (2, "bbbb")] {
            put(&cache, key, text);
            assert!(held() <= 10);
        }
        // Using 1 makes 2 the least recent: 3 evicts 2, not 1.
        assert!(put(&cache, 1, "?").1);
        put(&cache, 3, "cccc");
        assert_eq!(held(), 8);
        assert!(kept(1) && !kept(2) && kept(3));

        // Larger than the whole budget: returned, not stored, nothing
        // evicted for it.
        let big = "x".repeat(11);
        assert_eq!(put(&cache, 4, &big), (output(&big), false));
        assert!(!kept(4) && kept(1) && kept(3));
        assert_eq!(held(), 8);

        // One that needs every byte evicts everything else.
        put(&cache, 5, "0123456789");
        assert_eq!(held(), 10);
        assert_eq!(cache.store.lock().entries.len(), 1);
        assert_eq!(cache.store.lock().order.len(), 1);
    }

    #[test]
    fn an_evicted_job_compiles_again_as_a_miss() {
        const PROGRAM: &str = "component main() -> () {
            cells { r = std_reg(8); }
            wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
            control { g; }
          }";
        let session = Session::default();
        let compile = |backend: &str| {
            let job = Job {
                backend,
                ..Job::default()
            };
            let compiled = session
                .resolve(&job)
                .unwrap()
                .compile("<test>", PROGRAM)
                .unwrap();
            output(std::str::from_utf8(&compiled.output).unwrap())
        };
        let (verilog, calyx) = (compile("verilog"), compile("calyx"));
        // Room for either output, not both.
        let cache = JobCache::new(verilog.bytes().max(calyx.bytes()));
        let first = cache.get_or_run(1, &live(), || compile("verilog"));
        assert_eq!(first, (verilog.clone(), false));
        assert_eq!(
            cache.get_or_run(2, &live(), || compile("calyx")),
            (calyx, false)
        );
        let again = cache.get_or_run(1, &live(), || compile("verilog"));
        assert_eq!(again, (verilog, false));
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 3 });
    }

    #[test]
    fn a_panicked_job_leaves_its_key_free() {
        let cache = JobCache::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_run(1, &live(), || panic!("a pass panicked"))
        }));
        assert!(panicked.is_err());
        assert!(cache.store.lock().entries.is_empty());
        assert_eq!(put(&cache, 1, "a"), (output("a"), false));
        assert_eq!(put(&cache, 1, "?"), (output("a"), true));
    }

    /// A timed-out job's thread may run on; the next identical job does
    /// not wait for it, and what it returns late is not kept.
    #[test]
    fn an_abandoned_job_leaves_its_key_free() {
        let cache = JobCache::default();
        let abandoned = live();
        let (started, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                cache.get_or_run(1, &abandoned, || {
                    started.wait();
                    release.wait();
                    output("late")
                })
            });
            started.wait();
            abandoned.store(true, Ordering::SeqCst);
            assert_eq!(put(&cache, 1, "a"), (output("a"), false));
            release.wait();
            assert_eq!(first.join().unwrap(), (output("late"), false));
        });
        assert_eq!(put(&cache, 1, "?"), (output("a"), true));
        assert_eq!(cache.store.lock().held, 1);
    }
}
