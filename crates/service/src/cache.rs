//! The shared frontend parse cache.
//!
//! Batch and serve workloads hammer the compiler with *repeated* inputs
//! — the same generated kernel compiled to several backends, the same
//! file re-requested across serve connections. The cache keys each parse
//! by the frontend fingerprint and the source's [`content_key`], and
//! stores the parsed [`Context`] itself: the IR is `Send + Sync` (pinned
//! by a compile-time test in `calyx_core`), so a hit is one
//! `Context::clone` and carries the source positions of the text the
//! user wrote.
//!
//! [`ParseCache::get_or_parse`] is the whole protocol: one call looks the
//! key up and, on a miss, runs the frontend while holding that key's
//! slot, so concurrent identical jobs wait for the first parse instead
//! of each running the generator. A failed parse caches nothing.

use calyx_core::ir::Context;
use parking_lot::Mutex;
use rustc_hash::FxHasher;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The content key of both compile caches: the parse cache keys a
/// program by `content_key(&[src])`, and `futil build`'s artifact cache
/// names a step's output by `content_key(&[fingerprint, input])`.
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
    let mut hasher = FxHasher::default();
    for part in parts {
        hasher.write_usize(part.len());
        hasher.write(part);
    }
    hasher.finish()
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

/// Running hit/miss counters, readable while workers are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the frontend.
    pub misses: u64,
}

/// One key's entry: empty while its first parse is in flight (the
/// parsing thread holds the lock, identical jobs queue on it).
type Slot = Arc<Mutex<Option<Arc<Context>>>>;

/// A thread-safe map from `(frontend fingerprint, source key)` to the
/// parsed program.
#[derive(Debug, Default)]
pub struct ParseCache {
    #[allow(clippy::disallowed_types)] // keys are input text: keep SipHash
    map: Mutex<std::collections::HashMap<(String, u64), Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ParseCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache key's frontend half: the frontend's name plus its
    /// canonicalized options (sorted by key, last occurrence winning —
    /// matching `FrontendOpts` lookup semantics), so `n=8,kernel=gemm`
    /// and `kernel=gemm,n=8` share an entry while `n=8` and `n=16` do
    /// not.
    pub fn fingerprint(frontend: &str, fopts: &[(String, String)]) -> String {
        let mut last: Vec<(&str, &str)> = Vec::new();
        for (k, v) in fopts {
            match last.iter_mut().find(|(lk, _)| *lk == k) {
                Some(slot) => slot.1 = v,
                None => last.push((k, v)),
            }
        }
        last.sort_unstable_by_key(|(k, _)| *k);
        let mut fp = String::from(frontend);
        for (k, v) in last {
            // `\x1f` (unit separator) cannot appear in flag text parsed
            // from `key=value`, so the fingerprint is injective.
            fp.push('\x1f');
            fp.push_str(k);
            fp.push('\x1f');
            fp.push_str(v);
        }
        fp
    }

    /// The program for `(fingerprint, src_key)`, `src_key` being the
    /// source's [`content_key`], and whether it was a hit:
    /// a clone of the cached one, else the result of `parse`, which is
    /// cached when it succeeds. The lookup and the insert are one atomic
    /// step per key — of N concurrent identical requests exactly one
    /// runs `parse` (a miss) and the rest wait for it (hits).
    ///
    /// # Errors
    ///
    /// Propagates `parse`'s failure, caching nothing: the next request
    /// for the key parses again.
    pub fn get_or_parse<E>(
        &self,
        fingerprint: &str,
        src_key: u64,
        parse: impl FnOnce() -> Result<Context, E>,
    ) -> Result<(Context, bool), E> {
        let key = || (fingerprint.to_string(), src_key);
        let slot = Arc::clone(self.map.lock().entry(key()).or_default());
        let mut cached = slot.lock();
        if let Some(ctx) = cached.clone() {
            // The deep copy happens outside the slot's lock.
            drop(cached);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Context::clone(&ctx), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        match parse() {
            Ok(ctx) => {
                *cached = Some(Arc::new(ctx.clone()));
                Ok((ctx, false))
            }
            Err(e) => {
                // Forget the empty slot (unless an earlier failure already
                // did and a newer one took its place); waiters holding it
                // find it empty and parse for themselves.
                let (mut map, key) = (self.map.lock(), key());
                if map.get(&key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                    map.remove(&key);
                }
                Err(e)
            }
        }
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
        let a = ParseCache::fingerprint(
            "polybench",
            &[("n".into(), "8".into()), ("kernel".into(), "gemm".into())],
        );
        let b = ParseCache::fingerprint(
            "polybench",
            &[("kernel".into(), "gemm".into()), ("n".into(), "8".into())],
        );
        assert_eq!(a, b);

        // Last occurrence wins, as in FrontendOpts::get.
        let c = ParseCache::fingerprint(
            "polybench",
            &[
                ("n".into(), "4".into()),
                ("kernel".into(), "gemm".into()),
                ("n".into(), "8".into()),
            ],
        );
        assert_eq!(a, c);

        // Different values and different frontends are distinct keys.
        assert_ne!(
            a,
            ParseCache::fingerprint("polybench", &[("kernel".into(), "gemm".into())])
        );
        assert_ne!(a, ParseCache::fingerprint("systolic", &[]));
    }

    #[test]
    fn get_or_parse_counts_hits_and_misses_and_caches_no_failure() {
        let cache = ParseCache::new();
        let fp = ParseCache::fingerprint("calyx", &[]);
        let d = content_key(&[b"component main() -> () {}"]);
        let parse = || Ok::<_, String>(Context::new());

        // A failed parse is a miss that leaves nothing behind.
        let failed = cache.get_or_parse(&fp, d, || Err::<Context, _>("bad".to_string()));
        assert_eq!(failed.unwrap_err(), "bad");
        assert!(cache.map.lock().is_empty());

        assert!(!cache.get_or_parse(&fp, d, parse).unwrap().1);
        let never = || -> Result<Context, String> { panic!("a hit must not parse") };
        assert!(cache.get_or_parse(&fp, d, never).unwrap().1);
        // The same source under another fingerprint is a separate entry.
        assert!(!cache.get_or_parse("other", d, parse).unwrap().1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 3 });
    }
}
