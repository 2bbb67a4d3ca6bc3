//! The shared frontend parse cache.
//!
//! Batch and serve workloads hammer the compiler with *repeated* inputs
//! — the same generated kernel compiled to several backends, the same
//! file re-requested across serve connections. The cache keys each parse
//! by `(frontend fingerprint, content digest)` and stores the parsed
//! [`Context`] itself: the IR is `Send + Sync` (pinned by a compile-time
//! test in `calyx_core`), so a hit is one `Context::clone` and carries
//! the source positions of the text the user wrote.
//!
//! [`ParseCache::get_or_parse`] is the whole protocol: one call looks the
//! key up and, on a miss, runs the frontend while holding that key's
//! slot, so concurrent identical jobs wait for the first parse instead
//! of each running the generator. A failed parse caches nothing.

use calyx_core::ir::Context;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a 64-bit digest of `bytes` — the cache's content key. Stable
/// across runs and platforms (no randomized hasher), cheap, and
/// collision-resistant enough for a cache whose worst case is a spurious
/// miss... which cannot happen either: a digest collision would serve
/// the wrong program, so the full fingerprint keeps the frontend name
/// and options alongside it and entries are only shared for equal
/// digests *and* equal fingerprints.
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

/// A thread-safe map from `(frontend fingerprint, source digest)` to the
/// parsed program.
#[derive(Debug, Default)]
pub struct ParseCache {
    map: Mutex<HashMap<(String, u64), Slot>>,
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

    /// The program for `(fingerprint, digest)` and whether it was a hit:
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
        digest: u64,
        parse: impl FnOnce() -> Result<Context, E>,
    ) -> Result<(Context, bool), E> {
        let key = || (fingerprint.to_string(), digest);
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
        let d = digest64(b"component main() -> () {}");
        let parse = || Ok::<_, String>(Context::new());

        // A failed parse is a miss that leaves nothing behind.
        let failed = cache.get_or_parse(&fp, d, || Err::<Context, _>("bad".to_string()));
        assert_eq!(failed.unwrap_err(), "bad");
        assert!(cache.map.lock().is_empty());

        assert!(!cache.get_or_parse(&fp, d, parse).unwrap().1);
        let never = || -> Result<Context, String> { panic!("a hit must not parse") };
        assert!(cache.get_or_parse(&fp, d, never).unwrap().1);
        // Same digest under another fingerprint is a separate entry.
        assert!(!cache.get_or_parse("other", d, parse).unwrap().1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 3 });
    }
}
