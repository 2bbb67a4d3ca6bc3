//! The content-addressed artifact cache behind `futil build`.
//!
//! Each executed step stores its output under a key derived from the
//! *content* of its input plus the op's full fingerprint — never from
//! file paths or timestamps. Warm rebuilds therefore skip every step
//! whose input bytes and configuration are unchanged, and editing an
//! input re-runs only the steps whose (transitively recomputed) inputs
//! actually differ: a comment-only edit to a `.fuse` file re-runs the
//! frontend step, produces the same canonical Calyx, and every
//! downstream step hits the cache again.
//!
//! The key is [`calyx_service::content_key`] of `[fingerprint, input]`,
//! the key the service's parse cache uses too: one streaming pass over
//! the input, with no joined copy of it. A warm step costs that pass plus
//! one file read, and `read_to_string` still checks the artifact is
//! UTF-8. The pins keep FNV-1a (`calyx_service::digest64`); a cache
//! written under an older key is orphaned, never misread, because a key
//! only names a file.
//!
//! Layout: one file per artifact, `<op>-<key:016x>.<artifact_ext>`, in
//! a flat directory (default `.futil-cache`). Writes go through
//! [`calyx_service::write_atomic`] (tmp + rename), so a crashed or
//! concurrent build never leaves a torn artifact behind.

use calyx_core::errors::{CalyxResult, Error};
use calyx_service::{content_key, write_atomic};
use std::path::{Path, PathBuf};

/// An on-disk artifact cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    root: PathBuf,
}

impl ArtifactCache {
    /// A cache rooted at `root`. The directory is created lazily on the
    /// first store.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ArtifactCache { root: root.into() }
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The cache key for running an op with `fingerprint` over `input`.
    pub fn key(fingerprint: &str, input: &str) -> u64 {
        content_key(&[fingerprint.as_bytes(), input.as_bytes()])
    }

    /// The on-disk path of an artifact.
    pub fn path(&self, op_name: &str, key: u64, artifact_ext: &str) -> PathBuf {
        self.root
            .join(format!("{op_name}-{key:016x}.{artifact_ext}"))
    }

    /// The cached artifact, if present and readable.
    pub fn lookup(&self, op_name: &str, key: u64, artifact_ext: &str) -> Option<String> {
        std::fs::read_to_string(self.path(op_name, key, artifact_ext)).ok()
    }

    /// Store an artifact (atomic tmp + rename). `write_atomic` creates
    /// the cache directory on the way, so each store makes it once.
    ///
    /// # Errors
    ///
    /// Returns an IO-flavored error when the cache directory cannot be
    /// created or the artifact cannot be written.
    pub fn store(
        &self,
        op_name: &str,
        key: u64,
        artifact_ext: &str,
        text: &str,
    ) -> CalyxResult<()> {
        let path = self.path(op_name, key, artifact_ext);
        let path_str = path.to_string_lossy();
        write_atomic(&path_str, text.as_bytes()).map_err(|e| {
            Error::malformed(if self.root.is_dir() {
                format!("cannot write `{path_str}`: {e}")
            } else {
                format!(
                    "cannot create cache directory `{}`: {e}",
                    self.root.display()
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plan-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let cache = ArtifactCache::new(temp_root("roundtrip"));
        let key = ArtifactCache::key("op:v1", "input text");
        assert!(cache.lookup("demo", key, "futil").is_none());
        cache.store("demo", key, "futil", "artifact body").unwrap();
        assert_eq!(
            cache.lookup("demo", key, "futil").as_deref(),
            Some("artifact body")
        );
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn key_depends_on_both_fingerprint_and_input() {
        let base = ArtifactCache::key("op:v1", "input");
        assert_ne!(ArtifactCache::key("op:v2", "input"), base);
        assert_ne!(ArtifactCache::key("op:v1", "input2"), base);
        assert_eq!(ArtifactCache::key("op:v1", "input"), base);
        // The parts' lengths keep (fingerprint, input) unambiguous.
        assert_ne!(
            ArtifactCache::key("op", ":v1input"),
            ArtifactCache::key("op:v1", "input")
        );
    }

    #[test]
    fn store_errors_name_what_failed() {
        let root = temp_root("errors");
        // A file where the directory should be: it cannot be created.
        std::fs::write(&root, "not a directory").unwrap();
        let cache = ArtifactCache::new(&root);
        let err = cache.store("demo", 1, "futil", "body").unwrap_err();
        assert!(
            err.to_string().contains("cannot create cache directory"),
            "{err}"
        );
        std::fs::remove_file(&root).unwrap();
        // The directory exists but a directory sits at the artifact's path.
        std::fs::create_dir_all(cache.path("demo", 1, "futil")).unwrap();
        let err = cache.store("demo", 1, "futil", "body").unwrap_err();
        assert!(err.to_string().contains("cannot write"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn artifact_paths_are_flat_and_extension_tagged() {
        let cache = ArtifactCache::new("/tmp/c");
        let p = cache.path("dahlia-to-calyx", 0xabc, "futil");
        assert_eq!(
            p,
            PathBuf::from("/tmp/c/dahlia-to-calyx-0000000000000abc.futil")
        );
    }
}
