//! The pass framework: a registry of passes executed in order with timing.
//!
//! Passes implement [`Pass`] and are composed by [`PassManager`]; the
//! prebuilt pipelines in [`crate::passes`] mirror the paper's compilation
//! workflows. Most passes are per-component [`Visitor`](super::Visitor)s;
//! `take_component` is the borrow dance that lets one edit a component
//! while consulting the context's primitive library.

use crate::analysis::{AnalysisCache, CacheStats};
use crate::errors::CalyxResult;
use crate::ir::{Component, Context, Id};
use std::time::{Duration, Instant};

/// A compiler pass over a whole [`Context`].
pub trait Pass {
    /// Unique, kebab-case pass name (used in reports and errors).
    fn name(&self) -> &'static str;

    /// One-line description for documentation output.
    fn description(&self) -> &'static str;

    /// Transform the program, querying (and invalidating) analyses through
    /// `cache`. [`PassManager`] keeps one cache alive across the whole
    /// pipeline so read-only passes leave it warm for their successors.
    ///
    /// # Errors
    ///
    /// Implementations return [`crate::errors::Error`] on violated
    /// preconditions; the pass manager aborts the pipeline at the first
    /// failure.
    fn run_with(&mut self, ctx: &mut Context, cache: &mut AnalysisCache) -> CalyxResult<()>;

    /// Run the pass standalone with a private, empty cache. Convenience
    /// for tests and one-off invocations; pipelines go through
    /// [`PassManager`] to share the cache between passes.
    ///
    /// # Errors
    ///
    /// Propagates [`Pass::run_with`] failures.
    fn run(&mut self, ctx: &mut Context) -> CalyxResult<()> {
        self.run_with(ctx, &mut AnalysisCache::new())
    }
}

/// Wall-clock duration and cache activity of one executed pass.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// The pass's [`Pass::name`].
    pub name: &'static str,
    /// Time spent in [`Pass::run_with`].
    pub duration: Duration,
    /// Analysis-cache hits/misses/recomputes attributed to this pass.
    pub cache: CacheStats,
}

/// An ordered list of passes.
///
/// ```
/// use calyx_core::passes::{PassManager, WellFormed};
/// use calyx_core::ir::Context;
///
/// let mut ctx = Context::new();
/// ctx.add_component(ctx.new_component("main"));
/// let mut pm = PassManager::new();
/// pm.register(WellFormed);
/// pm.run(&mut ctx).unwrap();
/// assert_eq!(pm.timings().len(), 1);
/// ```
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    timings: Vec<PassTiming>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a pass to the pipeline.
    pub fn register<P: Pass + 'static>(&mut self, pass: P) {
        self.passes.push(Box::new(pass));
    }

    /// Append an already-boxed pass (used by the registry's constructors).
    pub fn register_boxed(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Names of registered passes, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Run every pass in order with a fresh shared [`AnalysisCache`],
    /// recording wall-clock timings and per-pass cache statistics.
    ///
    /// Timings are recorded for every pass that executed — including the
    /// failing pass itself — so a timing report stays useful when a
    /// pipeline aborts partway through.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first pass failure.
    pub fn run(&mut self, ctx: &mut Context) -> CalyxResult<()> {
        self.run_with_cache(ctx, &mut AnalysisCache::new())
    }

    /// Like [`PassManager::run`] but with a caller-provided cache — e.g.
    /// [`AnalysisCache::recompute_every_query`] for differential testing
    /// and benchmarking against the uncached baseline.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first pass failure.
    pub fn run_with_cache(
        &mut self,
        ctx: &mut Context,
        cache: &mut AnalysisCache,
    ) -> CalyxResult<()> {
        self.timings.clear();
        for pass in &mut self.passes {
            cache.take_stats();
            let start = Instant::now();
            let result = pass.run_with(ctx, cache);
            self.timings.push(PassTiming {
                name: pass.name(),
                duration: start.elapsed(),
                cache: cache.take_stats(),
            });
            result?;
        }
        Ok(())
    }

    /// Timings from the most recent [`PassManager::run`].
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// Total time of the most recent run.
    pub fn total_time(&self) -> Duration {
        self.timings.iter().map(|t| t.duration).sum()
    }

    /// Summed cache statistics of the most recent run.
    pub fn total_cache_stats(&self) -> CacheStats {
        self.timings
            .iter()
            .fold(CacheStats::default(), |acc, t| acc.merged(t.cache))
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.pass_names())
            .finish()
    }
}

/// Take `name`'s component out of the context *by value*, leaving an inert
/// placeholder (an empty component with the same name) in its slot so the
/// map's order and index stay intact. Re-insert the real component with
/// [`crate::ir::Context::add_component`] /
/// [`crate::utils::OrderedMap::insert`], which replaces the placeholder in
/// place.
///
/// This is what makes traversal zero-clone: the old implementation deep-
/// cloned every component once per pass, which dominated compile time on
/// large designs.
pub(super) fn take_component(ctx: &mut Context, name: Id) -> Option<Component> {
    if !ctx.components.contains(name) {
        return None;
    }
    ctx.components.insert(Component::new(name, Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::Error;

    struct Marker(&'static str, Vec<&'static str>);
    impl Pass for Marker {
        fn name(&self) -> &'static str {
            self.0
        }
        fn description(&self) -> &'static str {
            "test marker"
        }
        fn run_with(&mut self, ctx: &mut Context, _cache: &mut AnalysisCache) -> CalyxResult<()> {
            // Record execution order through a component attribute.
            let comp = ctx.component_mut("main").unwrap();
            let count = comp.attributes.get(Id::new("count")).unwrap_or(0);
            comp.attributes.insert(Id::new("count"), count + 1);
            self.1.push(self.0);
            Ok(())
        }
    }

    struct Failing;
    impl Pass for Failing {
        fn name(&self) -> &'static str {
            "failing"
        }
        fn description(&self) -> &'static str {
            "always fails"
        }
        fn run_with(&mut self, _ctx: &mut Context, _cache: &mut AnalysisCache) -> CalyxResult<()> {
            Err(Error::pass("failing", "boom"))
        }
    }

    fn ctx_with_main() -> Context {
        let mut ctx = Context::new();
        ctx.add_component(ctx.new_component("main"));
        ctx
    }

    #[test]
    fn runs_passes_in_order_and_times_them() {
        let mut ctx = ctx_with_main();
        let mut pm = PassManager::new();
        pm.register(Marker("first", vec![]));
        pm.register(Marker("second", vec![]));
        pm.run(&mut ctx).unwrap();
        assert_eq!(pm.timings().len(), 2);
        assert_eq!(pm.timings()[0].name, "first");
        assert_eq!(pm.timings()[1].name, "second");
        assert_eq!(
            ctx.component("main")
                .unwrap()
                .attributes
                .get(Id::new("count")),
            Some(2)
        );
    }

    #[test]
    fn stops_at_first_failure() {
        let mut ctx = ctx_with_main();
        let mut pm = PassManager::new();
        pm.register(Failing);
        pm.register(Marker("after", vec![]));
        let err = pm.run(&mut ctx).unwrap_err();
        assert!(matches!(
            err,
            Error::Pass {
                pass: "failing",
                ..
            }
        ));
        // The failing pass's own timing is recorded (so `--time` reports
        // are useful on failing pipelines); the never-run pass's is not.
        assert_eq!(pm.timings().len(), 1);
        assert_eq!(pm.timings()[0].name, "failing");
        assert_eq!(
            ctx.component("main")
                .unwrap()
                .attributes
                .get(Id::new("count")),
            None
        );
    }
}
