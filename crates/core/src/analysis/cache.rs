//! The demand-driven analysis cache: typed, memoized, invalidation-aware
//! queries over components.
//!
//! Optimization passes are *analysis + rewrite*: resource sharing needs the
//! par-conflict graph, register minimization needs the pCFG, read/write
//! sets, liveness, and interference. Instead of each pass recomputing these
//! from scratch, passes *query* them through an [`AnalysisCache`] (usually
//! via [`PassCtx`](crate::passes::PassCtx)):
//!
//! - An analysis is a type implementing [`Analysis`]: a pure function from
//!   a [`Component`] to a result, which may itself pull other analyses
//!   through the cache (e.g. [`Liveness`](super::liveness::Liveness) pulls
//!   [`Pcfg`](super::pcfg::Pcfg) and
//!   [`ReadWriteSets`](super::read_write::ReadWriteSets)).
//! - The cache memoizes results per component, keyed by the analysis's
//!   [`TypeId`]. A repeated query is a *hit* and returns the stored result.
//! - Invalidation is generation-based and there is one signal, per
//!   component: an [`Action::Change`](crate::passes::Action), a component
//!   reported dirty through
//!   [`PassCtx::set_dirty`](crate::passes::PassCtx::set_dirty), or an
//!   explicit [`AnalysisCache::invalidate`] bumps the component's
//!   generation and drops *all* of its cached results, so the next query
//!   recomputes against the mutated component. Nothing is invalidated per
//!   analysis: `--stats` showed that what a narrower signal kept warm was
//!   never read again before the next mutation. Read-only passes signal
//!   nothing and keep the cache warm across the whole pipeline.
//!
//! # The invalidation contract
//!
//! The cache cannot observe mutations — passes must report them. The rule:
//! **after mutating anything an analysis might read (cells, groups,
//! assignments, guards, the control tree), signal dirty before the next
//! query observes the component.** Returning
//! [`Action::Change`](crate::passes::Action::Change) from a visitor hook
//! signals automatically; direct mutations through `&mut Component` require
//! [`PassCtx::set_dirty`](crate::passes::PassCtx::set_dirty). The one
//! sanctioned exception: *attributes* are invisible to every registered
//! analysis, so attribute-only passes (latency inference) may skip the
//! signal — if a future analysis reads attributes, those passes must start
//! signaling.
//!
//! Failing to signal is a correctness bug (a later pass acts on stale
//! facts); signaling spuriously only costs recomputation.

use crate::ir::{Component, Id};
use rustc_hash::{FxHashMap, FxHashSet};
use std::any::{Any, TypeId};
use std::rc::Rc;

/// A memoizable analysis over one component.
///
/// Implementations are *types used as keys*: the analysis is identified by
/// its `TypeId`, computed by [`Analysis::compute`], and stored as
/// [`Analysis::Output`] (usually `Self`). `compute` receives the cache so
/// analyses can depend on each other — pull prerequisites with
/// [`AnalysisCache::get`] instead of taking them as arguments, and the
/// cache shares them with every other consumer.
///
/// `compute` must be a pure function of the component: no reading of
/// global state, no dependence on query order. Cyclic dependencies are a
/// programming error and panic.
pub trait Analysis: 'static {
    /// The computed result stored in the cache.
    type Output: 'static;

    /// Kebab-case analysis name, used in diagnostics.
    const NAME: &'static str;

    /// Compute the analysis for `comp`, pulling dependencies from `cache`.
    fn compute(comp: &Component, cache: &mut AnalysisCache) -> Self::Output;
}

/// Hit/miss/recompute counters, reported per pass by
/// [`PassManager`](crate::passes::PassManager) and `futil --stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo table.
    pub hits: u64,
    /// Queries that ran [`Analysis::compute`].
    pub misses: u64,
    /// The subset of misses that re-ran an analysis previously computed
    /// for the same component (i.e. work repeated because of invalidation
    /// or disabled caching).
    pub recomputes: u64,
}

impl CacheStats {
    /// Sum of two stat blocks (used to total a pipeline's counters).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            recomputes: self.recomputes + other.recomputes,
        }
    }
}

/// A per-component, generation-invalidated memo table of analysis results.
///
/// See the [module docs](self) for the design and the invalidation
/// contract. Results are stored behind [`Rc`] so dependent analyses can
/// hold a result while the cache keeps computing (and so hits are O(1)
/// clone-of-pointer, never a deep copy).
///
/// Entries are keyed by *component name*: a cache belongs to exactly one
/// program ([`Context`](crate::ir::Context)). Reusing a cache across
/// different programs would serve one program's facts for another's
/// same-named components — construct a fresh cache (what
/// [`Pass::run`](crate::passes::Pass::run) and
/// [`PassManager::run`](crate::passes::PassManager::run) do) or keep one
/// cache per program when driving
/// [`run_with_cache`](crate::passes::PassManager::run_with_cache)
/// yourself.
#[derive(Default)]
pub struct AnalysisCache {
    /// component -> analysis TypeId -> result.
    entries: FxHashMap<Id, FxHashMap<TypeId, Rc<dyn Any>>>,
    /// Monotonic per-component generation; bumped on every invalidation.
    generations: FxHashMap<Id, u64>,
    /// (component, analysis) pairs ever computed — distinguishes first
    /// computes from recomputes in [`CacheStats`].
    ever_computed: FxHashSet<(Id, TypeId)>,
    /// Queries currently being computed, to catch cyclic dependencies.
    in_flight: Vec<(Id, TypeId, &'static str)>,
    /// When set, every query recomputes (the differential-testing and
    /// benchmarking baseline).
    disabled: bool,
    /// Counters since the last [`AnalysisCache::take_stats`].
    stats: CacheStats,
}

impl AnalysisCache {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache that never memoizes: every [`AnalysisCache::get`] runs
    /// [`Analysis::compute`]. Used as the baseline for differential tests
    /// (cached and uncached pipelines must produce byte-identical output)
    /// and benchmarks.
    pub fn recompute_every_query() -> Self {
        AnalysisCache {
            disabled: true,
            ..Self::default()
        }
    }

    /// Is this the recompute-every-query baseline?
    pub fn caching_disabled(&self) -> bool {
        self.disabled
    }

    /// Query analysis `A` for `comp`, computing and memoizing on a miss.
    ///
    /// # Panics
    ///
    /// Panics when `A::compute` (transitively) queries `A` for the same
    /// component — a cyclic analysis dependency.
    pub fn get<A: Analysis>(&mut self, comp: &Component) -> Rc<A::Output> {
        let key = TypeId::of::<A>();
        if !self.disabled {
            if let Some(hit) = self.entries.get(&comp.name).and_then(|m| m.get(&key)) {
                self.stats.hits += 1;
                return hit
                    .clone()
                    .downcast::<A::Output>()
                    .expect("entries are keyed by the analysis TypeId");
            }
        }
        self.stats.misses += 1;
        if !self.ever_computed.insert((comp.name, key)) {
            self.stats.recomputes += 1;
        }
        assert!(
            !self
                .in_flight
                .iter()
                .any(|(c, t, _)| *c == comp.name && *t == key),
            "cyclic analysis dependency: `{}` (for `{}`) transitively depends on itself; \
             chain: {:?}",
            A::NAME,
            comp.name,
            self.in_flight
                .iter()
                .map(|(_, _, n)| *n)
                .collect::<Vec<_>>(),
        );
        self.in_flight.push((comp.name, key, A::NAME));
        let value = Rc::new(A::compute(comp, self));
        self.in_flight.pop();
        if !self.disabled {
            self.entries
                .entry(comp.name)
                .or_default()
                .insert(key, value.clone() as Rc<dyn Any>);
        }
        value
    }

    /// Invalidate everything cached for `comp`: bump its generation and
    /// drop all of its entries. This is the mutation signal —
    /// [`PassCtx`](crate::passes::PassCtx) calls it for dirty components.
    pub fn invalidate(&mut self, comp: Id) {
        *self.generations.entry(comp).or_default() += 1;
        self.entries.remove(&comp);
    }

    /// The component's invalidation generation (0 until first invalidated).
    pub fn generation(&self, comp: Id) -> u64 {
        self.generations.get(&comp).copied().unwrap_or_default()
    }

    /// Take (and reset) the counters accumulated since the last call —
    /// how [`PassManager`](crate::passes::PassManager) attributes stats to
    /// individual passes.
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    /// Counters accumulated since the last [`AnalysisCache::take_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Context;

    /// Counts how many cells the component has (cheap leaf analysis).
    struct CellCount;
    impl Analysis for CellCount {
        type Output = usize;
        const NAME: &'static str = "cell-count";
        fn compute(comp: &Component, _cache: &mut AnalysisCache) -> usize {
            comp.cells.len()
        }
    }

    /// Depends on `CellCount` through the cache.
    struct CellCountPlusOne;
    impl Analysis for CellCountPlusOne {
        type Output = usize;
        const NAME: &'static str = "cell-count-plus-one";
        fn compute(comp: &Component, cache: &mut AnalysisCache) -> usize {
            *cache.get::<CellCount>(comp) + 1
        }
    }

    /// Cyclic: depends on itself.
    struct Cyclic;
    impl Analysis for Cyclic {
        type Output = ();
        const NAME: &'static str = "cyclic";
        fn compute(comp: &Component, cache: &mut AnalysisCache) {
            let () = *cache.get::<Cyclic>(comp);
        }
    }

    fn comp() -> Component {
        Context::new().new_component("main")
    }

    #[test]
    fn repeated_queries_hit() {
        let comp = comp();
        let mut cache = AnalysisCache::new();
        assert_eq!(*cache.get::<CellCount>(&comp), 0);
        assert_eq!(*cache.get::<CellCount>(&comp), 0);
        let stats = cache.take_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.recomputes, 0);
    }

    #[test]
    fn dependencies_are_pulled_through_the_cache() {
        let comp = comp();
        let mut cache = AnalysisCache::new();
        assert_eq!(*cache.get::<CellCountPlusOne>(&comp), 1);
        // The dependency is now cached too.
        cache.take_stats();
        cache.get::<CellCount>(&comp);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn invalidation_bumps_generation_and_forces_recompute() {
        let comp = comp();
        let mut cache = AnalysisCache::new();
        cache.get::<CellCount>(&comp);
        assert_eq!(cache.generation(comp.name), 0);
        cache.invalidate(comp.name);
        assert_eq!(cache.generation(comp.name), 1);
        cache.take_stats();
        cache.get::<CellCount>(&comp);
        let stats = cache.take_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.recomputes, 1, "post-invalidation miss is a recompute");
    }

    #[test]
    fn entries_are_per_component() {
        let ctx = Context::new();
        let a = ctx.new_component("a");
        let b = ctx.new_component("b");
        let mut cache = AnalysisCache::new();
        cache.get::<CellCount>(&a);
        cache.invalidate(b.name);
        cache.take_stats();
        cache.get::<CellCount>(&a);
        assert_eq!(cache.stats().hits, 1, "a's entry survives b's invalidation");
    }

    #[test]
    fn disabled_cache_recomputes_every_query() {
        let comp = comp();
        let mut cache = AnalysisCache::recompute_every_query();
        assert!(cache.caching_disabled());
        cache.get::<CellCountPlusOne>(&comp);
        cache.get::<CellCountPlusOne>(&comp);
        let stats = cache.take_stats();
        assert_eq!(stats.hits, 0);
        // 2 top-level queries + 2 dependency pulls, second round all
        // recomputes.
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.recomputes, 2);
    }

    #[test]
    #[should_panic(expected = "cyclic analysis dependency")]
    fn cyclic_dependency_panics() {
        let comp = comp();
        AnalysisCache::new().get::<Cyclic>(&comp);
    }
}
