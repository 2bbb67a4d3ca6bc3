//! The per-pass context handed to every visitor hook.

use crate::analysis::{Analysis, AnalysisCache};
use crate::ir::{Component, Context, Id};
use std::rc::Rc;

/// What a visitor hook sees besides the component under edit: the read-only
/// [`Context`] view and the pipeline-wide [`AnalysisCache`], with the one
/// dirty signal that invalidates it.
///
/// `PassCtx` derefs to [`Context`], so library and sibling-component
/// lookups (`ctx.lib`, `ctx.components`) and APIs taking `&Context`
/// (e.g. [`Builder::new`](crate::ir::Builder::new)) work unchanged.
///
/// # Queries
///
/// [`PassCtx::get`] pulls an [`Analysis`] result for a component through
/// the cache: a repeated query (by this pass or an earlier one, if nothing
/// invalidated it) is answered from the memo table. The pipeline's
/// [`PassManager`](super::PassManager) keeps one cache alive across all
/// passes and reports per-pass hit/miss statistics.
///
/// # The dirty signal
///
/// The cache cannot see mutations, so passes report them (the
/// [invalidation contract](crate::analysis::cache)). There is one signal,
/// and it covers the whole component under visit:
///
/// - Returning [`Action::Change`](super::Action::Change) from any hook
///   marks the component dirty automatically.
/// - Any other mutation through `&mut Component` — editing wires, removing
///   groups or cells, rewriting guards — must call [`PassCtx::set_dirty`]
///   (from whichever hook performs or detects the mutation, including
///   `finish_component`).
///
/// Invalidation is *immediate*: the signal drops the component's cached
/// entries (and bumps its generation) right away, so a query later in the
/// same visit recomputes against the mutated component instead of reading
/// stale facts. Clean visits leave the cache warm for the next pass.
pub struct PassCtx<'a> {
    ctx: &'a Context,
    cache: &'a mut AnalysisCache,
    /// The component this visit edits (its entry in `ctx` is an inert
    /// placeholder for the duration).
    comp: Id,
}

impl<'a> PassCtx<'a> {
    /// Bundle a context view and cache for one visit of component `comp`.
    pub(super) fn new(ctx: &'a Context, cache: &'a mut AnalysisCache, comp: Id) -> Self {
        PassCtx { ctx, cache, comp }
    }

    /// Query analysis `A` for `comp` (cached per component generation).
    pub fn get<A: Analysis>(&mut self, comp: &Component) -> Rc<A::Output> {
        self.cache.get::<A>(comp)
    }

    /// Report that the component under visit was mutated: its cached
    /// analyses are dropped and its generation bumped, immediately.
    pub fn set_dirty(&mut self) {
        self.cache.invalidate(self.comp);
    }
}

impl std::ops::Deref for PassCtx<'_> {
    type Target = Context;

    fn deref(&self) -> &Context {
        self.ctx
    }
}
