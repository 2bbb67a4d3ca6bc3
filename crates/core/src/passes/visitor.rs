//! The visitor framework: structured, zero-clone traversal of control
//! programs with cached analysis queries.
//!
//! Structural passes implement [`Visitor`] instead of hand-rolling a
//! recursion over [`Control`]. The framework walks each component's control
//! tree once, bottom-up: an enable gets one hook (`enable`), and a block
//! gets a *post* hook after its children have been visited (`finish_seq`,
//! `finish_par`, `finish_if`, `finish_while`). Around the tree,
//! `start_component` and `finish_component` see the whole component. Hooks
//! receive the statement's fields, the enclosing [`Component`] (mutably —
//! the control tree is detached from the component during traversal, so
//! cells and groups can be edited freely), and a [`PassCtx`] bundling the
//! read-only context view (library and sibling-signature lookups, via
//! deref) with the pipeline's [`AnalysisCache`].
//!
//! Every visitor automatically implements [`Pass`] through a blanket impl,
//! so visitors register with [`PassManager`](super::PassManager) and the
//! [pass registry](super::PassRegistry) like any other pass.
//!
//! # The `Action` contract
//!
//! Each hook steers the traversal by returning an [`Action`]:
//!
//! - [`Action::Continue`]: proceed normally.
//! - [`Action::SkipChildren`]: from [`Visitor::start_component`], skip the
//!   control traversal entirely (but still call
//!   [`Visitor::finish_component`]). From any other hook it is equivalent
//!   to `Continue`.
//! - [`Action::Change`]`(c)`: replace the current statement with `c`, which
//!   is not visited. From `start_component` it replaces the whole control
//!   program. This is how bottom-up rewrites like
//!   [`CompileControl`](super::CompileControl) fold a subtree into a single
//!   enable.
//!
//! # Mutation signals
//!
//! The analysis cache memoizes per component and must be told when a
//! component changed (the full contract lives in the
//! [cache module docs](crate::analysis::cache)):
//!
//! - [`Action::Change`] marks the component dirty automatically.
//! - Every other mutation through `&mut Component` must be reported with
//!   [`PassCtx::set_dirty`] from the hook performing it.
//! - The signal drops the component's cached analyses *immediately*, so
//!   queries later in the same visit see fresh facts; clean visits keep
//!   the cache warm for later passes.
//!
//! The contract in executable form — a visitor that counts enables, skips
//! one component's control with `SkipChildren`, and rewrites one
//! statement with `Change`:
//!
//! ```
//! use calyx_core::errors::CalyxResult;
//! use calyx_core::ir::{Attributes, Component, Context, Control, Id};
//! use calyx_core::passes::{Action, Pass, PassCtx, Visitor};
//!
//! #[derive(Default)]
//! struct Example {
//!     enables_seen: usize,
//! }
//!
//! impl Visitor for Example {
//!     fn name(&self) -> &'static str {
//!         "example"
//!     }
//!     fn description(&self) -> &'static str {
//!         "doc example for the Action contract"
//!     }
//!     // Component hook: the enables of `blackbox` are never visited.
//!     fn start_component(&mut self, comp: &mut Component, _ctx: &mut PassCtx) -> CalyxResult<Action> {
//!         if comp.name.as_str() == "blackbox" {
//!             return Ok(Action::SkipChildren);
//!         }
//!         Ok(Action::Continue)
//!     }
//!     // Leaf hook: called once per (visited) enable.
//!     fn enable(
//!         &mut self,
//!         group: &mut Id,
//!         _attributes: &mut Attributes,
//!         _comp: &mut Component,
//!         _ctx: &mut PassCtx,
//!     ) -> CalyxResult<Action> {
//!         self.enables_seen += 1;
//!         if group.as_str() == "swap_me" {
//!             // Replace this enable; the replacement is not visited (and
//!             // the component is marked dirty automatically).
//!             return Ok(Action::Change(Control::enable("swapped")));
//!         }
//!         Ok(Action::Continue)
//!     }
//! }
//!
//! let mut ctx = Context::new();
//! let mut blackbox = ctx.new_component("blackbox");
//! blackbox.control = Control::enable("hidden");
//! ctx.add_component(blackbox);
//! let mut main = ctx.new_component("main");
//! main.control = Control::seq(vec![Control::enable("swap_me"), Control::enable("visible")]);
//! ctx.add_component(main);
//!
//! let mut pass = Example::default();
//! pass.run(&mut ctx).unwrap(); // Visitor is a Pass via the blanket impl
//!
//! // `hidden` was skipped; `swap_me` and `visible` were visited.
//! assert_eq!(pass.enables_seen, 2);
//! let groups = ctx.component("main").unwrap().control.used_groups();
//! assert!(groups.contains(&Id::new("swapped")));
//! assert!(!groups.contains(&Id::new("swap_me")));
//! ```

use super::pass_ctx::PassCtx;
use super::traversal::{take_component, Pass};
use crate::analysis::AnalysisCache;
use crate::errors::CalyxResult;
use crate::ir::{Attributes, Component, Context, Control, Id, PortRef};

/// What a [`Visitor`] hook tells the traversal to do next.
///
/// See the [module docs](self) for the full contract and a doctest.
#[derive(Debug)]
pub enum Action {
    /// Proceed normally.
    Continue,
    /// From [`Visitor::start_component`]: skip the component's control
    /// tree.
    SkipChildren,
    /// Replace the current statement; the replacement is not visited.
    /// Also marks the component dirty for the analysis cache.
    Change(Control),
}

/// The order in which a visitor's components are traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Definition order (the order components appear in the program).
    Definition,
    /// Dependency order: instantiated components before their
    /// instantiators. Required by cross-component analyses such as
    /// latency inference.
    Topological,
}

/// A structural pass over control programs.
///
/// All hooks default to no-ops returning [`Action::Continue`], so a visitor
/// implements only the hooks it needs. `name` and `description` feed the
/// blanket [`Pass`] impl and the pass registry.
///
/// While a component is being visited, the [`Context`]'s entry for that
/// component is an inert placeholder (the component was taken out by value
/// to avoid cloning); hooks must use the `&mut Component` argument for the
/// component under edit and the [`PassCtx`] only for the primitive library,
/// *other* components, and analysis queries.
#[allow(unused_variables)]
pub trait Visitor {
    /// Unique, kebab-case pass name (used in reports, errors, and `-p`
    /// pipeline specs).
    fn name(&self) -> &'static str;

    /// One-line description for documentation output.
    fn description(&self) -> &'static str;

    /// The component iteration order this visitor requires.
    fn component_order(&self) -> Order {
        Order::Definition
    }

    /// Called once before any component is visited, with the full mutable
    /// context and the pipeline's analysis cache. A pass mutating the
    /// program here must invalidate the affected components itself
    /// ([`AnalysisCache::invalidate`]).
    ///
    /// # Errors
    ///
    /// An error aborts the pass before any component is visited.
    fn start_context(&mut self, ctx: &mut Context, cache: &mut AnalysisCache) -> CalyxResult<()> {
        Ok(())
    }

    /// Called before a component's control tree is traversed.
    /// [`Action::SkipChildren`] skips the tree; [`Action::Change`] replaces
    /// the component's control program (which is then not traversed).
    ///
    /// # Errors
    ///
    /// An error aborts the pass.
    fn start_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<Action> {
        Ok(Action::Continue)
    }

    /// Called after a component's control tree has been traversed (also when
    /// the traversal was skipped). Mutations made here still count: call
    /// [`PassCtx::set_dirty`] to report them.
    ///
    /// # Errors
    ///
    /// An error aborts the pass.
    fn finish_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<()> {
        Ok(())
    }

    /// Leaf hook for [`Control::Enable`].
    ///
    /// # Errors
    ///
    /// An error aborts the pass.
    fn enable(
        &mut self,
        group: &mut Id,
        attributes: &mut Attributes,
        comp: &mut Component,
        ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        Ok(Action::Continue)
    }

    /// Post hook for [`Control::Seq`]: children have been visited.
    ///
    /// # Errors
    ///
    /// An error aborts the pass.
    fn finish_seq(
        &mut self,
        stmts: &mut Vec<Control>,
        attributes: &mut Attributes,
        comp: &mut Component,
        ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        Ok(Action::Continue)
    }

    /// Post hook for [`Control::Par`]: children have been visited.
    ///
    /// # Errors
    ///
    /// An error aborts the pass.
    fn finish_par(
        &mut self,
        stmts: &mut Vec<Control>,
        attributes: &mut Attributes,
        comp: &mut Component,
        ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        Ok(Action::Continue)
    }

    /// Post hook for [`Control::If`]: both branches have been visited.
    ///
    /// # Errors
    ///
    /// An error aborts the pass.
    #[allow(clippy::too_many_arguments)]
    fn finish_if(
        &mut self,
        port: &mut PortRef,
        cond: &mut Option<Id>,
        tbranch: &mut Control,
        fbranch: &mut Control,
        attributes: &mut Attributes,
        comp: &mut Component,
        ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        Ok(Action::Continue)
    }

    /// Post hook for [`Control::While`]: the body has been visited.
    ///
    /// # Errors
    ///
    /// An error aborts the pass.
    #[allow(clippy::too_many_arguments)]
    fn finish_while(
        &mut self,
        port: &mut PortRef,
        cond: &mut Option<Id>,
        body: &mut Control,
        attributes: &mut Attributes,
        comp: &mut Component,
        ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        Ok(Action::Continue)
    }
}

/// Visit one statement: its children, then its hook.
fn visit_stmt<V: Visitor + ?Sized>(
    v: &mut V,
    stmt: &mut Control,
    comp: &mut Component,
    ctx: &mut PassCtx,
) -> CalyxResult<()> {
    let action = match stmt {
        Control::Empty => Action::Continue,
        Control::Enable { group, attributes } => v.enable(group, attributes, comp, ctx)?,
        Control::Seq { stmts, attributes } => {
            for s in stmts.iter_mut() {
                visit_stmt(v, s, comp, ctx)?;
            }
            v.finish_seq(stmts, attributes, comp, ctx)?
        }
        Control::Par { stmts, attributes } => {
            for s in stmts.iter_mut() {
                visit_stmt(v, s, comp, ctx)?;
            }
            v.finish_par(stmts, attributes, comp, ctx)?
        }
        Control::If {
            port,
            cond,
            tbranch,
            fbranch,
            attributes,
        } => {
            visit_stmt(v, tbranch, comp, ctx)?;
            visit_stmt(v, fbranch, comp, ctx)?;
            v.finish_if(port, cond, tbranch, fbranch, attributes, comp, ctx)?
        }
        Control::While {
            port,
            cond,
            body,
            attributes,
        } => {
            visit_stmt(v, body, comp, ctx)?;
            v.finish_while(port, cond, body, attributes, comp, ctx)?
        }
    };
    if let Action::Change(new) = action {
        ctx.set_dirty();
        *stmt = new;
    }
    Ok(())
}

/// Visit one component: `start_component`, the control tree, then
/// `finish_component`. The control tree is detached from the component for
/// the duration so hooks can mutate cells/groups through `comp`.
fn visit_component<V: Visitor + ?Sized>(
    v: &mut V,
    comp: &mut Component,
    ctx: &mut PassCtx,
) -> CalyxResult<()> {
    match v.start_component(comp, ctx)? {
        Action::Continue => {
            let mut control = std::mem::take(&mut comp.control);
            let visited = visit_stmt(v, &mut control, comp, ctx);
            comp.control = control;
            visited?;
        }
        Action::SkipChildren => {}
        Action::Change(control) => {
            ctx.set_dirty();
            comp.control = control;
        }
    }
    v.finish_component(comp, ctx)
}

/// Every visitor is a pass: the adapter iterates components in the
/// visitor's declared [`Order`], temporarily taking each component out of
/// the context *by value* (no deep clone — an inert placeholder holds its
/// slot) so hooks hold `&mut Component` while reading the context through
/// [`PassCtx`]. Mutation signals (an [`Action::Change`] or
/// [`PassCtx::set_dirty`]) invalidate the component's cached analyses
/// immediately.
impl<V: Visitor> Pass for V {
    fn name(&self) -> &'static str {
        Visitor::name(self)
    }

    fn description(&self) -> &'static str {
        Visitor::description(self)
    }

    fn run_with(&mut self, ctx: &mut Context, cache: &mut AnalysisCache) -> CalyxResult<()> {
        self.start_context(ctx, cache)?;
        let names: Vec<Id> = match self.component_order() {
            Order::Definition => ctx.components.names().collect(),
            Order::Topological => ctx.topological_order()?,
        };
        for name in names {
            let Some(mut comp) = take_component(ctx, name) else {
                continue;
            };
            let mut pctx = PassCtx::new(ctx, cache, name);
            let visited = visit_component(self, &mut comp, &mut pctx);
            ctx.components.insert(comp);
            visited?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{AnalysisCache, Pcfg};

    /// Records the hook sequence as strings.
    #[derive(Default)]
    struct Tracer {
        log: Vec<String>,
        skip_components: bool,
    }

    impl Visitor for Tracer {
        fn name(&self) -> &'static str {
            "tracer"
        }
        fn description(&self) -> &'static str {
            "test tracer"
        }
        fn start_component(
            &mut self,
            comp: &mut Component,
            _: &mut PassCtx,
        ) -> CalyxResult<Action> {
            self.log.push(format!("start:{}", comp.name));
            if self.skip_components {
                return Ok(Action::SkipChildren);
            }
            Ok(Action::Continue)
        }
        fn finish_component(&mut self, comp: &mut Component, _: &mut PassCtx) -> CalyxResult<()> {
            self.log.push(format!("finish:{}", comp.name));
            Ok(())
        }
        fn enable(
            &mut self,
            group: &mut Id,
            _: &mut Attributes,
            _: &mut Component,
            _: &mut PassCtx,
        ) -> CalyxResult<Action> {
            self.log.push(format!("enable:{group}"));
            Ok(Action::Continue)
        }
        fn finish_seq(
            &mut self,
            _: &mut Vec<Control>,
            _: &mut Attributes,
            _: &mut Component,
            _: &mut PassCtx,
        ) -> CalyxResult<Action> {
            self.log.push("finish_seq".into());
            Ok(Action::Continue)
        }
        fn finish_while(
            &mut self,
            _: &mut PortRef,
            _: &mut Option<Id>,
            _: &mut Control,
            _: &mut Attributes,
            _: &mut Component,
            _: &mut PassCtx,
        ) -> CalyxResult<Action> {
            self.log.push("finish_while".into());
            Ok(Action::Continue)
        }
    }

    fn ctx_with(control: Control) -> Context {
        let mut ctx = Context::new();
        let mut comp = ctx.new_component("main");
        comp.control = control;
        ctx.add_component(comp);
        ctx
    }

    #[test]
    fn pre_and_post_hooks_bracket_children() {
        let mut ctx = ctx_with(Control::seq(vec![
            Control::enable("a"),
            Control::while_(PortRef::cell("c", "out"), None, Control::enable("b")),
        ]));
        let mut t = Tracer::default();
        t.run(&mut ctx).unwrap();
        assert_eq!(
            t.log,
            vec![
                "start:main",
                "enable:a",
                "enable:b",
                "finish_while",
                "finish_seq",
                "finish:main",
            ]
        );
    }

    #[test]
    fn skip_children_suppresses_children_and_post_hook() {
        let mut ctx = ctx_with(Control::seq(vec![Control::enable("a")]));
        let mut t = Tracer {
            skip_components: true,
            ..Tracer::default()
        };
        t.run(&mut ctx).unwrap();
        // Neither the enable nor the seq's post hook runs; the component's
        // own post hook does.
        assert_eq!(t.log, vec!["start:main", "finish:main"]);
    }

    /// Rewrites every enable of `old` to an enable of `new`.
    struct Renamer;
    impl Visitor for Renamer {
        fn name(&self) -> &'static str {
            "renamer"
        }
        fn description(&self) -> &'static str {
            "test renamer"
        }
        fn enable(
            &mut self,
            group: &mut Id,
            _: &mut Attributes,
            _: &mut Component,
            _: &mut PassCtx,
        ) -> CalyxResult<Action> {
            if group.as_str() == "old" {
                return Ok(Action::Change(Control::enable("new")));
            }
            Ok(Action::Continue)
        }
    }

    #[test]
    fn change_replaces_statement_in_place() {
        let mut ctx = ctx_with(Control::seq(vec![
            Control::enable("old"),
            Control::enable("keep"),
        ]));
        Renamer.run(&mut ctx).unwrap();
        let groups = ctx.component("main").unwrap().control.used_groups();
        assert!(groups.contains(&Id::new("new")));
        assert!(groups.contains(&Id::new("keep")));
        assert!(!groups.contains(&Id::new("old")));
    }

    /// A visitor requesting topological order sees children first.
    #[derive(Default)]
    struct OrderProbe(Vec<String>);
    impl Visitor for OrderProbe {
        fn name(&self) -> &'static str {
            "order-probe"
        }
        fn description(&self) -> &'static str {
            "test order probe"
        }
        fn component_order(&self) -> Order {
            Order::Topological
        }
        fn start_component(
            &mut self,
            comp: &mut Component,
            _: &mut PassCtx,
        ) -> CalyxResult<Action> {
            self.0.push(comp.name.to_string());
            Ok(Action::SkipChildren)
        }
    }

    #[test]
    fn topological_order_visits_children_first() {
        let mut ctx = Context::new();
        let pe = ctx.new_component("pe");
        ctx.add_component(pe);
        let mut main = ctx.new_component("main");
        let cell = ctx
            .make_cell(
                "pe0",
                crate::ir::CellType::Component {
                    name: Id::new("pe"),
                },
            )
            .unwrap();
        main.cells.insert(cell);
        ctx.add_component(main);
        // Definition order is main-last already; reverse it to prove the
        // topological sort is doing the work.
        let mut probe = OrderProbe::default();
        probe.run(&mut ctx).unwrap();
        let pos = |n: &str| probe.0.iter().position(|s| s == n).unwrap();
        assert!(pos("pe") < pos("main"));
    }

    /// A read-only pass that queries an analysis.
    struct Prober;
    impl Visitor for Prober {
        fn name(&self) -> &'static str {
            "prober"
        }
        fn description(&self) -> &'static str {
            "queries the pcfg"
        }
        fn start_component(
            &mut self,
            comp: &mut Component,
            ctx: &mut PassCtx,
        ) -> CalyxResult<Action> {
            ctx.get::<Pcfg>(comp);
            Ok(Action::SkipChildren)
        }
    }

    #[test]
    fn read_only_pass_keeps_the_cache_warm_across_passes() {
        let mut ctx = ctx_with(Control::enable("g"));
        let mut cache = AnalysisCache::new();
        Prober.run_with(&mut ctx, &mut cache).unwrap();
        assert_eq!(cache.take_stats().misses, 1);
        Prober.run_with(&mut ctx, &mut cache).unwrap();
        let stats = cache.take_stats();
        assert_eq!((stats.hits, stats.misses), (1, 0), "second pass hits");
        assert_eq!(cache.generation(Id::new("main")), 0);
    }

    #[test]
    fn change_invalidates_the_component_cache() {
        let mut ctx = ctx_with(Control::seq(vec![
            Control::enable("old"),
            Control::enable("keep"),
        ]));
        let mut cache = AnalysisCache::new();
        Prober.run_with(&mut ctx, &mut cache).unwrap();
        Renamer.run_with(&mut ctx, &mut cache).unwrap();
        assert_eq!(
            cache.generation(Id::new("main")),
            1,
            "Action::Change marks the component dirty"
        );
        cache.take_stats();
        Prober.run_with(&mut ctx, &mut cache).unwrap();
        let stats = cache.take_stats();
        assert_eq!(stats.recomputes, 1, "post-rewrite query recomputes");
    }

    /// A pass that mutates wires and reports it via `set_dirty`.
    struct WireMutator;
    impl Visitor for WireMutator {
        fn name(&self) -> &'static str {
            "wire-mutator"
        }
        fn description(&self) -> &'static str {
            "mutates and reports dirty"
        }
        fn finish_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<()> {
            comp.groups.insert(crate::ir::Group::new("injected"));
            ctx.set_dirty();
            Ok(())
        }
    }

    #[test]
    fn set_dirty_from_finish_component_invalidates() {
        let mut ctx = ctx_with(Control::Empty);
        let mut cache = AnalysisCache::new();
        Prober.run_with(&mut ctx, &mut cache).unwrap();
        WireMutator.run_with(&mut ctx, &mut cache).unwrap();
        assert_eq!(cache.generation(Id::new("main")), 1);
    }
}
