//! Control-program normalization.

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::errors::CalyxResult;
use crate::ir::{Attributes, Component, Control};

/// Flattens directly nested `seq`-in-`seq` and `par`-in-`par`, removes
/// [`Control::Empty`] children, and unwraps single-statement blocks.
///
/// Frontends generate deeply nested control; normalizing it shrinks the
/// FSMs `CompileControl` emits and makes the conflict analyses (§5.1–5.2)
/// more precise.
///
/// The pass is a bottom-up [`Visitor`]: by the time a block's post hook
/// runs, its children are already collapsed, so flattening is a single
/// non-recursive splice.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollapseControl;

impl Visitor for CollapseControl {
    fn name(&self) -> &'static str {
        "collapse-control"
    }

    fn description(&self) -> &'static str {
        "flatten nested seq/par blocks and drop empty statements"
    }

    fn finish_seq(
        &mut self,
        stmts: &mut Vec<Control>,
        attributes: &mut Attributes,
        _comp: &mut Component,
        _ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        // Returning `Change` marks the component dirty for the analysis
        // cache, so already-flat blocks answer `Continue` instead.
        if !needs_collapse(stmts, attributes, BlockKind::Seq) {
            return Ok(Action::Continue);
        }
        Ok(Action::Change(collapse_block(
            std::mem::take(stmts),
            std::mem::take(attributes),
            BlockKind::Seq,
        )))
    }

    fn finish_par(
        &mut self,
        stmts: &mut Vec<Control>,
        attributes: &mut Attributes,
        _comp: &mut Component,
        _ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        if !needs_collapse(stmts, attributes, BlockKind::Par) {
            return Ok(Action::Continue);
        }
        Ok(Action::Change(collapse_block(
            std::mem::take(stmts),
            std::mem::take(attributes),
            BlockKind::Par,
        )))
    }
}

/// Would [`collapse_block`] produce anything different from the block
/// itself? (Children are already collapsed when the post hook runs.)
fn needs_collapse(stmts: &[Control], attributes: &Attributes, kind: BlockKind) -> bool {
    if stmts.is_empty() || (stmts.len() == 1 && attributes.is_empty()) {
        return true; // becomes Empty / is unwrapped
    }
    stmts.iter().any(|s| {
        matches!(
            (kind, s),
            (_, Control::Empty)
                | (BlockKind::Seq, Control::Seq { .. })
                | (BlockKind::Par, Control::Par { .. })
        )
    })
}

#[derive(Clone, Copy, PartialEq)]
enum BlockKind {
    Seq,
    Par,
}

/// Flatten one block whose children are already collapsed.
fn collapse_block(stmts: Vec<Control>, attributes: Attributes, kind: BlockKind) -> Control {
    let mut flat = Vec::new();
    for stmt in stmts {
        match (kind, stmt) {
            (_, Control::Empty) => {}
            // A nested block of the same kind imposes no constraint the
            // outer block does not already impose, so its children can be
            // spliced in directly.
            (BlockKind::Seq, Control::Seq { stmts: inner, .. }) => flat.extend(inner),
            (BlockKind::Par, Control::Par { stmts: inner, .. }) => flat.extend(inner),
            (_, other) => flat.push(other),
        }
    }
    match flat.len() {
        0 => Control::Empty,
        // Unwrapping single-child blocks is only safe when the block carries
        // no attributes a later pass might consume.
        1 if attributes.is_empty() => flat.pop().expect("length checked"),
        _ => match kind {
            BlockKind::Seq => Control::Seq {
                stmts: flat,
                attributes,
            },
            BlockKind::Par => Control::Par {
                stmts: flat,
                attributes,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Context, PortRef};
    use crate::passes::Pass;

    /// Run the pass over a bare control tree.
    fn collapse(control: Control) -> Control {
        let mut ctx = Context::new();
        let mut comp = ctx.new_component("main");
        comp.control = control;
        ctx.add_component(comp);
        CollapseControl.run(&mut ctx).unwrap();
        std::mem::take(&mut ctx.component_mut("main").unwrap().control)
    }

    #[test]
    fn flattens_nested_seq() {
        let c = Control::seq(vec![
            Control::seq(vec![Control::enable("a"), Control::enable("b")]),
            Control::Empty,
            Control::enable("c"),
        ]);
        let collapsed = collapse(c);
        match collapsed {
            Control::Seq { stmts, .. } => {
                assert_eq!(stmts.len(), 3);
                assert!(stmts.iter().all(|s| matches!(s, Control::Enable { .. })));
            }
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn flattens_nested_par() {
        let c = Control::par(vec![
            Control::par(vec![Control::enable("a")]),
            Control::enable("b"),
        ]);
        match collapse(c) {
            Control::Par { stmts, .. } => assert_eq!(stmts.len(), 2),
            other => panic!("expected par, got {other:?}"),
        }
    }

    #[test]
    fn does_not_flatten_par_in_seq() {
        let c = Control::seq(vec![
            Control::par(vec![Control::enable("a"), Control::enable("b")]),
            Control::enable("c"),
        ]);
        match collapse(c) {
            Control::Seq { stmts, .. } => {
                assert!(matches!(stmts[0], Control::Par { .. }));
            }
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn unwraps_singletons_and_empties() {
        assert_eq!(
            collapse(Control::seq(vec![Control::enable("a")])),
            Control::enable("a")
        );
        assert_eq!(collapse(Control::seq(vec![])), Control::Empty);
        assert_eq!(
            collapse(Control::par(vec![Control::Empty, Control::Empty])),
            Control::Empty
        );
    }

    #[test]
    fn keeps_attributed_singleton_blocks() {
        let mut c = Control::seq(vec![Control::enable("a")]);
        c.attributes_mut()
            .unwrap()
            .insert(crate::ir::attr::STATIC, 3);
        assert!(matches!(collapse(c), Control::Seq { .. }));
    }

    #[test]
    fn recurses_into_branches() {
        let c = Control::if_(
            PortRef::cell("lt", "out"),
            None,
            Control::seq(vec![Control::seq(vec![Control::enable("a")])]),
            Control::Empty,
        );
        match collapse(c) {
            Control::If { tbranch, .. } => assert_eq!(*tbranch, Control::enable("a")),
            other => panic!("expected if, got {other:?}"),
        }
    }
}
