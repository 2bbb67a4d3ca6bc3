//! Scope, width, and hardware-mapping checks.
//!
//! A light-weight stand-in for Dahlia's substructural type system: rather
//! than affine index types, we enforce the consequences the paper relies
//! on — every expression has a consistent width, conditions are
//! combinational, unordered statements do not race on a register or memory,
//! and banking factors line up with loop structure so that lowering can
//! resolve every access to a single physical port.

use crate::ast::{Expr, MemDecl, Program, Stmt};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::Id;
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;

/// Widths of declared variables and memories.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Variable widths.
    pub vars: FxHashMap<Id, u32>,
    /// Memory declarations.
    pub mems: FxHashMap<Id, MemDecl>,
}

impl Env {
    /// Build the initial environment from a program's declarations.
    pub fn from_program(p: &Program) -> Self {
        let mut env = Env::default();
        for d in &p.decls {
            env.mems.insert(d.name, d.clone());
        }
        env
    }
}

/// Check a whole program.
///
/// # Errors
///
/// Returns [`Error::Malformed`] describing the first violation.
pub fn check(p: &Program) -> CalyxResult<()> {
    for d in &p.decls {
        let banked_dims = d.dims.iter().filter(|(_, b)| *b > 1).count();
        if banked_dims > 1 {
            return Err(Error::malformed(format!(
                "memory `{}`: at most one dimension may be banked",
                d.name
            )));
        }
        for (size, banks) in &d.dims {
            if *size == 0 {
                return Err(Error::malformed(format!(
                    "memory `{}` has a zero dimension",
                    d.name
                )));
            }
            if *banks == 0 || size % banks != 0 {
                return Err(Error::malformed(format!(
                    "memory `{}`: banking factor {banks} must divide size {size}",
                    d.name
                )));
            }
        }
    }
    let mut env = Env::from_program(p);
    check_stmt(&p.body, &mut env)
}

/// Infer the width of an expression; literals are flexible (`None`).
///
/// # Errors
///
/// Returns [`Error::Malformed`] on undeclared names, index-arity
/// mismatches, and width conflicts.
pub fn expr_width(e: &Expr, env: &Env) -> CalyxResult<Option<u32>> {
    match e {
        Expr::Num(_) => Ok(None),
        Expr::Var(v) => env
            .vars
            .get(v)
            .copied()
            .map(Some)
            .ok_or_else(|| Error::malformed(format!("undeclared variable `{v}`"))),
        Expr::ReadMem { mem, indices, .. } => {
            let decl = env
                .mems
                .get(mem)
                .ok_or_else(|| Error::malformed(format!("undeclared memory `{mem}`")))?;
            if indices.len() != decl.dims.len() {
                return Err(Error::malformed(format!(
                    "memory `{mem}` has {} dimension(s), indexed with {}",
                    decl.dims.len(),
                    indices.len()
                )));
            }
            for i in indices {
                expr_width(i, env)?;
            }
            Ok(Some(decl.width))
        }
        Expr::Binop { op, lhs, rhs } => {
            let lw = expr_width(lhs, env)?;
            let rw = expr_width(rhs, env)?;
            let operand = match (lw, rw) {
                (Some(a), Some(b)) if a != b && !op_allows_mixed(*op) => {
                    return Err(Error::malformed(format!(
                        "width mismatch: {a}-bit and {b}-bit operands of `{op:?}`"
                    )))
                }
                (Some(a), _) => Some(a),
                (None, b) => b,
            };
            if op.is_comparison() {
                Ok(Some(1))
            } else {
                Ok(operand)
            }
        }
        Expr::Sqrt(inner) => expr_width(inner, env),
    }
}

/// Shift amounts may be narrower than the shifted value.
fn op_allows_mixed(op: crate::ast::BinOp) -> bool {
    matches!(op, crate::ast::BinOp::Shl | crate::ast::BinOp::Shr)
}

fn check_cond(cond: &Expr, env: &Env) -> CalyxResult<()> {
    if cond.sequential_ops() > 0 {
        return Err(Error::malformed(
            "conditions must be combinational (no *, /, %, sqrt)",
        ));
    }
    let w = expr_width(cond, env)?;
    if !matches!(w, Some(1)) {
        return Err(Error::malformed(format!(
            "conditions must be 1-bit comparisons, found width {w:?}"
        )));
    }
    Ok(())
}

/// Targets written by a statement (registers and memories), used for the
/// unordered-composition race check.
fn written_targets(s: &Stmt, out: &mut BTreeSet<Id>) {
    s.walk(&mut |s| match s {
        Stmt::Let { var, .. } | Stmt::AssignVar { var, .. } => {
            out.insert(*var);
        }
        Stmt::Store { mem, .. } => {
            out.insert(*mem);
        }
        _ => {}
    });
}

fn check_stmt(s: &Stmt, env: &mut Env) -> CalyxResult<()> {
    match s {
        Stmt::Let { var, width, init } => {
            let iw = expr_width(init, env)?;
            if let Some(iw) = iw {
                if iw != *width {
                    return Err(Error::malformed(format!(
                        "`let {var}`: declared {width} bits but initializer is {iw} bits"
                    )));
                }
            }
            if let Some(prev) = env.vars.insert(*var, *width) {
                if prev != *width {
                    return Err(Error::malformed(format!(
                        "variable `{var}` redeclared with width {width} (was {prev})"
                    )));
                }
            }
        }
        Stmt::AssignVar { var, rhs } => {
            let vw = *env
                .vars
                .get(var)
                .ok_or_else(|| Error::malformed(format!("assignment to undeclared `{var}`")))?;
            if let Some(rw) = expr_width(rhs, env)? {
                if rw != vw {
                    return Err(Error::malformed(format!(
                        "`{var} := …`: {vw}-bit variable, {rw}-bit value"
                    )));
                }
            }
        }
        Stmt::Store {
            mem, indices, rhs, ..
        } => {
            let decl =
                env.mems.get(mem).cloned().ok_or_else(|| {
                    Error::malformed(format!("store to undeclared memory `{mem}`"))
                })?;
            if indices.len() != decl.dims.len() {
                return Err(Error::malformed(format!(
                    "memory `{mem}` has {} dimension(s), indexed with {}",
                    decl.dims.len(),
                    indices.len()
                )));
            }
            for i in indices {
                expr_width(i, env)?;
            }
            if let Some(rw) = expr_width(rhs, env)? {
                if rw != decl.width {
                    return Err(Error::malformed(format!(
                        "store to `{mem}`: {0}-bit memory, {rw}-bit value",
                        decl.width
                    )));
                }
            }
        }
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => check_cond(cond, env)?,
        Stmt::For {
            var,
            width,
            lo,
            hi,
            unroll,
            ..
        } => {
            if hi <= lo {
                return Err(Error::malformed(format!(
                    "`for {var}`: empty range {lo}..{hi}"
                )));
            }
            if *unroll == 0 || (hi - lo) % unroll != 0 {
                return Err(Error::malformed(format!(
                    "`for {var}`: unroll {unroll} must divide trip count {}",
                    hi - lo
                )));
            }
            env.vars.insert(*var, *width);
        }
        Stmt::Par(ss) => {
            // The affine-flavored restriction: unordered statements must not
            // write the same register or memory.
            let mut seen: BTreeSet<Id> = BTreeSet::new();
            for s in ss {
                let mut targets = BTreeSet::new();
                written_targets(s, &mut targets);
                // `Let` declares before the conflict check so later siblings
                // can reference it (widths only; ordering is still parallel).
                check_stmt(s, env)?;
                for t in targets {
                    if !seen.insert(t) {
                        return Err(Error::malformed(format!(
                            "unordered statements both write `{t}`; order them with `---`"
                        )));
                    }
                }
            }
            return Ok(());
        }
        _ => {}
    }
    s.children().try_for_each(|s| check_stmt(s, env))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> CalyxResult<()> {
        check(&parse(src).unwrap())
    }

    #[test]
    fn accepts_well_formed_programs() {
        check_src(
            "decl a: ubit<32>[8];
             let x: ubit<32> = 0;
             ---
             for (let i: ubit<4> = 0..8) {
               a[i] := x + 1;
             }",
        )
        .unwrap();
    }

    #[test]
    fn rejects_width_mismatches() {
        let err = check_src(
            "let x: ubit<8> = 0;
             let y: ubit<16> = 0;
             ---
             x := y;",
        )
        .unwrap_err();
        assert!(err.to_string().contains("8-bit"), "{err}");
    }

    #[test]
    fn rejects_undeclared_names() {
        assert!(check_src("x := 1;").is_err());
        assert!(check_src("let x: ubit<8> = m[0];").is_err());
    }

    #[test]
    fn rejects_wrong_index_arity() {
        let err = check_src("decl a: ubit<8>[4][4]; a[1] := 0;").unwrap_err();
        assert!(err.to_string().contains("dimension"), "{err}");
    }

    #[test]
    fn rejects_sequential_conditions() {
        let err = check_src(
            "let x: ubit<8> = 1;
             ---
             while (x * 2 < 10) { x := x + 1; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("combinational"), "{err}");
    }

    #[test]
    fn rejects_non_boolean_conditions() {
        let err = check_src(
            "let x: ubit<8> = 1;
             ---
             if (x + 1) { x := 0; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("1-bit"), "{err}");
    }

    #[test]
    fn rejects_parallel_write_races() {
        let err = check_src(
            "let x: ubit<8> = 0;
             ---
             x := 1;
             x := 2;",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unordered"), "{err}");
    }

    #[test]
    fn rejects_bad_banking() {
        let err = check_src("decl a: ubit<8>[6 bank 4]; a[0] := 1;").unwrap_err();
        assert!(err.to_string().contains("banking factor"), "{err}");
        let err = check_src("decl a: ubit<8>[4 bank 2][4 bank 2]; a[0][0] := 1;").unwrap_err();
        assert!(err.to_string().contains("one dimension"), "{err}");
    }

    #[test]
    fn rejects_bad_unroll() {
        let err = check_src(
            "decl a: ubit<8>[8];
             for (let i: ubit<4> = 0..8) unroll 3 { a[i] := 1; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unroll"), "{err}");
    }
}
