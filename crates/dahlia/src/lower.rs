//! Lowering: from surface Dahlia to the restricted form the backend emits.
//!
//! Three transformations (the "first step of compilation" the paper elides
//! to its implementation, §6.2):
//!
//! 1. **Unrolling.** `for … unroll u` becomes a loop over `trips/u` base
//!    iterations whose body is the *unordered* composition of `u` lanes
//!    (Dahlia's unrolled iterations are parallel). Iteration `i` maps to
//!    lane `i mod u` at base index `i / u` — the cyclic banking layout —
//!    so an access `a[i]` on a dimension banked by `u` resolves statically
//!    to bank `lane` at address `base`. Uses of the loop variable that
//!    cannot be resolved this way are rejected, mirroring Dahlia's type
//!    errors. Lane-local `let`s are renamed apart.
//! 2. **Bank resolution** for constant indices on banked dimensions.
//! 3. **Three-address form.** Sequential units (`*`, `/`, `%`, `sqrt`) are
//!    hoisted into fresh temporaries so each statement contains at most one
//!    unit at its root, and duplicate reads of one memory within a
//!    statement are hoisted so every statement uses each memory port once.
//!
//! `for` loops survive lowering (with `unroll == 1`): the Calyx backend
//! converts them to `while`, and the HLS baseline model needs their static
//! trip counts.

use crate::ast::{Block, Expr, Program, Stmt};
use crate::check::{expr_width, Env};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::Id;
use rustc_hash::FxHashMap;

/// Lower a checked program.
///
/// # Errors
///
/// Returns [`Error::Malformed`] for unrollings the banking structure cannot
/// support.
pub fn lower(p: Program) -> CalyxResult<Program> {
    let mut env = Env::from_program(&p);
    let mut fresh = 0usize;
    let body = unroll_stmt(p.body, &env)?;
    let body = split_stmt(body, &mut env, &mut fresh)?;
    Ok(Program {
        decls: p.decls,
        body,
    })
}

// ---------------------------------------------------------------------------
// Phase 1: unrolling + bank resolution
// ---------------------------------------------------------------------------

fn unroll_block(b: Block, env: &Env) -> CalyxResult<Block> {
    b.into_iter().map(|s| unroll_stmt(s, env)).collect()
}

fn unroll_stmt(s: Stmt, env: &Env) -> CalyxResult<Stmt> {
    Ok(match s {
        Stmt::Let { var, width, init } => Stmt::Let {
            var,
            width,
            init: resolve_const_banks(init, env)?,
        },
        Stmt::AssignVar { var, rhs } => Stmt::AssignVar {
            var,
            rhs: resolve_const_banks(rhs, env)?,
        },
        Stmt::Store {
            mem,
            bank,
            indices,
            rhs,
        } => {
            let rhs = resolve_const_banks(rhs, env)?;
            let indices = indices
                .into_iter()
                .map(|i| resolve_const_banks(i, env))
                .collect::<CalyxResult<Vec<_>>>()?;
            let (bank, indices) = match bank {
                Some(b) => (Some(b), indices),
                None => resolve_access(mem, indices, env, None)?,
            };
            Stmt::Store {
                mem,
                bank,
                indices,
                rhs,
            }
        }
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: resolve_const_banks(cond, env)?,
            then_: unroll_block(then_, env)?,
            else_: unroll_block(else_, env)?,
        },
        Stmt::While { cond, body } => Stmt::While {
            cond: resolve_const_banks(cond, env)?,
            body: unroll_block(body, env)?,
        },
        Stmt::Seq(ss) => Stmt::Seq(unroll_block(ss, env)?),
        Stmt::Par(ss) => Stmt::Par(unroll_block(ss, env)?),
        Stmt::For {
            var,
            width,
            lo,
            hi,
            unroll,
            body,
        } => {
            if unroll <= 1 {
                return Ok(Stmt::For {
                    var,
                    width,
                    lo,
                    hi,
                    unroll: 1,
                    body: unroll_block(body, env)?,
                });
            }
            if lo != 0 {
                return Err(Error::malformed(format!(
                    "unrolled loop `{var}` must start at 0"
                )));
            }
            // Expand lanes on the *raw* body (its accesses through `var`
            // resolve to banks here), then recurse to handle nested loops
            // and remaining constant-index resolution inside the lanes.
            let trips = (hi - lo) / unroll;
            let lanes: Vec<Stmt> = (0..unroll)
                .map(|lane| {
                    let renames = lane_renames(&body, lane);
                    let lane_body = body
                        .iter()
                        .map(|s| lane_stmt(s.clone(), var, lane, unroll, &renames, env))
                        .collect::<CalyxResult<Vec<_>>>()?;
                    Ok(match lane_body.len() {
                        1 => lane_body.into_iter().next().expect("length checked"),
                        _ => Stmt::Seq(lane_body),
                    })
                })
                .collect::<CalyxResult<Vec<_>>>()?;
            unroll_stmt(
                Stmt::For {
                    var,
                    width,
                    lo: 0,
                    hi: trips,
                    unroll: 1,
                    body: vec![Stmt::Par(lanes)],
                },
                env,
            )?
        }
    })
}

/// Names `let`-bound inside an unrolled body, renamed per lane so parallel
/// lanes do not race on their temporaries.
fn lane_renames(body: &Block, lane: u64) -> FxHashMap<Id, Id> {
    let mut map = FxHashMap::default();
    fn collect(s: &Stmt, lane: u64, map: &mut FxHashMap<Id, Id>) {
        match s {
            Stmt::Let { var, .. } => {
                map.insert(*var, Id::new(format!("{var}__l{lane}")));
            }
            Stmt::If { then_, else_, .. } => {
                for s in then_.iter().chain(else_) {
                    collect(s, lane, map);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => {
                for s in body {
                    collect(s, lane, map);
                }
            }
            Stmt::Seq(ss) | Stmt::Par(ss) => {
                for s in ss {
                    collect(s, lane, map);
                }
            }
            _ => {}
        }
    }
    for s in body {
        collect(s, lane, &mut map);
    }
    map
}

/// Rewrite one lane: rename local lets, resolve banked accesses through the
/// unrolled variable, and reject unresolvable uses of it.
fn lane_stmt(
    s: Stmt,
    var: Id,
    lane: u64,
    unroll: u64,
    renames: &FxHashMap<Id, Id>,
    env: &Env,
) -> CalyxResult<Stmt> {
    Ok(match s {
        Stmt::Let {
            var: v,
            width,
            init,
        } => Stmt::Let {
            var: renames.get(&v).copied().unwrap_or(v),
            width,
            init: lane_expr(init, var, lane, unroll, renames, env)?,
        },
        Stmt::AssignVar { var: v, rhs } => Stmt::AssignVar {
            var: renames.get(&v).copied().unwrap_or(v),
            rhs: lane_expr(rhs, var, lane, unroll, renames, env)?,
        },
        Stmt::Store {
            mem,
            bank,
            indices,
            rhs,
        } => {
            let rhs = lane_expr(rhs, var, lane, unroll, renames, env)?;
            // Indices may use the unrolled variable directly (it selects the
            // bank); everything else substitutes like any expression.
            let indices = indices
                .into_iter()
                .map(|i| {
                    if matches!(i, Expr::Var(v) if v == var) {
                        Ok(Expr::Var(var))
                    } else {
                        lane_expr(i, var, lane, unroll, renames, env)
                    }
                })
                .collect::<CalyxResult<Vec<_>>>()?;
            let (bank, indices) = match bank {
                Some(b) => (Some(b), indices),
                None => resolve_access(mem, indices, env, Some((var, lane, unroll)))?,
            };
            Stmt::Store {
                mem,
                bank,
                indices,
                rhs,
            }
        }
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: lane_expr(cond, var, lane, unroll, renames, env)?,
            then_: then_
                .into_iter()
                .map(|s| lane_stmt(s, var, lane, unroll, renames, env))
                .collect::<CalyxResult<Vec<_>>>()?,
            else_: else_
                .into_iter()
                .map(|s| lane_stmt(s, var, lane, unroll, renames, env))
                .collect::<CalyxResult<Vec<_>>>()?,
        },
        Stmt::While { cond, body } => Stmt::While {
            cond: lane_expr(cond, var, lane, unroll, renames, env)?,
            body: body
                .into_iter()
                .map(|s| lane_stmt(s, var, lane, unroll, renames, env))
                .collect::<CalyxResult<Vec<_>>>()?,
        },
        Stmt::For {
            var: v,
            width,
            lo,
            hi,
            unroll: u,
            body,
        } => Stmt::For {
            var: v,
            width,
            lo,
            hi,
            unroll: u,
            body: body
                .into_iter()
                .map(|s| lane_stmt(s, var, lane, unroll, renames, env))
                .collect::<CalyxResult<Vec<_>>>()?,
        },
        Stmt::Seq(ss) => Stmt::Seq(
            ss.into_iter()
                .map(|s| lane_stmt(s, var, lane, unroll, renames, env))
                .collect::<CalyxResult<Vec<_>>>()?,
        ),
        Stmt::Par(ss) => Stmt::Par(
            ss.into_iter()
                .map(|s| lane_stmt(s, var, lane, unroll, renames, env))
                .collect::<CalyxResult<Vec<_>>>()?,
        ),
    })
}

fn lane_expr(
    e: Expr,
    var: Id,
    lane: u64,
    unroll: u64,
    renames: &FxHashMap<Id, Id>,
    env: &Env,
) -> CalyxResult<Expr> {
    Ok(match e {
        Expr::Num(n) => Expr::Num(n),
        Expr::Var(v) if v == var => {
            // A bare use of the unrolled variable outside a banked index
            // cannot be realized without lane arithmetic; Dahlia's type
            // system rejects these programs too.
            return Err(Error::malformed(format!(
                "unrolled loop variable `{var}` may only index memories banked by the unroll factor"
            )));
        }
        Expr::Var(v) => Expr::Var(renames.get(&v).copied().unwrap_or(v)),
        Expr::ReadMem { mem, bank, indices } => {
            // First substitute inner indices (they may use renamed lets).
            let indices = indices
                .into_iter()
                .map(|i| {
                    // The unrolled var *is* allowed as a direct index here.
                    if matches!(i, Expr::Var(v) if v == var) {
                        Ok(Expr::Var(var))
                    } else {
                        lane_expr(i, var, lane, unroll, renames, env)
                    }
                })
                .collect::<CalyxResult<Vec<_>>>()?;
            let (bank, indices) = match bank {
                Some(b) => (Some(b), indices),
                None => {
                    let uses_var = indices
                        .iter()
                        .any(|i| matches!(i, Expr::Var(v) if *v == var));
                    if uses_var {
                        resolve_access(mem, indices, env, Some((var, lane, unroll)))?
                    } else {
                        resolve_access(mem, indices, env, None)?
                    }
                }
            };
            Expr::ReadMem { mem, bank, indices }
        }
        Expr::Binop { op, lhs, rhs } => Expr::binop(
            op,
            lane_expr(*lhs, var, lane, unroll, renames, env)?,
            lane_expr(*rhs, var, lane, unroll, renames, env)?,
        ),
        Expr::Sqrt(inner) => Expr::Sqrt(Box::new(lane_expr(
            *inner, var, lane, unroll, renames, env,
        )?)),
    })
}

/// Resolve a memory access to a physical bank.
///
/// `lane_ctx = Some((var, lane, unroll))` when resolving inside an unrolled
/// lane: an index that *is* the unrolled variable on a dimension banked by
/// the unroll factor selects bank `lane` (cyclic layout: logical `n·u+lane`
/// is bank `lane`, offset `n`, and the base counter already runs over `n`).
/// Constant indices on banked dimensions resolve to `c mod B` / `c div B`.
fn resolve_access(
    mem: Id,
    mut indices: Vec<Expr>,
    env: &Env,
    lane_ctx: Option<(Id, u64, u64)>,
) -> CalyxResult<(Option<u64>, Vec<Expr>)> {
    let Some(decl) = env.mems.get(&mem) else {
        return Err(Error::malformed(format!("undeclared memory `{mem}`")));
    };
    if !decl.is_banked() {
        if let Some((var, _, _)) = lane_ctx {
            if indices
                .iter()
                .any(|i| matches!(i, Expr::Var(v) if *v == var))
            {
                return Err(Error::malformed(format!(
                    "memory `{mem}` is unbanked but indexed by unrolled variable `{var}`; \
                     bank it by the unroll factor or hoist the access"
                )));
            }
        }
        return Ok((None, indices));
    }
    let (dim, (_, banks)) = decl
        .dims
        .iter()
        .enumerate()
        .find(|(_, (_, b))| *b > 1)
        .map(|(d, sb)| (d, *sb))
        .expect("is_banked checked");
    match (&indices[dim], lane_ctx) {
        (Expr::Var(v), Some((var, lane, unroll))) if *v == var => {
            if banks != unroll {
                return Err(Error::malformed(format!(
                    "memory `{mem}` is banked by {banks} but the loop unrolls by {unroll}"
                )));
            }
            // Address within the bank is the base counter, i.e. the loop
            // variable itself after unrolling.
            Ok((Some(lane), indices))
        }
        (Expr::Num(c), _) => {
            let bank = c % banks;
            indices[dim] = Expr::Num(c / banks);
            Ok((Some(bank), indices))
        }
        _ => Err(Error::malformed(format!(
            "cannot statically resolve the bank of `{mem}`: banked dimensions \
             must be indexed by the unrolled loop variable or a constant"
        ))),
    }
}

/// Resolve constant-index banked accesses in sequential code.
fn resolve_const_banks(e: Expr, env: &Env) -> CalyxResult<Expr> {
    Ok(match e {
        Expr::Num(_) | Expr::Var(_) => e,
        Expr::ReadMem { mem, bank, indices } => {
            let indices = indices
                .into_iter()
                .map(|i| resolve_const_banks(i, env))
                .collect::<CalyxResult<Vec<_>>>()?;
            let (bank, indices) = match bank {
                Some(b) => (Some(b), indices),
                None => resolve_access(mem, indices, env, None)?,
            };
            Expr::ReadMem { mem, bank, indices }
        }
        Expr::Binop { op, lhs, rhs } => Expr::binop(
            op,
            resolve_const_banks(*lhs, env)?,
            resolve_const_banks(*rhs, env)?,
        ),
        Expr::Sqrt(inner) => Expr::Sqrt(Box::new(resolve_const_banks(*inner, env)?)),
    })
}

// ---------------------------------------------------------------------------
// Phase 2: three-address splitting
// ---------------------------------------------------------------------------

fn fresh_temp(fresh: &mut usize) -> Id {
    let id = Id::new(format!("__t{fresh}"));
    *fresh += 1;
    id
}

fn split_block(b: Block, env: &mut Env, fresh: &mut usize) -> CalyxResult<Block> {
    b.into_iter().map(|s| split_stmt(s, env, fresh)).collect()
}

fn split_stmt(s: Stmt, env: &mut Env, fresh: &mut usize) -> CalyxResult<Stmt> {
    Ok(match s {
        Stmt::Let { var, width, init } => {
            env.vars.insert(var, width);
            let mut pre = Vec::new();
            let init = simplify_rhs(init, width, env, fresh, &mut pre)?;
            finish(pre, Stmt::Let { var, width, init })
        }
        Stmt::AssignVar { var, rhs } => {
            let width = env.vars.get(&var).copied().unwrap_or(32);
            let mut pre = Vec::new();
            let rhs = simplify_rhs(rhs, width, env, fresh, &mut pre)?;
            finish(pre, Stmt::AssignVar { var, rhs })
        }
        Stmt::Store {
            mem,
            bank,
            indices,
            rhs,
        } => {
            let width = env.mems.get(&mem).map(|d| d.width).unwrap_or(32);
            let mut pre = Vec::new();
            let rhs = simplify_rhs(rhs, width, env, fresh, &mut pre)?;
            // Deduplicate memory reads against the store's own port use.
            let stmt = Stmt::Store {
                mem,
                bank,
                indices,
                rhs,
            };
            let stmt = dedup_reads(stmt, env, fresh, &mut pre)?;
            finish(pre, stmt)
        }
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond,
            then_: split_block(then_, env, fresh)?,
            else_: split_block(else_, env, fresh)?,
        },
        Stmt::While { cond, body } => Stmt::While {
            cond,
            body: split_block(body, env, fresh)?,
        },
        Stmt::For {
            var,
            width,
            lo,
            hi,
            unroll,
            body,
        } => {
            env.vars.insert(var, width);
            Stmt::For {
                var,
                width,
                lo,
                hi,
                unroll,
                body: split_block(body, env, fresh)?,
            }
        }
        Stmt::Seq(ss) => Stmt::Seq(split_block(ss, env, fresh)?),
        Stmt::Par(ss) => Stmt::Par(split_block(ss, env, fresh)?),
    })
}

fn finish(pre: Vec<Stmt>, last: Stmt) -> Stmt {
    if pre.is_empty() {
        last
    } else {
        let mut ss = pre;
        ss.push(last);
        Stmt::Seq(ss)
    }
}

/// Hoist nested sequential units, then duplicate memory reads, so the RHS
/// is a single comb tree with at most one unit at its root.
fn simplify_rhs(
    e: Expr,
    width: u32,
    env: &mut Env,
    fresh: &mut usize,
    pre: &mut Vec<Stmt>,
) -> CalyxResult<Expr> {
    let e = hoist_units(e, true, width, env, fresh, pre)?;
    // Read deduplication happens on a synthetic Let so the same walker
    // handles all statement kinds.
    let probe = Stmt::Let {
        var: Id::PROBE,
        width,
        init: e,
    };
    let probe = dedup_reads(probe, env, fresh, pre)?;
    match probe {
        Stmt::Let { init, .. } => Ok(init),
        _ => unreachable!("dedup_reads preserves statement shape"),
    }
}

/// Hoist every non-root sequential unit into a fresh temporary.
fn hoist_units(
    e: Expr,
    at_root: bool,
    width: u32,
    env: &mut Env,
    fresh: &mut usize,
    pre: &mut Vec<Stmt>,
) -> CalyxResult<Expr> {
    Ok(match e {
        Expr::Num(_) | Expr::Var(_) => e,
        Expr::ReadMem { mem, bank, indices } => {
            let indices = indices
                .into_iter()
                .map(|i| {
                    let i = hoist_units(i, false, 32, env, fresh, pre)?;
                    if i.sequential_ops() > 0 {
                        Err(Error::malformed(
                            "memory indices must be combinational expressions",
                        ))
                    } else {
                        Ok(i)
                    }
                })
                .collect::<CalyxResult<Vec<_>>>()?;
            Expr::ReadMem { mem, bank, indices }
        }
        Expr::Binop { op, lhs, rhs } => {
            let lhs = hoist_units(*lhs, false, width, env, fresh, pre)?;
            let rhs = hoist_units(*rhs, false, width, env, fresh, pre)?;
            let node = Expr::binop(op, lhs, rhs);
            if op.is_sequential() && !at_root {
                hoist(node, width, env, fresh, pre)?
            } else if op.is_sequential() && node.sequential_ops() > 1 {
                // Root unit whose (already hoisted) operands somehow still
                // contain units cannot happen; guard anyway.
                hoist(node, width, env, fresh, pre)?
            } else {
                node
            }
        }
        Expr::Sqrt(inner) => {
            let inner = hoist_units(*inner, false, width, env, fresh, pre)?;
            let node = Expr::Sqrt(Box::new(inner));
            if at_root {
                node
            } else {
                hoist(node, width, env, fresh, pre)?
            }
        }
    })
}

fn hoist(
    e: Expr,
    default_width: u32,
    env: &mut Env,
    fresh: &mut usize,
    pre: &mut Vec<Stmt>,
) -> CalyxResult<Expr> {
    let width = expr_width(&e, env)?.unwrap_or(default_width);
    let t = fresh_temp(fresh);
    env.vars.insert(t, width);
    pre.push(Stmt::Let {
        var: t,
        width,
        init: e,
    });
    Ok(Expr::Var(t))
}

/// Within one simple statement, each physical memory may be addressed once.
/// The first access (a store's own access wins) keeps the port; further
/// accesses with different indices are hoisted into preceding temporaries.
fn dedup_reads(
    stmt: Stmt,
    env: &mut Env,
    fresh: &mut usize,
    pre: &mut Vec<Stmt>,
) -> CalyxResult<Stmt> {
    type Key = (Id, Option<u64>);
    let mut claimed: FxHashMap<Key, Vec<Expr>> = FxHashMap::default();

    fn walk(
        e: Expr,
        claimed: &mut FxHashMap<(Id, Option<u64>), Vec<Expr>>,
        env: &mut Env,
        fresh: &mut usize,
        pre: &mut Vec<Stmt>,
    ) -> CalyxResult<Expr> {
        Ok(match e {
            Expr::Num(_) | Expr::Var(_) => e,
            Expr::ReadMem { mem, bank, indices } => {
                let indices = indices
                    .into_iter()
                    .map(|i| walk(i, claimed, env, fresh, pre))
                    .collect::<CalyxResult<Vec<_>>>()?;
                match claimed.get(&(mem, bank)) {
                    Some(prev) if *prev == indices => Expr::ReadMem { mem, bank, indices },
                    Some(_) => {
                        // Port already used at a different address: hoist.
                        let width = env.mems.get(&mem).map(|d| d.width).unwrap_or(32);
                        let t = fresh_temp(fresh);
                        env.vars.insert(t, width);
                        pre.push(Stmt::Let {
                            var: t,
                            width,
                            init: Expr::ReadMem { mem, bank, indices },
                        });
                        Expr::Var(t)
                    }
                    None => {
                        claimed.insert((mem, bank), indices.clone());
                        Expr::ReadMem { mem, bank, indices }
                    }
                }
            }
            Expr::Binop { op, lhs, rhs } => Expr::binop(
                op,
                walk(*lhs, claimed, env, fresh, pre)?,
                walk(*rhs, claimed, env, fresh, pre)?,
            ),
            Expr::Sqrt(inner) => Expr::Sqrt(Box::new(walk(*inner, claimed, env, fresh, pre)?)),
        })
    }

    Ok(match stmt {
        Stmt::Let { var, width, init } => Stmt::Let {
            var,
            width,
            init: walk(init, &mut claimed, env, fresh, pre)?,
        },
        Stmt::AssignVar { var, rhs } => Stmt::AssignVar {
            var,
            rhs: walk(rhs, &mut claimed, env, fresh, pre)?,
        },
        Stmt::Store {
            mem,
            bank,
            indices,
            rhs,
        } => {
            // The store's own access claims the port first.
            let indices = indices
                .into_iter()
                .map(|i| walk(i, &mut claimed, env, fresh, pre))
                .collect::<CalyxResult<Vec<_>>>()?;
            claimed.insert((mem, bank), indices.clone());
            Stmt::Store {
                mem,
                bank,
                indices,
                rhs: walk(rhs, &mut claimed, env, fresh, pre)?,
            }
        }
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::parser::parse;

    fn lower_src(src: &str) -> Program {
        let p = parse(src).unwrap();
        check::check(&p).unwrap();
        lower(p).unwrap()
    }

    fn count_stmts(s: &Stmt, pred: &impl Fn(&Stmt) -> bool) -> usize {
        let mut n = usize::from(pred(s));
        match s {
            Stmt::If { then_, else_, .. } => {
                n += then_
                    .iter()
                    .chain(else_)
                    .map(|s| count_stmts(s, pred))
                    .sum::<usize>();
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => {
                n += body.iter().map(|s| count_stmts(s, pred)).sum::<usize>();
            }
            Stmt::Seq(ss) | Stmt::Par(ss) => {
                n += ss.iter().map(|s| count_stmts(s, pred)).sum::<usize>();
            }
            _ => {}
        }
        n
    }

    #[test]
    fn unroll_creates_parallel_lanes_with_banks() {
        let p = lower_src(
            "decl a: ubit<32>[8 bank 2];
             for (let i: ubit<4> = 0..8) unroll 2 {
               a[i] := 1;
             }",
        );
        // The loop now runs 4 base iterations with a par of 2 lanes.
        match &p.body {
            Stmt::For {
                hi, unroll, body, ..
            } => {
                assert_eq!(*hi, 4);
                assert_eq!(*unroll, 1);
                match &body[0] {
                    Stmt::Par(lanes) => {
                        assert_eq!(lanes.len(), 2);
                        let banks: Vec<Option<u64>> = lanes
                            .iter()
                            .map(|l| match l {
                                Stmt::Store { bank, .. } => *bank,
                                other => panic!("expected store, got {other:?}"),
                            })
                            .collect();
                        assert_eq!(banks, vec![Some(0), Some(1)]);
                    }
                    other => panic!("expected par of lanes, got {other:?}"),
                }
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn lane_lets_are_renamed_apart() {
        let p = lower_src(
            "decl a: ubit<32>[4 bank 2];
             decl b: ubit<32>[4 bank 2];
             for (let i: ubit<4> = 0..4) unroll 2 {
               let t: ubit<32> = a[i];
               ---
               b[i] := t;
             }",
        );
        let lets = count_stmts(
            &p.body,
            &|s| matches!(s, Stmt::Let { var, .. } if var.as_str().contains("__l")),
        );
        assert_eq!(lets, 2, "one renamed let per lane: {p:?}");
    }

    #[test]
    fn constant_indices_resolve_banks() {
        let p = lower_src(
            "decl a: ubit<32>[8 bank 4];
             a[6] := 1;",
        );
        match &p.body {
            Stmt::Store { bank, indices, .. } => {
                assert_eq!(*bank, Some(2)); // 6 mod 4
                assert_eq!(indices[0], Expr::Num(1)); // 6 div 4
            }
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unbanked_unrolled_access() {
        let p = parse(
            "decl a: ubit<32>[8];
             for (let i: ubit<4> = 0..8) unroll 2 { a[i] := 1; }",
        )
        .unwrap();
        check::check(&p).unwrap();
        let err = lower(p).unwrap_err();
        assert!(err.to_string().contains("unbanked"), "{err}");
    }

    #[test]
    fn nested_multiplies_are_hoisted() {
        let p = lower_src(
            "let a: ubit<32> = 2;
             ---
             let b: ubit<32> = 3;
             ---
             let c: ubit<32> = a * b + a * a;",
        );
        // Two multiplies, at most one can stay at the root: at least one
        // temporary is introduced.
        let temps = count_stmts(
            &p.body,
            &|s| matches!(s, Stmt::Let { var, .. } if var.as_str().starts_with("__t")),
        );
        assert!(temps >= 1, "{p:?}");
        // No statement has more than one sequential op afterwards.
        fn max_seq(s: &Stmt) -> usize {
            match s {
                Stmt::Let { init, .. } => init.sequential_ops(),
                Stmt::AssignVar { rhs, .. } => rhs.sequential_ops(),
                Stmt::Store { rhs, .. } => rhs.sequential_ops(),
                Stmt::If { then_, else_, .. } => {
                    then_.iter().chain(else_).map(max_seq).max().unwrap_or(0)
                }
                Stmt::While { body, .. } | Stmt::For { body, .. } => {
                    body.iter().map(max_seq).max().unwrap_or(0)
                }
                Stmt::Seq(ss) | Stmt::Par(ss) => ss.iter().map(max_seq).max().unwrap_or(0),
            }
        }
        assert!(max_seq(&p.body) <= 1);
    }

    #[test]
    fn duplicate_memory_reads_are_hoisted() {
        let p = lower_src(
            "decl a: ubit<32>[8];
             let x: ubit<32> = a[0] + a[1];",
        );
        let temps = count_stmts(
            &p.body,
            &|s| matches!(s, Stmt::Let { var, .. } if var.as_str().starts_with("__t")),
        );
        assert_eq!(temps, 1, "{p:?}");
    }

    #[test]
    fn same_address_read_in_store_is_kept() {
        // `a[i] := a[i] + 1` reads and writes the same address: one port use.
        let p = lower_src(
            "decl a: ubit<32>[8];
             let i: ubit<32> = 3;
             ---
             a[i] := a[i] + 1;",
        );
        let temps = count_stmts(
            &p.body,
            &|s| matches!(s, Stmt::Let { var, .. } if var.as_str().starts_with("__t")),
        );
        assert_eq!(temps, 0, "{p:?}");
    }

    #[test]
    fn store_reading_other_address_hoists() {
        let p = lower_src(
            "decl a: ubit<32>[8];
             a[0] := a[1] + 1;",
        );
        let temps = count_stmts(
            &p.body,
            &|s| matches!(s, Stmt::Let { var, .. } if var.as_str().starts_with("__t")),
        );
        assert_eq!(temps, 1, "{p:?}");
    }
}
