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

fn unroll_stmt(s: Stmt, env: &Env) -> CalyxResult<Stmt> {
    match s {
        // The value resolves before the address.
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
            let (bank, indices) = resolve_access(mem, bank, indices, env, None)?;
            Ok(Stmt::Store {
                mem,
                bank,
                indices,
                rhs,
            })
        }
        Stmt::For {
            var,
            width,
            lo,
            hi,
            unroll,
            body,
        } if unroll > 1 => {
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
                    let lane = Lane {
                        var,
                        lane,
                        unroll,
                        renames: lane_renames(&body, lane),
                        env,
                    };
                    let mut lane_body = body
                        .iter()
                        .map(|s| lane.stmt(s.clone()))
                        .collect::<CalyxResult<Vec<_>>>()?;
                    Ok(match lane_body.len() {
                        1 => lane_body.pop().expect("length checked"),
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
            )
        }
        s => s.try_map(|e| resolve_const_banks(e, env), |s| unroll_stmt(s, env)),
    }
}

/// Names `let`-bound inside an unrolled body, renamed per lane so parallel
/// lanes do not race on their temporaries.
fn lane_renames(body: &Block, lane: u64) -> FxHashMap<Id, Id> {
    let mut map = FxHashMap::default();
    for s in body {
        s.walk(&mut |s| {
            if let Stmt::Let { var, .. } = s {
                map.insert(*var, Id::new(format!("{var}__l{lane}")));
            }
        });
    }
    map
}

/// Lane `lane` of a loop over `var` unrolled `unroll` times, with the
/// lane's renamed `let`s.
struct Lane<'a> {
    var: Id,
    lane: u64,
    unroll: u64,
    renames: FxHashMap<Id, Id>,
    env: &'a Env,
}

impl Lane<'_> {
    fn rename(&self, v: Id) -> Id {
        self.renames.get(&v).copied().unwrap_or(v)
    }

    /// Rewrite a statement of the lane: rename local lets, resolve banked
    /// accesses through the unrolled variable, and reject unresolvable
    /// uses of it.
    fn stmt(&self, s: Stmt) -> CalyxResult<Stmt> {
        Ok(match s {
            Stmt::Let { var, width, init } => Stmt::Let {
                var: self.rename(var),
                width,
                init: self.expr(init)?,
            },
            Stmt::AssignVar { var, rhs } => Stmt::AssignVar {
                var: self.rename(var),
                rhs: self.expr(rhs)?,
            },
            // The value resolves before the address.
            Stmt::Store {
                mem,
                bank,
                indices,
                rhs,
            } => {
                let rhs = self.expr(rhs)?;
                let indices = self.indices(indices)?;
                let (bank, indices) = resolve_access(mem, bank, indices, self.env, Some(self))?;
                Stmt::Store {
                    mem,
                    bank,
                    indices,
                    rhs,
                }
            }
            s => s.try_map(|e| self.expr(e), |s| self.stmt(s))?,
        })
    }

    /// Indices may use the unrolled variable directly (it selects the
    /// bank); everything else substitutes like any expression.
    fn indices(&self, indices: Vec<Expr>) -> CalyxResult<Vec<Expr>> {
        let index = |i: Expr| match i {
            Expr::Var(v) if v == self.var => Ok(i),
            i => self.expr(i),
        };
        indices.into_iter().map(index).collect()
    }

    fn expr(&self, e: Expr) -> CalyxResult<Expr> {
        Ok(match e {
            Expr::Var(v) if v == self.var => {
                // A bare use of the unrolled variable outside a banked index
                // cannot be realized without lane arithmetic; Dahlia's type
                // system rejects these programs too.
                return Err(Error::malformed(format!(
                    "unrolled loop variable `{v}` may only index memories banked by the unroll factor"
                )));
            }
            Expr::Var(v) => Expr::Var(self.rename(v)),
            Expr::ReadMem { mem, bank, indices } => {
                // Inner indices substitute first (they may use renamed lets).
                let indices = self.indices(indices)?;
                let (bank, indices) = resolve_access(mem, bank, indices, self.env, Some(self))?;
                Expr::ReadMem { mem, bank, indices }
            }
            e => e.try_map(|e| self.expr(e))?,
        })
    }
}

/// Resolve a memory access to a physical bank, unless `bank` already is.
///
/// `lane` is the unrolled lane the access is in, if any: an index that
/// *is* the unrolled variable on a dimension banked by the unroll factor
/// selects bank `lane` (cyclic layout: logical `n·u+lane` is bank `lane`,
/// offset `n`, and the base counter already runs over `n`). Constant
/// indices on banked dimensions resolve to `c mod B` / `c div B`.
fn resolve_access(
    mem: Id,
    bank: Option<u64>,
    mut indices: Vec<Expr>,
    env: &Env,
    lane: Option<&Lane>,
) -> CalyxResult<(Option<u64>, Vec<Expr>)> {
    if bank.is_some() {
        return Ok((bank, indices));
    }
    let Some(decl) = env.mems.get(&mem) else {
        return Err(Error::malformed(format!("undeclared memory `{mem}`")));
    };
    let is_var = |i: &Expr| lane.is_some_and(|l| matches!(i, Expr::Var(v) if *v == l.var));
    if !decl.is_banked() {
        if let Some(l) = lane.filter(|_| indices.iter().any(is_var)) {
            return Err(Error::malformed(format!(
                "memory `{mem}` is unbanked but indexed by unrolled variable `{}`; \
                 bank it by the unroll factor or hoist the access",
                l.var
            )));
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
    match (&indices[dim], lane) {
        (i, Some(l)) if is_var(i) => {
            if banks != l.unroll {
                return Err(Error::malformed(format!(
                    "memory `{mem}` is banked by {banks} but the loop unrolls by {}",
                    l.unroll
                )));
            }
            // Address within the bank is the base counter, i.e. the loop
            // variable itself after unrolling.
            Ok((Some(l.lane), indices))
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
    match e.try_map(|e| resolve_const_banks(e, env))? {
        Expr::ReadMem { mem, bank, indices } => {
            let (bank, indices) = resolve_access(mem, bank, indices, env, None)?;
            Ok(Expr::ReadMem { mem, bank, indices })
        }
        e => Ok(e),
    }
}

// ---------------------------------------------------------------------------
// Phase 2: three-address splitting
// ---------------------------------------------------------------------------

fn fresh_temp(fresh: &mut usize) -> Id {
    let id = Id::new(format!("__t{fresh}"));
    *fresh += 1;
    id
}

fn split_stmt(s: Stmt, env: &mut Env, fresh: &mut usize) -> CalyxResult<Stmt> {
    let mut pre = Vec::new();
    let last = match s {
        Stmt::Let { var, width, init } => {
            env.vars.insert(var, width);
            let init = simplify_rhs(init, width, env, fresh, &mut pre)?;
            Stmt::Let { var, width, init }
        }
        Stmt::AssignVar { var, rhs } => {
            let width = env.vars.get(&var).copied().unwrap_or(32);
            let rhs = simplify_rhs(rhs, width, env, fresh, &mut pre)?;
            Stmt::AssignVar { var, rhs }
        }
        Stmt::Store {
            mem,
            bank,
            indices,
            rhs,
        } => {
            let width = env.mems.get(&mem).map(|d| d.width).unwrap_or(32);
            let rhs = simplify_rhs(rhs, width, env, fresh, &mut pre)?;
            // Deduplicate memory reads against the store's own port use,
            // which claims the port first.
            let mut claimed = FxHashMap::default();
            let indices = indices
                .into_iter()
                .map(|i| dedup_reads(i, &mut claimed, env, fresh, &mut pre))
                .collect::<CalyxResult<Vec<_>>>()?;
            claimed.insert((mem, bank), indices.clone());
            let rhs = dedup_reads(rhs, &mut claimed, env, fresh, &mut pre)?;
            Stmt::Store {
                mem,
                bank,
                indices,
                rhs,
            }
        }
        s => {
            if let Stmt::For { var, width, .. } = s {
                env.vars.insert(var, width);
            }
            return s.try_map(Ok, |s| split_stmt(s, env, fresh));
        }
    };
    Ok(finish(pre, last))
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
    dedup_reads(e, &mut FxHashMap::default(), env, fresh, pre)
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

/// The address each physical memory `(mem, bank)` is read or written at
/// by the statement being split.
type Claimed = FxHashMap<(Id, Option<u64>), Vec<Expr>>;

/// Within one simple statement, each physical memory may be addressed once.
/// The first access (a store's own access wins) keeps the port; further
/// accesses with different indices are hoisted into preceding temporaries.
fn dedup_reads(
    e: Expr,
    claimed: &mut Claimed,
    env: &mut Env,
    fresh: &mut usize,
    pre: &mut Vec<Stmt>,
) -> CalyxResult<Expr> {
    // Indices first: an inner read claims its port before the outer one.
    let e = e.try_map(|e| dedup_reads(e, claimed, env, fresh, pre))?;
    let Expr::ReadMem { mem, bank, indices } = e else {
        return Ok(e);
    };
    match claimed.get(&(mem, bank)) {
        Some(prev) if *prev == indices => Ok(Expr::ReadMem { mem, bank, indices }),
        // Port already used at a different address: hoist.
        Some(_) => {
            let width = env.mems.get(&mem).map(|d| d.width).unwrap_or(32);
            let t = fresh_temp(fresh);
            env.vars.insert(t, width);
            pre.push(Stmt::Let {
                var: t,
                width,
                init: Expr::ReadMem { mem, bank, indices },
            });
            Ok(Expr::Var(t))
        }
        None => {
            claimed.insert((mem, bank), indices.clone());
            Ok(Expr::ReadMem { mem, bank, indices })
        }
    }
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
        let mut n = 0;
        s.walk(&mut |s| n += usize::from(pred(s)));
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
        let mut max_seq = 0;
        p.body.walk(&mut |s| {
            for e in s.exprs() {
                max_seq = max_seq.max(e.sequential_ops());
            }
        });
        assert!(max_seq <= 1);
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
