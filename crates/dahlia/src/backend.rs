//! Calyx code generation from lowered Dahlia (paper §6.2).
//!
//! The mapping is one-to-one, exactly as the paper describes: every memory
//! and variable assignment generates a group representing the update;
//! ordered composition becomes `seq`; unordered composition becomes `par`;
//! loops and conditionals map to `while` and `if` with combinational
//! condition groups. Groups with fixed latency carry `"static"`
//! annotations (register/memory writes are 1 cycle, multiplier/divider
//! chains are 5); `sqrt` groups have data-dependent latency and are left
//! un-annotated, exercising the compiler's mixed latency-(in)sensitive
//! compilation.

use crate::ast::{BinOp, Block, Expr, MemDecl, Program, Stmt};
use crate::check::{expr_width, Env};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::{attr, Atom, Builder, Context, Control, GuardId, Id, PortRef};
use calyx_core::utils::bits_needed;
use rustc_hash::FxHashMap;

/// The physical memory cells implementing a (possibly banked) declaration,
/// in bank order, together with the per-bank dimension sizes.
pub fn memory_banks(decl: &MemDecl) -> Vec<(String, Vec<u64>)> {
    if !decl.is_banked() {
        return vec![(
            decl.name.to_string(),
            decl.dims.iter().map(|(s, _)| *s).collect(),
        )];
    }
    let (dim, (_, banks)) = decl
        .dims
        .iter()
        .enumerate()
        .find(|(_, (_, b))| *b > 1)
        .map(|(d, sb)| (d, *sb))
        .expect("banked");
    (0..banks)
        .map(|j| {
            let dims: Vec<u64> = decl
                .dims
                .iter()
                .enumerate()
                .map(|(d, (s, _))| if d == dim { s / banks } else { *s })
                .collect();
            (format!("{}_b{j}", decl.name), dims)
        })
        .collect()
}

/// Split row-major logical contents into per-bank contents (cyclic layout
/// on the banked dimension). Inverse of [`join_banks`].
pub fn split_banks(decl: &MemDecl, data: &[u64]) -> Vec<Vec<u64>> {
    let banks = decl.bank_count();
    if banks == 1 {
        return vec![data.to_vec()];
    }
    let (dim, (_, b)) = decl
        .dims
        .iter()
        .enumerate()
        .find(|(_, (_, b))| *b > 1)
        .map(|(d, sb)| (d, *sb))
        .expect("banked");
    let sizes: Vec<u64> = decl.dims.iter().map(|(s, _)| *s).collect();
    let mut out = vec![Vec::new(); b as usize];
    let mut idx = vec![0u64; sizes.len()];
    for &v in data {
        let bank = (idx[dim] % b) as usize;
        out[bank].push(v);
        // Row-major increment.
        for d in (0..sizes.len()).rev() {
            idx[d] += 1;
            if idx[d] < sizes[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

/// Reassemble per-bank contents into the logical row-major order.
pub fn join_banks(decl: &MemDecl, banks_data: &[Vec<u64>]) -> Vec<u64> {
    let banks = decl.bank_count();
    if banks == 1 {
        return banks_data[0].clone();
    }
    let (dim, (_, b)) = decl
        .dims
        .iter()
        .enumerate()
        .find(|(_, (_, b))| *b > 1)
        .map(|(d, sb)| (d, *sb))
        .expect("banked");
    let sizes: Vec<u64> = decl.dims.iter().map(|(s, _)| *s).collect();
    let total: u64 = sizes.iter().product();
    let mut cursors = vec![0usize; b as usize];
    let mut out = Vec::with_capacity(total as usize);
    let mut idx = vec![0u64; sizes.len()];
    for _ in 0..total {
        let bank = (idx[dim] % b) as usize;
        out.push(banks_data[bank][cursors[bank]]);
        cursors[bank] += 1;
        for d in (0..sizes.len()).rev() {
            idx[d] += 1;
            if idx[d] < sizes[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

/// Emit a lowered program as a Calyx context with a `main` component.
///
/// # Errors
///
/// Returns [`Error::Malformed`] on constructs lowering should have removed.
pub fn emit(p: &Program) -> CalyxResult<Context> {
    let mut ctx = Context::new();
    let mut main = ctx.new_component("main");
    let control = {
        let mut b = Builder::new(&mut main, &ctx);
        let mut em = Emitter {
            env: Env::from_program(p),
            mem_cells: FxHashMap::default(),
            counter: 0,
        };
        // Materialize physical memories.
        for decl in &p.decls {
            let banks = memory_banks(decl);
            for (i, (name, dims)) in banks.iter().enumerate() {
                let mut params = vec![u64::from(decl.width)];
                params.extend(dims.iter().copied());
                params.extend(dims.iter().map(|&s| u64::from(addr_width(s))));
                let prim = match dims.len() {
                    1 => "std_mem_d1",
                    2 => "std_mem_d2",
                    3 => "std_mem_d3",
                    n => {
                        return Err(Error::malformed(format!(
                            "{n}-dimensional memories are not supported"
                        )))
                    }
                };
                let cell = b.add_primitive(name, prim, &params);
                b.set_cell_attribute(cell, attr::EXTERNAL, 1);
                let bank = if decl.is_banked() {
                    Some(i as u64)
                } else {
                    None
                };
                em.mem_cells.insert((decl.name, bank), cell);
            }
        }
        em.stmt_control(&mut b, &p.body)?
    };
    main.control = control;
    ctx.add_component(main);
    Ok(ctx)
}

fn addr_width(size: u64) -> u32 {
    bits_needed(size.saturating_sub(1)).max(1)
}

/// Accumulated facts about the group being generated.
#[derive(Default)]
struct GroupCtx {
    /// Done ports of sequential units started in this group.
    unit_dones: Vec<PortRef>,
    /// Whether a data-dependent-latency unit (sqrt) is present.
    has_sqrt: bool,
    /// Memory cells whose address ports this group already drives; lowering
    /// guarantees any further access in the same statement uses identical
    /// indices (same-port sharing), so re-driving is skipped.
    driven_mems: rustc_hash::FxHashSet<Id>,
}

struct Emitter {
    env: Env,
    mem_cells: FxHashMap<(Id, Option<u64>), Id>,
    counter: usize,
}

impl Emitter {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        format!("{prefix}{n}")
    }

    /// The register backing a variable, created on first use.
    fn var_reg(&mut self, b: &mut Builder, var: Id, width: u32) -> Id {
        self.env.vars.insert(var, width);
        if b.component().cells.contains(var) {
            var
        } else {
            b.add_primitive(var.as_str(), Id::STD_REG, &[u64::from(width)])
        }
    }

    fn mem_cell(&self, mem: Id, bank: Option<u64>) -> CalyxResult<Id> {
        self.mem_cells.get(&(mem, bank)).copied().ok_or_else(|| {
            Error::malformed(format!("unresolved memory access `{mem}` (bank {bank:?})"))
        })
    }

    fn stmt_control(&mut self, b: &mut Builder, s: &Stmt) -> CalyxResult<Control> {
        Ok(match s {
            Stmt::Let { var, width, init } => {
                let reg = self.var_reg(b, *var, *width);
                self.write_reg_group(b, reg, *width, init)?
            }
            Stmt::AssignVar { var, rhs } => {
                let width = *self
                    .env
                    .vars
                    .get(var)
                    .ok_or_else(|| Error::malformed(format!("undeclared `{var}`")))?;
                let reg = self.var_reg(b, *var, width);
                self.write_reg_group(b, reg, width, rhs)?
            }
            Stmt::Store {
                mem,
                bank,
                indices,
                rhs,
            } => self.store_group(b, *mem, *bank, indices, rhs)?,
            Stmt::If { cond, then_, else_ } => {
                let (port, cond_group) = self.cond_group(b, cond)?;
                let t = self.block_control(b, then_)?;
                let f = self.block_control(b, else_)?;
                Control::if_(port, Some(cond_group), t, f)
            }
            Stmt::While { cond, body } => {
                let (port, cond_group) = self.cond_group(b, cond)?;
                let body = self.block_control(b, body)?;
                Control::while_(port, Some(cond_group), body)
            }
            Stmt::For {
                var,
                width,
                lo,
                hi,
                unroll,
                body,
            } => {
                if *unroll != 1 {
                    return Err(Error::malformed(
                        "unlowered unrolled loop reached the backend",
                    ));
                }
                if u64::from(bits_needed(*hi)) > u64::from(*width) {
                    return Err(Error::malformed(format!(
                        "loop bound {hi} does not fit in {width}-bit counter `{var}`"
                    )));
                }
                let reg = self.var_reg(b, *var, *width);

                // init: var <- lo
                let init = b.add_static_group(&self.fresh("init"), 1);
                b.asgn_const(init, (reg, Id::IN), *lo, *width);
                b.asgn_const(init, (reg, Id::WRITE_EN), 1, 1);
                b.group_done(init, (reg, Id::DONE));

                // cond: var < hi
                let lt = b.add_primitive(&self.fresh("lt"), Id::STD_LT, &[u64::from(*width)]);
                let cond = b.add_group(&self.fresh("cond"));
                b.asgn(cond, (lt, Id::LEFT), (reg, Id::OUT));
                b.asgn_const(cond, (lt, Id::RIGHT), *hi, *width);
                b.group_done_const(cond, 1);

                // incr: var <- var + 1
                let add =
                    b.add_primitive(&self.fresh("incr_add"), Id::STD_ADD, &[u64::from(*width)]);
                let incr = b.add_static_group(&self.fresh("incr"), 1);
                b.asgn(incr, (add, Id::LEFT), (reg, Id::OUT));
                b.asgn_const(incr, (add, Id::RIGHT), 1, *width);
                b.asgn(incr, (reg, Id::IN), (add, Id::OUT));
                b.asgn_const(incr, (reg, Id::WRITE_EN), 1, 1);
                b.group_done(incr, (reg, Id::DONE));

                let body = self.block_control(b, body)?;
                let loop_body = Control::seq(vec![body, Control::enable(incr)]);
                Control::seq(vec![
                    Control::enable(init),
                    Control::while_(PortRef::cell(lt, Id::OUT), Some(cond), loop_body),
                ])
            }
            Stmt::Seq(ss) => Control::seq(
                ss.iter()
                    .map(|s| self.stmt_control(b, s))
                    .collect::<CalyxResult<Vec<_>>>()?,
            ),
            Stmt::Par(ss) => Control::par(
                ss.iter()
                    .map(|s| self.stmt_control(b, s))
                    .collect::<CalyxResult<Vec<_>>>()?,
            ),
        })
    }

    fn block_control(&mut self, b: &mut Builder, block: &Block) -> CalyxResult<Control> {
        let stmts = block
            .iter()
            .map(|s| self.stmt_control(b, s))
            .collect::<CalyxResult<Vec<_>>>()?;
        Ok(match stmts.len() {
            0 => Control::Empty,
            1 => stmts.into_iter().next().expect("length checked"),
            _ => Control::seq(stmts),
        })
    }

    /// Group computing `reg <- rhs`.
    fn write_reg_group(
        &mut self,
        b: &mut Builder,
        reg: Id,
        width: u32,
        rhs: &Expr,
    ) -> CalyxResult<Control> {
        let g = b.add_group(&self.fresh("upd"));
        let mut gctx = GroupCtx::default();
        let (atom, aw) = self.compile_expr(b, g, rhs, width, &mut gctx)?;
        let atom = adapt(b, g, self, atom, aw, width);
        drive(b, g, PortRef::cell(reg, Id::IN), atom);
        self.finish_write(
            b,
            g,
            PortRef::cell(reg, Id::WRITE_EN),
            PortRef::cell(reg, Id::DONE),
            &gctx,
        );
        Ok(Control::enable(g))
    }

    /// Group computing `mem[indices] <- rhs`.
    fn store_group(
        &mut self,
        b: &mut Builder,
        mem: Id,
        bank: Option<u64>,
        indices: &[Expr],
        rhs: &Expr,
    ) -> CalyxResult<Control> {
        let decl = self
            .env
            .mems
            .get(&mem)
            .cloned()
            .ok_or_else(|| Error::malformed(format!("undeclared memory `{mem}`")))?;
        let cell = self.mem_cell(mem, bank)?;
        let g = b.add_group(&self.fresh("st"));
        let mut gctx = GroupCtx::default();
        self.drive_addresses(b, g, cell, &decl, bank, indices, &mut gctx)?;
        let (atom, aw) = self.compile_expr(b, g, rhs, decl.width, &mut gctx)?;
        let atom = adapt(b, g, self, atom, aw, decl.width);
        match atom {
            Atom::Port(p) => b.asgn(g, PortRef::cell(cell, Id::WRITE_DATA), p),
            Atom::Const { val, width } => {
                b.asgn_const(g, PortRef::cell(cell, Id::WRITE_DATA), val, width)
            }
        }
        self.finish_write(
            b,
            g,
            PortRef::cell(cell, Id::WRITE_EN),
            PortRef::cell(cell, Id::DONE),
            &gctx,
        );
        Ok(Control::enable(g))
    }

    /// Wire the write-enable and done for a group, annotating its latency.
    fn finish_write(
        &mut self,
        b: &mut Builder,
        g: Id,
        write_en: PortRef,
        done: PortRef,
        gctx: &GroupCtx,
    ) {
        if gctx.unit_dones.is_empty() {
            b.asgn_const(g, write_en, 1, 1);
            b.set_group_attribute(g, attr::STATIC, 1);
        } else {
            let guards = b.guards();
            let guard = gctx.unit_dones.iter().fold(GuardId::TRUE, |all, done| {
                let one = guards.port(*done);
                guards.and(all, one)
            });
            b.asgn_const_guarded(g, write_en, 1, 1, guard);
            if !gctx.has_sqrt {
                // Units start together and take 4 cycles; the write adds 1.
                b.set_group_attribute(g, attr::STATIC, 5);
            }
        }
        b.group_done(g, done);
    }

    /// Condition group: a combinational computation of a 1-bit port.
    fn cond_group(&mut self, b: &mut Builder, cond: &Expr) -> CalyxResult<(PortRef, Id)> {
        let g = b.add_group(&self.fresh("cond"));
        let mut gctx = GroupCtx::default();
        let (atom, w) = self.compile_expr(b, g, cond, 1, &mut gctx)?;
        if !gctx.unit_dones.is_empty() {
            return Err(Error::malformed("conditions must be combinational"));
        }
        let port = match atom {
            Atom::Port(p) if w == 1 => p,
            Atom::Port(_) => return Err(Error::malformed("conditions must be 1 bit wide")),
            Atom::Const { val, .. } => {
                // Materialize constant conditions through a wire.
                let wire = b.add_primitive(&self.fresh("cw"), Id::STD_WIRE, &[1]);
                b.asgn_const(g, (wire, Id::IN), val, 1);
                PortRef::cell(wire, Id::OUT)
            }
        };
        b.group_done_const(g, 1);
        Ok((port, g))
    }

    #[allow(clippy::too_many_arguments)]
    fn drive_addresses(
        &mut self,
        b: &mut Builder,
        g: Id,
        cell: Id,
        decl: &MemDecl,
        bank: Option<u64>,
        indices: &[Expr],
        gctx: &mut GroupCtx,
    ) -> CalyxResult<()> {
        if !gctx.driven_mems.insert(cell) {
            return Ok(());
        }
        let sizes: Vec<u64> = memory_banks(decl)
            .into_iter()
            .nth(bank.unwrap_or(0) as usize)
            .map(|(_, dims)| dims)
            .ok_or_else(|| {
                Error::malformed(format!("bank {bank:?} out of range for `{}`", decl.name))
            })?;
        for (d, idx) in indices.iter().enumerate() {
            let aw = addr_width(sizes[d]);
            let (atom, w) = self.compile_expr(b, g, idx, aw, gctx)?;
            let atom = adapt(b, g, self, atom, w, aw);
            let port = PortRef::cell(cell, format!("addr{d}").as_str());
            match atom {
                Atom::Port(p) => b.asgn(g, port, p),
                Atom::Const { val, width } => b.asgn_const(g, port, val, width),
            }
        }
        Ok(())
    }

    /// Compile an expression into cells and in-group assignments; returns
    /// the atom carrying the value and its width.
    fn compile_expr(
        &mut self,
        b: &mut Builder,
        g: Id,
        e: &Expr,
        expected: u32,
        gctx: &mut GroupCtx,
    ) -> CalyxResult<(Atom, u32)> {
        Ok(match e {
            Expr::Num(n) => (Atom::constant(*n, expected), expected),
            Expr::Var(v) => {
                let w = *self
                    .env
                    .vars
                    .get(v)
                    .ok_or_else(|| Error::malformed(format!("undeclared `{v}`")))?;
                (Atom::Port(PortRef::cell(*v, Id::OUT)), w)
            }
            Expr::ReadMem { mem, bank, indices } => {
                let decl = self
                    .env
                    .mems
                    .get(mem)
                    .cloned()
                    .ok_or_else(|| Error::malformed(format!("undeclared memory `{mem}`")))?;
                let cell = self.mem_cell(*mem, *bank)?;
                self.drive_addresses(b, g, cell, &decl, *bank, indices, gctx)?;
                (Atom::Port(PortRef::cell(cell, Id::READ_DATA)), decl.width)
            }
            Expr::Binop { op, lhs, rhs } => {
                let w = expr_width(e, &self.env)?.unwrap_or(expected);
                let opw = if op.is_comparison() {
                    expr_width(lhs, &self.env)?
                        .or(expr_width(rhs, &self.env)?)
                        .unwrap_or(expected)
                } else {
                    w
                };
                let (la, lw) = self.compile_expr(b, g, lhs, opw, gctx)?;
                let (ra, rw) = self.compile_expr(b, g, rhs, opw, gctx)?;
                let la = adapt(b, g, self, la, lw, opw);
                let ra = adapt(b, g, self, ra, rw, opw);
                match op {
                    BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        let (prim, out_port) = match op {
                            BinOp::Mul => (Id::STD_MULT_PIPE, Id::OUT),
                            BinOp::Div => (Id::STD_DIV_PIPE, Id::OUT_QUOTIENT),
                            _ => (Id::STD_DIV_PIPE, Id::OUT_REMAINDER),
                        };
                        let unit = b.add_primitive(&self.fresh("unit"), prim, &[u64::from(opw)]);
                        drive(b, g, PortRef::cell(unit, Id::LEFT), la);
                        drive(b, g, PortRef::cell(unit, Id::RIGHT), ra);
                        let done = PortRef::cell(unit, Id::DONE);
                        let running = not_done(b, done);
                        b.asgn_const_guarded(g, (unit, Id::GO), 1, 1, running);
                        gctx.unit_dones.push(done);
                        (Atom::Port(PortRef::cell(unit, out_port)), opw)
                    }
                    _ => {
                        let prim = comb_prim(*op);
                        let cell = b.add_primitive(&self.fresh("op"), prim, &[u64::from(opw)]);
                        drive(b, g, PortRef::cell(cell, Id::LEFT), la);
                        drive(b, g, PortRef::cell(cell, Id::RIGHT), ra);
                        let out_w = if op.is_comparison() { 1 } else { opw };
                        (Atom::Port(PortRef::cell(cell, Id::OUT)), out_w)
                    }
                }
            }
            Expr::Sqrt(inner) => {
                let (ia, iw) = self.compile_expr(b, g, inner, expected, gctx)?;
                let unit = b.add_primitive(&self.fresh("sqrt"), Id::STD_SQRT, &[u64::from(iw)]);
                drive(b, g, PortRef::cell(unit, Id::IN), ia);
                let done = PortRef::cell(unit, Id::DONE);
                let running = not_done(b, done);
                b.asgn_const_guarded(g, (unit, Id::GO), 1, 1, running);
                gctx.unit_dones.push(done);
                gctx.has_sqrt = true;
                (Atom::Port(PortRef::cell(unit, Id::OUT)), iw)
            }
        })
    }
}

fn comb_prim(op: BinOp) -> Id {
    match op {
        BinOp::Add => Id::STD_ADD,
        BinOp::Sub => Id::STD_SUB,
        BinOp::And => Id::STD_AND,
        BinOp::Or => Id::STD_OR,
        BinOp::Xor => Id::STD_XOR,
        BinOp::Shl => Id::STD_LSH,
        BinOp::Shr => Id::STD_RSH,
        BinOp::Lt => Id::STD_LT,
        BinOp::Gt => Id::STD_GT,
        BinOp::Eq => Id::STD_EQ,
        BinOp::Neq => Id::STD_NEQ,
        BinOp::Ge => Id::STD_GE,
        BinOp::Le => Id::STD_LE,
        BinOp::Mul | BinOp::Div | BinOp::Rem => unreachable!("sequential ops handled separately"),
    }
}

fn drive(b: &mut Builder, g: Id, dst: PortRef, atom: Atom) {
    match atom {
        Atom::Port(p) => b.asgn(g, dst, p),
        Atom::Const { val, width } => b.asgn_const(g, dst, val, width),
    }
}

/// `!done`: holds a pipelined unit's `go` until the unit finishes.
fn not_done(b: &mut Builder, done: PortRef) -> GuardId {
    let done = b.guards().port(done);
    b.guards().not(done)
}

/// Width adaptation: slice down or zero-pad up through adapter cells.
fn adapt(b: &mut Builder, g: Id, em: &mut Emitter, atom: Atom, from: u32, to: u32) -> Atom {
    if from == to {
        return atom;
    }
    match atom {
        Atom::Const { val, .. } => Atom::constant(val, to),
        Atom::Port(p) => {
            let prim = if from > to { "std_slice" } else { "std_pad" };
            let cell = b.add_primitive(&em.fresh("adapt"), prim, &[u64::from(from), u64::from(to)]);
            b.asgn(g, PortRef::cell(cell, Id::IN), p);
            Atom::Port(PortRef::cell(cell, Id::OUT))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use calyx_core::ir::validate;
    use calyx_core::passes::PassManager;
    use calyx_sim::rtl::Simulator;

    fn run(src: &str, init: &[(&str, Vec<u64>)]) -> Simulator {
        let mut ctx = compile(src).unwrap();
        validate::validate_context(&ctx).expect("emitted Calyx is well-formed");
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        let mut sim = Simulator::new(&ctx, "main").unwrap();
        for (mem, data) in init {
            sim.set_memory(*mem, data).unwrap();
        }
        sim.run(2_000_000).unwrap();
        sim
    }

    #[test]
    fn paper_example_compiles_to_if() {
        // §6.2's exact example.
        let src = "
            let x: ubit<32> = 0;
            ---
            if (x > 10) { x := 1; } else { x := 2; }
        ";
        let sim = run(src, &[]);
        assert_eq!(sim.register_value("x").unwrap(), 2);
    }

    #[test]
    fn for_loop_accumulates() {
        let src = "
            decl a: ubit<32>[8];
            decl out: ubit<32>[1];
            let acc: ubit<32> = 0;
            ---
            for (let i: ubit<4> = 0..8) {
              acc := acc + a[i];
            }
            ---
            out[0] := acc;
        ";
        let a: Vec<u64> = (1..=8).collect();
        let sim = run(src, &[("a", a)]);
        assert_eq!(sim.memory("out").unwrap(), vec![36]);
    }

    #[test]
    fn multiplication_uses_pipelined_unit() {
        let src = "
            decl out: ubit<32>[1];
            let x: ubit<32> = 6;
            ---
            let y: ubit<32> = x * 7;
            ---
            out[0] := y;
        ";
        let sim = run(src, &[]);
        assert_eq!(sim.memory("out").unwrap(), vec![42]);
    }

    #[test]
    fn division_and_remainder() {
        let src = "
            decl out: ubit<32>[2];
            let x: ubit<32> = 17;
            ---
            let q: ubit<32> = x / 5;
            ---
            let r: ubit<32> = x % 5;
            ---
            out[0] := q;
            ---
            out[1] := r;
        ";
        let sim = run(src, &[]);
        assert_eq!(sim.memory("out").unwrap(), vec![3, 2]);
    }

    #[test]
    fn sqrt_is_dynamic_but_correct() {
        let src = "
            decl out: ubit<32>[1];
            let x: ubit<32> = 144;
            ---
            let y: ubit<32> = sqrt(x);
            ---
            out[0] := y;
        ";
        let sim = run(src, &[]);
        assert_eq!(sim.memory("out").unwrap(), vec![12]);
    }

    #[test]
    fn unrolled_loop_with_banked_memory() {
        let src = "
            decl a: ubit<32>[8 bank 2];
            decl b: ubit<32>[8 bank 2];
            for (let i: ubit<4> = 0..8) unroll 2 {
              b[i] := a[i] + 1;
            }
        ";
        let decl = MemDecl {
            name: Id::new("a"),
            width: 32,
            dims: vec![(8, 2)],
        };
        let data: Vec<u64> = (0..8).collect();
        let banks = split_banks(&decl, &data);
        let mut ctx = compile(src).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        let mut sim = Simulator::new(&ctx, "main").unwrap();
        sim.set_memory("a_b0", &banks[0]).unwrap();
        sim.set_memory("a_b1", &banks[1]).unwrap();
        sim.run(1_000_000).unwrap();
        let out = join_banks(
            &decl,
            &[sim.memory("b_b0").unwrap(), sim.memory("b_b1").unwrap()],
        );
        assert_eq!(out, (1..=8).collect::<Vec<u64>>());
    }

    #[test]
    fn while_with_memory_condition() {
        let src = "
            decl out: ubit<32>[1];
            let i: ubit<32> = 0;
            ---
            while (i < 5) {
              i := i + 1;
            }
            ---
            out[0] := i;
        ";
        let sim = run(src, &[]);
        assert_eq!(sim.memory("out").unwrap(), vec![5]);
    }

    #[test]
    fn groups_carry_static_annotations() {
        let ctx = compile("let x: ubit<32> = 0; --- let y: ubit<32> = x * 2;").unwrap();
        let main = ctx.component("main").unwrap();
        let static_counts: Vec<u64> = main
            .groups
            .iter()
            .filter_map(|g| g.static_latency())
            .collect();
        assert!(static_counts.contains(&1), "register write is static 1");
        assert!(static_counts.contains(&5), "multiply chain is static 5");
    }

    #[test]
    fn bank_split_and_join_roundtrip() {
        let decl = MemDecl {
            name: Id::new("a"),
            width: 32,
            dims: vec![(4, 2), (3, 1)],
        };
        let data: Vec<u64> = (0..12).collect();
        let banks = split_banks(&decl, &data);
        assert_eq!(banks[0], vec![0, 1, 2, 6, 7, 8]); // rows 0 and 2
        assert_eq!(banks[1], vec![3, 4, 5, 9, 10, 11]); // rows 1 and 3
        assert_eq!(join_banks(&decl, &banks), data);
    }
}
