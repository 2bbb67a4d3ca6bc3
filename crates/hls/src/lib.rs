//! An HLS scheduling and resource model standing in for Vivado HLS.
//!
//! The paper's baseline is a commercial C-to-RTL compiler. This crate
//! models the parts of its behavior that determine the evaluation's
//! comparisons (DESIGN.md §2): operator *chaining* within a clock period,
//! innermost-loop *pipelining* with an initiation interval (II) limited by
//! memory-port contention and loop-carried recurrences, and *unit
//! allocation* priced with the same technology table as the Calyx backend's
//! area model.
//!
//! It consumes the *lowered Dahlia AST* — the same program the Calyx
//! backend compiles — so both toolchains see identical workloads:
//!
//! - a straight-line block is scheduled as a dependency DAG; statement
//!   latencies are `1` per memory read (synchronous BRAM), `3` per multiply
//!   (pipelined DSP), `8` per divide, `16` per square root, `1` per store,
//!   and `0` for chained combinational arithmetic;
//! - an innermost `for` loop runs `depth + II·(trips−1) + 2` cycles, where
//!   `II = max(1, port pressure, recurrence)`: each memory provides two
//!   ports per cycle, and a loop-carried value produced by a multi-cycle
//!   unit stretches the II to that unit's latency;
//! - outer loops multiply; `if` takes the worst branch (predication);
//!   unordered composition overlaps (dataflow).
//!
//! Like any model, absolute cycle counts are approximate; the quantities
//! the paper plots — ratios between this baseline and the simulated Calyx
//! designs — depend only on the model being applied consistently.

use calyx_backend::area::{primitive_area, Area};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::Id;
use calyx_dahlia::ast::{BinOp, Expr, Program, Stmt};
use calyx_dahlia::backend::memory_banks;
use std::collections::{BTreeMap, BTreeSet};

/// Latency of a pipelined multiplier.
const L_MULT: u64 = 3;
/// Latency of a pipelined divider.
const L_DIV: u64 = 8;
/// Latency of the square-root unit.
const L_SQRT: u64 = 16;
/// Fixed control overhead per loop (counter increment + exit test).
const LOOP_OVERHEAD: u64 = 2;

/// The modeled synthesis report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HlsReport {
    /// Estimated execution cycles.
    pub cycles: u64,
    /// Estimated resource usage (same technology table as `calyx-backend`).
    pub area: Area,
}

/// Model a lowered Dahlia program.
///
/// # Errors
///
/// Returns [`Error::Malformed`] for `while` loops (the PolyBench kernels
/// use only statically-bounded `for` loops, which is also what the real
/// tool needs for a static latency report).
pub fn estimate(program: &Program) -> CalyxResult<HlsReport> {
    let mut units = UnitDemand::default();
    let cycles = stmt_cycles(&program.body, &mut units)?;

    // Memories: identical pricing to the Calyx backend.
    let mut area = Area::default();
    for decl in &program.decls {
        for (_, dims) in memory_banks(decl) {
            let mut params = vec![u64::from(decl.width)];
            params.extend(dims.iter().copied());
            params.extend(dims.iter().map(|&s| u64::from(addr_bits(s))));
            let prim = match dims.len() {
                1 => "std_mem_d1",
                2 => "std_mem_d2",
                _ => "std_mem_d3",
            };
            area = area + primitive_area(prim, &params);
        }
    }

    // Functional units: the widest simultaneous demand of any pipelined
    // loop body (II = 1 requires dedicated units), priced like primitives.
    let w = 32u64;
    for _ in 0..units.mults {
        area = area + primitive_area("std_mult_pipe", &[w]);
    }
    for _ in 0..units.divs {
        area = area + primitive_area("std_div_pipe", &[w]);
    }
    for _ in 0..units.sqrts {
        area = area + primitive_area("std_sqrt", &[w]);
    }
    for _ in 0..units.adders {
        area = area + primitive_area("std_add", &[w]);
    }
    for _ in 0..units.comparators {
        area = area + primitive_area("std_lt", &[w]);
    }

    // Loop control and pipeline registers.
    area.luts += units.loops * 16 + units.pipelined_loops * 50;
    area.ffs += units.loops * 8 + units.max_depth * 32;

    Ok(HlsReport { cycles, area })
}

fn addr_bits(size: u64) -> u32 {
    calyx_core::utils::bits_needed(size.saturating_sub(1)).max(1)
}

/// Peak functional-unit demand across the program.
#[derive(Debug, Default)]
struct UnitDemand {
    mults: u64,
    divs: u64,
    sqrts: u64,
    adders: u64,
    comparators: u64,
    loops: u64,
    pipelined_loops: u64,
    max_depth: u64,
}

impl UnitDemand {
    fn take_max(&mut self, other: &UnitDemand) {
        self.mults = self.mults.max(other.mults);
        self.divs = self.divs.max(other.divs);
        self.sqrts = self.sqrts.max(other.sqrts);
        self.adders = self.adders.max(other.adders);
        self.comparators = self.comparators.max(other.comparators);
    }
}

/// Is this statement (transitively) loop-free?
fn is_straight_line(s: &Stmt) -> bool {
    let mut loops = false;
    s.walk(&mut |s| loops |= matches!(s, Stmt::While { .. } | Stmt::For { .. }));
    !loops
}

/// The simple statements of straight-line code, in order (conditionals
/// contribute both branches — predication).
fn flatten(stmts: &[Stmt]) -> Vec<&Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        s.walk(&mut |s| {
            if matches!(
                s,
                Stmt::Let { .. } | Stmt::AssignVar { .. } | Stmt::Store { .. }
            ) {
                out.push(s);
            }
        });
    }
    out
}

struct Access {
    reads_vars: BTreeSet<String>,
    writes_vars: BTreeSet<String>,
    mem_ports: BTreeMap<String, u64>,
    unit_latency: u64,
    is_store: bool,
    has_load: bool,
}

/// Record what a simple statement reads, writes and computes.
fn stmt_access(s: &Stmt, units: &mut UnitDemand) -> Access {
    let mut acc = Access {
        reads_vars: BTreeSet::new(),
        writes_vars: BTreeSet::new(),
        mem_ports: BTreeMap::new(),
        unit_latency: 0,
        is_store: false,
        has_load: false,
    };
    let port = |mem: &Id, bank: &Option<u64>| match bank {
        Some(b) => format!("{mem}#{b}"),
        None => mem.to_string(),
    };
    match s {
        Stmt::Let { var, .. } | Stmt::AssignVar { var, .. } => {
            acc.writes_vars.insert(var.to_string());
        }
        Stmt::Store { mem, bank, .. } => {
            *acc.mem_ports.entry(port(mem, bank)).or_insert(0) += 1;
            acc.is_store = true;
        }
        _ => unreachable!("simple statements only"),
    }
    for e in s.exprs() {
        e.walk(&mut |e| match e {
            Expr::Num(_) => {}
            Expr::Var(v) => {
                acc.reads_vars.insert(v.to_string());
            }
            Expr::ReadMem { mem, bank, .. } => {
                *acc.mem_ports.entry(port(mem, bank)).or_insert(0) += 1;
                acc.has_load = true;
            }
            Expr::Binop { op, .. } => match op {
                BinOp::Mul => {
                    acc.unit_latency = acc.unit_latency.max(L_MULT);
                    units.mults += 1;
                }
                BinOp::Div | BinOp::Rem => {
                    acc.unit_latency = acc.unit_latency.max(L_DIV);
                    units.divs += 1;
                }
                BinOp::Add | BinOp::Sub => units.adders += 1,
                op if op.is_comparison() => units.comparators += 1,
                _ => units.adders += 1,
            },
            Expr::Sqrt(_) => {
                acc.unit_latency = acc.unit_latency.max(L_SQRT);
                units.sqrts += 1;
            }
        });
    }
    acc
}

fn statement_latency(acc: &Access) -> u64 {
    u64::from(acc.has_load) + acc.unit_latency + u64::from(acc.is_store)
}

/// Schedule a straight-line body: returns `(critical path depth, II)`.
fn schedule_block(stmts: &[&Stmt], units: &mut UnitDemand) -> (u64, u64) {
    let mut body_units = UnitDemand::default();
    let accesses: Vec<Access> = stmts
        .iter()
        .map(|s| stmt_access(s, &mut body_units))
        .collect();
    units.take_max(&body_units);

    // Critical path over RAW variable dependencies (ASAP schedule).
    let mut finish = vec![0u64; stmts.len()];
    for i in 0..stmts.len() {
        let mut start = 0;
        for j in 0..i {
            let depends = accesses[i]
                .reads_vars
                .iter()
                .any(|r| accesses[j].writes_vars.contains(r));
            if depends {
                start = start.max(finish[j]);
            }
        }
        finish[i] = start + statement_latency(&accesses[i]);
    }
    let depth = finish.into_iter().max().unwrap_or(0).max(1);

    // II from memory-port pressure (2 ports per memory per cycle)...
    let mut ports: BTreeMap<String, u64> = BTreeMap::new();
    for acc in &accesses {
        for (mem, n) in &acc.mem_ports {
            *ports.entry(mem.clone()).or_insert(0) += n;
        }
    }
    let port_ii = ports.values().map(|&n| n.div_ceil(2)).max().unwrap_or(1);

    // ...and loop-carried recurrences: a value read and written in the body
    // carries a dependency whose length is the producing statement's
    // latency.
    let mut rec_ii = 1;
    for (i, acc) in accesses.iter().enumerate() {
        let self_dep = acc
            .writes_vars
            .iter()
            .any(|w| accesses.iter().any(|a| a.reads_vars.contains(w)));
        let mem_dep = acc.is_store
            && accesses.iter().enumerate().any(|(j, a)| {
                j != i && a.has_load && a.mem_ports.keys().any(|k| acc.mem_ports.contains_key(k))
            });
        if self_dep || mem_dep {
            rec_ii = rec_ii.max(statement_latency(acc).max(1));
        }
    }

    (depth, port_ii.max(rec_ii))
}

fn stmt_cycles(s: &Stmt, units: &mut UnitDemand) -> CalyxResult<u64> {
    // Unordered statements overlap even when straight-line (dataflow).
    if !matches!(s, Stmt::Par(_)) && is_straight_line(s) {
        let (depth, _) = schedule_block(&flatten(std::slice::from_ref(s)), units);
        return Ok(depth);
    }
    Ok(match s {
        Stmt::If { then_, else_, .. } => {
            let t = block_cycles(then_, units)?;
            1 + t.max(block_cycles(else_, units)?)
        }
        Stmt::While { .. } => {
            return Err(Error::malformed(
                "the HLS model needs static trip counts; use for loops",
            ))
        }
        Stmt::For { lo, hi, body, .. } => {
            units.loops += 1;
            let trips = hi - lo;
            if body.iter().all(is_straight_line) {
                // Pipelined innermost loop.
                units.pipelined_loops += 1;
                let (depth, ii) = schedule_block(&flatten(body), units);
                units.max_depth = units.max_depth.max(depth);
                depth + ii * trips.saturating_sub(1) + LOOP_OVERHEAD
            } else {
                // Outer loop: sequential iterations.
                trips * (block_cycles(body, units)? + 1) + LOOP_OVERHEAD
            }
        }
        Stmt::Seq(ss) => block_cycles(ss, units)?,
        Stmt::Par(ss) => {
            let mut worst = 0;
            for s in ss {
                worst = worst.max(stmt_cycles(s, units)?);
            }
            worst
        }
        Stmt::Let { .. } | Stmt::AssignVar { .. } | Stmt::Store { .. } => {
            unreachable!("a simple statement is straight-line")
        }
    })
}

/// Statements run one after another.
fn block_cycles(stmts: &[Stmt], units: &mut UnitDemand) -> CalyxResult<u64> {
    let mut total = 0;
    for s in stmts {
        total += stmt_cycles(s, units)?;
    }
    Ok(total)
}

/// Convenience: model a PolyBench-style kernel source directly.
///
/// # Errors
///
/// Propagates Dahlia front-end errors and model restrictions.
pub fn estimate_source(src: &str) -> CalyxResult<HlsReport> {
    let (program, _) = calyx_dahlia::compile_with_ast(src)?;
    estimate(&program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> HlsReport {
        estimate_source(src).unwrap()
    }

    fn gemm_src(n: u64) -> String {
        format!(
            "decl a: ubit<32>[{n}][{n}];
             decl b: ubit<32>[{n}][{n}];
             decl c: ubit<32>[{n}][{n}];
             for (let i: ubit<8> = 0..{n}) {{
               for (let j: ubit<8> = 0..{n}) {{
                 for (let k: ubit<8> = 0..{n}) {{
                   let t: ubit<32> = a[i][k] * b[k][j];
                   ---
                   c[i][j] := c[i][j] + t;
                 }}
               }}
             }}"
        )
    }

    #[test]
    fn matmul_pipelines_the_inner_loop() {
        let report = model(&gemm_src(8));
        // The inner loop (8 trips) pipelines: ~depth + II*7 + overhead per
        // (i, j); 64 such loop runs plus outer overhead. Must be far below
        // the fully sequential bound of 64 * 8 * ~6 = 3072.
        assert!(report.cycles < 2500, "{report:?}");
        assert!(report.cycles > 400, "{report:?}");
        assert!(report.area.dsps >= 1);
    }

    #[test]
    fn accumulator_recurrence_does_not_break_ii() {
        let src = "
            decl a: ubit<32>[16];
            let acc: ubit<32> = 0;
            ---
            for (let i: ubit<8> = 0..16) {
              acc := acc + a[i];
            }";
        let report = model(src);
        assert!(report.cycles < 16 * 3, "{report:?}");
    }

    #[test]
    fn division_stretches_the_recurrence() {
        let fast = model(
            "decl a: ubit<32>[16];
             decl b: ubit<32>[16];
             for (let i: ubit<8> = 0..16) {
               b[i] := a[i] + 1;
             }",
        );
        let slow = model(
            "decl a: ubit<32>[16];
             decl b: ubit<32>[16];
             for (let i: ubit<8> = 0..16) {
               b[i] := b[i] / 3;
             }",
        );
        assert!(slow.cycles > fast.cycles, "{slow:?} vs {fast:?}");
    }

    #[test]
    fn outer_loops_multiply() {
        let single = model(
            "decl a: ubit<32>[8];
             for (let i: ubit<8> = 0..8) { a[i] := 1; }",
        );
        let nested = model(
            "decl a: ubit<32>[8];
             for (let o: ubit<8> = 0..4) {
               for (let i: ubit<8> = 0..8) { a[i] := 1; }
             }",
        );
        assert!(
            nested.cycles > 3 * single.cycles,
            "{nested:?} vs {single:?}"
        );
    }

    #[test]
    fn memories_are_priced_like_the_backend() {
        let report = model("decl big: ubit<32>[64][64]; big[0][0] := 1;");
        assert!(report.area.brams > 0);
    }

    #[test]
    fn while_is_rejected() {
        let err = estimate_source(
            "let x: ubit<32> = 0;
             ---
             while (x < 5) { x := x + 1; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("trip counts"), "{err}");
    }

    #[test]
    fn predicated_triangular_loops_model() {
        let report = model(
            "decl l: ubit<32>[8][8];
             decl b: ubit<32>[8];
             decl x: ubit<32>[8];
             let acc: ubit<32> = 0;
             ---
             for (let i: ubit<8> = 0..8) {
               acc := b[i];
               ---
               for (let j: ubit<8> = 0..8) {
                 if (j < i) {
                   let t: ubit<32> = l[i][j] * x[j];
                   ---
                   acc := acc - t;
                 }
               }
               ---
               let lii: ubit<32> = l[i][i];
               ---
               x[i] := acc / lii;
             }",
        );
        assert!(report.cycles > 0);
        assert!(report.area.luts > 0);
    }
}
