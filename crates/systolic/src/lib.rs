//! A PE-parametric systolic array generator targeting Calyx (paper §6.1).
//!
//! Generates matrix-multiply systolic arrays of arbitrary dimensions: data
//! streams left-to-right and top-to-bottom through a grid of processing
//! elements (PEs) while each PE multiply-accumulates. The generator emits
//!
//! - a **PE component** (a multiply–accumulate unit by default; callers can
//!   substitute their own component with the same interface),
//! - **data-movement groups**: feeders that read the input memories into
//!   the edge registers and shift groups that move values along the fabric,
//! - **compute groups** that activate PEs through the go/done calling
//!   convention,
//! - the **wavefront schedule** of Figure 6: for each time step, a `par` of
//!   the data movements valid at that step followed by a `par` of the PEs
//!   with valid inputs, then a drain phase writing accumulators to the
//!   result memory.
//!
//! Like the paper's generator, no `"static"` annotations are written by
//! hand: the compiler's latency-inference pass (§5.3) derives the PE
//! latency and the whole array becomes statically schedulable, so the same
//! generated program supports both latency-sensitive and
//! latency-insensitive compilation.

use calyx_core::ir::{attr, Builder, Component, Context, Control, Id, PortDef, PortRef};
use calyx_core::utils::bits_needed;

/// Dimensions of a generated array: computes `A (rows×inner) × B
/// (inner×cols)` on `width`-bit integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicConfig {
    /// Rows of the PE grid (= rows of A and of the result).
    pub rows: usize,
    /// Columns of the PE grid (= columns of B and of the result).
    pub cols: usize,
    /// The shared (reduction) dimension.
    pub inner: usize,
    /// Data width in bits.
    pub width: u32,
}

impl SystolicConfig {
    /// A square `n × n` matrix multiply on 32-bit values.
    pub fn square(n: usize) -> Self {
        SystolicConfig {
            rows: n,
            cols: n,
            inner: n,
            width: 32,
        }
    }

    /// Total wavefront steps before the drain phase.
    fn steps(&self) -> usize {
        self.rows + self.cols + self.inner - 2
    }
}

/// Generate the default multiply–accumulate PE.
///
/// Interface: inputs `top`, `left` (the streamed operands); output `out`
/// (the accumulator); plus the implicit go/done pair. One activation
/// performs `acc += top * left`. The PE carries no `"static"` annotation —
/// inference derives its 6-cycle latency from the pipelined multiplier.
pub fn build_mac_pe(ctx: &Context, width: u32) -> Component {
    let mut pe = Component::new(
        "mac_pe",
        vec![
            PortDef::new("top", width, calyx_core::ir::Direction::Input),
            PortDef::new("left", width, calyx_core::ir::Direction::Input),
            PortDef::new("out", width, calyx_core::ir::Direction::Output),
        ],
    );
    let mut b = Builder::new(&mut pe, ctx);
    let w = u64::from(width);
    let mul = b.add_primitive("mul", "std_mult_pipe", &[w]);
    let prod = b.add_primitive("prod", "std_reg", &[w]);
    let acc = b.add_primitive("acc", "std_reg", &[w]);
    let add = b.add_primitive("add", "std_add", &[w]);

    // prod <- top * left (latency 4 + 1; inferred by rule C of §5.3).
    let do_mul = b.add_group("do_mul");
    b.asgn(do_mul, (mul, "left"), PortRef::this("top"));
    b.asgn(do_mul, (mul, "right"), PortRef::this("left"));
    b.asgn_const_guarded(
        do_mul,
        (mul, "go"),
        1,
        1,
        calyx_core::ir::Guard::Port(PortRef::cell(mul, "done")).not(),
    );
    b.asgn(do_mul, (prod, "in"), (mul, "out"));
    b.asgn_const_guarded(
        do_mul,
        (prod, "write_en"),
        1,
        1,
        calyx_core::ir::Guard::Port(PortRef::cell(mul, "done")),
    );
    b.group_done(do_mul, (prod, "done"));

    // acc <- acc + prod (latency 1; rule B).
    let do_add = b.add_group("do_add");
    b.asgn(do_add, (add, "left"), (acc, "out"));
    b.asgn(do_add, (add, "right"), (prod, "out"));
    b.asgn(do_add, (acc, "in"), (add, "out"));
    b.asgn_const(do_add, (acc, "write_en"), 1, 1);
    b.group_done(do_add, (acc, "done"));

    b.cont(PortRef::this("out"), (acc, "out"));
    b.set_control(Control::seq(vec![
        Control::enable(do_mul),
        Control::enable(do_add),
    ]));
    pe
}

/// Generate a complete systolic matrix-multiply design.
///
/// The returned context contains the PE component and a `main` component
/// with the memories, fabric registers, data-movement groups, and the
/// wavefront control schedule. Its memories (all `@external`) are `l{r}`
/// (row `r` of A, length `inner`), `t{c}` (column `c` of B, length
/// `inner`) and `out` (the rows×cols result, row-major).
#[allow(clippy::needless_range_loop)]
pub fn generate(cfg: &SystolicConfig) -> Context {
    let mut ctx = Context::new();
    let pe_comp = build_mac_pe(&ctx, cfg.width);
    let pe_name = pe_comp.name;
    ctx.add_component(pe_comp);

    let mut main = ctx.new_component("main");
    let w = u64::from(cfg.width);
    let k = cfg.inner as u64;
    let idx_width = bits_needed(k.saturating_sub(1)).max(1);
    let row_bits = bits_needed((cfg.rows as u64).saturating_sub(1)).max(1);
    let col_bits = bits_needed((cfg.cols as u64).saturating_sub(1)).max(1);

    struct Grid {
        pes: Vec<Vec<Id>>,
        top_regs: Vec<Vec<Id>>,
        left_regs: Vec<Vec<Id>>,
    }

    let grid;
    let mut feed_groups_t: Vec<Id> = Vec::new();
    let mut feed_groups_l: Vec<Id> = Vec::new();
    let mut incr_groups_t: Vec<Id> = Vec::new();
    let mut incr_groups_l: Vec<Id> = Vec::new();
    let mut down_groups: Vec<Vec<Option<Id>>> = vec![vec![None; cfg.cols]; cfg.rows];
    let mut right_groups: Vec<Vec<Option<Id>>> = vec![vec![None; cfg.cols]; cfg.rows];
    let mut pe_groups: Vec<Vec<Id>> = Vec::new();
    let mut write_groups: Vec<Id> = Vec::new();
    {
        let mut b = Builder::new(&mut main, &ctx);

        // Input memories and their index counters.
        let t_mems: Vec<Id> = (0..cfg.cols)
            .map(|c| {
                let m = b.add_primitive(
                    &format!("t{c}"),
                    "std_mem_d1",
                    &[w, k, u64::from(idx_width)],
                );
                b.set_cell_attribute(m, attr::external(), 1);
                m
            })
            .collect();
        let l_mems: Vec<Id> = (0..cfg.rows)
            .map(|r| {
                let m = b.add_primitive(
                    &format!("l{r}"),
                    "std_mem_d1",
                    &[w, k, u64::from(idx_width)],
                );
                b.set_cell_attribute(m, attr::external(), 1);
                m
            })
            .collect();
        let out_mem = b.add_primitive(
            "out",
            "std_mem_d2",
            &[
                w,
                cfg.rows as u64,
                cfg.cols as u64,
                u64::from(row_bits),
                u64::from(col_bits),
            ],
        );
        b.set_cell_attribute(out_mem, attr::external(), 1);

        // Fabric: PEs plus their operand registers.
        let mut pes = Vec::new();
        let mut top_regs = Vec::new();
        let mut left_regs = Vec::new();
        for r in 0..cfg.rows {
            let mut pe_row = Vec::new();
            let mut top_row = Vec::new();
            let mut left_row = Vec::new();
            for c in 0..cfg.cols {
                let pe = b.add_component_cell(&format!("pe_{r}_{c}"), pe_name.as_str());
                let tr = b.add_primitive(&format!("top_{r}_{c}"), "std_reg", &[w]);
                let lr = b.add_primitive(&format!("left_{r}_{c}"), "std_reg", &[w]);
                // Operands are wired continuously; activation is scheduled.
                b.cont((pe, "top"), (tr, "out"));
                b.cont((pe, "left"), (lr, "out"));
                pe_row.push(pe);
                top_row.push(tr);
                left_row.push(lr);
            }
            pes.push(pe_row);
            top_regs.push(top_row);
            left_regs.push(left_row);
        }
        grid = Grid {
            pes,
            top_regs,
            left_regs,
        };

        // Feeders: edge registers load from the memories at the index
        // counters; separate increment groups advance the counters in the
        // same par step (the register read observes the pre-increment
        // value).
        let idx_t: Vec<Id> = (0..cfg.cols)
            .map(|c| b.add_primitive(&format!("idx_t{c}"), "std_reg", &[u64::from(idx_width)]))
            .collect();
        let idx_l: Vec<Id> = (0..cfg.rows)
            .map(|r| b.add_primitive(&format!("idx_l{r}"), "std_reg", &[u64::from(idx_width)]))
            .collect();
        for c in 0..cfg.cols {
            let g = b.add_group(&format!("feed_t{c}"));
            b.asgn(g, (t_mems[c], "addr0"), (idx_t[c], "out"));
            b.asgn(g, (grid.top_regs[0][c], "in"), (t_mems[c], "read_data"));
            b.asgn_const(g, (grid.top_regs[0][c], "write_en"), 1, 1);
            b.group_done(g, (grid.top_regs[0][c], "done"));
            feed_groups_t.push(g);

            let add = b.add_primitive(
                &format!("incr_add_t{c}"),
                "std_add",
                &[u64::from(idx_width)],
            );
            let ig = b.add_group(&format!("incr_t{c}"));
            b.asgn(ig, (add, "left"), (idx_t[c], "out"));
            b.asgn_const(ig, (add, "right"), 1, idx_width);
            b.asgn(ig, (idx_t[c], "in"), (add, "out"));
            b.asgn_const(ig, (idx_t[c], "write_en"), 1, 1);
            b.group_done(ig, (idx_t[c], "done"));
            incr_groups_t.push(ig);
        }
        for r in 0..cfg.rows {
            let g = b.add_group(&format!("feed_l{r}"));
            b.asgn(g, (l_mems[r], "addr0"), (idx_l[r], "out"));
            b.asgn(g, (grid.left_regs[r][0], "in"), (l_mems[r], "read_data"));
            b.asgn_const(g, (grid.left_regs[r][0], "write_en"), 1, 1);
            b.group_done(g, (grid.left_regs[r][0], "done"));
            feed_groups_l.push(g);

            let add = b.add_primitive(
                &format!("incr_add_l{r}"),
                "std_add",
                &[u64::from(idx_width)],
            );
            let ig = b.add_group(&format!("incr_l{r}"));
            b.asgn(ig, (add, "left"), (idx_l[r], "out"));
            b.asgn_const(ig, (add, "right"), 1, idx_width);
            b.asgn(ig, (idx_l[r], "in"), (add, "out"));
            b.asgn_const(ig, (idx_l[r], "write_en"), 1, 1);
            b.group_done(ig, (idx_l[r], "done"));
            incr_groups_l.push(ig);
        }

        // Shifts along the fabric.
        for r in 1..cfg.rows {
            for c in 0..cfg.cols {
                let g = b.add_group(&format!("down_{r}_{c}"));
                b.asgn(
                    g,
                    (grid.top_regs[r][c], "in"),
                    (grid.top_regs[r - 1][c], "out"),
                );
                b.asgn_const(g, (grid.top_regs[r][c], "write_en"), 1, 1);
                b.group_done(g, (grid.top_regs[r][c], "done"));
                down_groups[r][c] = Some(g);
            }
        }
        for r in 0..cfg.rows {
            for c in 1..cfg.cols {
                let g = b.add_group(&format!("right_{r}_{c}"));
                b.asgn(
                    g,
                    (grid.left_regs[r][c], "in"),
                    (grid.left_regs[r][c - 1], "out"),
                );
                b.asgn_const(g, (grid.left_regs[r][c], "write_en"), 1, 1);
                b.group_done(g, (grid.left_regs[r][c], "done"));
                right_groups[r][c] = Some(g);
            }
        }

        // Compute groups: the go/done idiom for subcomponents.
        for r in 0..cfg.rows {
            let mut row = Vec::new();
            for c in 0..cfg.cols {
                let g = b.add_group(&format!("run_pe_{r}_{c}"));
                b.asgn_const(g, (grid.pes[r][c], "go"), 1, 1);
                b.group_done(g, (grid.pes[r][c], "done"));
                row.push(g);
            }
            pe_groups.push(row);
        }

        // Drain: write each accumulator to the result memory.
        for r in 0..cfg.rows {
            for c in 0..cfg.cols {
                let g = b.add_group(&format!("write_{r}_{c}"));
                b.asgn_const(g, (out_mem, "addr0"), r as u64, row_bits);
                b.asgn_const(g, (out_mem, "addr1"), c as u64, col_bits);
                b.asgn(g, (out_mem, "write_data"), (grid.pes[r][c], "out"));
                b.asgn_const(g, (out_mem, "write_en"), 1, 1);
                b.group_done(g, (out_mem, "done"));
                write_groups.push(g);
            }
        }
    }

    // The wavefront schedule (paper Fig. 6): at step t, PE (r, c) processes
    // element k = t - r - c, valid while 0 <= k < inner.
    let active = |r: usize, c: usize, t: usize| -> bool { t >= r + c && t < r + c + cfg.inner };
    let mut schedule: Vec<Control> = Vec::new();
    for t in 0..cfg.steps() {
        let mut moves: Vec<Control> = Vec::new();
        for c in 0..cfg.cols {
            if active(0, c, t) {
                moves.push(Control::enable(feed_groups_t[c]));
                moves.push(Control::enable(incr_groups_t[c]));
            }
        }
        for r in 0..cfg.rows {
            if active(r, 0, t) {
                moves.push(Control::enable(feed_groups_l[r]));
                moves.push(Control::enable(incr_groups_l[r]));
            }
        }
        for r in 1..cfg.rows {
            for c in 0..cfg.cols {
                if active(r, c, t) {
                    moves.push(Control::enable(
                        down_groups[r][c].expect("interior rows have down groups"),
                    ));
                }
            }
        }
        for r in 0..cfg.rows {
            for c in 1..cfg.cols {
                if active(r, c, t) {
                    moves.push(Control::enable(
                        right_groups[r][c].expect("interior columns have right groups"),
                    ));
                }
            }
        }
        if !moves.is_empty() {
            schedule.push(Control::par(moves));
        }
        let mut computes: Vec<Control> = Vec::new();
        for (r, row) in pe_groups.iter().enumerate() {
            for (c, &g) in row.iter().enumerate() {
                if active(r, c, t) {
                    computes.push(Control::enable(g));
                }
            }
        }
        if !computes.is_empty() {
            schedule.push(Control::par(computes));
        }
    }
    schedule.extend(write_groups.into_iter().map(Control::enable));
    main.control = Control::seq(schedule);

    ctx.add_component(main);
    ctx
}

/// Reference semantics: `width`-bit wrapping matrix multiply.
#[allow(clippy::needless_range_loop)]
pub fn reference_matmul(
    a: &[Vec<u64>],
    bm: &[Vec<u64>],
    inner: usize,
    width: u32,
) -> Vec<Vec<u64>> {
    let mask = |v: u64| {
        if width >= 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        }
    };
    a.iter()
        .map(|row| {
            (0..bm[0].len())
                .map(|c| {
                    let mut acc: u64 = 0;
                    for k in 0..inner {
                        acc = mask(acc.wrapping_add(mask(row[k].wrapping_mul(bm[k][c]))));
                    }
                    acc
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use calyx_core::ir::validate;
    use calyx_core::passes;
    use calyx_sim::rtl::Simulator;

    fn run_array(
        cfg: &SystolicConfig,
        a: &[Vec<u64>],
        bm: &[Vec<u64>],
        static_: bool,
    ) -> (Vec<u64>, u64) {
        let mut ctx = generate(cfg);
        validate::validate_context(&ctx).expect("generated design is well-formed");
        if static_ {
            passes::lower_pipeline_static().run(&mut ctx).unwrap();
        } else {
            passes::lower_pipeline().run(&mut ctx).unwrap();
        }
        let mut sim = Simulator::new(&ctx, "main").unwrap();
        for (r, row) in a.iter().enumerate() {
            sim.set_memory(&[&format!("l{r}")], row).unwrap();
        }
        for c in 0..cfg.cols {
            let col: Vec<u64> = (0..cfg.inner).map(|k| bm[k][c]).collect();
            sim.set_memory(&[&format!("t{c}")], &col).unwrap();
        }
        let stats = sim.run(1_000_000).unwrap();
        (sim.memory(&["out"]).unwrap(), stats.cycles)
    }

    fn sample(n: usize) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let a: Vec<Vec<u64>> = (0..n)
            .map(|r| (0..n).map(|k| (r * n + k + 1) as u64).collect())
            .collect();
        let b: Vec<Vec<u64>> = (0..n)
            .map(|k| (0..n).map(|c| ((k + 2) * (c + 1) % 17) as u64).collect())
            .collect();
        (a, b)
    }

    #[test]
    fn two_by_two_matches_reference() {
        let cfg = SystolicConfig::square(2);
        let (a, bm) = sample(2);
        let expected = reference_matmul(&a, &bm, 2, 32);
        let (got, _) = run_array(&cfg, &a, &bm, false);
        let flat: Vec<u64> = expected.into_iter().flatten().collect();
        assert_eq!(got, flat);
    }

    #[test]
    fn static_and_dynamic_agree_and_static_is_faster() {
        let cfg = SystolicConfig::square(3);
        let (a, bm) = sample(3);
        let expected: Vec<u64> = reference_matmul(&a, &bm, 3, 32)
            .into_iter()
            .flatten()
            .collect();
        let (dyn_out, dyn_cycles) = run_array(&cfg, &a, &bm, false);
        let (st_out, st_cycles) = run_array(&cfg, &a, &bm, true);
        assert_eq!(dyn_out, expected);
        assert_eq!(st_out, expected);
        assert!(
            st_cycles < dyn_cycles,
            "static {st_cycles} vs dynamic {dyn_cycles}"
        );
    }

    #[test]
    fn rectangular_arrays_work() {
        let cfg = SystolicConfig {
            rows: 2,
            cols: 3,
            inner: 4,
            width: 32,
        };
        let a: Vec<Vec<u64>> = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]];
        let bm: Vec<Vec<u64>> = vec![vec![1, 0, 2], vec![0, 1, 2], vec![3, 1, 0], vec![1, 1, 1]];
        let expected: Vec<u64> = reference_matmul(&a, &bm, 4, 32)
            .into_iter()
            .flatten()
            .collect();
        let (got, _) = run_array(&cfg, &a, &bm, false);
        assert_eq!(got, expected);
    }

    #[test]
    fn latency_is_fully_inferred() {
        // The paper: "the Calyx compiler is able to completely infer the
        // latency of a generated systolic array when the processing element
        // provides its latency."
        use calyx_core::passes::Pass;
        let mut ctx = generate(&SystolicConfig::square(2));
        passes::InferStaticTiming.run(&mut ctx).unwrap();
        passes::StaticTiming.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        assert!(
            main.static_latency().is_some(),
            "whole-array latency should be inferred"
        );
    }

    #[test]
    fn group_and_cell_counts_scale() {
        let small = generate(&SystolicConfig::square(2));
        let large = generate(&SystolicConfig::square(4));
        let count = |ctx: &Context| {
            let main = ctx.component("main").unwrap();
            (
                main.cells.len(),
                main.groups.len(),
                main.control.statement_count(),
            )
        };
        let (sc, sg, ss) = count(&small);
        let (lc, lg, ls) = count(&large);
        assert!(lc > sc && lg > sg && ls > ss);
    }
}
