//! The primitive table (`calyx_core::ir::Library::std`) is the one place a
//! std primitive is defined. Every consumer derives from its rows, so this
//! checks each row against each of them: the simulator's behavioural
//! model, the SystemVerilog template, the area cost, the `"static"`
//! latency the latency-sensitive compiler reads, and constant folding.

use calyx::backend::area::{primitive_area, Area};
use calyx::backend::verilog;
use calyx::core::analysis::dataflow::{eval_port, Scope};
use calyx::core::ir::{parse_context, Context, Id, Library, PortRef, PrimKind, PrimitiveDef};
use calyx::core::prim::{mask, CombOp, UnitOp};
use calyx::sim::flatten::{flatten_control, CellIdx, FlatCellKind, FlatIdx, FlatProgram, PortIdx};
use proptest::prelude::*;

/// Every row of the std table, in name order.
fn rows() -> Vec<PrimitiveDef> {
    let lib = Library::std();
    lib.names()
        .into_iter()
        .map(|name| lib.expect(name).unwrap().clone())
        .collect()
}

/// Parameters instantiating `def` with data width `width` (an output
/// width `out_width` where the row has one), memories of 2 words per
/// dimension.
fn params(def: &PrimitiveDef, width: u64, out_width: u64) -> Vec<u64> {
    def.params
        .iter()
        .map(|param| match param.as_str() {
            "OUT_WIDTH" => out_width,
            p if p.ends_with("IDX_SIZE") => 1,
            p if p.ends_with("SIZE") => 2,
            _ => width,
        })
        .collect()
}

/// A control-free program whose one cell `p` instantiates `def`.
fn one_cell(def: &PrimitiveDef, params: &[u64], wires: &str) -> Context {
    let params: Vec<String> = params.iter().map(u64::to_string).collect();
    parse_context(&format!(
        "component main() -> () {{ cells {{ p = {}({}); }} wires {{ {wires} }} control {{}} }}",
        def.name,
        params.join(", ")
    ))
    .unwrap()
}

#[test]
fn every_row_has_a_model_a_template_and_a_cost() {
    for def in rows() {
        let name = def.name;
        let kind = def.kind.expect("a std row has a kind");
        let params = params(&def, 8, 8);
        let ctx = one_cell(&def, &params, "");
        if let Err(e) = flatten_control(&ctx, "main") {
            panic!("`{name}` has no behavioural model: {e}");
        }
        let sv = verilog::emit(&ctx).unwrap_or_else(|e| panic!("`{name}`: {e}"));
        let header = format!("module {name} #(");
        assert!(
            sv.lines().any(|l| l.starts_with(&header)),
            "`{name}`:\n{sv}"
        );
        // Only the wiring operators are free.
        let free = matches!(
            kind,
            PrimKind::Comb(CombOp::Slice | CombOp::Pad | CombOp::Wire)
        );
        assert_eq!(
            primitive_area(name, &params) == Area::default(),
            free,
            "`{name}`"
        );
    }
}

/// Clock the one cell of `prog` with `inputs` held and `activate` high for
/// the first cycle only; the number of edges until `done` reads high.
fn edges_until_done(
    prog: &mut FlatProgram,
    inputs: &[(PortIdx, u64)],
    activate: PortIdx,
    done: PortIdx,
) -> u64 {
    let cell = CellIdx::new(0);
    let stateful = prog.stateful_cells();
    let mut values = vec![0; prog.ports.len()];
    for &(port, value) in inputs {
        values[port.index()] = value;
    }
    values[activate.index()] = 1;
    for edges in 1..=64 {
        prog.tick(&stateful, &values, |_| {}, |_| {}).unwrap();
        values[activate.index()] = 0;
        prog.publish_cell(cell, &mut values, |_| {});
        if values[done.index()] != 0 {
            return edges;
        }
    }
    panic!("`done` never rose");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// A storage or unit row's `"static"` latency is the number of edges
    /// its model takes to raise `done`: 1 for registers and memories, 4
    /// for the pipelined multiplier and divider. The square root's
    /// latency is data-dependent, and it declares none.
    #[test]
    fn static_latency_is_the_models_edge_count(
        a in 0..=u64::MAX,
        b in 0..=u64::MAX,
        width in 1u64..=64,
    ) {
        let (a, b) = (mask(a, width as u32), mask(b, width as u32));
        for def in rows() {
            let kind = def.kind.unwrap();
            if kind.is_comb() {
                continue;
            }
            let ctx = one_cell(&def, &params(&def, width, width), "");
            let mut prog = flatten_control(&ctx, "main").unwrap().prog;
            let (inputs, activate, done) = match &prog.cells[CellIdx::new(0)].kind {
                FlatCellKind::Reg { input, write_en, done, .. } => {
                    (vec![(*input, a)], *write_en, *done)
                }
                FlatCellKind::Mem { write_data, write_en, done, .. } => {
                    (vec![(*write_data, a)], *write_en, *done)
                }
                FlatCellKind::Unit { left, right, go, done, .. } => {
                    (vec![(*left, a), (*right, b)], *go, *done)
                }
                FlatCellKind::Comb { .. } => unreachable!("`{}` is stateful", def.name),
            };
            let edges = edges_until_done(&mut prog, &inputs, activate, done);
            if kind == PrimKind::Unit(UnitOp::Sqrt) {
                prop_assert_eq!(def.static_latency(), None);
            } else {
                prop_assert_eq!(def.static_latency(), Some(edges), "{}", def.name);
            }
        }
    }

    /// Constant propagation folds every combinational row exactly as
    /// `CombOp::eval` computes it, and so does the simulator.
    #[test]
    fn const_prop_folds_each_comb_op_as_eval_does(
        a in 0..=u64::MAX,
        b in 0..=u64::MAX,
        width in 1u64..=64,
        out_width in 1u64..=64,
    ) {
        let (l, r) = (mask(a, width as u32), mask(b, width as u32));
        for def in rows() {
            let Some(PrimKind::Comb(op)) = def.kind else {
                continue;
            };
            let r = if op.is_binary() { r } else { 0 };
            let wires = if op.is_binary() {
                format!("p.left = {width}'d{l}; p.right = {width}'d{r};")
            } else {
                format!("p.in = {width}'d{l};")
            };
            let ctx = one_cell(&def, &params(&def, width, out_width), &wires);
            let comp = ctx.component("main").unwrap();
            let cell = comp.cells.get(Id::new("p")).unwrap();
            let ow = cell.port_width(Id::new("out")).unwrap();
            let expected = op.eval(l, r, width as u32, ow);

            let folded = eval_port(comp, Scope::All, None, PortRef::cell("p", "out"));
            prop_assert_eq!(folded, Some(expected), "{}", def.name);

            let prog = flatten_control(&ctx, "main").unwrap().prog;
            let ci = CellIdx::new(0);
            let FlatCellKind::Comb { left, right, .. } = prog.cells[ci].kind else {
                unreachable!("`{}` is combinational", def.name);
            };
            let mut values = vec![0; prog.ports.len()];
            values[left.index()] = l;
            if let Some(right) = right {
                values[right.index()] = r;
            }
            let simulated = prog.cells[ci].comb_output(&prog.states[ci], &values);
            prop_assert_eq!(simulated.map(|(_, v)| v), Some(expected), "{}", def.name);
        }
    }
}
