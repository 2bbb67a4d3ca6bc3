//! SystemVerilog emission (the paper's `Lower` pass, §4.2).
//!
//! Each component becomes a module; each cell port becomes a `logic` net;
//! the guarded assignments driving a port collapse into one continuous
//! `assign` with a ternary chain (unique drivers make the order
//! irrelevant); primitive instances reference a prelude of parameterized
//! primitive modules emitted alongside the design. A clock is threaded
//! through every module exactly as the paper describes.
//!
//! Text is built in one `String` buffer that [`emit_to`] reuses: the
//! header and prelude, then each module, are appended to it piece by
//! piece (every helper takes the buffer and appends; none returns a
//! `String`) and handed to the writer with one `write_all` each. A guard
//! is walked once, and the buffer never holds more than one module.

use crate::api::{Backend, BackendOpts};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::{
    validate, Assignment, Atom, CellType, Component, Context, Direction, Guard, Id, Library,
    PortParent, PortRef, PrimKind,
};
use calyx_core::prim::{CombOp, UnitOp};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::io;

/// Produce the module text of a combinational binary primitive.
macro_rules! binop {
    ($name:literal, $expr:literal) => {
        concat!(
            "module ",
            $name,
            " #(parameter WIDTH = 32) (\n  input logic [WIDTH-1:0] left, input logic [WIDTH-1:0] right,\n  output logic [WIDTH-1:0] out);\n  assign out = ",
            $expr,
            ";\nendmodule"
        )
    };
}

/// Produce the module text of a comparison primitive (1-bit output).
macro_rules! cmp {
    ($name:literal, $expr:literal) => {
        concat!(
            "module ",
            $name,
            " #(parameter WIDTH = 32) (\n  input logic [WIDTH-1:0] left, input logic [WIDTH-1:0] right,\n  output logic out);\n  assign out = ",
            $expr,
            ";\nendmodule"
        )
    };
}

/// The `verilog` backend: stream the lowered program as SystemVerilog.
///
/// Requires the `lower` pipeline to have run: every component must be
/// control-free (no groups, no control tree). The structural check runs
/// up front, so a rejected program produces no partial output.
pub struct VerilogBackend;

impl Backend for VerilogBackend {
    const NAME: &'static str = "verilog";
    const DESCRIPTION: &'static str = "emit synthesizable SystemVerilog for the lowered design";
    const EXTENSION: &'static str = "sv";

    fn from_opts(_: &BackendOpts) -> Self {
        VerilogBackend
    }

    fn required_pipeline(&self) -> &'static [&'static str] {
        &["lower"]
    }

    fn validate(&self, ctx: &Context) -> CalyxResult<()> {
        validate::require_lowered(ctx)
    }

    fn emit(&self, ctx: &Context, out: &mut dyn io::Write) -> CalyxResult<()> {
        emit_to(ctx, out)
    }
}

/// Stream a complete SystemVerilog translation unit for the lowered
/// program into `out` — the hot emission path. No `String` ever holds the
/// whole design: one buffer is filled with the header and prelude, then
/// cleared and refilled per module, and handed to `out` with one
/// `write_all` each time, so a write that `out` refuses whole leaves
/// whole modules behind it.
///
/// # Errors
///
/// Returns [`Error::Malformed`] *before writing anything* when a
/// component still contains groups or control (run the lowering pipeline
/// first) or a cell instantiates a primitive this backend has no
/// template for, and [`Error::Io`] when `out` fails.
pub fn emit_to(ctx: &Context, out: &mut dyn io::Write) -> CalyxResult<()> {
    // Validate every component before the first byte so a precondition
    // failure cannot leave partial output in `out`.
    validate::require_lowered(ctx)?;
    let order = ctx.topological_order()?;

    // Primitive prelude: only the primitives the design uses, by name.
    let mut used_prims: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    for comp in ctx.components.iter() {
        for cell in comp.cells.iter() {
            if let CellType::Primitive { name, .. } = &cell.prototype {
                let module = PrimKind::of(*name).map(prim_module).ok_or_else(|| {
                    Error::malformed(format!(
                        "cell `{}` of component `{}` instantiates primitive `{name}`, \
                         which has no SystemVerilog template",
                        cell.name, comp.name
                    ))
                })?;
                used_prims.insert(name.as_str(), module);
            }
        }
    }

    let mut buf =
        String::from("// Generated by the Calyx reproduction compiler.\n`default_nettype none\n\n");
    for module in used_prims.into_values() {
        buf.push_str(module);
        buf.push('\n');
    }
    out.write_all(buf.as_bytes())?;

    for name in order {
        let comp = ctx
            .components
            .get(name)
            .expect("topological order lists existing components");
        buf.clear();
        emit_component(comp, &ctx.lib, &mut buf)?;
        buf.push('\n');
        out.write_all(buf.as_bytes())?;
    }
    Ok(())
}

/// Emit the lowered program as one SystemVerilog `String`.
///
/// Thin convenience wrapper over the streaming [`emit_to`]; prefer the
/// streaming form on large designs.
///
/// # Errors
///
/// Same as [`emit_to`].
pub fn emit(ctx: &Context) -> CalyxResult<String> {
    let mut out = Vec::new();
    emit_to(ctx, &mut out)?;
    Ok(String::from_utf8(out).expect("emitter writes UTF-8"))
}

/// Number of non-empty lines in an emitted translation unit — the metric of
/// the paper's §7.4 ("8,906 LOC of SystemVerilog").
pub fn line_count(sv: &str) -> usize {
    sv.lines().filter(|l| !l.trim().is_empty()).count()
}

/// Append `n` in decimal.
fn decimal(n: u64, buf: &mut String) {
    write!(buf, "{n}").expect("writing to a String cannot fail");
}

/// Append the module of `comp`, through its `endmodule` line.
fn emit_component(comp: &Component, lib: &Library, buf: &mut String) -> CalyxResult<()> {
    buf.push_str("module ");
    buf.push_str(comp.name.as_str());
    buf.push_str(" (\n");
    for p in &comp.signature {
        buf.push_str(match p.direction {
            Direction::Input => "  input logic ",
            Direction::Output => "  output logic ",
        });
        range(p.width, buf);
        buf.push_str(p.name.as_str());
        buf.push_str(",\n");
    }
    buf.push_str("  input logic clk\n);\n");

    // Nets for every cell port.
    for cell in comp.cells.iter() {
        for p in &cell.ports {
            buf.push_str("  logic ");
            range(p.width, buf);
            cell_net(cell.name, p.name, buf);
            buf.push_str(";\n");
        }
    }

    // Instances. A primitive's template carries its own name.
    for cell in comp.cells.iter() {
        buf.push_str("  ");
        let has_clk = match &cell.prototype {
            CellType::Primitive { name, params } => {
                buf.push_str(name.as_str());
                buf.push_str(" #(");
                let def = lib.expect(*name)?;
                let mut sep = "";
                for (param, value) in def.params.iter().zip(params) {
                    buf.push_str(sep);
                    sep = ", ";
                    buf.push('.');
                    buf.push_str(param.as_str());
                    buf.push('(');
                    decimal(*value, buf);
                    buf.push(')');
                }
                buf.push_str(") ");
                !def.is_comb()
            }
            CellType::Component { name } => {
                buf.push_str(name.as_str());
                buf.push(' ');
                true
            }
        };
        buf.push_str(cell.name.as_str());
        buf.push_str(" (");
        let mut sep = "";
        for p in &cell.ports {
            buf.push_str(sep);
            sep = ", ";
            buf.push('.');
            buf.push_str(p.name.as_str());
            buf.push('(');
            cell_net(cell.name, p.name, buf);
            buf.push(')');
        }
        if has_clk {
            buf.push_str(sep);
            buf.push_str(".clk(clk)");
        }
        buf.push_str(");\n");
    }

    // Drivers: all assignments to the same port merge into a ternary chain
    // `G1 ? S1 : G2 ? S2 : … : W'd0`, which ends early at the first
    // unguarded driver.
    let mut drivers: BTreeMap<PortRef, Vec<&Assignment>> = BTreeMap::new();
    for asgn in &comp.continuous {
        drivers.entry(asgn.dst).or_default().push(asgn);
    }
    for (dst, asgns) in drivers {
        let width = comp.port_width(&dst)?;
        buf.push_str("  assign ");
        port_net(&dst, buf);
        buf.push_str(" = ");
        let mut closed = false;
        for asgn in asgns {
            if asgn.guard.is_true() {
                atom_expr(&asgn.src, buf);
                closed = true;
                break;
            }
            guard_expr(&asgn.guard, buf);
            buf.push_str(" ? ");
            atom_expr(&asgn.src, buf);
            buf.push_str(" : ");
        }
        if !closed {
            sized_constant(width, 0, buf);
        }
        buf.push_str(";\n");
    }

    buf.push_str("endmodule\n");
    Ok(())
}

/// Append the packed range of a `width`-bit net (nothing for one bit).
fn range(width: u32, buf: &mut String) {
    if width != 1 {
        buf.push('[');
        decimal(u64::from(width - 1), buf);
        buf.push_str(":0] ");
    }
}

/// Append the net of port `port` of cell `cell`.
fn cell_net(cell: Id, port: Id, buf: &mut String) {
    buf.push_str(cell.as_str());
    buf.push('_');
    buf.push_str(port.as_str());
}

fn port_net(p: &PortRef, buf: &mut String) {
    match p.parent {
        PortParent::Cell(c) => cell_net(c, p.port, buf),
        PortParent::This => buf.push_str(p.port.as_str()),
        PortParent::Group(_) => unreachable!("holes are erased before emission"),
    }
}

/// Append `W'dV`.
fn sized_constant(width: u32, val: u64, buf: &mut String) {
    decimal(u64::from(width), buf);
    buf.push_str("'d");
    decimal(val, buf);
}

fn atom_expr(a: &Atom, buf: &mut String) {
    match a {
        Atom::Port(p) => port_net(p, buf),
        Atom::Const { val, width } => sized_constant(*width, *val, buf),
    }
}

fn guard_expr(g: &Guard, buf: &mut String) {
    match g {
        Guard::True => buf.push_str("1'b1"),
        Guard::Port(p) => port_net(p, buf),
        Guard::Not(inner) => {
            buf.push_str("~(");
            guard_expr(inner, buf);
            buf.push(')');
        }
        Guard::And(a, b) => binary_expr(a, " & ", b, buf),
        Guard::Or(a, b) => binary_expr(a, " | ", b, buf),
        Guard::Comp(op, l, r) => {
            buf.push('(');
            atom_expr(l, buf);
            buf.push(' ');
            buf.push_str(op.as_str());
            buf.push(' ');
            atom_expr(r, buf);
            buf.push(')');
        }
    }
}

/// Append `(A op B)`.
fn binary_expr(a: &Guard, op: &str, b: &Guard, buf: &mut String) {
    buf.push('(');
    guard_expr(a, buf);
    buf.push_str(op);
    guard_expr(b, buf);
    buf.push(')');
}

/// SystemVerilog source of the module implementing a std primitive of
/// `kind`, which carries the primitive's name.
fn prim_module(kind: PrimKind) -> &'static str {
    use CombOp::*;
    match kind {
        PrimKind::Reg => {
            r#"module std_reg #(parameter WIDTH = 32) (
  input logic [WIDTH-1:0] in, input logic write_en, input logic clk,
  output logic [WIDTH-1:0] out, output logic done);
  always_ff @(posedge clk) begin
    if (write_en) begin out <= in; done <= 1'd1; end
    else done <= 1'd0;
  end
endmodule"#
        }
        PrimKind::Comb(Wire) => {
            r#"module std_wire #(parameter WIDTH = 32) (
  input logic [WIDTH-1:0] in, output logic [WIDTH-1:0] out);
  assign out = in;
endmodule"#
        }
        PrimKind::Comb(Add) => binop!("std_add", "left + right"),
        PrimKind::Comb(Sub) => binop!("std_sub", "left - right"),
        PrimKind::Comb(And) => binop!("std_and", "left & right"),
        PrimKind::Comb(Or) => binop!("std_or", "left | right"),
        PrimKind::Comb(Xor) => binop!("std_xor", "left ^ right"),
        PrimKind::Comb(Lsh) => binop!("std_lsh", "left << right"),
        PrimKind::Comb(Rsh) => binop!("std_rsh", "left >> right"),
        PrimKind::Comb(Not) => {
            r#"module std_not #(parameter WIDTH = 32) (
  input logic [WIDTH-1:0] in, output logic [WIDTH-1:0] out);
  assign out = ~in;
endmodule"#
        }
        PrimKind::Comb(Lt) => cmp!("std_lt", "left < right"),
        PrimKind::Comb(Gt) => cmp!("std_gt", "left > right"),
        PrimKind::Comb(Eq) => cmp!("std_eq", "left == right"),
        PrimKind::Comb(Neq) => cmp!("std_neq", "left != right"),
        PrimKind::Comb(Ge) => cmp!("std_ge", "left >= right"),
        PrimKind::Comb(Le) => cmp!("std_le", "left <= right"),
        PrimKind::Comb(Slt) => cmp!("std_slt", "$signed(left) < $signed(right)"),
        PrimKind::Comb(Sgt) => cmp!("std_sgt", "$signed(left) > $signed(right)"),
        PrimKind::Comb(Slice) => {
            r#"module std_slice #(parameter IN_WIDTH = 32, parameter OUT_WIDTH = 8) (
  input logic [IN_WIDTH-1:0] in, output logic [OUT_WIDTH-1:0] out);
  assign out = in[OUT_WIDTH-1:0];
endmodule"#
        }
        PrimKind::Comb(Pad) => {
            r#"module std_pad #(parameter IN_WIDTH = 8, parameter OUT_WIDTH = 32) (
  input logic [IN_WIDTH-1:0] in, output logic [OUT_WIDTH-1:0] out);
  assign out = {{(OUT_WIDTH-IN_WIDTH){1'b0}}, in};
endmodule"#
        }
        PrimKind::Mem { dims: 1 } => {
            r#"module std_mem_d1 #(parameter WIDTH = 32, parameter SIZE = 16, parameter IDX_SIZE = 4) (
  input logic [IDX_SIZE-1:0] addr0, input logic [WIDTH-1:0] write_data,
  input logic write_en, input logic clk,
  output logic [WIDTH-1:0] read_data, output logic done);
  logic [WIDTH-1:0] mem [SIZE-1:0];
  assign read_data = mem[addr0];
  always_ff @(posedge clk) begin
    if (write_en) begin mem[addr0] <= write_data; done <= 1'd1; end
    else done <= 1'd0;
  end
endmodule"#
        }
        PrimKind::Mem { dims: 2 } => {
            r#"module std_mem_d2 #(parameter WIDTH = 32, parameter D0_SIZE = 16, parameter D1_SIZE = 16,
  parameter D0_IDX_SIZE = 4, parameter D1_IDX_SIZE = 4) (
  input logic [D0_IDX_SIZE-1:0] addr0, input logic [D1_IDX_SIZE-1:0] addr1,
  input logic [WIDTH-1:0] write_data, input logic write_en, input logic clk,
  output logic [WIDTH-1:0] read_data, output logic done);
  logic [WIDTH-1:0] mem [D0_SIZE*D1_SIZE-1:0];
  assign read_data = mem[addr0 * D1_SIZE + addr1];
  always_ff @(posedge clk) begin
    if (write_en) begin mem[addr0 * D1_SIZE + addr1] <= write_data; done <= 1'd1; end
    else done <= 1'd0;
  end
endmodule"#
        }
        // The table's memories have one to three dimensions.
        PrimKind::Mem { .. } => {
            r#"module std_mem_d3 #(parameter WIDTH = 32, parameter D0_SIZE = 8, parameter D1_SIZE = 8,
  parameter D2_SIZE = 8, parameter D0_IDX_SIZE = 3, parameter D1_IDX_SIZE = 3, parameter D2_IDX_SIZE = 3) (
  input logic [D0_IDX_SIZE-1:0] addr0, input logic [D1_IDX_SIZE-1:0] addr1, input logic [D2_IDX_SIZE-1:0] addr2,
  input logic [WIDTH-1:0] write_data, input logic write_en, input logic clk,
  output logic [WIDTH-1:0] read_data, output logic done);
  logic [WIDTH-1:0] mem [D0_SIZE*D1_SIZE*D2_SIZE-1:0];
  assign read_data = mem[(addr0 * D1_SIZE + addr1) * D2_SIZE + addr2];
  always_ff @(posedge clk) begin
    if (write_en) begin mem[(addr0 * D1_SIZE + addr1) * D2_SIZE + addr2] <= write_data; done <= 1'd1; end
    else done <= 1'd0;
  end
endmodule"#
        }
        PrimKind::Unit(UnitOp::Mult) => {
            r#"module std_mult_pipe #(parameter WIDTH = 32) (
  input logic [WIDTH-1:0] left, input logic [WIDTH-1:0] right,
  input logic go, input logic clk,
  output logic [WIDTH-1:0] out, output logic done);
  logic [2:0] count;
  logic running;
  logic [WIDTH-1:0] l, r;
  always_ff @(posedge clk) begin
    done <= 1'd0;
    if (!running && go) begin l <= left; r <= right; count <= 3'd3; running <= 1'd1; end
    else if (running) begin
      if (count == 0) begin out <= l * r; done <= 1'd1; running <= 1'd0; end
      else count <= count - 1;
    end
  end
endmodule"#
        }
        PrimKind::Unit(UnitOp::Div) => {
            r#"module std_div_pipe #(parameter WIDTH = 32) (
  input logic [WIDTH-1:0] left, input logic [WIDTH-1:0] right,
  input logic go, input logic clk,
  output logic [WIDTH-1:0] out_quotient, output logic [WIDTH-1:0] out_remainder,
  output logic done);
  logic [2:0] count;
  logic running;
  logic [WIDTH-1:0] l, r;
  always_ff @(posedge clk) begin
    done <= 1'd0;
    if (!running && go) begin l <= left; r <= right; count <= 3'd3; running <= 1'd1; end
    else if (running) begin
      if (count == 0) begin
        out_quotient <= (r == 0) ? '1 : l / r;
        out_remainder <= (r == 0) ? l : l % r;
        done <= 1'd1; running <= 1'd0;
      end else count <= count - 1;
    end
  end
endmodule"#
        }
        PrimKind::Unit(UnitOp::Sqrt) => {
            r#"module std_sqrt #(parameter WIDTH = 32) (
  input logic [WIDTH-1:0] in, input logic go, input logic clk,
  output logic [WIDTH-1:0] out, output logic done);
  // Iterative (data-dependent latency) integer square root.
  logic [WIDTH-1:0] x, res, bit_;
  logic running;
  always_ff @(posedge clk) begin
    done <= 1'd0;
    if (!running && go) begin
      x <= in; res <= '0; running <= 1'd1;
      bit_ <= 1 << (WIDTH - 2);
    end else if (running) begin
      if (bit_ == 0) begin out <= res; done <= 1'd1; running <= 1'd0; end
      else begin
        if (x >= res + bit_) begin x <= x - res - bit_; res <= (res >> 1) + bit_; end
        else res <= res >> 1;
        bit_ <= bit_ >> 2;
      end
    end
  end
endmodule"#
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::ir::parse_context;
    use calyx_core::passes::PassManager;

    fn lowered(src: &str) -> Context {
        let mut ctx = parse_context(src).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        ctx
    }

    const FIG2: &str = r#"
        component main() -> () {
          cells { x = std_reg(32); }
          wires {
            group one { x.in = 32'd1; x.write_en = 1'd1; one[done] = x.done; }
            group two { x.in = 32'd2; x.write_en = 1'd1; two[done] = x.done; }
          }
          control { seq { one; two; } }
        }
    "#;

    #[test]
    fn emits_module_with_prelude() {
        let sv = emit(&lowered(FIG2)).unwrap();
        assert!(sv.contains("module std_reg"));
        assert!(sv.contains("module main ("));
        assert!(sv.contains("std_reg #(.WIDTH(32)) x"));
        assert!(sv.contains(".clk(clk)"));
        assert!(sv.contains("endmodule"));
        assert!(line_count(&sv) > 20);
    }

    #[test]
    fn merges_drivers_into_ternary_chains() {
        let sv = emit(&lowered(FIG2)).unwrap();
        // x_in has two guarded drivers -> one assign with a ternary.
        let x_in_assigns: Vec<&str> = sv
            .lines()
            .filter(|l| l.trim_start().starts_with("assign x_in"))
            .collect();
        assert_eq!(x_in_assigns.len(), 1, "{sv}");
        assert!(x_in_assigns[0].contains('?'));
    }

    #[test]
    fn rejects_unlowered_components() {
        let ctx = parse_context(FIG2).unwrap();
        assert!(emit(&ctx).is_err());
    }

    #[test]
    fn components_emitted_in_dependency_order() {
        let sv = emit(&lowered(
            r#"
            component child() -> () {
              cells { r = std_reg(8); }
              wires { group w { r.in = 8'd9; r.write_en = 1'd1; w[done] = r.done; } }
              control { w; }
            }
            component main() -> () {
              cells { c = child(); }
              wires { group i { c.go = 1'd1; i[done] = c.done; } }
              control { i; }
            }"#,
        ))
        .unwrap();
        let child_pos = sv.find("module child").unwrap();
        let main_pos = sv.find("module main").unwrap();
        assert!(child_pos < main_pos);
        assert!(sv.contains("child c ("));
    }

    #[test]
    fn line_count_ignores_blanks() {
        assert_eq!(line_count("a\n\nb\n  \nc"), 3);
    }

    /// Already lowered: no groups, no control, every kind of instance,
    /// and drivers written by hand.
    const FLAT: &str = r#"
        component child() -> () {
          cells {}
          wires { done = go ? 1'd1; }
          control {}
        }
        component main(g1: 1, g2: 1) -> () {
          cells {
            x = std_reg(32); y = std_reg(32); a = std_add(32);
            m = std_mem_d2(32, 4, 4, 2, 2); c = child();
          }
          wires {
            x.in = g1 ? 32'd1;
            x.in = g2 ? 32'd2;
            y.in = g1 ? 32'd1;
            y.in = 32'd7;
            y.in = g2 ? 32'd2;
          }
          control {}
        }
    "#;

    fn flat_lines() -> Vec<String> {
        let sv = emit(&parse_context(FLAT).unwrap()).unwrap();
        sv.lines().map(str::to_string).collect()
    }

    #[track_caller]
    fn assert_has_line(lines: &[String], line: &str) {
        assert!(
            lines.iter().any(|l| l == line),
            "no line `{line}` in:\n{}",
            lines.join("\n")
        );
    }

    #[test]
    fn guarded_drivers_chain_down_to_a_zero() {
        assert_has_line(
            &flat_lines(),
            "  assign x_in = g1 ? 32'd1 : g2 ? 32'd2 : 32'd0;",
        );
    }

    #[test]
    fn the_chain_ends_at_the_first_unguarded_driver() {
        let lines = flat_lines();
        assert_has_line(&lines, "  assign y_in = g1 ? 32'd1 : 32'd7;");
        assert_eq!(lines.iter().filter(|l| l.contains("y_in =")).count(), 1);
    }

    #[test]
    fn only_multi_bit_nets_have_a_range() {
        let lines = flat_lines();
        assert_has_line(&lines, "  logic x_write_en;");
        assert_has_line(&lines, "  logic [31:0] x_in;");
        assert_has_line(&lines, "  logic [1:0] m_addr0;");
        assert_has_line(&lines, "  input logic g1,");
    }

    #[test]
    fn stateful_instances_get_the_clock_and_parameters_keep_their_order() {
        let lines = flat_lines();
        assert_has_line(
            &lines,
            "  std_reg #(.WIDTH(32)) x (.in(x_in), .write_en(x_write_en), .out(x_out), \
             .done(x_done), .clk(clk));",
        );
        assert_has_line(&lines, "  child c (.go(c_go), .done(c_done), .clk(clk));");
        assert_has_line(
            &lines,
            "  std_add #(.WIDTH(32)) a (.left(a_left), .right(a_right), .out(a_out));",
        );
        assert_has_line(
            &lines,
            "  std_mem_d2 #(.WIDTH(32), .D0_SIZE(4), .D1_SIZE(4), .D0_IDX_SIZE(2), \
             .D1_IDX_SIZE(2)) m (.addr0(m_addr0), .addr1(m_addr1), \
             .write_data(m_write_data), .write_en(m_write_en), .read_data(m_read_data), \
             .done(m_done), .clk(clk));",
        );
    }

    /// Accepts `budget` writes, then fails.
    struct FailsAfter {
        budget: usize,
        accepted: Vec<u8>,
    }

    impl io::Write for FailsAfter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.budget -= 1;
            self.accepted.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_writer_is_left_with_whole_modules() {
        let ctx = parse_context(FLAT).unwrap();
        let whole = emit(&ctx).unwrap();
        // One write for the header and prelude, one per module: whatever
        // was accepted stops where a module starts.
        for (budget, next) in [(1, "module child ("), (2, "module main (")] {
            let mut out = FailsAfter {
                budget,
                accepted: Vec::new(),
            };
            let err = emit_to(&ctx, &mut out).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "{err}");
            let accepted = String::from_utf8(out.accepted).unwrap();
            assert!(accepted.ends_with("endmodule\n") || accepted.ends_with("endmodule\n\n"));
            let rest = whole.strip_prefix(&accepted).expect("a prefix of the text");
            assert!(rest.starts_with(next), "{rest}");
        }
    }

    #[test]
    fn a_primitive_without_a_template_is_an_error_before_the_first_byte() {
        let ctx = parse_context(
            r#"
            extern "blackbox.sv" { component my_unit(in: 8) -> (out: 8); }
            component main() -> () {
              cells { r = std_reg(8); u = my_unit(); }
              wires { u.in = 8'd1; }
              control {}
            }"#,
        )
        .unwrap();
        let mut out = Vec::new();
        let err = emit_to(&ctx, &mut out).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("cell `u`") && msg.contains("`my_unit`"),
            "{msg}"
        );
        assert!(out.is_empty(), "{}", String::from_utf8_lossy(&out));
    }
}
