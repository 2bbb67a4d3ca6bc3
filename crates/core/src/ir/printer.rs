//! Pretty printer for the textual Calyx format.
//!
//! The printed form round-trips through [`parse_context`](super::parse_context)
//! (property-tested in the parser module). Implicit interface ports
//! (`go`/`done` with the `interface` attribute) are omitted from signatures
//! since [`Component::new`] re-adds them.
//!
//! One `&mut String` runs through every writer, from a whole context down
//! to a port reference: no item is rendered into a `String` of its own
//! first, an indent is pushed as spaces where it is needed, and names,
//! widths and constants are appended without `fmt` (a port or constant
//! writes through its `write_to`, which its `Display` shares, and a guard
//! through [`GuardPool::write`], which recurses nowhere). The
//! `print_*` functions hand a fresh `String` to those writers; the `calyx`
//! backend streams [`Printer::write_externs`] and
//! [`Printer::write_component`] through one reused buffer.

use super::cell::Group;
use super::{
    attr, Assignment, Attributes, Cell, CellType, Component, Context, Control, Direction,
    GuardPool, Id, Library, PortDef, PrimitivePort, WidthSpec,
};
use crate::utils::decimal;

/// Renders IR structures as Calyx source text.
#[derive(Debug, Clone, Copy, Default)]
pub struct Printer;

impl Printer {
    /// Print an entire program: its `extern` blocks, then its components.
    pub fn print_context(ctx: &Context) -> String {
        let mut out = String::new();
        Self::write_externs(&ctx.lib, &mut out);
        for comp in ctx.components.iter() {
            Self::write_component(comp, &mut out);
            out.push('\n');
        }
        out
    }

    /// Print the `extern` rows of `lib` in declaration order, one block
    /// per run of rows that name the same file.
    pub fn print_externs(lib: &Library) -> String {
        let mut out = String::new();
        Self::write_externs(lib, &mut out);
        out
    }

    /// Append what [`Printer::print_externs`] prints to `out`.
    pub fn write_externs(lib: &Library, out: &mut String) {
        let mut open: Option<&str> = None;
        for def in lib.externs() {
            let file = def.file.as_deref().unwrap_or_default();
            if open != Some(file) {
                if open.is_some() {
                    out.push_str("}\n\n");
                }
                out.push_str("extern \"");
                out.push_str(file);
                out.push_str("\" {\n");
                open = Some(file);
            }
            out.push_str("  component ");
            out.push_str(def.name.as_str());
            write_attributes_angle(&def.attributes, out);
            let ports = |direction| def.ports.iter().filter(move |p| p.direction == direction);
            write_signature(
                out,
                ports(Direction::Input),
                ports(Direction::Output),
                write_prim_port,
            );
            out.push_str(";\n");
        }
        if open.is_some() {
            out.push_str("}\n\n");
        }
    }

    /// Print one component.
    pub fn print_component(comp: &Component) -> String {
        let mut out = String::new();
        Self::write_component(comp, &mut out);
        out
    }

    /// Append what [`Printer::print_component`] prints to `out`.
    pub fn write_component(comp: &Component, out: &mut String) {
        out.push_str("component ");
        out.push_str(comp.name.as_str());
        write_attributes_angle(&comp.attributes, out);
        let ports = |direction| {
            comp.signature
                .iter()
                .filter(move |p| p.direction == direction && !p.attributes.has(attr::INTERFACE))
        };
        write_signature(
            out,
            ports(Direction::Input),
            ports(Direction::Output),
            write_port_def,
        );
        out.push_str(" {\n  cells {\n");
        for cell in comp.cells.iter() {
            indent(2, out);
            write_cell(cell, out);
            out.push('\n');
        }
        out.push_str("  }\n  wires {\n");
        for group in comp.groups.iter() {
            write_group(group, &comp.guards, 2, out);
        }
        for asgn in &comp.continuous {
            indent(2, out);
            write_assignment(asgn, &comp.guards, out);
            out.push('\n');
        }
        out.push_str("  }\n  control {\n");
        write_control(&comp.control, 2, out);
        out.push_str("  }\n}\n");
    }

    /// Print a cell declaration, e.g. `@external m = std_mem_d1(32, 4, 2);`.
    pub fn print_cell(cell: &Cell) -> String {
        let mut out = String::new();
        write_cell(cell, &mut out);
        out
    }

    /// Print a group definition whose guards are in `guards`.
    pub fn print_group(group: &Group, guards: &GuardPool) -> String {
        let mut out = String::new();
        write_group(group, guards, 0, &mut out);
        out
    }

    /// Print a single assignment whose guard is in `guards`.
    pub fn print_assignment(asgn: &Assignment, guards: &GuardPool) -> String {
        let mut out = String::new();
        write_assignment(asgn, guards, &mut out);
        out
    }

    /// Print a control program (for debugging and tests).
    pub fn print_control(control: &Control) -> String {
        let mut out = String::new();
        write_control(control, 0, &mut out);
        out
    }
}

// Writing to a `String` cannot fail, so the writers below drop the
// `fmt::Result` of `write_to`.

/// Append `level` indents of two spaces.
fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn push_decimal(n: u64, out: &mut String) {
    out.push_str(decimal(n, &mut [0; 20]));
}

/// Append `items`, each written by `write`, separated by `, `.
fn write_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(T, &mut String),
) {
    let mut sep = "";
    for item in items {
        out.push_str(sep);
        sep = ", ";
        write(item, out);
    }
}

/// Append `(inputs) -> (outputs)`.
fn write_signature<T>(
    out: &mut String,
    inputs: impl Iterator<Item = T>,
    outputs: impl Iterator<Item = T>,
    mut write: impl FnMut(T, &mut String),
) {
    out.push('(');
    write_list(out, inputs, &mut write);
    out.push_str(") -> (");
    write_list(out, outputs, &mut write);
    out.push(')');
}

/// `name: width` of a component's signature.
fn write_port_def(p: &PortDef, out: &mut String) {
    out.push_str(p.name.as_str());
    out.push_str(": ");
    push_decimal(u64::from(p.width), out);
}

/// `name: width` of an `extern` row, where a width may be a parameter.
fn write_prim_port(p: &PrimitivePort, out: &mut String) {
    out.push_str(p.name.as_str());
    out.push_str(": ");
    match p.width {
        WidthSpec::Const(w) => push_decimal(u64::from(w), out),
        WidthSpec::Param(name) => out.push_str(name.as_str()),
    }
}

fn write_cell(cell: &Cell, out: &mut String) {
    write_attributes_at(&cell.attributes, out);
    out.push_str(cell.name.as_str());
    out.push_str(" = ");
    match &cell.prototype {
        CellType::Primitive { name, params } => {
            out.push_str(name.as_str());
            out.push('(');
            write_list(out, params, |p, out| push_decimal(*p, out));
            out.push_str(");");
        }
        CellType::Component { name } => {
            out.push_str(name.as_str());
            out.push_str("();");
        }
    }
}

/// Append a group at `level`, its assignments one level deeper.
fn write_group(group: &Group, guards: &GuardPool, level: usize, out: &mut String) {
    indent(level, out);
    out.push_str("group ");
    out.push_str(group.name.as_str());
    write_attributes_angle(&group.attributes, out);
    out.push_str(" {\n");
    for asgn in &group.assignments {
        indent(level + 1, out);
        write_assignment(asgn, guards, out);
        out.push('\n');
    }
    indent(level, out);
    out.push_str("}\n");
}

fn write_assignment(asgn: &Assignment, guards: &GuardPool, out: &mut String) {
    let _ = asgn.dst.write_to(out);
    out.push_str(" = ");
    if !asgn.guard.is_true() {
        let _ = guards.write(asgn.guard, out);
        out.push_str(" ? ");
    }
    let _ = asgn.src.write_to(out);
    out.push(';');
}

/// Append `control` at `level`; [`Control::Empty`] appends nothing.
fn write_control(control: &Control, level: usize, out: &mut String) {
    let open = |keyword: &str, attributes: &Attributes, out: &mut String| {
        indent(level, out);
        write_attributes_at(attributes, out);
        out.push_str(keyword);
    };
    let close = |out: &mut String| {
        indent(level, out);
        out.push_str("}\n");
    };
    match control {
        Control::Empty => {}
        Control::Enable { group, attributes } => {
            open(group.as_str(), attributes, out);
            out.push_str(";\n");
        }
        Control::Seq { stmts, attributes } | Control::Par { stmts, attributes } => {
            let keyword = if matches!(control, Control::Seq { .. }) {
                "seq {\n"
            } else {
                "par {\n"
            };
            open(keyword, attributes, out);
            for stmt in stmts {
                write_control(stmt, level + 1, out);
            }
            close(out);
        }
        Control::If {
            port,
            cond,
            tbranch,
            fbranch,
            attributes,
        } => {
            open("if ", attributes, out);
            write_port_with(port, *cond, out);
            write_control(tbranch, level + 1, out);
            if !fbranch.is_empty() {
                indent(level, out);
                out.push_str("} else {\n");
                write_control(fbranch, level + 1, out);
            }
            close(out);
        }
        Control::While {
            port,
            cond,
            body,
            attributes,
        } => {
            open("while ", attributes, out);
            write_port_with(port, *cond, out);
            write_control(body, level + 1, out);
            close(out);
        }
    }
}

/// `port with cond {` and the line break, after `if` or `while`.
fn write_port_with(port: &super::PortRef, cond: Option<Id>, out: &mut String) {
    let _ = port.write_to(out);
    if let Some(cond) = cond {
        out.push_str(" with ");
        out.push_str(cond.as_str());
    }
    out.push_str(" {\n");
}

/// Attributes in angle-bracket style: `<"static"=1, "share"=1>`.
fn write_attributes_angle(attrs: &Attributes, out: &mut String) {
    if attrs.is_empty() {
        return;
    }
    out.push('<');
    write_list(out, attrs.iter(), |(k, v), out| {
        out.push('"');
        out.push_str(k.as_str());
        out.push_str("\"=");
        push_decimal(v, out);
    });
    out.push('>');
}

/// Attributes in at-sign style: `@external @static(2) `.
fn write_attributes_at(attrs: &Attributes, out: &mut String) {
    for (k, v) in attrs.iter() {
        out.push('@');
        out.push_str(k.as_str());
        if v != 1 || k == attr::STATIC {
            out.push('(');
            push_decimal(v, out);
            out.push(')');
        }
        out.push(' ');
    }
}

/// `Display` implementations delegate to the printer for convenience.
impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&Printer::print_component(self))
    }
}

impl std::fmt::Display for Control {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&Printer::print_control(self))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Atom, Builder, Id, PortRef};
    use super::*;

    #[test]
    fn prints_assignments() {
        let mut guards = GuardPool::default();
        let asgn = Assignment::new(PortRef::cell("r", "in"), Atom::constant(1, 32));
        assert_eq!(Printer::print_assignment(&asgn, &guards), "r.in = 32'd1;");
        let guarded = Assignment::guarded(
            PortRef::cell("x", "in"),
            PortRef::cell("a", "out"),
            guards.port(PortRef::cell("cmp", "out")),
        );
        assert_eq!(
            Printer::print_assignment(&guarded, &guards),
            "x.in = cmp.out ? a.out;"
        );
    }

    #[test]
    fn prints_component_sections() {
        let ctx = Context::new();
        let mut comp = ctx.new_component("main");
        {
            let mut b = Builder::new(&mut comp, &ctx);
            let r = b.add_primitive("r", "std_reg", &[32]);
            let g = b.add_static_group("g", 1);
            b.asgn_const(g, (r, "in"), 7, 32);
            b.asgn_const(g, (r, "write_en"), 1, 1);
            b.group_done(g, (r, "done"));
            b.set_control_enable(g);
        }
        let text = Printer::print_component(&comp);
        assert!(text.contains("component main() -> ()"));
        assert!(text.contains("r = std_reg(32);"));
        assert!(text.contains("group g<\"static\"=1> {"));
        assert!(text.contains("r.in = 32'd7;"));
        assert!(text.contains("g[done] = r.done;"));
        assert!(text.contains("control {"));
        assert!(text.contains("g;"));
    }

    #[test]
    fn prints_nested_control() {
        let p = PortRef::cell("lt", "out");
        let control = Control::seq(vec![
            Control::enable("a"),
            Control::par(vec![Control::enable("b"), Control::enable("c")]),
            Control::while_(p, Some(Id::new("cond")), Control::enable("body")),
            Control::if_(p, None, Control::enable("t"), Control::Empty),
        ]);
        let text = Printer::print_control(&control);
        assert!(text.contains("seq {"));
        assert!(text.contains("par {"));
        assert!(text.contains("while lt.out with cond {"));
        assert!(text.contains("if lt.out {"));
        assert!(!text.contains("else"));
    }

    #[test]
    fn cell_attributes_print_at_style() {
        let ctx = Context::new();
        let mut comp = ctx.new_component("main");
        {
            let mut b = Builder::new(&mut comp, &ctx);
            let m = b.add_primitive("m", "std_mem_d1", &[32, 4, 2]);
            b.set_cell_attribute(m, attr::EXTERNAL, 1);
        }
        let text = Printer::print_component(&comp);
        assert!(text.contains("@external m = std_mem_d1(32, 4, 2);"));
    }
}
