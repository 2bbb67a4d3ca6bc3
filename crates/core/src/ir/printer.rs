//! Pretty printer for the textual Calyx format.
//!
//! The printed form round-trips through [`parse_context`](super::parse_context)
//! (property-tested in the parser module). Implicit interface ports
//! (`go`/`done` with the `interface` attribute) are omitted from signatures
//! since [`Component::new`] re-adds them.

use super::cell::Group;
use super::{
    attr, Assignment, Attributes, Cell, CellType, Component, Context, Control, Direction, Id,
    Library, WidthSpec,
};
use std::fmt::Write;

/// Renders IR structures as Calyx source text.
#[derive(Debug, Clone, Copy, Default)]
pub struct Printer;

impl Printer {
    /// Print an entire program: its `extern` blocks, then its components.
    pub fn print_context(ctx: &Context) -> String {
        let mut out = Self::print_externs(&ctx.lib);
        for comp in ctx.components.iter() {
            out.push_str(&Self::print_component(comp));
            out.push('\n');
        }
        out
    }

    /// Print the `extern` rows of `lib` in declaration order, one block
    /// per run of rows that name the same file.
    pub fn print_externs(lib: &Library) -> String {
        let mut s = String::new();
        let mut open: Option<&str> = None;
        for def in lib.externs() {
            let file = def.file.as_deref().unwrap_or_default();
            if open != Some(file) {
                if open.is_some() {
                    s.push_str("}\n\n");
                }
                let _ = writeln!(s, "extern \"{file}\" {{");
                open = Some(file);
            }
            let ports = |direction| {
                fmt_ports(
                    def.ports
                        .iter()
                        .filter(|p| p.direction == direction)
                        .map(|p| {
                            let width = match p.width {
                                WidthSpec::Const(w) => w.to_string(),
                                WidthSpec::Param(name) => name.to_string(),
                            };
                            (p.name, width)
                        }),
                )
            };
            let _ = writeln!(
                s,
                "  component {}{}({}) -> ({});",
                def.name,
                fmt_attributes_angle(&def.attributes),
                ports(Direction::Input),
                ports(Direction::Output)
            );
        }
        if open.is_some() {
            s.push_str("}\n\n");
        }
        s
    }

    /// Print one component.
    pub fn print_component(comp: &Component) -> String {
        let mut s = String::new();
        let _ = write!(s, "component {}", comp.name);
        let _ = write!(s, "{}", fmt_attributes_angle(&comp.attributes));
        let ports = |direction| {
            fmt_ports(
                comp.signature
                    .iter()
                    .filter(|p| p.direction == direction && !p.attributes.has(attr::INTERFACE))
                    .map(|p| (p.name, p.width)),
            )
        };
        let _ = writeln!(
            s,
            "({}) -> ({}) {{",
            ports(Direction::Input),
            ports(Direction::Output)
        );

        let _ = writeln!(s, "  cells {{");
        for cell in comp.cells.iter() {
            let _ = writeln!(s, "    {}", Self::print_cell(cell));
        }
        let _ = writeln!(s, "  }}");

        let _ = writeln!(s, "  wires {{");
        for group in comp.groups.iter() {
            for line in Self::print_group(group).lines() {
                let _ = writeln!(s, "    {line}");
            }
        }
        for asgn in &comp.continuous {
            let _ = writeln!(s, "    {}", Self::print_assignment(asgn));
        }
        let _ = writeln!(s, "  }}");

        let _ = writeln!(s, "  control {{");
        if !comp.control.is_empty() {
            let mut body = String::new();
            Self::write_control(&comp.control, 2, &mut body);
            s.push_str(&body);
        }
        let _ = writeln!(s, "  }}");
        let _ = writeln!(s, "}}");
        s
    }

    /// Print a cell declaration, e.g. `@external m = std_mem_d1(32, 4, 2);`.
    pub fn print_cell(cell: &Cell) -> String {
        let attrs = fmt_attributes_at(&cell.attributes);
        match &cell.prototype {
            CellType::Primitive { name, params } => {
                let params = params
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("{attrs}{} = {}({params});", cell.name, name)
            }
            CellType::Component { name } => format!("{attrs}{} = {}();", cell.name, name),
        }
    }

    /// Print a group definition.
    pub fn print_group(group: &Group) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "group {}{} {{",
            group.name,
            fmt_attributes_angle(&group.attributes)
        );
        for asgn in &group.assignments {
            let _ = writeln!(s, "  {}", Self::print_assignment(asgn));
        }
        let _ = writeln!(s, "}}");
        s
    }

    /// Print a single assignment.
    pub fn print_assignment(asgn: &Assignment) -> String {
        if asgn.guard.is_true() {
            format!("{} = {};", asgn.dst, asgn.src)
        } else {
            format!("{} = {} ? {};", asgn.dst, asgn.guard, asgn.src)
        }
    }

    /// Print a control program (for debugging and tests).
    pub fn print_control(control: &Control) -> String {
        let mut s = String::new();
        Self::write_control(control, 0, &mut s);
        s
    }

    fn write_control(control: &Control, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match control {
            Control::Empty => {}
            Control::Enable { group, attributes } => {
                let _ = writeln!(out, "{pad}{}{group};", fmt_attributes_at(attributes));
            }
            Control::Seq { stmts, attributes } => {
                let _ = writeln!(out, "{pad}{}seq {{", fmt_attributes_at(attributes));
                for stmt in stmts {
                    Self::write_control(stmt, indent + 1, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
            Control::Par { stmts, attributes } => {
                let _ = writeln!(out, "{pad}{}par {{", fmt_attributes_at(attributes));
                for stmt in stmts {
                    Self::write_control(stmt, indent + 1, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
            Control::If {
                port,
                cond,
                tbranch,
                fbranch,
                attributes,
            } => {
                let with = match cond {
                    Some(c) => format!(" with {c}"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{pad}{}if {port}{with} {{",
                    fmt_attributes_at(attributes)
                );
                Self::write_control(tbranch, indent + 1, out);
                if fbranch.is_empty() {
                    let _ = writeln!(out, "{pad}}}");
                } else {
                    let _ = writeln!(out, "{pad}}} else {{");
                    Self::write_control(fbranch, indent + 1, out);
                    let _ = writeln!(out, "{pad}}}");
                }
            }
            Control::While {
                port,
                cond,
                body,
                attributes,
            } => {
                let with = match cond {
                    Some(c) => format!(" with {c}"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{pad}{}while {port}{with} {{",
                    fmt_attributes_at(attributes)
                );
                Self::write_control(body, indent + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

/// Format a signature's ports: `name: width, ...`.
fn fmt_ports<W: std::fmt::Display>(ports: impl Iterator<Item = (Id, W)>) -> String {
    ports
        .map(|(name, width)| format!("{name}: {width}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Format attributes in angle-bracket style: `<"static"=1, "share"=1>`.
fn fmt_attributes_angle(attrs: &Attributes) -> String {
    if attrs.is_empty() {
        return String::new();
    }
    let body = attrs
        .iter()
        .map(|(k, v)| format!("\"{k}\"={v}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("<{body}>")
}

/// Format attributes in at-sign style: `@external @static(2) `.
fn fmt_attributes_at(attrs: &Attributes) -> String {
    let mut s = String::new();
    for (k, v) in attrs.iter() {
        if v == 1 && k != attr::STATIC {
            let _ = write!(s, "@{k} ");
        } else {
            let _ = write!(s, "@{k}({v}) ");
        }
    }
    s
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

/// Allow printing groups standalone (used in error messages).
impl std::fmt::Display for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&Printer::print_group(self))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Atom, Builder, Guard, Id, PortRef};
    use super::*;

    #[test]
    fn prints_assignments() {
        let asgn = Assignment::new(PortRef::cell("r", "in"), Atom::constant(1, 32));
        assert_eq!(Printer::print_assignment(&asgn), "r.in = 32'd1;");
        let guarded = Assignment::guarded(
            PortRef::cell("x", "in"),
            PortRef::cell("a", "out"),
            Guard::port(PortRef::cell("cmp", "out")),
        );
        assert_eq!(
            Printer::print_assignment(&guarded),
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
