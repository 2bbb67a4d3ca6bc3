//! Structural well-formedness checks.
//!
//! These functions implement the invariants the paper's IL requires (§3.2–
//! §3.3): ports exist and widths match, destinations are actually writable,
//! syntactically-duplicate unconditional drivers are rejected, and control
//! programs reference real groups. The [`WellFormed`](crate::passes::WellFormed)
//! pass wraps them; frontends can also call them directly.

use super::{
    Assignment, Atom, Component, Context, Control, Direction, Group, Guard, PortParent, PortRef,
};
use crate::errors::{CalyxResult, Error};

/// Validate a whole program: every component, plus entry-point existence.
///
/// # Errors
///
/// Returns [`Error::Malformed`] (or [`Error::Undefined`] from width
/// resolution) describing the first violation found. To report *every*
/// violation at once, use [`collect_context`] (which this wraps).
pub fn validate_context(ctx: &Context) -> CalyxResult<()> {
    let mut errors = Vec::new();
    collect_context(ctx, &mut errors);
    match errors.into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Collect *every* structural violation in the program into `sink`, in
/// the same traversal order [`validate_context`] uses to find its first
/// error: entry-point existence, acyclic instantiation, then each
/// component's groups, continuous assignments, and control program. The
/// collecting form is what the `well-formed` lint runs, so one `futil
/// check` reports all problems instead of stopping at the first.
pub fn collect_context(ctx: &Context, sink: &mut Vec<Error>) {
    if let Err(e) = ctx.entry() {
        sink.push(e);
    }
    if let Err(e) = ctx.topological_order() {
        sink.push(e);
    }
    for comp in ctx.components.iter() {
        let start = sink.len();
        collect_component(comp, sink);
        for e in &mut sink[start..] {
            *e = locate(&format!("in component `{}`", comp.name), e);
        }
    }
}

/// Re-wrap `e` with a location prefix. An already-[`Malformed`] error is
/// unwrapped first so its Display prefix (`malformed program:`) does not
/// stack up once per nesting level.
///
/// [`Malformed`]: Error::Malformed
fn locate(prefix: &str, e: &Error) -> Error {
    match e {
        Error::Malformed(msg) => Error::malformed(format!("{prefix}: {msg}")),
        other => Error::malformed(format!("{prefix}: {other}")),
    }
}

/// Per-component version of [`collect_context`] (without the component-name
/// wrapping, which the context-level walk applies).
pub fn collect_component(comp: &Component, sink: &mut Vec<Error>) {
    // One control walk for the whole component, not one per group.
    let enabled = comp.control.used_groups();
    for group in comp.groups.iter() {
        collect_group(comp, group, enabled.contains(&group.name), sink);
        check_unique_drivers(comp, &group.assignments, group.name.as_str(), sink);
    }
    for asgn in &comp.continuous {
        if let Err(e) = validate_assignment(comp, asgn) {
            sink.push(e);
        }
    }
    check_unique_drivers(comp, &comp.continuous, "continuous assignments", sink);
    collect_control(comp, &comp.control, sink);
}

fn collect_group(comp: &Component, group: &Group, enabled: bool, sink: &mut Vec<Error>) {
    for asgn in &group.assignments {
        if let Err(e) = validate_assignment(comp, asgn) {
            sink.push(locate(&format!("in group `{}`", group.name), &e));
        }
    }
    // Every group in a live control program must signal completion.
    if enabled && group.done_writes().count() == 0 {
        sink.push(Error::malformed(format!(
            "group `{}` is enabled by the control program but never writes `{}[done]`",
            group.name, group.name
        )));
    }
}

/// Check that the lowering pipeline has run: no component may retain
/// groups or control statements. This is the structural precondition
/// shared by every consumer of control-free Calyx (SystemVerilog
/// emission, area estimation, RTL simulation — the paper's §4.2 contract
/// between the compiler and its backends).
///
/// # Errors
///
/// Returns [`Error::Malformed`] naming the first offending component.
pub fn require_lowered(ctx: &Context) -> CalyxResult<()> {
    for comp in ctx.components.iter() {
        require_lowered_component(comp)?;
    }
    Ok(())
}

/// Per-component version of [`require_lowered`].
///
/// # Errors
///
/// Returns [`Error::Malformed`] when the component retains groups or
/// control.
pub fn require_lowered_component(comp: &Component) -> CalyxResult<()> {
    if !comp.groups.is_empty() || !comp.control.is_empty() {
        return Err(Error::malformed(format!(
            "component `{}` still has groups/control; run lowering first",
            comp.name
        )));
    }
    Ok(())
}

/// Direction of `port` from the *component's* point of view: may this
/// reference be used as an assignment destination?
fn writable(comp: &Component, port: &PortRef) -> CalyxResult<bool> {
    Ok(match port.parent {
        // A cell's inputs are driven by the surrounding component.
        PortParent::Cell(cell) => {
            let cell = comp
                .cells
                .get(cell)
                .ok_or_else(|| Error::undefined(format!("cell `{cell}`")))?;
            let def = cell.port(port.port).ok_or_else(|| {
                Error::undefined(format!("port `{}` on `{}`", port.port, cell.name))
            })?;
            def.direction == Direction::Input
        }
        // The component's outputs are driven from the inside.
        PortParent::This => {
            let def = comp
                .signature_port(port.port)
                .ok_or_else(|| Error::undefined(format!("signature port `{}`", port.port)))?;
            def.direction == Direction::Output
        }
        // Holes are writable (their reads are resolved by RemoveGroups).
        PortParent::Group(_) => true,
    })
}

fn validate_assignment(comp: &Component, asgn: &Assignment) -> CalyxResult<()> {
    let dst_width = comp.port_width(&asgn.dst)?;
    if !writable(comp, &asgn.dst)? {
        return Err(Error::malformed(format!(
            "`{}` is not a writable port",
            asgn.dst
        )));
    }
    let src_width = match &asgn.src {
        Atom::Port(p) => {
            if writable(comp, p)? && !p.is_hole() {
                return Err(Error::malformed(format!(
                    "`{p}` is written-only and cannot be read"
                )));
            }
            comp.port_width(p)?
        }
        Atom::Const { width, .. } => *width,
    };
    if dst_width != src_width {
        return Err(Error::malformed(format!(
            "width mismatch in `{} = {}`: {dst_width} vs {src_width} bits",
            asgn.dst, asgn.src
        )));
    }
    validate_guard(comp, &asgn.guard)
}

fn validate_guard(comp: &Component, guard: &Guard) -> CalyxResult<()> {
    match guard {
        Guard::True => Ok(()),
        Guard::Port(p) => {
            let w = comp.port_width(p)?;
            if w != 1 {
                return Err(Error::malformed(format!(
                    "guard port `{p}` must be 1 bit, found {w}"
                )));
            }
            Ok(())
        }
        Guard::Not(g) => validate_guard(comp, g),
        Guard::And(a, b) | Guard::Or(a, b) => {
            validate_guard(comp, a)?;
            validate_guard(comp, b)
        }
        Guard::Comp(_, l, r) => {
            let lw = match l {
                Atom::Port(p) => comp.port_width(p)?,
                Atom::Const { width, .. } => *width,
            };
            let rw = match r {
                Atom::Port(p) => comp.port_width(p)?,
                Atom::Const { width, .. } => *width,
            };
            if lw != rw {
                return Err(Error::malformed(format!(
                    "comparison `{l} {r}` mixes widths {lw} and {rw}"
                )));
            }
            Ok(())
        }
    }
}

/// Report two unconditional (guard-`True`) drivers of the same port in the
/// same activation scope — a *static* violation of the unique-driver rule.
/// Dynamically conflicting guarded drivers are caught by the simulator.
fn check_unique_drivers(
    _comp: &Component,
    assignments: &[Assignment],
    scope: &str,
    sink: &mut Vec<Error>,
) {
    let mut unconditional = std::collections::HashSet::new();
    for asgn in assignments {
        if asgn.guard.is_true() && !unconditional.insert(asgn.dst) {
            sink.push(Error::malformed(format!(
                "port `{}` has multiple unconditional drivers in {scope}",
                asgn.dst
            )));
        }
    }
}

fn collect_control(comp: &Component, control: &Control, sink: &mut Vec<Error>) {
    match control {
        Control::Empty => {}
        Control::Enable { group, .. } => {
            if !comp.groups.contains(*group) {
                sink.push(Error::undefined(format!("group `{group}` in control")));
            }
        }
        Control::Seq { stmts, .. } | Control::Par { stmts, .. } => {
            for s in stmts {
                collect_control(comp, s, sink);
            }
        }
        Control::If {
            port,
            cond,
            tbranch,
            fbranch,
            ..
        } => {
            collect_cond(comp, port, cond, sink);
            collect_control(comp, tbranch, sink);
            collect_control(comp, fbranch, sink);
        }
        Control::While {
            port, cond, body, ..
        } => {
            collect_cond(comp, port, cond, sink);
            collect_control(comp, body, sink);
        }
    }
}

fn collect_cond(comp: &Component, port: &PortRef, cond: &Option<super::Id>, sink: &mut Vec<Error>) {
    match comp.port_width(port) {
        Ok(w) if w != 1 => sink.push(Error::malformed(format!(
            "condition port `{port}` must be 1 bit, found {w}"
        ))),
        Ok(_) => {}
        Err(e) => sink.push(e),
    }
    if let Some(c) = cond {
        if !comp.groups.contains(*c) {
            sink.push(Error::undefined(format!("condition group `{c}`")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{parse_context, Builder, Context};
    use super::*;

    fn well_formed(src: &str) -> CalyxResult<()> {
        validate_context(&parse_context(src).expect("parses"))
    }

    #[test]
    fn accepts_valid_program() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); }
              wires {
                group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; }
              }
              control { g; }
            }
        "#;
        well_formed(src).unwrap();
    }

    #[test]
    fn rejects_width_mismatch() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); }
              wires { group g { r.in = 4'd1; g[done] = r.done; } }
              control { g; }
            }
        "#;
        let err = well_formed(src).unwrap_err();
        assert!(err.to_string().contains("width mismatch"), "{err}");
    }

    #[test]
    fn rejects_reading_an_input_port() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); a = std_add(8); }
              wires { group g { r.in = a.left; g[done] = r.done; } }
              control { g; }
            }
        "#;
        let err = well_formed(src).unwrap_err();
        assert!(err.to_string().contains("cannot be read"), "{err}");
    }

    #[test]
    fn rejects_missing_done() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); }
              wires { group g { r.in = 8'd1; r.write_en = 1'd1; } }
              control { g; }
            }
        "#;
        let err = well_formed(src).unwrap_err();
        assert!(err.to_string().contains("never writes"), "{err}");
    }

    /// The enabled-group set is computed once per component, not once per
    /// group: a few thousand enabled groups validate in linear time, and
    /// the `done` check still reaches the last of them.
    #[test]
    fn many_enabled_groups_validate_and_the_last_missing_done_is_reported() {
        const GROUPS: usize = 3000;
        let program = |last_done: &str| {
            let mut groups = String::new();
            let mut control = String::new();
            for i in 0..GROUPS {
                let done = if i == GROUPS - 1 {
                    last_done.to_string()
                } else {
                    format!("g{i}[done] = r.done;")
                };
                groups.push_str(&format!(
                    "group g{i} {{ r.in = 8'd1; r.write_en = 1'd1; {done} }}\n"
                ));
                control.push_str(&format!("g{i}; "));
            }
            format!(
                "component main() -> () {{
                   cells {{ r = std_reg(8); }}
                   wires {{ {groups} }}
                   control {{ seq {{ {control} }} }}
                 }}"
            )
        };
        well_formed(&program(&format!("g{}[done] = r.done;", GROUPS - 1))).unwrap();
        let ctx = parse_context(&program("")).expect("parses");
        let mut errors = Vec::new();
        collect_context(&ctx, &mut errors);
        assert_eq!(errors.len(), 1, "{errors:?}");
        let msg = errors[0].to_string();
        assert!(
            msg.contains(&format!("group `g{}` is enabled", GROUPS - 1))
                && msg.contains("never writes"),
            "{msg}"
        );
    }

    #[test]
    fn unused_group_without_done_is_fine() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); }
              wires { group g { r.in = 8'd1; } }
              control {}
            }
        "#;
        well_formed(src).unwrap();
    }

    #[test]
    fn rejects_double_unconditional_drivers() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); }
              wires {
                group g {
                  r.in = 8'd1;
                  r.in = 8'd2;
                  r.write_en = 1'd1;
                  g[done] = r.done;
                }
              }
              control { g; }
            }
        "#;
        let err = well_formed(src).unwrap_err();
        assert!(err.to_string().contains("multiple unconditional"), "{err}");
    }

    #[test]
    fn rejects_wide_guard_port() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); }
              wires {
                group g {
                  r.in = r.out ? 8'd1;
                  r.write_en = 1'd1;
                  g[done] = r.done;
                }
              }
              control { g; }
            }
        "#;
        let err = well_formed(src).unwrap_err();
        assert!(err.to_string().contains("must be 1 bit"), "{err}");
    }

    #[test]
    fn rejects_undefined_control_group() {
        let src = r#"
            component main() -> () {
              cells {}
              wires {}
              control { ghost; }
            }
        "#;
        assert!(well_formed(src).is_err());
    }

    #[test]
    fn rejects_missing_entrypoint() {
        let ctx = Context::new();
        assert!(validate_context(&ctx).is_err());
    }

    #[test]
    fn collect_reports_every_violation_in_validation_order() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); }
              wires {
                group g {
                  r.in = 4'd1;
                  r.write_en = 1'd1;
                }
              }
              control { seq { g; ghost; } }
            }
        "#;
        let ctx = parse_context(src).expect("parses");
        let mut errors = Vec::new();
        collect_context(&ctx, &mut errors);
        let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        assert_eq!(msgs.len(), 3, "{msgs:#?}");
        assert!(msgs[0].contains("width mismatch"), "{}", msgs[0]);
        assert!(msgs[1].contains("never writes `g[done]`"), "{}", msgs[1]);
        assert!(msgs[2].contains("group `ghost` in control"), "{}", msgs[2]);
        // Every collected error carries the component wrapper, and the
        // fail-fast entry point returns exactly the first one.
        assert!(msgs.iter().all(|m| m.contains("in component `main`")));
        assert_eq!(
            validate_context(&ctx).unwrap_err().to_string(),
            msgs[0],
            "validate_context must return the first collected error"
        );
    }

    #[test]
    fn accepts_builder_output() {
        let ctx = Context::new();
        let mut comp = ctx.new_component("main");
        {
            let mut b = Builder::new(&mut comp, &ctx);
            let r = b.add_primitive("r", "std_reg", &[4]);
            let g = b.add_group("g");
            b.asgn_const(g, (r, "in"), 3, 4);
            b.asgn_const(g, (r, "write_en"), 1, 1);
            b.group_done(g, (r, "done"));
            b.set_control_enable(g);
        }
        let mut ctx = ctx;
        ctx.add_component(comp);
        validate_context(&ctx).unwrap();
    }
}
