//! A convenience API for constructing components.
//!
//! Frontends (and the compiler's own FSM-generating passes) build programs
//! through [`Builder`], which resolves primitive signatures, generates fresh
//! names, and width-checks assignments at construction time so that errors
//! surface where they are made rather than at validation or simulation time.

use super::cell::Group;
use super::{attr, Assignment, Atom, CellType, Component, Context, Control, Guard, Id, PortRef};

/// Things that can name a port: a [`PortRef`], or `(cell, port)` pairs.
pub trait IntoPortRef {
    /// Convert into a concrete port reference.
    fn into_port_ref(self) -> PortRef;
}

impl IntoPortRef for PortRef {
    fn into_port_ref(self) -> PortRef {
        self
    }
}

impl IntoPortRef for (Id, &str) {
    fn into_port_ref(self) -> PortRef {
        PortRef::cell(self.0, self.1)
    }
}

impl IntoPortRef for (&str, &str) {
    fn into_port_ref(self) -> PortRef {
        PortRef::cell(self.0, self.1)
    }
}

/// A builder of assignments and cells for one component.
///
/// The builder borrows the [`Context`] immutably (for the primitive library
/// and already-registered component signatures) and the under-construction
/// [`Component`] mutably.
///
/// # Panics
///
/// Construction methods panic on misuse — unknown primitives, undefined
/// ports, or width mismatches — with messages naming the offending
/// reference. Frontend bugs should fail loudly at the construction site.
pub struct Builder<'a> {
    comp: &'a mut Component,
    ctx: &'a Context,
}

impl<'a> Builder<'a> {
    /// Start building into `comp`.
    pub fn new(comp: &'a mut Component, ctx: &'a Context) -> Self {
        Builder { comp, ctx }
    }

    /// The component being built.
    pub fn component(&mut self) -> &mut Component {
        self.comp
    }

    /// Instantiate a primitive cell named `prefix` (or `prefix0`, `prefix1`,
    /// … when taken) and return its name.
    #[track_caller]
    pub fn add_primitive(&mut self, prefix: &str, prim: &str, params: &[u64]) -> Id {
        let name = self.comp.fresh_cell_name(prefix);
        let cell = self
            .ctx
            .make_cell(
                name,
                CellType::Primitive {
                    name: Id::new(prim),
                    params: params.to_vec(),
                },
            )
            .unwrap_or_else(|e| panic!("add_primitive(`{prefix}`, `{prim}`): {e}"));
        self.comp.cells.insert(cell);
        name
    }

    /// Instantiate another component as a cell.
    #[track_caller]
    pub fn add_component_cell(&mut self, prefix: &str, component: &str) -> Id {
        let name = self.comp.fresh_cell_name(prefix);
        let cell = self
            .ctx
            .make_cell(
                name,
                CellType::Component {
                    name: Id::new(component),
                },
            )
            .unwrap_or_else(|e| panic!("add_component_cell(`{prefix}`, `{component}`): {e}"));
        self.comp.cells.insert(cell);
        name
    }

    /// Add an attribute to an existing cell.
    #[track_caller]
    pub fn set_cell_attribute(&mut self, cell: Id, key: Id, value: u64) {
        self.comp
            .cells
            .get_mut(cell)
            .unwrap_or_else(|| panic!("set_cell_attribute: no cell `{cell}`"))
            .attributes
            .insert(key, value);
    }

    /// Create an empty group named `prefix` (made fresh when taken).
    pub fn add_group(&mut self, prefix: &str) -> Id {
        let name = self.comp.fresh_group_name(prefix);
        self.comp.groups.insert(Group::new(name));
        name
    }

    /// Create a group annotated with a `"static"` latency.
    pub fn add_static_group(&mut self, prefix: &str, latency: u64) -> Id {
        let name = self.add_group(prefix);
        self.comp
            .groups
            .get_mut(name)
            .expect("group was just inserted")
            .attributes
            .insert(attr::static_(), latency);
        name
    }

    #[track_caller]
    fn check_widths(&self, dst: &PortRef, src: &Atom) {
        let dst_width = self
            .comp
            .port_width(dst)
            .unwrap_or_else(|e| panic!("assignment destination: {e}"));
        let src_width = match src {
            Atom::Port(p) => self
                .comp
                .port_width(p)
                .unwrap_or_else(|e| panic!("assignment source: {e}")),
            Atom::Const { width, .. } => *width,
        };
        assert!(
            dst_width == src_width,
            "width mismatch: `{dst}` is {dst_width} bits but `{src}` is {src_width} bits"
        );
    }

    #[track_caller]
    fn push(&mut self, group: Option<Id>, asgn: Assignment) {
        self.check_widths(&asgn.dst, &asgn.src);
        match group {
            Some(g) => self
                .comp
                .groups
                .get_mut(g)
                .unwrap_or_else(|| panic!("no group `{g}`"))
                .assignments
                .push(asgn),
            None => self.comp.continuous.push(asgn),
        }
    }

    /// Add `dst = src` to `group`.
    #[track_caller]
    pub fn asgn(&mut self, group: Id, dst: impl IntoPortRef, src: impl IntoPortRef) {
        let asgn = Assignment::new(dst.into_port_ref(), src.into_port_ref());
        self.push(Some(group), asgn);
    }

    /// Add `dst = width'dval` to `group`.
    #[track_caller]
    pub fn asgn_const(&mut self, group: Id, dst: impl IntoPortRef, val: u64, width: u32) {
        let asgn = Assignment::new(dst.into_port_ref(), Atom::constant(val, width));
        self.push(Some(group), asgn);
    }

    /// Add `dst = guard ? src` to `group`.
    #[track_caller]
    pub fn asgn_guarded(
        &mut self,
        group: Id,
        dst: impl IntoPortRef,
        src: impl IntoPortRef,
        guard: Guard,
    ) {
        let asgn = Assignment::guarded(dst.into_port_ref(), src.into_port_ref(), guard);
        self.push(Some(group), asgn);
    }

    /// Add `dst = guard ? width'dval` to `group`.
    #[track_caller]
    pub fn asgn_const_guarded(
        &mut self,
        group: Id,
        dst: impl IntoPortRef,
        val: u64,
        width: u32,
        guard: Guard,
    ) {
        let asgn = Assignment::guarded(dst.into_port_ref(), Atom::constant(val, width), guard);
        self.push(Some(group), asgn);
    }

    /// Set the group's done condition: `group[done] = src`.
    #[track_caller]
    pub fn group_done(&mut self, group: Id, src: impl IntoPortRef) {
        let asgn = Assignment::new(PortRef::hole(group, "done"), src.into_port_ref());
        self.push(Some(group), asgn);
    }

    /// Set a constant done condition: `group[done] = 1'd1` (combinational
    /// groups, e.g. `if`/`while` condition groups).
    #[track_caller]
    pub fn group_done_const(&mut self, group: Id, val: u64) {
        let asgn = Assignment::new(PortRef::hole(group, "done"), Atom::constant(val, 1));
        self.push(Some(group), asgn);
    }

    /// Add a continuous assignment `dst = src`.
    #[track_caller]
    pub fn cont(&mut self, dst: impl IntoPortRef, src: impl IntoPortRef) {
        let asgn = Assignment::new(dst.into_port_ref(), src.into_port_ref());
        self.push(None, asgn);
    }

    /// Replace the component's control program.
    pub fn set_control(&mut self, control: Control) {
        self.comp.control = control;
    }

    /// Set the control program to a single group enable.
    pub fn set_control_enable(&mut self, group: Id) {
        self.comp.control = Control::enable(group);
    }

    /// Attach an attribute to an existing group.
    #[track_caller]
    pub fn set_group_attribute(&mut self, group: Id, key: Id, value: u64) {
        self.comp
            .groups
            .get_mut(group)
            .unwrap_or_else(|| panic!("no group `{group}`"))
            .attributes
            .insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Context, Component) {
        let ctx = Context::new();
        let comp = ctx.new_component("main");
        (ctx, comp)
    }

    #[test]
    fn builds_the_paper_figure_2_program() {
        let (ctx, mut comp) = setup();
        {
            let mut b = Builder::new(&mut comp, &ctx);
            let x = b.add_primitive("x", "std_reg", &[32]);
            let one = b.add_group("one");
            b.asgn_const(one, (x, "in"), 1, 32);
            b.asgn_const(one, (x, "write_en"), 1, 1);
            b.group_done(one, (x, "done"));
            let two = b.add_group("two");
            b.asgn_const(two, (x, "in"), 2, 32);
            b.asgn_const(two, (x, "write_en"), 1, 1);
            b.group_done(two, (x, "done"));
            b.set_control(Control::seq(vec![
                Control::enable(one),
                Control::enable(two),
            ]));
        }
        assert_eq!(comp.cells.len(), 1);
        assert_eq!(comp.groups.len(), 2);
        assert_eq!(comp.control.statement_count(), 3);
        let one = comp.groups.get(Id::new("one")).unwrap();
        assert_eq!(one.assignments.len(), 3);
        assert_eq!(one.done_writes().count(), 1);
    }

    #[test]
    fn fresh_names_on_collision() {
        let (ctx, mut comp) = setup();
        let mut b = Builder::new(&mut comp, &ctx);
        let a = b.add_primitive("r", "std_reg", &[8]);
        let b2 = b.add_primitive("r", "std_reg", &[8]);
        assert_eq!(a.as_str(), "r");
        assert_eq!(b2.as_str(), "r0");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let (ctx, mut comp) = setup();
        let mut b = Builder::new(&mut comp, &ctx);
        let r = b.add_primitive("r", "std_reg", &[8]);
        let g = b.add_group("g");
        b.asgn_const(g, (r, "in"), 1, 16);
    }

    #[test]
    #[should_panic(expected = "add_primitive")]
    fn unknown_primitive_panics() {
        let (ctx, mut comp) = setup();
        let mut b = Builder::new(&mut comp, &ctx);
        b.add_primitive("r", "std_bogus", &[8]);
    }

    #[test]
    fn static_group_annotation() {
        let (ctx, mut comp) = setup();
        {
            let mut b = Builder::new(&mut comp, &ctx);
            let g = b.add_static_group("g", 3);
            assert_eq!(g.as_str(), "g");
        }
        assert_eq!(
            comp.groups.get(Id::new("g")).unwrap().static_latency(),
            Some(3)
        );
    }

    #[test]
    fn continuous_assignments_are_width_checked() {
        let (ctx, mut comp) = setup();
        let mut b = Builder::new(&mut comp, &ctx);
        let w = b.add_primitive("w", "std_wire", &[1]);
        b.cont(PortRef::this("done"), (w, "out"));
        assert_eq!(comp.continuous.len(), 1);
    }
}
