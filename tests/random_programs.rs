//! A generator of random — but well-formed — Calyx programs for
//! differential testing.
//!
//! Compiled both as its own test binary and as a module of other test
//! binaries, which use different subsets of the API.
#![allow(dead_code)]
//!
//! Programs use a fixed pool of 8-bit data registers and one external
//! memory. Leaf groups perform register arithmetic and memory traffic, or
//! route a register through an instance of a child component (started by
//! its `go`, finished by its `done`); the control tree composes them with
//! `seq`, `par`, `if`, and bounded `while` loops. Well-formedness is
//! maintained by construction:
//!
//! - `par` branches receive *disjoint* register sets and at most one
//!   branch touches the memory (the unique-driver rule);
//! - every `while` owns a dedicated counter register, reset immediately
//!   before the loop, so all programs terminate;
//! - `if`/`while` conditions are combinational comparison groups;
//! - every call site instantiates a child of its own, so `par` branches
//!   never share one.

use calyx::core::ir::{
    Builder, Component, Context, Control, Direction, Guard, Id, PortDef, PortRef,
};
use proptest::prelude::*;

/// Width of all data registers.
const WIDTH: u64 = 8;
/// Size of the scratch memory's data section (reachable by actions).
const MEM_SIZE: u64 = 8;
/// Full memory size: the data section plus one drain slot per register,
/// written at the end of every program so that register values become
/// architecturally observable even after `MinimizeRegs` renames registers.
const MEM_TOTAL: u64 = MEM_SIZE + REGS as u64;
/// Data registers available to leaf actions.
const REGS: usize = 4;
/// Maximum `while` loops per program (each owns a counter register).
const MAX_LOOPS: usize = 3;

/// A leaf action over the register file / memory.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// `r[dst] <- konst`
    SetConst { dst: usize, value: u64 },
    /// `r[dst] <- r[src] + konst`
    AddConst { dst: usize, src: usize, value: u64 },
    /// `r[dst] <- r[a] + r[b]`
    AddRegs { dst: usize, a: usize, b: usize },
    /// `mem[addr] <- r[src]`
    Store { addr: u64, src: usize },
    /// `r[dst] <- mem[addr]`
    Load { dst: usize, addr: u64 },
    /// `r[dst] <- r[src]`, through a fresh instance of the child component
    Call { dst: usize, src: usize },
}

impl Action {
    fn writes_reg(&self) -> Option<usize> {
        match self {
            Action::SetConst { dst, .. }
            | Action::AddConst { dst, .. }
            | Action::AddRegs { dst, .. }
            | Action::Load { dst, .. }
            | Action::Call { dst, .. } => Some(*dst),
            Action::Store { .. } => None,
        }
    }

    fn reads_regs(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Action::SetConst { .. } | Action::Load { .. } => {}
            Action::AddConst { src, .. } | Action::Store { src, .. } | Action::Call { src, .. } => {
                out.insert(*src);
            }
            Action::AddRegs { a, b, .. } => {
                out.insert(*a);
                out.insert(*b);
            }
        }
    }

    fn touches_mem(&self) -> bool {
        matches!(self, Action::Store { .. } | Action::Load { .. })
    }
}

/// A structured control node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    Leaf(Action),
    Seq(Vec<Node>),
    /// Children constructed with disjoint write sets.
    Par(Vec<Node>),
    /// `if r[reg] < konst { then } else { else_ }`
    If {
        reg: usize,
        konst: u64,
        then_: Box<Node>,
        else_: Box<Node>,
    },
    /// A bounded loop over dedicated counter `loop_idx`: runs `trips`
    /// iterations of the body.
    While {
        loop_idx: usize,
        trips: u64,
        body: Box<Node>,
    },
}

impl Node {
    fn reg_writes(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Node::Leaf(a) => {
                out.extend(a.writes_reg());
            }
            Node::Seq(ns) | Node::Par(ns) => {
                for n in ns {
                    n.reg_writes(out);
                }
            }
            Node::If { then_, else_, .. } => {
                then_.reg_writes(out);
                else_.reg_writes(out);
            }
            Node::While { body, .. } => body.reg_writes(out),
        }
    }

    /// Registers this node may read, including `if` condition registers.
    /// (Loop counters live in a dedicated register pool and cannot
    /// interfere with the data registers tracked here.)
    fn reg_reads(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Node::Leaf(a) => a.reads_regs(out),
            Node::Seq(ns) | Node::Par(ns) => {
                for n in ns {
                    n.reg_reads(out);
                }
            }
            Node::If {
                reg, then_, else_, ..
            } => {
                out.insert(*reg);
                then_.reg_reads(out);
                else_.reg_reads(out);
            }
            Node::While { body, .. } => body.reg_reads(out),
        }
    }

    fn touches_mem(&self) -> bool {
        match self {
            Node::Leaf(a) => a.touches_mem(),
            Node::Seq(ns) | Node::Par(ns) => ns.iter().any(Node::touches_mem),
            Node::If { then_, else_, .. } => then_.touches_mem() || else_.touches_mem(),
            Node::While { body, .. } => body.touches_mem(),
        }
    }

    fn loop_count(&self) -> usize {
        match self {
            Node::Leaf(_) => 0,
            Node::Seq(ns) | Node::Par(ns) => ns.iter().map(Node::loop_count).sum(),
            Node::If { then_, else_, .. } => then_.loop_count() + else_.loop_count(),
            Node::While { body, .. } => 1 + body.loop_count(),
        }
    }
}

/// A complete random program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// The control tree.
    pub root: Node,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..REGS, 0..256u64).prop_map(|(dst, value)| Action::SetConst { dst, value }),
        (0..REGS, 0..REGS, 1..16u64).prop_map(|(dst, src, value)| Action::AddConst {
            dst,
            src,
            value
        }),
        (0..REGS, 0..REGS, 0..REGS).prop_map(|(dst, a, b)| Action::AddRegs { dst, a, b }),
        (0..MEM_SIZE, 0..REGS).prop_map(|(addr, src)| Action::Store { addr, src }),
        (0..REGS, 0..MEM_SIZE).prop_map(|(dst, addr)| Action::Load { dst, addr }),
        (0..REGS, 0..REGS).prop_map(|(dst, src)| Action::Call { dst, src }),
    ]
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = action_strategy().prop_map(Node::Leaf);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Node::Seq),
            // Par: filter to disjoint register writes and single-branch
            // memory use after generation.
            prop::collection::vec(inner.clone(), 2..4).prop_map(make_par_sound),
            (0..REGS, 0..256u64, inner.clone(), inner.clone()).prop_map(|(reg, konst, t, e)| {
                Node::If {
                    reg,
                    konst,
                    then_: Box::new(t),
                    else_: Box::new(e),
                }
            }),
            (1..4u64, inner).prop_map(|(trips, body)| Node::While {
                loop_idx: 0, // reassigned by `number_loops`
                trips,
                body: Box::new(body),
            }),
        ]
    })
}

/// Make a candidate `par` sound: drop children that *interfere* with
/// earlier children. Two branches interfere when either writes a register
/// the other reads or writes, or when both touch the memory. Write/write
/// disjointness alone is not enough: a branch observing a register while a
/// sibling writes it is a data race, and the paper leaves the semantics of
/// interfering `par` undefined — dynamic and static schedules may then
/// legally disagree, which is exactly what differential testing must not
/// count as a compiler bug.
fn make_par_sound(children: Vec<Node>) -> Node {
    let mut taken_writes: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    let mut taken_reads: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    let mut mem_used = false;
    let mut kept = Vec::new();
    for child in children {
        let mut writes = std::collections::BTreeSet::new();
        let mut reads = std::collections::BTreeSet::new();
        child.reg_writes(&mut writes);
        child.reg_reads(&mut reads);
        let writes_ok = writes
            .iter()
            .all(|r| !taken_writes.contains(r) && !taken_reads.contains(r));
        let reads_ok = reads.iter().all(|r| !taken_writes.contains(r));
        let mem_ok = !child.touches_mem() || !mem_used;
        if writes_ok && reads_ok && mem_ok {
            taken_writes.extend(writes);
            taken_reads.extend(reads);
            mem_used |= child.touches_mem();
            kept.push(child);
        }
    }
    match kept.len() {
        0 => Node::Seq(Vec::new()),
        1 => kept.pop().expect("length checked"),
        _ => Node::Par(kept),
    }
}

/// Assign unique counter registers to the first `MAX_LOOPS` while loops and
/// demote the rest to plain bodies.
fn number_loops(node: Node, next: &mut usize) -> Node {
    match node {
        Node::Leaf(_) => node,
        Node::Seq(ns) => Node::Seq(ns.into_iter().map(|n| number_loops(n, next)).collect()),
        Node::Par(ns) => Node::Par(ns.into_iter().map(|n| number_loops(n, next)).collect()),
        Node::If {
            reg,
            konst,
            then_,
            else_,
        } => Node::If {
            reg,
            konst,
            then_: Box::new(number_loops(*then_, next)),
            else_: Box::new(number_loops(*else_, next)),
        },
        Node::While { trips, body, .. } => {
            let body = Box::new(number_loops(*body, next));
            if *next < MAX_LOOPS {
                let loop_idx = *next;
                *next += 1;
                Node::While {
                    loop_idx,
                    trips,
                    body,
                }
            } else {
                *body
            }
        }
    }
}

/// The proptest strategy for whole programs.
pub fn program_spec() -> impl Strategy<Value = ProgramSpec> {
    node_strategy().prop_map(|root| {
        let mut next = 0;
        ProgramSpec {
            root: number_loops(root, &mut next),
        }
    })
}

/// Names of the data registers.
fn reg_name(i: usize) -> String {
    format!("r{i}")
}

/// The component a [`Action::Call`] instantiates: it latches `in` into a
/// register of its own and shows it on `out`.
const CHILD: &str = "latch";

fn build_child(ctx: &Context) -> Component {
    let mut child = Component::new(
        CHILD,
        vec![
            PortDef::new("in", WIDTH as u32, Direction::Input),
            PortDef::new("out", WIDTH as u32, Direction::Output),
        ],
    );
    let mut b = Builder::new(&mut child, ctx);
    let r = b.add_primitive("r", "std_reg", &[WIDTH]);
    let g = b.add_group("store");
    b.asgn(g, (r, "in"), PortRef::this("in"));
    b.asgn_const(g, (r, "write_en"), 1, 1);
    b.group_done(g, (r, "done"));
    b.cont(PortRef::this("out"), (r, "out"));
    b.set_control(Control::enable(g));
    child
}

/// Build the Calyx program for a spec.
pub fn build_program(spec: &ProgramSpec) -> Context {
    let mut ctx = Context::new();
    let child = build_child(&ctx);
    ctx.add_component(child);
    let mut comp = ctx.new_component("main");
    {
        let mut b = Builder::new(&mut comp, &ctx);
        // Register file, loop counters, scratch memory.
        for i in 0..REGS {
            b.add_primitive(&reg_name(i), "std_reg", &[WIDTH]);
        }
        for i in 0..MAX_LOOPS {
            b.add_primitive(&format!("w{i}"), "std_reg", &[WIDTH]);
            b.add_primitive(&format!("wadd{i}"), "std_add", &[WIDTH]);
            b.add_primitive(&format!("wlt{i}"), "std_lt", &[WIDTH]);
        }
        let mem = b.add_primitive("mem", "std_mem_d1", &[WIDTH, MEM_TOTAL, 4]);
        b.set_cell_attribute(mem, calyx::core::ir::attr::external(), 1);

        let mut gen = Gen {
            b: &mut b,
            mem,
            group_counter: 0,
        };
        let control = gen.node(&spec.root);
        // Drain: registers are not architectural state (register sharing
        // may rename them), so every program ends by storing each register
        // into its reserved memory slot.
        let mut stmts = vec![control];
        for i in 0..REGS {
            stmts.push(gen.action(&Action::Store {
                addr: MEM_SIZE + i as u64,
                src: i,
            }));
        }
        gen.b.set_control(Control::seq(stmts));
    }
    ctx.add_component(comp);
    calyx::core::ir::validate::validate_context(&ctx).expect("generated programs are well-formed");
    ctx
}

struct Gen<'a, 'b> {
    b: &'a mut Builder<'b>,
    mem: Id,
    group_counter: usize,
}

impl Gen<'_, '_> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.group_counter += 1;
        format!("{prefix}{}", self.group_counter)
    }

    /// The control of `action`: one group, or for a call, the group that
    /// runs the child and the one that latches its result.
    fn action(&mut self, action: &Action) -> Control {
        let name = self.fresh("act");
        let g = self.b.add_group(&name);
        match action {
            Action::SetConst { dst, value } => {
                let r = Id::new(reg_name(*dst));
                self.b.asgn_const(g, (r, "in"), *value, WIDTH as u32);
                self.b.asgn_const(g, (r, "write_en"), 1, 1);
                self.b.group_done(g, (r, "done"));
            }
            Action::AddConst { dst, src, value } => {
                let add_name = self.fresh("add");
                let add = self.b.add_primitive(&add_name, "std_add", &[WIDTH]);
                let (d, s) = (Id::new(reg_name(*dst)), Id::new(reg_name(*src)));
                self.b.asgn(g, (add, "left"), (s, "out"));
                self.b.asgn_const(g, (add, "right"), *value, WIDTH as u32);
                self.b.asgn(g, (d, "in"), (add, "out"));
                self.b.asgn_const(g, (d, "write_en"), 1, 1);
                self.b.group_done(g, (d, "done"));
            }
            Action::AddRegs { dst, a, b: rb } => {
                let add_name = self.fresh("add");
                let add = self.b.add_primitive(&add_name, "std_add", &[WIDTH]);
                let (d, ra, rb) = (
                    Id::new(reg_name(*dst)),
                    Id::new(reg_name(*a)),
                    Id::new(reg_name(*rb)),
                );
                self.b.asgn(g, (add, "left"), (ra, "out"));
                self.b.asgn(g, (add, "right"), (rb, "out"));
                self.b.asgn(g, (d, "in"), (add, "out"));
                self.b.asgn_const(g, (d, "write_en"), 1, 1);
                self.b.group_done(g, (d, "done"));
            }
            Action::Store { addr, src } => {
                let s = Id::new(reg_name(*src));
                self.b.asgn_const(g, (self.mem, "addr0"), *addr, 4);
                self.b.asgn(g, (self.mem, "write_data"), (s, "out"));
                self.b.asgn_const(g, (self.mem, "write_en"), 1, 1);
                self.b.group_done(g, (self.mem, "done"));
            }
            Action::Load { dst, addr } => {
                let d = Id::new(reg_name(*dst));
                self.b.asgn_const(g, (self.mem, "addr0"), *addr, 4);
                self.b.asgn(g, (d, "in"), (self.mem, "read_data"));
                self.b.asgn_const(g, (d, "write_en"), 1, 1);
                self.b.group_done(g, (d, "done"));
            }
            Action::Call { dst, src } => {
                let cell = self.fresh("call");
                let c = self.b.add_component_cell(&cell, CHILD);
                let (d, s) = (Id::new(reg_name(*dst)), Id::new(reg_name(*src)));
                self.b.asgn(g, (c, "in"), (s, "out"));
                let running = Guard::Port(PortRef::cell(c, "done")).not();
                self.b.asgn_const_guarded(g, (c, "go"), 1, 1, running);
                self.b.group_done(g, (c, "done"));
                let name = self.fresh("ret");
                let ret = self.b.add_group(&name);
                self.b.asgn(ret, (d, "in"), (c, "out"));
                self.b.asgn_const(ret, (d, "write_en"), 1, 1);
                self.b.group_done(ret, (d, "done"));
                return Control::seq(vec![Control::enable(g), Control::enable(ret)]);
            }
        }
        Control::enable(g)
    }

    fn node(&mut self, node: &Node) -> Control {
        match node {
            Node::Leaf(a) => self.action(a),
            Node::Seq(ns) => Control::seq(ns.iter().map(|n| self.node(n)).collect()),
            Node::Par(ns) => Control::par(ns.iter().map(|n| self.node(n)).collect()),
            Node::If {
                reg,
                konst,
                then_,
                else_,
            } => {
                let lt_name = self.fresh("iflt");
                let lt = self.b.add_primitive(&lt_name, "std_lt", &[WIDTH]);
                let cname = self.fresh("cond");
                let cond = self.b.add_group(&cname);
                let r = Id::new(reg_name(*reg));
                self.b.asgn(cond, (lt, "left"), (r, "out"));
                self.b.asgn_const(cond, (lt, "right"), *konst, WIDTH as u32);
                self.b.group_done_const(cond, 1);
                let t = self.node(then_);
                let e = self.node(else_);
                Control::if_(PortRef::cell(lt, "out"), Some(cond), t, e)
            }
            Node::While {
                loop_idx,
                trips,
                body,
            } => {
                let w = Id::new(format!("w{loop_idx}"));
                let wadd = Id::new(format!("wadd{loop_idx}"));
                let wlt = Id::new(format!("wlt{loop_idx}"));

                // reset counter
                let rname = self.fresh("wreset");
                let reset = self.b.add_group(&rname);
                self.b.asgn_const(reset, (w, "in"), 0, WIDTH as u32);
                self.b.asgn_const(reset, (w, "write_en"), 1, 1);
                self.b.group_done(reset, (w, "done"));

                // condition: w < trips
                let cname = self.fresh("wcond");
                let cond = self.b.add_group(&cname);
                self.b.asgn(cond, (wlt, "left"), (w, "out"));
                self.b
                    .asgn_const(cond, (wlt, "right"), *trips, WIDTH as u32);
                self.b.group_done_const(cond, 1);

                // increment
                let iname = self.fresh("wincr");
                let incr = self.b.add_group(&iname);
                self.b.asgn(incr, (wadd, "left"), (w, "out"));
                self.b.asgn_const(incr, (wadd, "right"), 1, WIDTH as u32);
                self.b.asgn(incr, (w, "in"), (wadd, "out"));
                self.b.asgn_const(incr, (w, "write_en"), 1, 1);
                self.b.group_done(incr, (w, "done"));

                let body = self.node(body);
                Control::seq(vec![
                    Control::enable(reset),
                    Control::while_(
                        PortRef::cell(wlt, "out"),
                        Some(cond),
                        Control::seq(vec![body, Control::enable(incr)]),
                    ),
                ])
            }
        }
    }
}

/// Collect the observable state (data registers + memory) through the
/// provided accessors.
pub fn observable_state(
    _spec: &ProgramSpec,
    _reg: impl Fn(&str) -> Option<Vec<u64>>,
    mem: impl Fn(&str) -> Option<Vec<u64>>,
) -> Vec<(String, Vec<u64>)> {
    // Only the external memory is architectural state; its tail slots hold
    // the drained register values (see `build_program`).
    vec![("mem".to_string(), mem("mem").unwrap_or_default())]
}

// Allow this module to be included by multiple test binaries without
// `unused` warnings when only part of the API is exercised.
#[allow(dead_code)]
fn _unused() {}

/// Regression test: `par` branches must be pairwise interference-free —
/// no branch may write a register a sibling reads *or* writes, and at most
/// one branch may touch the memory. The original `make_par_sound` only
/// enforced write/write disjointness, so a branch could observe a register
/// mid-update by a sibling (e.g. an `if` whose condition register a
/// sibling `seq` was rewriting); such races made the static-timing
/// differential test flag a divergence that was really undefined behavior
/// in the generated program.
#[test]
fn par_branches_never_interfere() {
    fn footprint(n: &Node) -> (BTreeSet<usize>, BTreeSet<usize>, bool) {
        let mut writes = BTreeSet::new();
        let mut reads = BTreeSet::new();
        n.reg_writes(&mut writes);
        n.reg_reads(&mut reads);
        (writes, reads, n.touches_mem())
    }
    fn check(n: &Node) {
        match n {
            Node::Leaf(_) => {}
            Node::Seq(ns) => ns.iter().for_each(check),
            Node::Par(ns) => {
                for (i, a) in ns.iter().enumerate() {
                    let (wa, ra, ma) = footprint(a);
                    for b in &ns[i + 1..] {
                        let (wb, rb, mb) = footprint(b);
                        assert!(
                            wa.intersection(&wb).count() == 0
                                && wa.intersection(&rb).count() == 0
                                && wb.intersection(&ra).count() == 0,
                            "par branches interfere: {a:?} vs {b:?}"
                        );
                        assert!(!(ma && mb), "two par branches touch memory: {a:?} vs {b:?}");
                    }
                }
                ns.iter().for_each(check);
            }
            Node::If { then_, else_, .. } => {
                check(then_);
                check(else_);
            }
            Node::While { body, .. } => check(body),
        }
    }

    use proptest::strategy::{Strategy, ValueTree};
    use proptest::test_runner::TestRunner;
    use std::collections::BTreeSet;
    let mut runner = TestRunner::default();
    for _ in 0..256 {
        let spec = program_spec()
            .new_tree(&mut runner)
            .expect("strategy works")
            .current();
        check(&spec.root);
    }
}

#[test]
fn generator_produces_valid_programs() {
    use proptest::strategy::ValueTree;
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    for _ in 0..32 {
        let spec = program_spec()
            .new_tree(&mut runner)
            .expect("strategy works")
            .current();
        // `build_program` validates internally.
        let _ = build_program(&spec);
    }
}
