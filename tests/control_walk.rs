//! The interpreter's control walk runs on events: a group that finished,
//! or a condition sampled, walks up from its node, and the candidates and
//! raised `go` ports change only then. This holds it to the walk it
//! replaced, kept here as the oracle: an interpreter that collects the
//! candidates from every root each cycle, checks every done condition by
//! walking its guard, and advances every running tree from its root.
//!
//! Both run side by side on one design. Before every cycle the candidate
//! groups must be the same (compared as sets: the order a walk lists them
//! in is its own), and the run must end on the same cycle with the same
//! state in every cell, or with the same error. The designs: random
//! programs (component calls among their actions), the 19 PolyBench
//! kernels unrolled by 1 and 2, the systolic arrays 2×2 to 4×4, and the
//! hand-written control programs of the interpreter's unit tests — the
//! done-observation cycle, `if`/`while` without a `with` group, `par`
//! children finishing apart, and an instance that starts, restarts or
//! has an empty tree.

mod random_programs;

use calyx::core::ir::{parse_context, Context};
use calyx::polybench::{compile_kernel, memory_image, KERNELS};
use calyx::sim::flatten::{
    eval_atom, eval_guard, flatten, CtrlIdx, CtrlNode, DriverRule, FlatDesign, FlatIdx, GroupIdx,
    IndexedMap, Wires,
};
use calyx::sim::interp::{Interpreter, Waiting};
use calyx::sim::SimResult;
use calyx::systolic::{generate, matmul_operands, SystolicConfig};
use proptest::prelude::*;

/// Memory name and contents.
type Image = Vec<(String, Vec<u64>)>;

/// Per-node runtime state of the control trees, as the root walk keeps
/// it.
struct Runtime {
    seq_pos: Vec<u32>,
    in_cond: Vec<bool>,
    taken: Vec<bool>,
    finished: Vec<bool>,
    /// An enable's group has run since the node was entered.
    ran: Vec<bool>,
}

/// (Re-)enter a node. Returns true when the node is immediately done.
fn start(ctrl: &IndexedMap<CtrlIdx, CtrlNode>, rt: &mut Runtime, n: CtrlIdx) -> bool {
    match &ctrl[n] {
        CtrlNode::Empty => true,
        CtrlNode::Enable { .. } => {
            rt.ran[n.index()] = false;
            false
        }
        CtrlNode::Seq { children } => {
            for (i, &c) in children.iter().enumerate() {
                if !start(ctrl, rt, c) {
                    rt.seq_pos[n.index()] = i as u32;
                    return false;
                }
            }
            true
        }
        CtrlNode::Par { children } => {
            let mut all = true;
            for &c in children {
                let done = start(ctrl, rt, c);
                rt.finished[c.index()] = done;
                all &= done;
            }
            all
        }
        CtrlNode::If { .. } | CtrlNode::While { .. } => {
            rt.in_cond[n.index()] = true;
            false
        }
    }
}

/// Add what node `n` asks of the next cycle to `into`, and its enable
/// nodes to `enables`.
fn collect(
    ctrl: &IndexedMap<CtrlIdx, CtrlNode>,
    rt: &Runtime,
    n: CtrlIdx,
    into: &mut Waiting,
    enables: &mut Vec<CtrlIdx>,
) {
    let mut visit = |c: CtrlIdx, into: &mut Waiting| collect(ctrl, rt, c, into, enables);
    match &ctrl[n] {
        CtrlNode::Empty => {}
        CtrlNode::Enable { group } => {
            into.enables.push(*group);
            enables.push(n);
        }
        CtrlNode::Seq { children } => visit(children[rt.seq_pos[n.index()] as usize], into),
        CtrlNode::Par { children } => {
            for &c in children.iter().filter(|c| !rt.finished[c.index()]) {
                visit(c, into);
            }
        }
        CtrlNode::If {
            cond,
            tbranch,
            fbranch,
            ..
        } => {
            if rt.in_cond[n.index()] {
                match cond {
                    Some(c) => into.conds.push(*c),
                    None => into.samples = true,
                }
            } else {
                let branch = if rt.taken[n.index()] {
                    tbranch
                } else {
                    fbranch
                };
                visit(*branch, into);
            }
        }
        CtrlNode::While { cond, body, .. } => {
            if rt.in_cond[n.index()] {
                match cond {
                    Some(c) => into.conds.push(*c),
                    None => into.samples = true,
                }
            } else {
                visit(*body, into);
            }
        }
    }
}

/// Advance node `n` by one cycle on the groups that finished and the
/// settled `values`. Returns true when the node finished.
fn advance(
    ctrl: &IndexedMap<CtrlIdx, CtrlNode>,
    rt: &mut Runtime,
    n: CtrlIdx,
    done: &[bool],
    values: &[u64],
) -> bool {
    match &ctrl[n] {
        CtrlNode::Empty => true,
        CtrlNode::Enable { group } => done[group.index()],
        CtrlNode::Seq { children } => {
            let pos = rt.seq_pos[n.index()] as usize;
            if !advance(ctrl, rt, children[pos], done, values) {
                return false;
            }
            for (i, &c) in children.iter().enumerate().skip(pos + 1) {
                if !start(ctrl, rt, c) {
                    rt.seq_pos[n.index()] = i as u32;
                    return false;
                }
            }
            true
        }
        CtrlNode::Par { children } => {
            let mut all = true;
            for &c in children {
                if rt.finished[c.index()] {
                    continue;
                }
                if advance(ctrl, rt, c, done, values) {
                    rt.finished[c.index()] = true;
                } else {
                    all = false;
                }
            }
            all
        }
        CtrlNode::If {
            port,
            cond,
            tbranch,
            fbranch,
        } => {
            if !rt.in_cond[n.index()] {
                let branch = if rt.taken[n.index()] {
                    tbranch
                } else {
                    fbranch
                };
                return advance(ctrl, rt, *branch, done, values);
            }
            if !cond.is_none_or(|c| done[c.index()]) {
                return false;
            }
            let taken = values[port.index()] != 0;
            rt.taken[n.index()] = taken;
            if start(ctrl, rt, if taken { *tbranch } else { *fbranch }) {
                true
            } else {
                rt.in_cond[n.index()] = false;
                false
            }
        }
        CtrlNode::While { port, cond, body } => {
            if !rt.in_cond[n.index()] {
                if advance(ctrl, rt, *body, done, values) {
                    rt.in_cond[n.index()] = true;
                }
                return false;
            }
            if !cond.is_none_or(|c| done[c.index()]) {
                return false;
            }
            if values[port.index()] == 0 {
                return true;
            }
            if !start(ctrl, rt, *body) {
                rt.in_cond[n.index()] = false;
            }
            false
        }
    }
}

/// Where an instance is in its `go`/`done` handshake.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    Running,
    Done,
}

/// The interpreter's driver rule: drivers that agree are one driver.
struct Agree;

impl DriverRule for Agree {
    fn conflict(held: u64, next: u64) -> bool {
        held != next
    }

    fn shown(value: u64, _width: u32) -> u64 {
        value
    }
}

/// The interpreter the event-driven walk replaced.
struct Oracle {
    flat: FlatDesign,
    wires: Wires,
    rt: Runtime,
    phases: Vec<Phase>,
    active: Vec<GroupIdx>,
    cycles: u64,
}

impl Oracle {
    fn new(ctx: &Context) -> Oracle {
        let flat = flatten(ctx, "main").expect("elaborates");
        let n = flat.ctrl.len();
        let mut rt = Runtime {
            seq_pos: vec![0; n],
            in_cond: vec![false; n],
            taken: vec![false; n],
            finished: vec![false; n],
            ran: vec![false; n],
        };
        let mut phases = vec![Phase::Idle; flat.prog.instances.len()];
        let top = &flat.prog.instances[0];
        phases[0] = if start(&flat.ctrl, &mut rt, top.root) {
            Phase::Done
        } else {
            Phase::Running
        };
        let mut wires = Wires::new(&flat.prog, &flat.graph);
        wires.set(&flat.graph, top.go, 1);
        Oracle {
            flat,
            wires,
            rt,
            phases,
            active: Vec::new(),
            cycles: 0,
        }
    }

    fn set_memory(&mut self, name: &str, data: &[u64]) {
        self.wires.mark_all(&self.flat.graph);
        self.flat.prog.set_memory(name, data).expect("memory");
    }

    /// What the trees of the running instances ask of the next cycle.
    fn waiting(&self) -> Waiting {
        self.candidates().0
    }

    /// [`Oracle::waiting`], and the enable nodes it lists.
    fn candidates(&self) -> (Waiting, Vec<CtrlIdx>) {
        let (mut w, mut enables) = (Waiting::default(), Vec::new());
        for (inst, phase) in self.flat.prog.instances.iter().zip(&self.phases) {
            if *phase == Phase::Running {
                collect(&self.flat.ctrl, &self.rt, inst.root, &mut w, &mut enables);
            }
        }
        (sorted(w), enables)
    }

    /// Group `g`'s done condition, each guard walked over the values.
    fn group_done(&self, g: GroupIdx) -> bool {
        let values = self.wires.values();
        let guards = &self.flat.prog.guards;
        let mut writes = self.flat.groups[g].done_writes.iter();
        writes.any(|&(guard, src)| eval_guard(guards, guard, values) && eval_atom(src, values) != 0)
    }

    fn activate(&mut self, want: &[GroupIdx]) {
        for &g in &self.active {
            self.wires.set(&self.flat.graph, self.flat.groups[g].go, 0);
        }
        for &g in want {
            self.wires.set(&self.flat.graph, self.flat.groups[g].go, 1);
        }
        self.active = want.to_vec();
    }

    fn settle(&mut self) -> SimResult<()> {
        let Oracle {
            flat,
            wires,
            cycles,
            ..
        } = self;
        wires.settle::<Agree>(&flat.prog, &flat.graph, *cycles)
    }

    fn step(&mut self) -> SimResult<()> {
        let (w, enables) = self.candidates();
        self.wires.publish(&self.flat.prog, &self.flat.graph);
        // The done-observation cycle: an enable that has run and is
        // already done with no group active does not run again.
        if !w
            .enables
            .iter()
            .all(|&g| self.flat.groups[g].done_from_state)
        {
            self.activate(&[]);
            self.settle()?;
        }
        let mut survivors = Vec::new();
        for n in enables {
            let CtrlNode::Enable { group } = self.flat.ctrl[n] else {
                unreachable!("an enable node");
            };
            if !self.rt.ran[n.index()] || !self.group_done(group) {
                survivors.push(group);
            }
            self.rt.ran[n.index()] = true;
        }
        survivors.extend(&w.conds);
        self.activate(&survivors);
        self.settle()?;
        let mut done = vec![false; self.flat.groups.len()];
        for &g in w.enables.iter().chain(&w.conds) {
            done[g.index()] = self.group_done(g);
        }
        self.wires.tick(&mut self.flat.prog, &self.flat.graph)?;

        let Oracle {
            flat,
            wires,
            rt,
            phases,
            ..
        } = self;
        let go = |wires: &Wires, p: calyx::sim::flatten::PortIdx| wires.values()[p.index()] != 0;
        for (inst, phase) in flat.prog.instances.iter().zip(phases.iter_mut()).skip(1) {
            if *phase == Phase::Done && !go(wires, inst.go) {
                *phase = Phase::Idle;
            }
        }
        if done.iter().any(|&d| d) || w.samples {
            for (inst, phase) in flat.prog.instances.iter().zip(phases.iter_mut()) {
                if *phase == Phase::Running
                    && advance(&flat.ctrl, rt, inst.root, &done, wires.values())
                {
                    *phase = Phase::Done;
                }
            }
        }
        for (inst, phase) in flat.prog.instances.iter().zip(phases.iter_mut()).skip(1) {
            if *phase == Phase::Idle && go(wires, inst.go) {
                *phase = if start(&flat.ctrl, rt, inst.root) {
                    Phase::Done
                } else {
                    Phase::Running
                };
            }
            wires.set(&flat.graph, inst.done, u64::from(*phase == Phase::Done));
        }
        self.cycles += 1;
        Ok(())
    }
}

fn sorted(mut w: Waiting) -> Waiting {
    w.enables.sort_unstable();
    w.conds.sort_unstable();
    w
}

/// Every cell's state, as text: the registers' values and the memories'
/// words.
fn state(design: &FlatDesign) -> String {
    format!("{:?}", design.prog.states)
}

/// Run the interpreter and the oracle side by side on `ctx` loaded with
/// `image`, comparing the candidates before every cycle, then how the
/// runs ended and what they left. Returns the cycles run.
fn walk_matches_oracle(name: &str, ctx: &Context, image: &Image) -> u64 {
    const BUDGET: u64 = 200_000;
    let mut interp = Interpreter::new(ctx, "main").expect("elaborates");
    let mut oracle = Oracle::new(ctx);
    for (mem, data) in image {
        interp.set_memory(mem, data).expect("memory");
        oracle.set_memory(mem, data);
    }
    let mut ended = Ok(());
    while !interp.finished() && ended.is_ok() {
        let cycle = interp.cycles();
        assert!(cycle < BUDGET, "{name}: no end in {BUDGET} cycles");
        assert_eq!(
            interp.waiting(),
            oracle.waiting(),
            "{name}: cycle {cycle} waits on other groups"
        );
        ended = interp.step();
        let oracle_ended = oracle.step();
        assert_eq!(ended, oracle_ended, "{name}: cycle {cycle} ended otherwise");
    }
    assert_eq!(
        (interp.cycles(), oracle.phases[0] == Phase::Done),
        (oracle.cycles, ended.is_ok()),
        "{name}: the runs took other cycles"
    );
    assert_eq!(
        state(interp.design()),
        state(&oracle.flat),
        "{name}: the runs left other state"
    );
    interp.cycles()
}

#[test]
fn the_kernels_walk_as_the_root_walk_does() {
    for def in KERNELS {
        for unroll in [1, 2] {
            let (ast, ctx) = compile_kernel(def, 4, unroll).expect("kernel compiles");
            let image = memory_image(def, &ast);
            let name = format!("{} unroll {unroll}", def.name);
            assert!(walk_matches_oracle(&name, &ctx, &image) > 0, "{name}");
        }
    }
}

#[test]
fn the_systolic_arrays_walk_as_the_root_walk_does() {
    for n in 2..=4 {
        let ctx = generate(&SystolicConfig::square(n));
        let (image, _) = matmul_operands(n);
        let name = format!("systolic {n}x{n}");
        // Every PE is an instance with a tree of its own.
        assert!(walk_matches_oracle(&name, &ctx, &image) > 0, "{name}");
    }
}

/// `main` runs `control` over `invoke`, which starts instance `c` of
/// `child` and is done when `c` is.
fn calling(child: &str, control: &str) -> String {
    format!(
        r#"component child() -> () {{ {child} }}
        component main() -> () {{
          cells {{ c = child(); flag = std_reg(8); }}
          wires {{
            group invoke {{ c.go = 1'd1; invoke[done] = c.done; }}
            group after {{ flag.in = 8'd1; flag.write_en = 1'd1; after[done] = flag.done; }}
          }}
          control {{ {control} }}
        }}"#
    )
}

/// A group whose done condition is `done`: state alone (`x.done`) or a
/// wire only the group drives (`w.out`), on either side of the
/// done-observation rule.
fn observed(done: &str) -> String {
    format!(
        r#"component main() -> () {{
          cells {{ x = std_reg(8); w = std_wire(1); n = std_reg(8); inc = std_add(8); }}
          wires {{
            group g {{
              inc.left = n.out; inc.right = 8'd1; n.in = inc.out; n.write_en = 1'd1;
              x.in = 8'd9; x.write_en = 1'd1; w.in = x.done;
              g[done] = {done};
            }}
          }}
          control {{ g; }}
        }}"#
    )
}

/// An `if` without a `with` group over a comparison driven outside every
/// group, after `a` is written with `a`.
fn sampled_if(a: u8) -> String {
    format!(
        r#"component main() -> () {{
          cells {{ a = std_reg(8); gt = std_gt(8); r = std_reg(8); }}
          wires {{
            gt.left = a.out; gt.right = 8'd5;
            group wa {{ a.in = 8'd{a}; a.write_en = 1'd1; wa[done] = a.done; }}
            group t {{ r.in = 8'd1; r.write_en = 1'd1; t[done] = r.done; }}
            group f {{ r.in = 8'd2; r.write_en = 1'd1; f[done] = r.done; }}
          }}
          control {{ seq {{ wa; if gt.out {{ t; }} else {{ f; }} }} }}
        }}"#
    )
}

#[test]
fn the_hand_written_programs_walk_as_the_root_walk_does() {
    let seq = r#"component main() -> () {
          cells { x = std_reg(32); }
          wires {
            group one { x.in = 32'd1; x.write_en = 1'd1; one[done] = x.done; }
            group two { x.in = 32'd2; x.write_en = 1'd1; two[done] = x.done; }
          }
          control { seq { one; two; } }
        }"#;
    let par_if = r#"component main() -> () {
          cells { a = std_reg(8); b = std_reg(8); r = std_reg(8); gt = std_gt(8); }
          wires {
            group wa { a.in = 8'd11; a.write_en = 1'd1; wa[done] = a.done; }
            group wb { b.in = 8'd4; b.write_en = 1'd1; wb[done] = b.done; }
            group cmp { gt.left = a.out; gt.right = b.out; cmp[done] = 1'd1; }
            group t { r.in = a.out; r.write_en = 1'd1; t[done] = r.done; }
            group f { r.in = b.out; r.write_en = 1'd1; f[done] = r.done; }
          }
          control { seq { par { wa; wb; } if gt.out with cmp { t; } else { f; } } }
        }"#;
    let par_apart = r#"component main() -> () {
          cells { mul = std_mult_pipe(8); p = std_reg(8); q = std_reg(8); r = std_reg(8); }
          wires {
            group slow {
              mul.left = 8'd6; mul.right = 8'd7; mul.go = !mul.done ? 1'd1;
              p.in = mul.out; p.write_en = mul.done ? 1'd1; slow[done] = p.done;
            }
            group fast { q.in = 8'd1; q.write_en = 1'd1; fast[done] = q.done; }
            group after { r.in = q.out; r.write_en = 1'd1; after[done] = r.done; }
          }
          control { seq { par { slow; seq { fast; after; } } } }
        }"#;
    let while_with = r#"component main() -> () {
          cells { i = std_reg(8); lt = std_lt(8); add = std_add(8); }
          wires {
            group cond { lt.left = i.out; lt.right = 8'd7; cond[done] = 1'd1; }
            group incr {
              add.left = i.out; add.right = 8'd1; i.in = add.out; i.write_en = 1'd1;
              incr[done] = i.done;
            }
          }
          control { while lt.out with cond { incr; } }
        }"#;
    let sampled_while = r#"component main() -> () {
          cells { more = std_reg(1); n = std_reg(4); add = std_add(4); lt = std_lt(4); }
          wires {
            group init { more.in = 1'd1; more.write_en = 1'd1; init[done] = more.done; }
            group incr {
              add.left = n.out; add.right = 4'd1; n.in = add.out; n.write_en = 1'd1;
              incr[done] = n.done;
            }
            group check {
              lt.left = n.out; lt.right = 4'd3; more.in = lt.out; more.write_en = 1'd1;
              check[done] = more.done;
            }
          }
          control { seq { init; while more.out { seq { incr; check; } } } }
        }"#;
    let writer = r#"cells { r = std_reg(8); }
          wires { group w { r.in = 8'd9; r.write_en = 1'd1; w[done] = r.done; } }
          control { w; }"#;
    let counter = r#"cells { r = std_reg(8); add = std_add(8); }
          wires {
            group incr {
              add.left = r.out; add.right = 8'd1; r.in = add.out; r.write_en = 1'd1;
              incr[done] = r.done;
            }
          }
          control { incr; }"#;
    let constant_done = r#"component main() -> () {
          cells { i = std_reg(8); add = std_add(8); }
          wires {
            group incr {
              add.left = i.out; add.right = 8'd1; i.in = add.out; i.write_en = 1'd1;
              incr[done] = 1'd1;
            }
          }
          control { seq { incr; incr; } }
        }"#;
    let programs = [
        ("seq of register writes", seq.to_string()),
        ("a constant done, twice", constant_done.to_string()),
        ("done from state", observed("x.done")),
        ("done over a wire the group drives", observed("w.out")),
        ("par, then if with a group", par_if.to_string()),
        ("par children finishing apart", par_apart.to_string()),
        ("while with a group", while_with.to_string()),
        ("while without a group", sampled_while.to_string()),
        ("if without a group, taken", sampled_if(9)),
        ("if without a group, not taken", sampled_if(3)),
        (
            "an empty child",
            calling("cells {} wires {} control {}", "invoke;"),
        ),
        ("a child started", calling(writer, "seq { invoke; after; }")),
        (
            "a child restarted",
            calling(counter, "seq { invoke; invoke; }"),
        ),
        (
            "empty control",
            "component main() -> () { cells {} wires {} control {} }".into(),
        ),
    ];
    for (name, src) in programs {
        let ctx = parse_context(&src).expect("parses");
        walk_matches_oracle(name, &ctx, &Image::new());
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_programs_walk_as_the_root_walk_does(spec in random_programs::program_spec()) {
        let ctx = random_programs::build_program(&spec);
        walk_matches_oracle(&format!("{spec:?}"), &ctx, &Image::new());
    }
}
