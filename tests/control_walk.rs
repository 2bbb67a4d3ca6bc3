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
//! kernels unrolled by 1 and 2, and the systolic arrays 2×2 to 4×4.

mod random_programs;

use calyx::core::ir::Context;
use calyx::dahlia::backend::{memory_banks, split_banks};
use calyx::polybench::{compile_kernel, input_data, logical_of, KERNELS};
use calyx::sim::flatten::{
    eval_atom, eval_guard, flatten, CtrlIdx, CtrlNode, DriverRule, FlatDesign, FlatIdx, GroupIdx,
    IndexedMap, Wires,
};
use calyx::sim::interp::{Interpreter, Waiting};
use calyx::sim::SimResult;
use calyx::systolic::{generate, SystolicConfig};
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
}

/// (Re-)enter a node. Returns true when the node is immediately done.
fn start(ctrl: &IndexedMap<CtrlIdx, CtrlNode>, rt: &mut Runtime, n: CtrlIdx) -> bool {
    match &ctrl[n] {
        CtrlNode::Empty => true,
        CtrlNode::Enable { .. } => false,
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

/// Add what node `n` asks of the next cycle to `into`.
fn collect(ctrl: &IndexedMap<CtrlIdx, CtrlNode>, rt: &Runtime, n: CtrlIdx, into: &mut Waiting) {
    match &ctrl[n] {
        CtrlNode::Empty => {}
        CtrlNode::Enable { group } => into.enables.push(*group),
        CtrlNode::Seq { children } => {
            collect(ctrl, rt, children[rt.seq_pos[n.index()] as usize], into)
        }
        CtrlNode::Par { children } => {
            for &c in children.iter().filter(|c| !rt.finished[c.index()]) {
                collect(ctrl, rt, c, into);
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
                collect(ctrl, rt, *branch, into);
            }
        }
        CtrlNode::While { cond, body, .. } => {
            if rt.in_cond[n.index()] {
                match cond {
                    Some(c) => into.conds.push(*c),
                    None => into.samples = true,
                }
            } else {
                collect(ctrl, rt, *body, into);
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
        let mut w = Waiting::default();
        for (inst, phase) in self.flat.prog.instances.iter().zip(&self.phases) {
            if *phase == Phase::Running {
                collect(&self.flat.ctrl, &self.rt, inst.root, &mut w);
            }
        }
        sorted(w)
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
        let w = self.waiting();
        self.wires.publish(&self.flat.prog, &self.flat.graph);
        // The done-observation cycle: an enable already done with no
        // group active does not run again.
        if !w
            .enables
            .iter()
            .all(|&g| self.flat.groups[g].done_from_state)
        {
            self.activate(&[]);
            self.settle()?;
        }
        let mut survivors: Vec<GroupIdx> = w
            .enables
            .iter()
            .copied()
            .filter(|&g| !self.group_done(g))
            .collect();
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
            let mut image = Image::new();
            for decl in &ast.decls {
                let data = input_data(
                    def.name,
                    &logical_of(decl.name.as_str()),
                    decl.size() as usize,
                );
                let banks = memory_banks(decl).into_iter().map(|(bank, _)| bank);
                image.extend(banks.zip(split_banks(decl, &data)));
            }
            let name = format!("{} unroll {unroll}", def.name);
            assert!(walk_matches_oracle(&name, &ctx, &image) > 0, "{name}");
        }
    }
}

#[test]
fn the_systolic_arrays_walk_as_the_root_walk_does() {
    for n in 2..=4 {
        let ctx = generate(&SystolicConfig::square(n));
        let image: Image = (0..n)
            .flat_map(|i| {
                let row = (0..n).map(|k| ((i + k) % 5 + 1) as u64).collect();
                let col = (0..n).map(|k| ((2 * k + i) % 7 + 1) as u64).collect();
                [(format!("l{i}"), row), (format!("t{i}"), col)]
            })
            .collect();
        let name = format!("systolic {n}x{n}");
        // Every PE is an instance with a tree of its own.
        assert!(walk_matches_oracle(&name, &ctx, &image) > 0, "{name}");
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
