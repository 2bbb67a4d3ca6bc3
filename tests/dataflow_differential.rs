//! Differential testing of the dataflow engine: the engine-backed
//! liveness must agree *tree for tree* with an independent reference
//! solver on every program the repository can produce.
//!
//! The reference — [`reference_liveness`], a round-robin fixpoint that
//! re-solves a p-node's children on every visit, and
//! [`interference_oracle`], the interference rule pair by pair — lives
//! here, not in the library, and runs on `BTreeSet<Id>`: it shares
//! neither the engine's worklist, nor the bitset facts and their register
//! numbering, nor `Interference`'s bit matrix and bottom-up touched sets.
//! It reads the per-group read/write sets through their name view, once
//! per component.
//!
//! Both solvers compute the least fixpoint of the same monotone flow
//! equations over the same pCFG, so any disagreement — on any node of any
//! nested p-node child — is a bug in one of them. The engine's tree is
//! compared through the `BTreeSet<Id>` view, so one `assert_eq!` covers
//! every child solution of every p-node. The corpus is all 19 PolyBench
//! kernels straight out of the Dahlia frontend and again after each
//! standard pipeline (`lower`, `lower-static`, `opt`), plus the par-heavy
//! programs: the unrollable kernels at `unroll=2` and systolic arrays, raw
//! and after `resource-sharing`. On every one the cached `Interference`
//! relation — what `minimize-regs` merges by — must answer every ordered
//! register pair as the oracle does over the reference tree.

use calyx::core::analysis::dataflow::{solve_liveness, Solution};
use calyx::core::analysis::{
    AnalysisCache, BoundaryRegs, Interference, Liveness, Pcfg, PcfgNode, ReadWriteSets, RegSet,
};
use calyx::core::ir::{parse_context, Component, Context, Id};
use calyx::core::passes::PassManager;
use calyx::polybench::{compile_kernel, KERNELS};
use calyx::systolic::{generate, SystolicConfig};
use std::collections::{BTreeMap, BTreeSet};

/// A liveness tree over register names.
type Tree = Solution<BTreeSet<Id>>;

/// One group's register sets, by name.
#[derive(Default)]
struct Access {
    reads: BTreeSet<Id>,
    must_writes: BTreeSet<Id>,
    may_writes: BTreeSet<Id>,
}

/// Every group's register sets, by name: read once through the
/// `BTreeSet<Id>` view of [`ReadWriteSets`].
struct Rw(BTreeMap<Id, Access>);

impl Rw {
    fn new(comp: &Component, rw: &ReadWriteSets) -> Self {
        let regs = rw.regs();
        Rw(comp
            .groups
            .iter()
            .map(|g| {
                let name = |set: &RegSet| regs.names(set).collect();
                let access = Access {
                    reads: name(rw.reads(g.name)),
                    must_writes: name(rw.must_writes(g.name)),
                    may_writes: name(rw.may_writes(g.name)),
                };
                (g.name, access)
            })
            .collect())
    }

    fn get(&self, group: Id) -> &Access {
        &self.0[&group]
    }
}

/// The engine's tree through the `BTreeSet<Id>` view.
fn view(live: &Liveness, rw: &ReadWriteSets) -> Tree {
    let names = |facts: &[RegSet]| -> Vec<BTreeSet<Id>> {
        facts.iter().map(|f| rw.regs().names(f).collect()).collect()
    };
    Solution {
        input: names(&live.input),
        output: names(&live.output),
        children: live
            .children
            .iter()
            .map(|solved| solved.iter().map(|s| view(s, rw)).collect())
            .collect(),
    }
}

/// Solve liveness over `pcfg` with `boundary` live at the graph's exit:
/// the hand-rolled round-robin reference.
fn reference_liveness(pcfg: &Pcfg, rw: &Rw, boundary: &BTreeSet<Id>) -> Tree {
    let n = pcfg.len();
    let mut live = Tree {
        input: vec![BTreeSet::new(); n],
        output: vec![BTreeSet::new(); n],
        children: vec![Vec::new(); n],
    };
    // Iterate to fixpoint (loops create cycles), sweeping every node
    // until nothing changes.
    loop {
        let mut changed = false;
        for node in (0..n).rev() {
            // live_out = union of successors' live_in (exit keeps its
            // boundary set).
            let mut out = if node == pcfg.exit {
                boundary.clone()
            } else {
                BTreeSet::new()
            };
            for &s in &pcfg.succs[node] {
                out.extend(live.input[s].iter().copied());
            }
            let (uses, defs, children) = node_use_def(&pcfg.nodes[node], rw, &out);
            let mut inn: BTreeSet<Id> = out.difference(&defs).copied().collect();
            inn.extend(uses);
            if inn != live.input[node] || out != live.output[node] {
                changed = true;
                live.input[node] = inn;
                live.output[node] = out;
            }
            // Solved under `out`, so final once `out` is.
            live.children[node] = children;
        }
        if !changed {
            return live;
        }
    }
}

/// use/def of a node, plus the solutions of its children. For p-nodes
/// this *recursively solves* the children with the current live-out as
/// their boundary, per the paper.
fn node_use_def(
    node: &PcfgNode,
    rw: &Rw,
    live_out: &BTreeSet<Id>,
) -> (BTreeSet<Id>, BTreeSet<Id>, Vec<Tree>) {
    match node {
        PcfgNode::Nop => (BTreeSet::new(), BTreeSet::new(), Vec::new()),
        PcfgNode::Group(g) => (
            rw.get(*g).reads.clone(),
            rw.get(*g).must_writes.clone(),
            Vec::new(),
        ),
        PcfgNode::Par(children) => {
            let mut uses = BTreeSet::new();
            let mut defs = BTreeSet::new();
            let mut solutions = Vec::new();
            for child in children {
                let solved = reference_liveness(child, rw, live_out);
                uses.extend(solved.input[child.entry].iter().copied());
                // A straight-line child kills what its own groups must
                // write; any other child kills nothing.
                if child.succs.iter().all(|s| s.len() <= 1) {
                    for g in child.groups() {
                        defs.extend(rw.get(g).must_writes.iter().copied());
                    }
                }
                solutions.push(solved);
            }
            // A register used by one child must not be treated as killed by
            // a sibling: uses win over defs at the p-node boundary.
            let defs = defs.difference(&uses).copied().collect();
            (uses, defs, solutions)
        }
    }
}

/// Every ordered pair `(a, b)`, `a != b`, of `left × right`.
fn cross(edges: &mut BTreeSet<(Id, Id)>, left: &BTreeSet<Id>, right: &BTreeSet<Id>) {
    for &a in left {
        for &b in right.iter().filter(|&&b| b != a) {
            edges.insert((a, b));
        }
    }
}

/// The interference relation pair by pair, in both orders: a clique over
/// `live_out ∪ may_writes ∪ reads` at group nodes and over `live_out`
/// elsewhere, and the cross product of the touched sets of sibling `par`
/// children, each touched set re-read from the groups below the child.
fn interference_oracle(pcfg: &Pcfg, rw: &Rw, live: &Tree) -> BTreeSet<(Id, Id)> {
    let mut edges = BTreeSet::new();
    live.walk(pcfg, &mut |pcfg, live| {
        for (node, live_out) in pcfg.nodes.iter().zip(&live.output) {
            let mut set = live_out.clone();
            if let PcfgNode::Group(g) = node {
                set.extend(&rw.get(*g).may_writes);
                set.extend(&rw.get(*g).reads);
            }
            cross(&mut edges, &set, &set);
            let touched: Vec<BTreeSet<Id>> = node
                .children()
                .iter()
                .map(|child| {
                    let mut regs = BTreeSet::new();
                    child.for_each_group(&mut |g| {
                        regs.extend(&rw.get(g).reads);
                        regs.extend(&rw.get(g).may_writes);
                    });
                    regs
                })
                .collect();
            for (i, left) in touched.iter().enumerate() {
                for right in &touched[i + 1..] {
                    cross(&mut edges, left, right);
                    cross(&mut edges, right, left);
                }
            }
        }
    });
    edges
}

/// Assert reference/engine agreement on every component of `ctx`; returns
/// how many nested child solutions the comparison covered.
fn assert_liveness_agrees(ctx: &Context, label: &str) -> usize {
    let mut nested = 0;
    for comp in ctx.components.iter() {
        let mut cache = AnalysisCache::new();
        let boundary = cache.get::<BoundaryRegs>(comp);
        let rw = cache.get::<ReadWriteSets>(comp);
        let pcfg = Pcfg::from_control(&comp.control);
        let by_name = Rw::new(comp, &rw);
        let reference = reference_liveness(&pcfg, &by_name, boundary.registers());
        let engine = solve_liveness(
            &pcfg,
            &rw,
            &rw.regs().set(boundary.registers().iter().copied()),
        );
        assert_eq!(
            reference,
            view(&engine, &rw),
            "{label}/{}: liveness trees diverge",
            comp.name
        );
        assert_eq!(
            *cache.get::<Liveness>(comp),
            engine,
            "{label}/{}: the cached tree diverges",
            comp.name
        );
        engine.walk(&pcfg, &mut |_, sol| {
            nested += sol.children.iter().map(Vec::len).sum::<usize>();
        });

        let oracle = interference_oracle(&pcfg, &by_name, &reference);
        let cached = cache.get::<Interference>(comp);
        // Every register, plus a name no program declares: one the
        // relation never met conflicts with nothing.
        let regs: Vec<Id> = comp
            .cells
            .iter()
            .filter(|c| c.is_register())
            .map(|c| c.name)
            .chain([Id::new("never$declared")])
            .collect();
        assert!(oracle.iter().all(|(a, b)| a != b && regs.contains(a)));
        for &a in &regs {
            for &b in &regs {
                assert_eq!(
                    cached.conflict(a, b),
                    oracle.contains(&(a, b)),
                    "{label}/{}: interference({a}, {b}) diverges from the oracle",
                    comp.name
                );
            }
        }
    }
    nested
}

fn run(ctx: &Context, pipeline: &str, label: &str) -> Context {
    let mut ctx = ctx.clone();
    PassManager::from_names(&[pipeline])
        .expect("registered pipeline")
        .run(&mut ctx)
        .unwrap_or_else(|e| panic!("{label}/{pipeline} fails: {e}"));
    ctx
}

/// All 19 kernels, raw and through each standard pipeline: the
/// engine-backed liveness tree equals the hand-rolled reference's.
#[test]
fn liveness_engine_matches_oracle_on_all_kernels() {
    assert_eq!(KERNELS.len(), 19);
    for def in KERNELS {
        let (_, raw) = compile_kernel(def, 4, 1)
            .unwrap_or_else(|e| panic!("kernel `{}` fails to compile: {e}", def.name));
        assert_liveness_agrees(&raw, &format!("{}/raw", def.name));
        for pipeline in ["lower", "lower-static", "opt"] {
            let ctx = run(&raw, pipeline, def.name);
            assert_liveness_agrees(&ctx, &format!("{}/{pipeline}", def.name));
        }
    }
}

/// No generated program lets two `par` siblings touch one register
/// unless it is live across the whole block, where the cliques already
/// hold every edge the cross product adds. Here `r` is written (and never
/// read) on both sides of a `par` at two depths, so those edges come from
/// the cross product alone.
const SHARED_BY_SIBLINGS: &str = r#"component main() -> () {
  cells { r = std_reg(8); s = std_reg(8); t = std_reg(8); u = std_reg(8); v = std_reg(8); }
  wires {
    group wu { u.in = 8'd0; u.write_en = 1'd1; wu[done] = u.done; }
    group wr0 { r.in = 8'd1; r.write_en = 1'd1; wr0[done] = r.done; }
    group ws { s.in = 8'd2; s.write_en = 1'd1; ws[done] = s.done; }
    group wr1 { r.in = 8'd3; r.write_en = 1'd1; wr1[done] = r.done; }
    group wt { t.in = 8'd4; t.write_en = 1'd1; wt[done] = t.done; }
    group wv { v.in = 8'd5; v.write_en = 1'd1; wv[done] = v.done; }
    group wr2 { r.in = 8'd6; r.write_en = 1'd1; wr2[done] = r.done; }
  }
  control { par { seq { wu; wr0; ws; } wr1; seq { wt; par { wv; wr2; } } } }
}"#;

/// A `par` inside a loop with a conditional reader after it: the engine
/// iterates the loop, and the p-node's children are re-solved as the
/// loop-carried facts grow.
const PAR_IN_LOOP: &str = r#"component main() -> () {
  cells {
    i = std_reg(8); lt = std_lt(8); add = std_add(8);
    a = std_reg(8); b = std_reg(8); c = std_reg(1);
  }
  wires {
    group init { i.in = 8'd0; i.write_en = 1'd1; init[done] = i.done; }
    group cond { lt.left = i.out; lt.right = 8'd10; cond[done] = 1'd1; }
    group wa { a.in = i.out; a.write_en = 1'd1; wa[done] = a.done; }
    group wb { b.in = 8'd2; b.write_en = 1'd1; wb[done] = b.done; }
    group incr {
      add.left = i.out; add.right = 8'd1;
      i.in = add.out; i.write_en = 1'd1;
      incr[done] = i.done;
    }
    group rb { a.in = b.out; a.write_en = 1'd1; rb[done] = a.done; }
  }
  control {
    seq { init; while lt.out with cond { seq { par { wa; wb; } if c.out { rb; } incr; } } }
  }
}"#;

/// The par-heavy corpus, where the tree has depth: unrolled kernels and
/// systolic arrays, raw and after `resource-sharing` (the pass that runs
/// ahead of `minimize-regs` under `opt`).
#[test]
fn liveness_trees_match_on_par_heavy_programs() {
    let mut programs: Vec<(String, Context)> = Vec::new();
    for def in KERNELS.iter().filter(|k| k.unrollable) {
        let (_, ctx) = compile_kernel(def, 4, 2)
            .unwrap_or_else(|e| panic!("kernel `{}` fails to unroll: {e}", def.name));
        programs.push((format!("{}/unroll2", def.name), ctx));
    }
    assert!(!programs.is_empty(), "some kernels unroll");
    for n in [2, 3, 4] {
        programs.push((
            format!("systolic{n}x{n}"),
            generate(&SystolicConfig::square(n)),
        ));
    }
    for (label, src) in [
        ("shared-by-siblings", SHARED_BY_SIBLINGS),
        ("par-in-loop", PAR_IN_LOOP),
    ] {
        let ctx = parse_context(src).expect("the hand-written program parses");
        programs.push((label.to_string(), ctx));
    }
    for (label, raw) in &programs {
        let nested = assert_liveness_agrees(raw, &format!("{label}/raw"));
        assert!(nested > 0, "{label}: expected p-node children to compare");
        let shared = run(raw, "resource-sharing", label);
        assert_liveness_agrees(&shared, &format!("{label}/resource-sharing"));
    }
}
