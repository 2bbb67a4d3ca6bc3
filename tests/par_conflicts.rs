//! The dense `ParConflicts` relation held to the paper's pairwise
//! definition (§5.1): two groups conflict when some `par` has them under
//! different children. The oracle here walks every `par`, collects each
//! child's groups into a `BTreeSet<Id>` and adds every cross pair one at a
//! time into a `BTreeMap` — the analysis's representation before it
//! became one bit row per group, kept only as the reference.
//!
//! The corpus is every component of the random programs, the 19 PolyBench
//! kernels (raw, unrolled where they unroll, and after `opt`), and the
//! systolic arrays 2×2 to 8×8. On each, `groups()` must list the
//! referenced groups in name order, and `conflict` must answer every
//! ordered pair as the oracle does.

mod random_programs;

use calyx::core::analysis::ParConflicts;
use calyx::core::ir::{Context, Control, Id};
use calyx::core::passes::PassManager;
use calyx::polybench::{compile_kernel, KERNELS};
use calyx::systolic::{generate, SystolicConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The pairwise definition: for every `par`, every group of one child
/// against every group of another, a group never against itself.
fn oracle(control: &Control, edges: &mut BTreeMap<Id, BTreeSet<Id>>) {
    match control {
        Control::Empty | Control::Enable { .. } => {}
        Control::Seq { stmts, .. } => stmts.iter().for_each(|s| oracle(s, edges)),
        Control::Par { stmts, .. } => {
            stmts.iter().for_each(|s| oracle(s, edges));
            let children: Vec<BTreeSet<Id>> = stmts.iter().map(Control::used_groups).collect();
            for (i, left) in children.iter().enumerate() {
                for right in &children[i + 1..] {
                    for &a in left {
                        for &b in right {
                            if a != b {
                                edges.entry(a).or_default().insert(b);
                                edges.entry(b).or_default().insert(a);
                            }
                        }
                    }
                }
            }
        }
        Control::If {
            tbranch, fbranch, ..
        } => {
            oracle(tbranch, edges);
            oracle(fbranch, edges);
        }
        Control::While { body, .. } => oracle(body, edges),
    }
}

/// Compare every component of `ctx`; returns the number of conflicting
/// ordered pairs seen, so callers can check the corpus has some.
fn assert_agrees(ctx: &Context, label: &str) -> usize {
    let mut seen = 0;
    for comp in ctx.components.iter() {
        let dense = ParConflicts::from_control(&comp.control);
        let mut edges = BTreeMap::new();
        oracle(&comp.control, &mut edges);
        let groups: Vec<Id> = dense.groups().collect();
        let named: Vec<Id> = comp.control.used_groups().into_iter().collect();
        assert_eq!(groups, named, "{label}/{}: groups() order", comp.name);
        for &a in &groups {
            for &b in &groups {
                let want = edges.get(&a).is_some_and(|s| s.contains(&b));
                assert_eq!(
                    dense.conflict(a, b),
                    want,
                    "{label}/{}: conflict({a}, {b})",
                    comp.name
                );
                seen += usize::from(want);
            }
        }
    }
    seen
}

proptest! {
    #[test]
    fn random_programs_agree_with_the_pairwise_definition(
        spec in random_programs::program_spec()
    ) {
        assert_agrees(&random_programs::build_program(&spec), "random");
    }
}

#[test]
fn kernels_agree_with_the_pairwise_definition() {
    let mut seen = 0;
    for def in KERNELS {
        let unrolls: &[u64] = if def.unrollable { &[1, 2] } else { &[1] };
        for &unroll in unrolls {
            let label = format!("{}/unroll{unroll}", def.name);
            let (_, mut ctx) = compile_kernel(def, 4, unroll)
                .unwrap_or_else(|e| panic!("kernel `{label}` fails to compile: {e}"));
            seen += assert_agrees(&ctx, &label);
            PassManager::from_names(&["opt"])
                .unwrap()
                .run(&mut ctx)
                .unwrap_or_else(|e| panic!("kernel `{label}` fails `opt`: {e}"));
            assert_agrees(&ctx, &format!("{label}/opt"));
        }
    }
    assert!(seen > 0, "some kernel has a `par`");
}

#[test]
fn systolic_arrays_agree_with_the_pairwise_definition() {
    for n in 2..=8 {
        let seen = assert_agrees(
            &generate(&SystolicConfig::square(n)),
            &format!("systolic{n}"),
        );
        assert!(seen > 0, "systolic{n}: the array runs PEs in parallel");
    }
}

/// A group under two children of one `par` conflicts with the other
/// groups of both, never with itself; nested `par`s add their own pairs.
#[test]
fn shared_and_nested_children_agree_with_the_pairwise_definition() {
    let e = |g: &str| Control::enable(g);
    let control = Control::par(vec![
        Control::seq(vec![e("a"), e("b")]),
        Control::seq(vec![e("a"), Control::par(vec![e("c"), e("d")])]),
        e("f"),
    ]);
    let mut ctx = Context::new();
    let mut main = ctx.new_component("main");
    main.control = control;
    ctx.add_component(main);
    assert!(assert_agrees(&ctx, "hand-written") > 0);
    let dense = ParConflicts::from_control(&ctx.component("main").unwrap().control);
    assert!(!dense.conflict(Id::new("a"), Id::new("a")));
    assert!(dense.conflict(Id::new("a"), Id::new("b")));
    assert!(dense.conflict(Id::new("c"), Id::new("d")));
}
