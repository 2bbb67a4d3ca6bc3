//! How much of each lowered design's guard logic is shared: per design,
//! the continuous assignments, their guards counted as trees (what is
//! printed), the pool nodes the guards reach (what the passes, `flatten`
//! and the area estimator walk), and the structurally distinct
//! sub-guards, counted apart (equal to the pool nodes: the pool is
//! hash-consed).
//!
//! ```sh
//! cargo run --release -p calyx_bench --example guard_share
//! ```

use calyx_bench::stats::{guard_sharing, GuardSharing};
use calyx_core::ir::Context;
use calyx_core::passes::PassManager;
use calyx_polybench::{compile_kernel, KERNELS};
use calyx_systolic::{generate, SystolicConfig};

fn row(name: &str, s: GuardSharing) {
    let per_distinct = |nodes: usize| nodes as f64 / s.distinct_nodes.max(1) as f64;
    println!(
        "{name:<26} {:>6} {:>7} {:>8} {:>9} {:>6.1}x {:>8.1}x",
        s.assignments,
        s.tree_nodes,
        s.entered_nodes,
        s.distinct_nodes,
        per_distinct(s.tree_nodes),
        per_distinct(s.entered_nodes),
    );
}

fn lowered(mut ctx: Context, alias: &str) -> GuardSharing {
    let mut passes = PassManager::from_names(&[alias]).expect("registered alias");
    passes.run(&mut ctx).expect("the design lowers");
    guard_sharing(&ctx)
}

fn main() {
    println!(
        "{:<26} {:>6} {:>7} {:>8} {:>9} {:>7} {:>9}",
        "design", "asgns", "tree", "entered", "distinct", "tree/d", "entered/d"
    );
    let mut all = GuardSharing::default();
    for def in KERNELS {
        let (_, ctx) = compile_kernel(def, 4, 1).expect("kernel compiles");
        let s = lowered(ctx, "opt");
        row(&format!("{} n=4 opt", def.name), s);
        all.assignments += s.assignments;
        all.tree_nodes += s.tree_nodes;
        all.entered_nodes += s.entered_nodes;
        all.distinct_nodes += s.distinct_nodes;
    }
    row("19 kernels n=4 opt", all);
    for (n, alias) in [2, 4, 6, 8]
        .map(|n| (n, "lower-static"))
        .into_iter()
        .chain([(8, "lower")])
    {
        let s = lowered(generate(&SystolicConfig::square(n)), alias);
        row(&format!("systolic {n}x{n} {alias}"), s);
    }
}
