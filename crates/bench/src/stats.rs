//! §7.4's compilation statistics.
//!
//! The paper reports: the largest PolyBench design (gemver) compiles in
//! 0.06 s (vs. 26.1 s for Vivado HLS); the largest overall design, the
//! 8×8 systolic array, contains 241 cells, 224 groups, and 1,744 control
//! statements, and compiles to 8,906 lines of SystemVerilog in 0.7 s.

use calyx_backend::{verilog, Backend, BackendOpts, VerilogBackend};
use calyx_core::errors::CalyxResult;
use calyx_core::ir::{Context, Control, GuardId, GuardNode};
use calyx_core::passes::PassManager;
use calyx_polybench::{compile_kernel, kernel};
use calyx_systolic::{generate, SystolicConfig};
use rustc_hash::{FxHashMap, FxHashSet};
use std::time::{Duration, Instant};

/// Compilation statistics for one design.
#[derive(Debug, Clone)]
pub struct CompileStats {
    /// Design name.
    pub name: String,
    /// Cells in the entry component before lowering.
    pub cells: usize,
    /// Groups before lowering.
    pub groups: usize,
    /// Control statements before lowering (the §7.4 metric).
    pub control_statements: usize,
    /// Wall-clock time for the full lowering pipeline.
    pub compile_time: Duration,
    /// Non-empty lines of emitted SystemVerilog.
    pub verilog_loc: usize,
}

fn measure(name: &str, mut ctx: Context) -> CalyxResult<CompileStats> {
    let main = ctx.entry()?;
    let cells = main.cells.len();
    let groups = main.groups.len();
    let control_statements = Control::statement_count(&main.control);
    let start = Instant::now();
    PassManager::from_names(&["lower-static"])?.run(&mut ctx)?;
    // Stream emission (the timed path the paper measures) into one buffer.
    let mut sv = Vec::new();
    VerilogBackend::from_opts(&BackendOpts::default()).emit(&ctx, &mut sv)?;
    let compile_time = start.elapsed();
    let sv = String::from_utf8(sv).expect("emitter writes UTF-8");
    Ok(CompileStats {
        name: name.to_string(),
        cells,
        groups,
        control_statements,
        compile_time,
        verilog_loc: verilog::line_count(&sv),
    })
}

/// Statistics for the largest PolyBench design (gemver).
///
/// # Errors
///
/// Propagates compilation failures.
pub fn gemver_stats(n: u64) -> CalyxResult<CompileStats> {
    let def = kernel("gemver").expect("gemver is registered");
    let (_, ctx) = compile_kernel(def, n, 1)?;
    measure("gemver", ctx)
}

/// Statistics for an n×n systolic array (the paper uses 8×8).
///
/// # Errors
///
/// Propagates compilation failures.
pub fn systolic_stats(n: usize) -> CalyxResult<CompileStats> {
    let ctx = generate(&SystolicConfig::square(n));
    measure(&format!("systolic {n}x{n}"), ctx)
}

/// How much of a design's guard logic is shared, over the continuous
/// assignments of every component (all there is after lowering).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardSharing {
    /// Continuous assignments.
    pub assignments: usize,
    /// `Σ GuardPool::tree_sizes()` over the assignments: the guards as
    /// trees, a shared node once per use — what the printer and the
    /// Verilog emitter write.
    pub tree_nodes: usize,
    /// Nodes a walk enters when it goes through each pool node once: the
    /// pool's nodes the guards reach.
    pub entered_nodes: usize,
    /// Structurally distinct sub-guards, counted by hash-consing the
    /// reached nodes anew: equal to `entered_nodes` when the pool holds
    /// no two equal nodes.
    pub distinct_nodes: usize,
}

/// Measure the guard sharing of `ctx`.
pub fn guard_sharing(ctx: &Context) -> GuardSharing {
    let mut sharing = GuardSharing::default();
    for comp in ctx.components.iter() {
        let pool = &comp.guards;
        let roots = || comp.continuous.iter().map(|a| a.guard);
        let sizes = pool.tree_sizes();
        sharing.assignments += comp.continuous.len();
        sharing.tree_nodes += roots().map(|g| sizes[g.index()]).sum::<usize>();
        // Each node's structural class, numbered afresh: a node whose
        // fields and children's classes match an earlier node's is in
        // that node's class.
        let mut class: Vec<GuardId> = Vec::with_capacity(pool.len());
        let mut classes: FxHashMap<GuardNode, GuardId> = FxHashMap::default();
        let mut distinct = FxHashSet::default();
        for (id, live) in pool.ids().zip(pool.reachable(roots())) {
            let node = pool[id].map_children(|c| class[c.index()]);
            let own = *classes.entry(node).or_insert(id);
            class.push(own);
            if live && !id.is_true() {
                sharing.entered_nodes += 1;
                distinct.insert(own);
            }
        }
        sharing.distinct_nodes += distinct.len();
    }
    sharing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compilation_is_fast_like_the_paper() {
        // §7.4: Calyx compiles gemver in well under a second.
        let stats = gemver_stats(8).unwrap();
        assert!(stats.compile_time < Duration::from_secs(5), "{stats:?}");
        assert!(stats.verilog_loc > 100, "{stats:?}");
    }

    #[test]
    fn systolic_8x8_statistics_are_in_the_papers_regime() {
        let stats = systolic_stats(8).unwrap();
        // Paper: 241 cells, 224 groups, 1744 control statements. Our
        // generator differs in detail (index counters, drain phase) but
        // must land in the same order of magnitude.
        assert!(stats.cells > 100 && stats.cells < 800, "{stats:?}");
        assert!(stats.groups > 100 && stats.groups < 800, "{stats:?}");
        assert!(
            stats.control_statements > 500 && stats.control_statements < 5000,
            "{stats:?}"
        );
        assert!(stats.verilog_loc > 2000, "{stats:?}");
    }
}
