//! Compiler passes: the visitor framework, the analysis-query context, the
//! named pass registry, and the standard pipelines.
//!
//! Passes implement [`Visitor`] (structural traversal with [`Action`]
//! steering — see the [`visitor`] module docs for the contract) and are
//! composed by [`PassManager`]. Pipelines are *data*: every pass has a
//! kebab-case name in the [`PassRegistry`], aliases name standard
//! pipelines, and [`PassManager::from_names`] builds any mix of the two —
//! the same surface the `futil -p` CLI exposes.
//!
//! # Analyses and `PassCtx`
//!
//! Every visitor hook receives a [`PassCtx`]: the read-only context view
//! (deref to [`Context`](crate::ir::Context)) bundled with the pipeline's
//! [`AnalysisCache`]. Passes query analyses with
//! [`PassCtx::get`] — `ctx.get::<Interference>(comp)` — instead of
//! computing them locally; the cache memoizes per component and the
//! [`PassManager`] shares it across the whole pipeline, attributing
//! hit/miss statistics to each pass ([`PassTiming::cache`], surfaced by
//! `futil --stats`).
//!
//! Memoized facts must be invalidated when a pass mutates a component, and
//! the framework cannot observe mutations — passes report them: returning
//! [`Action::Change`] marks the component dirty automatically, any other
//! mutation calls [`PassCtx::set_dirty`]. The full contract (including the
//! attributes-only exemption) is in the
//! [cache module docs](crate::analysis::cache).
//!
//! # Pass table
//!
//! | Name | Description | In aliases |
//! |------|-------------|------------|
//! | `well-formed` | validate structural invariants of the program | `none`, `lower`, `lower-static`, `opt`, `all` |
//! | `collapse-control` | flatten nested seq/par blocks and drop empty statements | `lower`, `lower-static`, `opt`, `all` |
//! | `dead-group-removal` | remove groups unused by the control program | `lower`, `lower-static`, `opt`, `all` |
//! | `dead-cell-removal` | remove cells with no references | `lower`, `lower-static`, `opt`, `all` |
//! | `infer-static-timing` | conservatively infer static latencies of groups and components | `lower-static`, `opt`, `all` |
//! | `static-timing` | compile statically-timed control with counter FSMs (the paper's Sensitive pass) | `lower-static`, `opt`, `all` |
//! | `compile-control` | structurally realize control statements with latency-insensitive FSMs | `lower`, `lower-static`, `opt`, `all` |
//! | `go-insertion` | guard group assignments with the group's go signal | `lower`, `lower-static`, `opt`, `all` |
//! | `remove-groups` | inline interface signals and erase group boundaries | `lower`, `lower-static`, `opt`, `all` |
//! | `guard-simplify` | boolean simplification of assignment guards | `lower`, `lower-static`, `opt`, `all` |
//! | `resource-sharing` | share combinational cells between groups that never run in parallel | `opt`, `all` |
//! | `minimize-regs` | share registers whose live ranges do not overlap | `opt`, `all` |
//!
//! # Aliases
//!
//! | Alias | Pipeline |
//! |-------|----------|
//! | `none` | validation only (`well-formed`) |
//! | `lower` | the paper's §4.2 latency-insensitive lowering |
//! | `lower-static` | `lower` with latency inference + static compilation (§4.4, §5.3) |
//! | `opt` | the full optimizing pipeline (§5.1–§5.3 + static lowering) |
//! | `all` | same as `opt` (the artifact's name for the full pipeline) |
//!
//! The paper-facing mapping: the primary compilation pipeline (§4.2) is
//! [`GoInsertion`] → [`CompileControl`] → [`RemoveGroups`]; code generation
//! (`Lower`) lives in the backend crate. [`StaticTiming`] is the
//! latency-sensitive `Sensitive` pass (§4.4) and [`InferStaticTiming`] is
//! the latency-inference pass (§5.3). The optimization passes are
//! [`ResourceSharing`] (§5.1) and [`MinimizeRegs`] (§5.2).
//!
//! One deliberate departure from the paper's presentation: our pipelines run
//! [`GoInsertion`] *after* [`CompileControl`] so that the generated
//! compilation groups' assignments (FSM updates, child `go` writes) are also
//! guarded by their own group's `go` hole. For frontend-written groups the
//! result is identical to the paper's order, and the extra guards are what
//! keeps *nested* FSMs inert while their parent statement is not running
//! once [`RemoveGroups`] erases group boundaries.

mod collapse_control;
mod compile_control;
mod dead_cell;
mod dead_group;
mod go_insertion;
mod guard_simplify;
mod infer_static;
mod minimize_regs;
mod pass_ctx;
mod registry;
mod remove_groups;
mod resource_sharing;
mod static_timing;
mod traversal;
pub mod visitor;
mod well_formed;

pub use collapse_control::CollapseControl;
pub use compile_control::CompileControl;
pub use dead_cell::DeadCellRemoval;
pub use dead_group::DeadGroupRemoval;
pub use go_insertion::GoInsertion;
pub use guard_simplify::{simplify, GuardSimplify};
pub use infer_static::InferStaticTiming;
pub use minimize_regs::MinimizeRegs;
pub use pass_ctx::PassCtx;
pub use registry::{
    PassRegistry, RegisteredPass, ALIAS_LOWER, ALIAS_LOWER_STATIC, ALIAS_NONE, ALIAS_OPT,
};
pub use remove_groups::RemoveGroups;
pub use resource_sharing::ResourceSharing;
pub use static_timing::StaticTiming;
pub use traversal::{Pass, PassManager, PassTiming};
pub use visitor::{Action, Order, Visitor};
pub use well_formed::WellFormed;

// Re-exported so pass authors reach the whole query surface from one
// module: hooks take `PassCtx`, standalone drivers take `AnalysisCache`.
pub use crate::analysis::{AnalysisCache, CacheStats};

/// The standard lowering pipeline: validate, clean up, insert `go` guards,
/// compile control to FSMs, and inline interface signals.
///
/// A thin wrapper over the registry alias `lower`; see
/// [`lower_pipeline_static`] for the variant that first applies latency
/// inference and static compilation.
pub fn lower_pipeline() -> PassManager {
    PassManager::from_names(&["lower"]).expect("`lower` alias is registered")
}

/// The lowering pipeline with latency-sensitive compilation enabled:
/// latencies are inferred (§5.3) and statically schedulable control is
/// compiled with counter FSMs (§4.4) before the dynamic fallback runs.
///
/// A thin wrapper over the registry alias `lower-static`.
pub fn lower_pipeline_static() -> PassManager {
    PassManager::from_names(&["lower-static"]).expect("`lower-static` alias is registered")
}

/// The full optimizing pipeline used for the paper's headline numbers:
/// sharing optimizations followed by latency-sensitive lowering.
///
/// The registry alias `opt` (= `all`), with the passes each flag turns
/// off dropped for the §7.3 ablations.
pub fn optimized_pipeline(
    resource_sharing: bool,
    minimize_regs: bool,
    static_timing: bool,
) -> PassManager {
    let names: Vec<&str> = ALIAS_OPT
        .iter()
        .copied()
        .filter(|&name| match name {
            "resource-sharing" => resource_sharing,
            "minimize-regs" => minimize_regs,
            "infer-static-timing" | "static-timing" => static_timing,
            _ => true,
        })
        .collect();
    PassManager::from_names(&names).expect("optimized pipeline passes are registered")
}
