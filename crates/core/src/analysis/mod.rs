//! Reusable analyses over Calyx programs, served through a demand-driven,
//! memoized query layer.
//!
//! # The `Analysis` trait and the cache
//!
//! An analysis is a type implementing [`Analysis`]: a pure function
//! [`Analysis::compute`] from a [`Component`](crate::ir::Component) to a
//! typed result. Passes never call `compute` directly — they *query* the
//! per-component [`AnalysisCache`] (through
//! [`PassCtx`](crate::passes::PassCtx) inside visitor hooks):
//!
//! ```
//! use calyx_core::analysis::{AnalysisCache, ReadWriteSets};
//! use calyx_core::ir::parse_context;
//!
//! let ctx = parse_context(
//!     r#"component main() -> () {
//!         cells { r = std_reg(8); }
//!         wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
//!         control { g; }
//!     }"#,
//! )
//! .unwrap();
//! let comp = ctx.component("main").unwrap();
//!
//! let mut cache = AnalysisCache::new();
//! let rw = cache.get::<ReadWriteSets>(comp);   // miss: computed
//! let again = cache.get::<ReadWriteSets>(comp); // hit: shared result
//! assert!(std::rc::Rc::ptr_eq(&rw, &again));
//! assert_eq!(cache.stats().hits, 1);
//! ```
//!
//! Analyses depend on *each other* through the same cache —
//! [`Liveness`] pulls [`Pcfg`], [`ReadWriteSets`], and [`BoundaryRegs`]
//! with [`AnalysisCache::get`] instead of taking them as arguments — so a
//! prerequisite computed for one consumer is shared with every other.
//! Results are invalidated per component by *generation*: mutation signals
//! from the pass framework (see the [cache module docs](cache) for the
//! invalidation contract) bump the component's generation and drop its
//! entries, while read-only passes keep the cache warm across a whole
//! pipeline.
//!
//! # Registered analyses
//!
//! | Analysis | Computes | Depends on |
//! |----------|----------|------------|
//! | [`ParConflicts`] | which groups may execute in parallel (resource sharing, §5.1) | — |
//! | [`Pcfg`] | parallel control-flow graph with p-nodes (register sharing, §5.2) | — |
//! | [`ReadWriteSets`] | the component's register numbering ([`RegIndex`], name order) and, per group, conservative read/may-write/must-write [`RegSet`]s over it | — |
//! | [`PortUses`] | port → writing assignment sites, the ports read, cell usage digests | — |
//! | [`BoundaryCells`] | cells observable outside the schedule (continuous/condition uses) | `PortUses` |
//! | [`BoundaryRegs`] | registers observable outside the schedule (live at exit) | `BoundaryCells` |
//! | [`Liveness`] | backward live-range dataflow over the pCFG: the engine's solution tree of `RegSet` facts, p-node children included | `Pcfg`, `ReadWriteSets`, `BoundaryRegs` |
//! | [`Interference`] | register interference relation for sharing: a bit matrix over the register numbering, each node's live-out OR-ed in bottom-up over the `Liveness` tree | `Pcfg`, `ReadWriteSets`, `Liveness` |
//! | [`ReachingDefs`] | forward def-site dataflow with power-on entry defs | `Pcfg`, `ReadWriteSets` |
//! | [`ConstProp`] | forward register constant propagation (flat lattice) | `Pcfg`, `ReadWriteSets` |
//!
//! The dataflow analyses are all instances of one generic worklist
//! fixpoint engine over the pCFG — see [`dataflow`] for the `Lattice` /
//! `Transfer` machinery, its p-node treatment and the solution tree it
//! returns.

pub mod cache;
pub mod conflict;
pub mod dataflow;
pub mod liveness;
pub mod pcfg;
pub mod port_uses;
pub mod read_write;
pub mod regset;

pub use cache::{Analysis, AnalysisCache, CacheStats};
pub use conflict::ParConflicts;
pub use dataflow::{ConstProp, ReachingDefs};
pub use liveness::{BoundaryCells, BoundaryRegs, Interference, Liveness};
pub use pcfg::{CondKind, CondSite, Pcfg, PcfgNode};
pub use port_uses::{AssignmentSite, PortUses, SiteOwner};
pub use read_write::ReadWriteSets;
pub use regset::{RegIndex, RegSet};
