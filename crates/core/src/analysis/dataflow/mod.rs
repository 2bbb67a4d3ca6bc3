//! The dataflow engine: fixpoint abstract interpretation over the pCFG.
//!
//! [`solver`] provides the generic machinery — a [`Lattice`] of facts, a
//! per-direction [`Transfer`] function, and a worklist [`solve`] that
//! treats `par` p-nodes correctly: every child executes, so the solver
//! solves each child as its own sub-pCFG with the p-node's near-side fact
//! as the boundary and [`Transfer::par`] combines *all* of them. The
//! solver is the only code that *solves* below a p-node. It keeps the
//! children's solutions, so [`solve`] returns a [`Solution`] *tree*, and
//! consumers read nested facts through [`Solution::walk`] —
//! [`Interference`](crate::analysis::Interference), which needs each
//! child's touched registers before its p-node's, descends
//! [`Solution::children`] itself — so nothing downstream solves a child
//! again.
//!
//! The concrete analyses on top:
//!
//! - [`solve_liveness`] — backward liveness over
//!   [`RegSet`](crate::analysis::RegSet) bitsets, the solver behind the
//!   cached [`Liveness`](crate::analysis::Liveness) tree that
//!   [`Interference`](crate::analysis::Interference) and the
//!   `dead-write` lint walk; held equal, tree for tree, to an independent
//!   `BTreeSet<Id>` reference solver by `tests/dataflow_differential.rs`;
//! - [`ReachingDefs`] — forward def-site tracking with synthetic entry
//!   defs, powering the `uninit-read` lint;
//! - [`ConstProp`] — forward constant propagation over register values
//!   through a flat lattice, powering the `const-loop` lint and the
//!   wire-chain-aware `unreachable-control` upgrade.

pub mod const_prop;
pub mod live;
pub mod reaching;
pub mod solver;

pub use const_prop::{eval_port, CondFacts, ConstFacts, ConstProp, Scope};
pub use live::{solve_liveness, LiveTransfer};
pub use reaching::{DefSite, ReachFacts, ReachingDefs};
pub use solver::{solve, ConstVal, Direction, Lattice, Solution, Transfer};
