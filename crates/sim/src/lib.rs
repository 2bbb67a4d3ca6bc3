//! Simulation infrastructure for Calyx programs.
//!
//! Two engines with different purposes:
//!
//! - [`rtl`]: a cycle-accurate simulator for *lowered* programs (flat
//!   guarded assignments, no control). This is the repository's substitute
//!   for Verilator: the lowered form corresponds 1:1 to the emitted
//!   SystemVerilog, so the cycle counts reported here are the counts the
//!   paper measures in §7. Each cycle settles the wires over a
//!   topologically-sorted dataflow graph, re-evaluating only the nodes
//!   downstream of what changed since the last cycle (rejecting
//!   combinational loops and multi-driver conflicts), and ends with a
//!   synchronous state update.
//!
//! - [`interp`]: a reference interpreter that executes the *control tree*
//!   directly, before any lowering — an executable semantics for the IL in
//!   the spirit of Calyx's Cider debugger. Cycle counts differ from RTL
//!   (the interpreter has no FSM overhead), but architectural state
//!   (memories, registers) must agree; the differential tests in
//!   `tests/` exploit this as a compiler-correctness oracle.
//!
//! These two are the only engines, and the interpreter is the oracle the
//! compiler is checked against. What the engines themselves compute is
//! held by outcomes, not by a second implementation: the unit tests'
//! literal cycle counts, values and error texts, the PolyBench reference
//! model, and a table of cycle counts and state-report digests for every
//! kernel under `interp`, `lower`, `lower-static` and `opt`
//! (`crates/bench/tests/sim_state_pinned.txt`), recorded from the
//! tree-walking engines these replaced.
//!
//! Both engines run over the dense arena-indexed IR built once per design
//! by [`flatten`]: typed indices into contiguous `Vec` storage for ports,
//! cells, guards, assignments, and control nodes, so each simulated cycle
//! is pure array indexing. That IR is also the one **cycle machine** under
//! both of them. [`flatten::FlatProgram`] owns, once, everything about a
//! cycle that does not depend on the engine: what stateful primitives
//! show when it starts (`publish`), how they latch when it ends (`tick`),
//! what a combinational cell or memory read port computes
//! ([`flatten::FlatCell::comb_output`], over the behavioral models in
//! [`prim`]), how a harness loads and reads memories and registers, and
//! how guards are interned. [`flatten::Wires`] owns how the wires settle
//! in between: a valuation that persists across cycles and a
//! change-driven visit of the sorted nodes (guards among them).
//! An engine owns what drives that machine — [`rtl`] a lowered design and
//! its `go`/`done` handshake, [`interp`] the control walk, which raises
//! the `go` port of each active group, and the done-observation cycle —
//! and its [`flatten::DriverRule`]: strict for [`rtl`], same-value for
//! [`interp`]. The interpreter's graph may also be cyclic across groups
//! that are never active together; the RTL engine rejects a cycle.

pub mod error;
pub mod flatten;
pub mod interp;
pub mod prim;
pub mod report;
pub mod rtl;

pub use error::{SimError, SimResult};
pub use flatten::RunStats;
pub use report::{write_state_report, StateSource};
pub use rtl::Simulator;
