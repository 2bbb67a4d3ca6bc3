//! Plan-based build orchestration: a typed state graph, route planner,
//! and content-addressed artifact cache — the machinery behind
//! `futil build` and `futil plan`.
//!
//! The existing driver is imperative: the user names a frontend, a
//! pipeline, and a backend, and `futil` runs exactly those. This crate
//! inverts that: the user names only what they *have* (inferred from
//! the input's extension) and what they *want* (`--to verilog`), and
//! the planner finds the cheapest op sequence between the two — the
//! fud-style "states and ops" workflow, reproduced over this
//! repository's own registries.
//!
//! - [`PlanGraph`] is two more [`Registry`](calyx_core::utils::Registry)
//!   tables: typed [`State`]s, one per artifact kind (Dahlia source,
//!   canonical Calyx, lowered Calyx, SystemVerilog, simulation/area/lint
//!   reports), connected by [`Op`]s. The standard graph is *derived* from the frontend,
//!   pass-alias, backend, and lint registries by [`derive::standard`],
//!   so registering a new frontend or backend automatically grows the
//!   plan space; third parties add bespoke states and ops with
//!   [`PlanGraph::add_state`] / [`PlanGraph::add_op`].
//! - [`PlanGraph::plan`] routes between states (deterministic
//!   shortest-path); an unreachable goal is an error listing the states
//!   that *are* reachable.
//! - [`execute`] runs a route through an [`ArtifactCache`]. A derived
//!   op is a [`Compile`] — a frontend, a pipeline and a backend, by
//!   name — and its step is keyed by `Session::job_key` of the one
//!   `Job` it compiles, the key the service's job cache uses; the `check`
//!   op and third-party ops are keyed on their fingerprint, every build
//!   option and the input. Warm rebuilds skip every clean step and an
//!   edit re-runs only what it actually invalidates. Ops run against an
//!   [`ExecEnv`] — the compile core's `Session`, the same one the direct
//!   driver and the batch/serve engine compile through.
//!
//! ```
//! use calyx_plan::{derive, execute, BuildOpts, ExecEnv};
//!
//! let graph = derive::standard();
//! let from = graph.infer_state("examples/dotprod.fuse").unwrap();
//! let to = graph.state_id("verilog").unwrap();
//! let route = graph.plan(from, to).unwrap();
//! let ops: Vec<&str> = route.steps.iter().map(|&i| graph.ops()[i].name()).collect();
//! assert_eq!(ops, ["dahlia-to-calyx", "emit-verilog"]);
//!
//! let src = "decl a: ubit<32>[4];
//!            let acc: ubit<32> = 0;
//!            ---
//!            for (let i: ubit<3> = 0..4) { acc := acc + a[i]; }";
//! let build = BuildOpts { use_cache: false, ..BuildOpts::default() };
//! let out = execute(&graph, &route, src, &ExecEnv::default(), &build).unwrap();
//! assert!(out.output.contains("module main"));
//! assert_eq!(out.ran(), 2);
//! ```

pub mod cache;
pub mod derive;
pub mod exec;
pub mod graph;
pub mod op;
pub mod planner;
pub mod state;

pub use cache::ArtifactCache;
pub use exec::{check_fopts, execute, BuildOpts, BuildOutcome, StepReport, StepStatus};
pub use graph::PlanGraph;
pub use op::{Action, Compile, ExecEnv, Op, OpFn, OpOpts, OpSpec};
pub use planner::Route;
pub use state::{State, StateId};
