//! The ledger: this repository's benchmark.
//!
//! Eight workloads take fixed lists of designs through the compiler's
//! three compile paths and two simulation engines, from outside, through
//! public functions only. An untraced run of a workload yields the
//! end-to-end metrics; a traced run yields the per-layer split that
//! explains them. `README.md` beside this package has the full story;
//! `BENCHMARK.json` at the repository root is the contract.

pub mod diff;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
