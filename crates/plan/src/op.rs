//! Ops: the edges of the build graph.
//!
//! An op transforms the artifact text of its `from` state into the
//! artifact text of its `to` state. What it runs is its [`Action`]:
//!
//! - A derived op (`<frontend>-to-calyx`, a lowering alias, `emit-<backend>`)
//!   is a [`Compile`]: a frontend, a pipeline and a backend, by name. The
//!   executor builds the step's [`Job`] once from it and the build's
//!   [`OpOpts`], keys the step with
//!   [`Session::job_key`](calyx_service::Session::job_key) of that job, and
//!   on a miss compiles that same job. The key and the compile read one
//!   value, so no input of the compile can be left out of the key: an
//!   alias's expansion, a backend's pipeline, an option.
//! - Any other op (the composite `check` and ops third parties add) is
//!   [`Action::Custom`]: a fingerprint and a closure, keyed on the
//!   fingerprint plus every [`OpOpts`] field (see
//!   [`ArtifactCache::key`](crate::ArtifactCache::key)). Over-claiming
//!   costs a spurious re-run; it never serves a stale artifact.
//!
//! Ops are registered through [`OpSpec`] — either by the derivation in
//! [`derive`](crate::derive) (one op per frontend, pass alias, backend,
//! plus the composite lint op) or by third parties via
//! [`PlanGraph::add_op`](crate::PlanGraph::add_op), exactly like every
//! other [`Registry`](calyx_core::utils::Registry) accepts foreign entries. An op runs against an
//! [`ExecEnv`], which is the compile core's
//! [`Session`](calyx_service::Session).

use crate::state::StateId;
use calyx_backend::{BackendOpts, ReportFormat};
use calyx_core::errors::CalyxResult;
use calyx_service::Job;

/// The registries an op may consult while running: the same
/// [`Session`](calyx_service::Session) the driver and the service
/// compile through. Drivers that register third-party frontends or
/// backends hand one extended session to both the graph derivation and
/// the executor.
pub use calyx_service::Session as ExecEnv;

/// The name of the native parser and of the printer backend: canonical
/// Calyx text, the hub every derived op reads or writes.
pub(crate) const HUB: &str = "calyx";

/// Driver-level options ops may consume — the `futil build` equivalents
/// of `--fopt`, `--cycles`, and `--format`.
#[derive(Debug, Clone)]
pub struct OpOpts {
    /// Generator parameters, as raw `(key, value)` pairs.
    pub fopts: Vec<(String, String)>,
    /// Simulation cycle budget.
    pub cycles: u64,
    /// Report format for report-style artifacts.
    pub format: ReportFormat,
}

impl Default for OpOpts {
    fn default() -> Self {
        OpOpts {
            fopts: Vec::new(),
            cycles: BackendOpts::default().cycles,
            format: ReportFormat::Text,
        }
    }
}

/// The function a custom op runs: input artifact text in, output
/// artifact text out.
pub type OpFn = Box<dyn Fn(&str, &ExecEnv, &OpOpts) -> CalyxResult<String>>;

/// A compile through the session, by name: what a derived op runs, and
/// what keys its step.
#[derive(Debug, Clone)]
pub struct Compile {
    /// The frontend that reads the step's input.
    pub frontend: String,
    /// Pass and alias names; `None` runs the backend's default pipeline.
    pub pipeline: Option<Vec<String>>,
    /// The backend that writes the step's output.
    pub backend: String,
}

impl Compile {
    /// The job this op compiles under `opts`. A generator frontend (any
    /// but the native parser) takes the `--fopt`s, and a backend other
    /// than the printer takes `--cycles` and `--format`; each step is
    /// keyed on the options it reads and no others.
    pub fn job(&self, opts: &OpOpts) -> Job<'_> {
        let mut job = Job {
            frontend: Some(&self.frontend),
            pipeline: self.pipeline.as_deref(),
            backend: &self.backend,
            ..Job::default()
        };
        if self.frontend != HUB {
            job.fopts = opts.fopts.clone();
        }
        if self.backend != HUB {
            let (cycles, format) = (opts.cycles, opts.format);
            job.bopts = BackendOpts { cycles, format };
        }
        job
    }
}

/// What an op runs.
pub enum Action {
    /// One compile through the session (see [`Compile`]).
    Compile(Compile),
    /// A transformation the session does not know.
    Custom {
        /// Stable text naming everything besides the input and the
        /// [`OpOpts`] that determines the output.
        fingerprint: String,
        /// The transformation itself.
        run: OpFn,
    },
}

/// A new op, as handed to [`PlanGraph::add_op`](crate::PlanGraph::add_op).
pub struct OpSpec {
    /// Unique kebab-case name.
    pub name: String,
    /// One-line description for `--list-ops` and the README table.
    pub description: String,
    /// State consumed.
    pub from: StateId,
    /// State produced.
    pub to: StateId,
    /// Routing cost (lower is preferred; ties break toward the earlier
    /// registration).
    pub cost: u32,
    /// What the op runs.
    pub action: Action,
}

/// A registered op (same shape as [`OpSpec`]; stored by the graph).
pub struct Op {
    pub(crate) spec: OpSpec,
    /// ` [from -> to]` by state name, for listings.
    pub(crate) endpoints: String,
}

impl calyx_core::utils::Entry for Op {
    const KIND: &'static str = "op";

    fn name(&self) -> &str {
        &self.spec.name
    }

    fn description(&self) -> &str {
        &self.spec.description
    }

    fn note(&self) -> String {
        self.endpoints.clone()
    }
}

impl Op {
    /// Unique kebab-case name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// One-line description.
    pub fn description(&self) -> &str {
        &self.spec.description
    }

    /// State consumed.
    pub fn from(&self) -> StateId {
        self.spec.from
    }

    /// State produced.
    pub fn to(&self) -> StateId {
        self.spec.to
    }

    /// Routing cost.
    pub fn cost(&self) -> u32 {
        self.spec.cost
    }

    /// What the op runs.
    pub fn action(&self) -> &Action {
        &self.spec.action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ArtifactCache;

    #[test]
    fn a_custom_key_folds_in_every_option() {
        let mut opts = OpOpts::default();
        let base = ArtifactCache::key("base:v1", &opts, "");
        opts.cycles = 7;
        let cycles = ArtifactCache::key("base:v1", &opts, "");
        opts.fopts.push(("n".into(), "8".into()));
        let fopts = ArtifactCache::key("base:v1", &opts, "");
        opts.format = ReportFormat::Json;
        let format = ArtifactCache::key("base:v1", &opts, "");
        let keys = [base, cycles, fopts, format];
        for (i, a) in keys.iter().enumerate() {
            assert!(keys[i + 1..].iter().all(|b| a != b), "{keys:x?}");
        }
    }

    #[test]
    fn fopt_fingerprints_are_order_insensitive() {
        let key = |opts: &OpOpts| ArtifactCache::key("base:v1", opts, "");
        let mut a = OpOpts::default();
        a.fopts.push(("n".into(), "8".into()));
        a.fopts.push(("kernel".into(), "gemm".into()));
        let mut b = OpOpts::default();
        b.fopts.push(("kernel".into(), "gemm".into()));
        b.fopts.push(("n".into(), "8".into()));
        assert_eq!(key(&a), key(&b));
        b.fopts.push(("n".into(), "16".into()));
        assert_ne!(key(&a), key(&b));

        // A value spelling other pairs with separator characters is
        // still one value.
        let mut c = OpOpts::default();
        c.fopts.push(("kernel".into(), "gemm\u{1f}n\u{1f}8".into()));
        assert_ne!(key(&a), key(&c));
    }
}
