//! Ops: the edges of the build graph.
//!
//! An op transforms the artifact text of its `from` state into the
//! artifact text of its `to` state. Every op carries a *fingerprint* —
//! a stable string naming everything that could change its output
//! besides the input bytes (the pass expansion behind an alias, the
//! simulation cycle budget, generator `--fopt`s). The executor keys its
//! on-disk cache on `digest(input) ⊕ digest(fingerprint)`, so editing an
//! alias's expansion or passing a different `--fopt` invalidates exactly
//! the steps it affects.
//!
//! Ops are registered through [`OpSpec`] — either by the derivation in
//! [`derive`](crate::derive) (one op per frontend, pass alias, backend,
//! plus the composite lint op) or by third parties via
//! [`PlanGraph::add_op`](crate::PlanGraph::add_op), exactly like every
//! other [`Registry`](calyx_core::utils::Registry) accepts foreign entries. An op runs against an
//! [`ExecEnv`], which is the compile core's
//! [`Session`](calyx_service::Session): the derived ops are each one
//! [`Job`](calyx_service::Job) compiled through it.

use crate::state::StateId;
use calyx_backend::ReportFormat;
use calyx_core::errors::CalyxResult;
use calyx_service::ParseCache;

/// The registries an op may consult while running: the same
/// [`Session`](calyx_service::Session) the driver and the service
/// compile through. Drivers that register third-party frontends or
/// backends hand one extended session to both the graph derivation and
/// the executor.
pub use calyx_service::Session as ExecEnv;

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
            cycles: calyx_backend::BackendOpts::default().cycles,
            format: ReportFormat::Text,
        }
    }
}

/// Which [`OpOpts`] fields feed an op's cache fingerprint. Over-claiming
/// is safe (spurious invalidation); under-claiming serves stale
/// artifacts — when unsure, claim.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptUse {
    /// Output depends on the generator `--fopt` pairs.
    pub fopts: bool,
    /// Output depends on the simulation cycle budget.
    pub cycles: bool,
    /// Output depends on the report format.
    pub format: bool,
}

/// The function an op runs: input artifact text in, output artifact
/// text out.
pub type OpFn = Box<dyn Fn(&str, &ExecEnv, &OpOpts) -> CalyxResult<String>>;

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
    /// Stable fingerprint of everything besides input bytes and
    /// [`OptUse`]-declared options that determines the output.
    pub fingerprint: String,
    /// Options that feed the cache key (see [`OptUse`]).
    pub uses: OptUse,
    /// The transformation itself.
    pub run: OpFn,
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

    /// The full cache fingerprint under `opts`: the registered base
    /// plus every option the op declared it consumes, canonicalized
    /// (fopt pairs are keyed and sorted the same way the parse cache
    /// fingerprints them, so flag order never invalidates).
    pub fn fingerprint(&self, opts: &OpOpts) -> String {
        let mut fp = self.spec.fingerprint.clone();
        if self.spec.uses.fopts {
            fp.push('\x1e');
            fp.push_str(&ParseCache::fingerprint("fopts", &opts.fopts));
        }
        if self.spec.uses.cycles {
            fp.push('\x1e');
            fp.push_str(&opts.cycles.to_string());
        }
        if self.spec.uses.format {
            fp.push('\x1e');
            fp.push_str(match opts.format {
                ReportFormat::Text => "text",
                ReportFormat::Json => "json",
            });
        }
        fp
    }

    /// Run the op on `input`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying frontend/pass/backend/lint failure.
    pub fn run(&self, input: &str, env: &ExecEnv, opts: &OpOpts) -> CalyxResult<String> {
        (self.spec.run)(input, env, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(uses: OptUse) -> Op {
        Op {
            spec: OpSpec {
                name: "test-op".into(),
                description: "test".into(),
                from: StateId(0),
                to: StateId(1),
                cost: 10,
                fingerprint: "base:v1".into(),
                uses,
                run: Box::new(|s, _, _| Ok(s.to_uppercase())),
            },
            endpoints: String::new(),
        }
    }

    #[test]
    fn fingerprint_folds_in_exactly_the_declared_options() {
        let mut opts = OpOpts::default();
        let blind = op(OptUse::default());
        let base = blind.fingerprint(&opts);
        opts.cycles = 7;
        opts.fopts.push(("n".into(), "8".into()));
        opts.format = ReportFormat::Json;
        // An op that declares nothing is immune to every option.
        assert_eq!(blind.fingerprint(&opts), base);

        let all = op(OptUse {
            fopts: true,
            cycles: true,
            format: true,
        });
        let fp = all.fingerprint(&opts);
        assert_ne!(fp, base);
        opts.cycles = 8;
        assert_ne!(all.fingerprint(&opts), fp);
    }

    #[test]
    fn fopt_fingerprints_are_order_insensitive() {
        let op = op(OptUse {
            fopts: true,
            ..OptUse::default()
        });
        let mut a = OpOpts::default();
        a.fopts.push(("n".into(), "8".into()));
        a.fopts.push(("kernel".into(), "gemm".into()));
        let mut b = OpOpts::default();
        b.fopts.push(("kernel".into(), "gemm".into()));
        b.fopts.push(("n".into(), "8".into()));
        assert_eq!(op.fingerprint(&a), op.fingerprint(&b));
        b.fopts.push(("n".into(), "16".into()));
        assert_ne!(op.fingerprint(&a), op.fingerprint(&b));
    }
}
