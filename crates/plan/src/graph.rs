//! The [`PlanGraph`]: the fifth registry — typed states plus ops.
//!
//! Mirrors the pass/backend/frontend/lint registries' contract:
//! registration of duplicate or non-kebab-case names panics (they are
//! programming errors, not input errors), lookups of unknown names
//! return [`Error::Undefined`] listing the valid choices, and third
//! parties register their own states and ops on top of the standard
//! graph exactly like they register extra passes or backends.

use crate::op::{Op, OpSpec};
use crate::state::{State, StateId};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::utils::is_kebab_case;

/// The build graph: states (artifact kinds) and ops (transformations).
///
/// Construct the standard graph with
/// [`standard`](crate::derive::standard) (or
/// [`from_session`](crate::derive::from_session) over extended
/// registries), then plan routes with [`PlanGraph::plan`] and execute
/// them with [`execute`](crate::exec::execute).
#[derive(Default)]
pub struct PlanGraph {
    states: Vec<State>,
    ops: Vec<Op>,
}

impl PlanGraph {
    /// A graph with no states and no ops.
    pub fn empty() -> Self {
        PlanGraph::default()
    }

    /// Register a state.
    ///
    /// # Panics
    ///
    /// Panics when `name` is taken or not kebab-case, or when one of
    /// `extensions` is already claimed by another state — all
    /// compile-time constants in practice, so collisions are
    /// programming errors.
    pub fn add_state(
        &mut self,
        name: &str,
        description: &str,
        extensions: &[&str],
        artifact_ext: &str,
    ) -> StateId {
        assert!(is_kebab_case(name), "state name `{name}` is not kebab-case");
        assert!(
            self.state_id(name).is_none(),
            "state name `{name}` registered twice"
        );
        for ext in extensions {
            assert!(
                self.state_by_extension(ext).is_none(),
                "extension `.{ext}` claimed by two states (second: `{name}`)"
            );
        }
        self.states.push(State {
            name: name.to_string(),
            description: description.to_string(),
            extensions: extensions.iter().map(|e| (*e).to_string()).collect(),
            artifact_ext: artifact_ext.to_string(),
        });
        StateId(self.states.len() - 1)
    }

    /// Register an op.
    ///
    /// # Panics
    ///
    /// Panics when the name is taken or not kebab-case, or when either
    /// endpoint is not a state of this graph.
    pub fn add_op(&mut self, spec: OpSpec) {
        assert!(
            is_kebab_case(&spec.name),
            "op name `{}` is not kebab-case",
            spec.name
        );
        assert!(
            self.op_by_name(&spec.name).is_none(),
            "op name `{}` registered twice",
            spec.name
        );
        assert!(
            spec.from.0 < self.states.len() && spec.to.0 < self.states.len(),
            "op `{}` references a state outside this graph",
            spec.name
        );
        assert!(
            spec.from != spec.to,
            "op `{}` maps state `{}` to itself; self-loops can never be planned",
            spec.name,
            self.states[spec.from.0].name
        );
        self.ops.push(Op { spec });
    }

    /// All states, in registration order.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// All ops, in registration order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The state registered as `name`.
    pub fn state_id(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|s| s.name == name).map(StateId)
    }

    /// The state of `id`.
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.0]
    }

    /// The op registered as `name`.
    pub fn op_by_name(&self, name: &str) -> Option<&Op> {
        self.ops.iter().find(|o| o.spec.name == name)
    }

    /// The state registered as `name`, or [`Error::Undefined`] listing
    /// every valid state — the message behind `--to`/`--from` typos.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] when `name` is unknown.
    pub fn expect_state(&self, name: &str) -> CalyxResult<StateId> {
        self.state_id(name).ok_or_else(|| {
            Error::undefined(format!(
                "state `{name}`; valid states: {}",
                self.states
                    .iter()
                    .map(|s| s.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    /// The state claiming file extension `ext` (without the leading
    /// dot; ASCII case-insensitive), if any.
    pub fn state_by_extension(&self, ext: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.extensions.iter().any(|e| e.eq_ignore_ascii_case(ext)))
            .map(StateId)
    }

    /// The state inferred from `path`'s file extension, if any —
    /// the plan-level face of the same extension-inference rule as
    /// [`FrontendRegistry::infer_for_path`](calyx_frontend::FrontendRegistry::infer_for_path)
    /// (frontend-shaped states copy their extensions from that registry
    /// at derivation time).
    pub fn infer_state(&self, path: &str) -> Option<StateId> {
        std::path::Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
            .and_then(|ext| self.state_by_extension(ext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpSpec, OptUse};

    fn two_states() -> (PlanGraph, StateId, StateId) {
        let mut g = PlanGraph::empty();
        let a = g.add_state("alpha", "first", &["alpha"], "alpha");
        let b = g.add_state("beta", "second", &[], "beta");
        (g, a, b)
    }

    fn spec(name: &str, from: StateId, to: StateId) -> OpSpec {
        OpSpec {
            name: name.into(),
            description: "test".into(),
            from,
            to,
            cost: 10,
            fingerprint: "t".into(),
            uses: OptUse::default(),
            run: Box::new(|s, _, _| Ok(s.to_string())),
        }
    }

    #[test]
    fn states_register_and_resolve() {
        let (g, a, _) = two_states();
        assert_eq!(g.state_id("alpha"), Some(a));
        assert_eq!(g.state(a).name, "alpha");
        assert_eq!(g.state_by_extension("ALPHA"), Some(a));
        assert_eq!(g.infer_state("x/y.alpha"), Some(a));
        assert!(g.infer_state("x/y.gamma").is_none());
        let err = g.expect_state("gamma").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("gamma") && msg.contains("alpha") && msg.contains("beta"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_state_panics() {
        let (mut g, ..) = two_states();
        g.add_state("alpha", "again", &[], "a");
    }

    #[test]
    #[should_panic(expected = "claimed by two states")]
    fn duplicate_extension_panics() {
        let (mut g, ..) = two_states();
        g.add_state("gamma", "third", &["alpha"], "g");
    }

    #[test]
    #[should_panic(expected = "not kebab-case")]
    fn non_kebab_state_panics() {
        PlanGraph::empty().add_state("Bad_Name", "x", &[], "x");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_op_panics() {
        let (mut g, a, b) = two_states();
        g.add_op(spec("go", a, b));
        g.add_op(spec("go", a, b));
    }

    #[test]
    #[should_panic(expected = "maps state `alpha` to itself")]
    fn self_loop_panics() {
        let (mut g, a, _) = two_states();
        g.add_op(spec("loop", a, a));
    }
}
