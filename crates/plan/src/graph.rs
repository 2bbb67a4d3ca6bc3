//! The [`PlanGraph`]: typed states plus ops — two [`Registry`] tables.
//!
//! States and ops live under the contract every registry shares:
//! registration of duplicate or non-kebab-case names (or of an extension
//! already claimed) panics, lookups of unknown names return
//! [`Error::Undefined`](calyx_core::errors::Error::Undefined) listing the
//! valid choices, and third parties register their own states and ops on
//! top of the standard graph exactly like they register extra passes or
//! backends.

use crate::op::{Op, OpSpec};
use crate::state::{State, StateId};
use calyx_core::errors::CalyxResult;
use calyx_core::utils::Registry;

/// The build graph: states (artifact kinds) and ops (transformations).
///
/// Construct the standard graph with
/// [`standard`](crate::derive::standard) (or
/// [`from_session`](crate::derive::from_session) over extended
/// registries), then plan routes with [`PlanGraph::plan`] and execute
/// them with [`execute`](crate::exec::execute).
#[derive(Default)]
pub struct PlanGraph {
    /// A state's position here is its [`StateId`].
    states: Registry<State>,
    ops: Registry<Op>,
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
    /// Panics as [`Registry::insert`] does: `name` is taken or not
    /// kebab-case, or one of `extensions` is already claimed by another
    /// state.
    pub fn add_state(
        &mut self,
        name: &str,
        description: &str,
        extensions: &[&str],
        artifact_ext: &str,
    ) -> StateId {
        StateId(self.states.insert(State {
            name: name.to_string(),
            description: description.to_string(),
            extensions: extensions.iter().map(|e| (*e).to_string()).collect(),
            artifact_ext: artifact_ext.to_string(),
        }))
    }

    /// Register an op.
    ///
    /// # Panics
    ///
    /// Panics as [`Registry::insert`] does on the name, and when either
    /// endpoint is not a state of this graph or both are the same state.
    pub fn add_op(&mut self, spec: OpSpec) {
        let states = self.states();
        assert!(
            spec.from.0 < states.len() && spec.to.0 < states.len(),
            "op `{}` references a state outside this graph",
            spec.name
        );
        assert!(
            spec.from != spec.to,
            "op `{}` maps state `{}` to itself; self-loops can never be planned",
            spec.name,
            states[spec.from.0].name
        );
        let endpoints = format!(
            " [{} -> {}]",
            states[spec.from.0].name, states[spec.to.0].name
        );
        self.ops.insert(Op { spec, endpoints });
    }

    /// All states, in registration order.
    pub fn states(&self) -> &[State] {
        self.states.entries()
    }

    /// All ops, in registration order.
    pub fn ops(&self) -> &[Op] {
        self.ops.entries()
    }

    /// The state registered as `name`.
    pub fn state_id(&self, name: &str) -> Option<StateId> {
        self.states.position(name).map(StateId)
    }

    /// The id of a state some lookup of this graph returned.
    fn id_of(&self, state: &State) -> StateId {
        self.state_id(&state.name)
            .expect("the state came from this graph")
    }

    /// The state of `id`.
    pub fn state(&self, id: StateId) -> &State {
        &self.states()[id.0]
    }

    /// The op registered as `name`.
    pub fn op_by_name(&self, name: &str) -> Option<&Op> {
        self.ops.find(name)
    }

    /// The state registered as `name`, or [`Error::Undefined`] listing
    /// every valid state — the message behind `--to`/`--from` typos.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] when `name` is unknown.
    ///
    /// [`Error::Undefined`]: calyx_core::errors::Error::Undefined
    pub fn expect_state(&self, name: &str) -> CalyxResult<StateId> {
        self.states.get(name).map(|s| self.id_of(s))
    }

    /// The state inferred from `path`'s file extension, if any — by
    /// [`Registry::infer_for_path`], the rule
    /// [`FrontendRegistry::infer_for_path`](calyx_frontend::FrontendRegistry::infer_for_path)
    /// applies too (frontend-shaped states copy their extensions from
    /// that registry at derivation time).
    pub fn infer_state(&self, path: &str) -> Option<StateId> {
        self.states.infer_for_path(path).map(|s| self.id_of(s))
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
        assert_eq!(g.infer_state("x/y.ALPHA"), Some(a));
        assert!(g.infer_state("x/y.gamma").is_none());
        let err = g.expect_state("gamma").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("gamma") && msg.contains("alpha") && msg.contains("beta"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "claimed by two states")]
    fn duplicate_extension_panics() {
        let (mut g, ..) = two_states();
        g.add_state("gamma", "third", &["alpha"], "g");
    }

    #[test]
    #[should_panic(expected = "maps state `alpha` to itself")]
    fn self_loop_panics() {
        let (mut g, a, _) = two_states();
        g.add_op(spec("loop", a, a));
    }
}
