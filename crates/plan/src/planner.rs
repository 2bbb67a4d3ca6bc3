//! The route planner: cheapest op sequence between two states.
//!
//! The graph is tiny (tens of states, tens of ops), so the planner is a
//! plain Dijkstra with linear min-extraction — deterministic by
//! construction: strict-improvement relaxation plus lowest-index
//! extraction means equal-cost routes resolve toward the earlier
//! registration, and cost ranking makes `lower` (cost 10) always beat
//! `lower-static` (cost 20) and `opt` (cost 30) for a bare
//! `--to calyx-lowered`.
//!
//! A goal with no route is an [`Error::Undefined`] listing the states
//! that *are* reachable from the start — the plan-level analogue of the
//! registries' "unknown name, valid choices are …" diagnostics.

use crate::graph::PlanGraph;
use crate::state::StateId;
use calyx_core::errors::{CalyxResult, Error};

/// A planned route: op indices into the graph, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Start state.
    pub from: StateId,
    /// Goal state.
    pub to: StateId,
    /// Ops to run, in order. Empty when `from == to` (the input already
    /// *is* the goal artifact).
    pub steps: Vec<usize>,
}

impl PlanGraph {
    /// The cheapest route from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] when no op sequence connects the
    /// two states; the message lists every state reachable from `from`
    /// so the caller can see which goals were valid.
    pub fn plan(&self, from: StateId, to: StateId) -> CalyxResult<Route> {
        let n = self.states().len();
        let mut dist: Vec<u64> = vec![u64::MAX; n];
        let mut via: Vec<Option<usize>> = vec![None; n];
        let mut done = vec![false; n];
        dist[from.0] = 0;
        // Lowest-index minimum extraction: deterministic tie-breaking.
        while let Some(u) = (0..n)
            .filter(|&i| !done[i] && dist[i] < u64::MAX)
            .min_by_key(|&i| dist[i])
        {
            done[u] = true;
            for (idx, op) in self.ops().iter().enumerate() {
                if op.from().0 == u {
                    let v = op.to().0;
                    let candidate = dist[u] + u64::from(op.cost());
                    if candidate < dist[v] {
                        dist[v] = candidate;
                        via[v] = Some(idx);
                    }
                }
            }
        }
        if dist[to.0] == u64::MAX {
            let reachable: Vec<&str> = (0..n)
                .filter(|&i| i != from.0 && dist[i] < u64::MAX)
                .map(|i| self.states()[i].name.as_str())
                .collect();
            let from_name = &self.state(from).name;
            let to_name = &self.state(to).name;
            let hint = if reachable.is_empty() {
                format!("no ops leave state `{from_name}`")
            } else {
                format!(
                    "states reachable from `{from_name}`: {}",
                    reachable.join(", ")
                )
            };
            return Err(Error::undefined(format!(
                "no route from state `{from_name}` to `{to_name}`; {hint}"
            )));
        }
        // Walk the predecessor chain back from the goal.
        let mut steps = Vec::new();
        let mut cur = to.0;
        while cur != from.0 {
            let idx = via[cur].expect("finite distance implies a predecessor");
            steps.push(idx);
            cur = self.ops()[idx].from().0;
        }
        steps.reverse();
        Ok(Route { from, to, steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Action, OpSpec};

    /// a --1-- b --1-- d, a --5-- c --1-- d, plus an expensive direct
    /// a --9-- d: the two-hop cheap route must win, deterministically.
    fn diamond() -> (PlanGraph, StateId, StateId) {
        let mut g = PlanGraph::empty();
        let a = g.add_state("a", "", &[], "a");
        let b = g.add_state("b", "", &[], "b");
        let c = g.add_state("c", "", &[], "c");
        let d = g.add_state("d", "", &[], "d");
        let _iso = g.add_state("island", "", &[], "i");
        let mut op = |name: &str, from, to, cost| {
            g.add_op(OpSpec {
                name: name.into(),
                description: String::new(),
                from,
                to,
                cost,
                action: Action::Custom {
                    fingerprint: name.into(),
                    run: Box::new(|s, _, _| Ok(s.to_string())),
                },
            });
        };
        op("ab", a, b, 1);
        op("ac", a, c, 5);
        op("bd", b, d, 1);
        op("cd", c, d, 1);
        op("ad", a, d, 9);
        (g, a, d)
    }

    #[test]
    fn cheapest_route_wins() {
        let (g, a, d) = diamond();
        let route = g.plan(a, d).unwrap();
        let names: Vec<&str> = route.steps.iter().map(|&i| g.ops()[i].name()).collect();
        assert_eq!(names, ["ab", "bd"]);
    }

    #[test]
    fn same_state_is_an_empty_route() {
        let (g, a, _) = diamond();
        assert!(g.plan(a, a).unwrap().steps.is_empty());
    }

    #[test]
    fn no_route_lists_reachable_states() {
        let (g, a, d) = diamond();
        let island = g.state_id("island").unwrap();
        let msg = g.plan(a, island).unwrap_err().to_string();
        assert!(msg.contains("no route from state `a` to `island`"), "{msg}");
        for s in ["b", "c", "d"] {
            assert!(msg.contains(s), "missing `{s}` in {msg}");
        }
        // Nothing leaves the goal-only states.
        let msg = g.plan(d, a).unwrap_err().to_string();
        assert!(msg.contains("no ops leave state `d`"), "{msg}");
    }

    #[test]
    fn equal_costs_break_toward_earlier_registration() {
        let mut g = PlanGraph::empty();
        let a = g.add_state("a", "", &[], "a");
        let b = g.add_state("b", "", &[], "b");
        for name in ["first", "second"] {
            g.add_op(OpSpec {
                name: name.into(),
                description: String::new(),
                from: a,
                to: b,
                cost: 10,
                action: Action::Custom {
                    fingerprint: name.into(),
                    run: Box::new(|s, _, _| Ok(s.to_string())),
                },
            });
        }
        let route = g.plan(a, b).unwrap();
        assert_eq!(g.ops()[route.steps[0]].name(), "first");
    }
}
