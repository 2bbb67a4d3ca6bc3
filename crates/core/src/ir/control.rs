//! The control sub-language (paper §3.4).
//!
//! Control statements schedule group executions. Unlike groups they have no
//! direct hardware analog; the
//! [`CompileControl`](crate::passes::CompileControl) pass realizes them with
//! finite-state machines.

use super::{Attributes, Id, PortRef};

/// A control program.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Control {
    /// No-op. The control program of a fully lowered component.
    #[default]
    Empty,
    /// Pass control to a group; finishes when the group raises `done`.
    Enable {
        /// The enabled group.
        group: Id,
        /// Statement attributes (e.g. inferred `"static"` latency).
        attributes: Attributes,
    },
    /// Run statements in order.
    Seq {
        /// The sub-programs, executed left to right.
        stmts: Vec<Control>,
        /// Statement attributes.
        attributes: Attributes,
    },
    /// Run statements in parallel; finishes when all have finished once.
    Par {
        /// The sub-programs, executed concurrently.
        stmts: Vec<Control>,
        /// Statement attributes.
        attributes: Attributes,
    },
    /// Run `cond`, then branch on the 1-bit value of `port`.
    If {
        /// The 1-bit condition port.
        port: PortRef,
        /// Group that computes the value on `port` (the `with` group).
        cond: Option<Id>,
        /// Executed when `port` is 1.
        tbranch: Box<Control>,
        /// Executed when `port` is 0.
        fbranch: Box<Control>,
        /// Statement attributes.
        attributes: Attributes,
    },
    /// Repeatedly run `cond`; while `port` reads 1, run the body.
    While {
        /// The 1-bit condition port.
        port: PortRef,
        /// Group that computes the value on `port` (the `with` group).
        cond: Option<Id>,
        /// The loop body.
        body: Box<Control>,
        /// Statement attributes.
        attributes: Attributes,
    },
}

impl Control {
    /// An enable of `group` with no attributes.
    pub fn enable(group: impl Into<Id>) -> Self {
        Control::Enable {
            group: group.into(),
            attributes: Attributes::new(),
        }
    }

    /// A `seq` over `stmts`.
    pub fn seq(stmts: Vec<Control>) -> Self {
        Control::Seq {
            stmts,
            attributes: Attributes::new(),
        }
    }

    /// A `par` over `stmts`.
    pub fn par(stmts: Vec<Control>) -> Self {
        Control::Par {
            stmts,
            attributes: Attributes::new(),
        }
    }

    /// An `if port with cond { t } else { f }`.
    pub fn if_(port: PortRef, cond: Option<Id>, tbranch: Control, fbranch: Control) -> Self {
        Control::If {
            port,
            cond,
            tbranch: Box::new(tbranch),
            fbranch: Box::new(fbranch),
            attributes: Attributes::new(),
        }
    }

    /// A `while port with cond { body }`.
    pub fn while_(port: PortRef, cond: Option<Id>, body: Control) -> Self {
        Control::While {
            port,
            cond,
            body: Box::new(body),
            attributes: Attributes::new(),
        }
    }

    /// True for [`Control::Empty`].
    pub fn is_empty(&self) -> bool {
        matches!(self, Control::Empty)
    }

    /// This statement's attributes (`Empty` has none and returns `None`).
    pub fn attributes(&self) -> Option<&Attributes> {
        match self {
            Control::Empty => None,
            Control::Enable { attributes, .. }
            | Control::Seq { attributes, .. }
            | Control::Par { attributes, .. }
            | Control::If { attributes, .. }
            | Control::While { attributes, .. } => Some(attributes),
        }
    }

    /// Mutable access to this statement's attributes.
    pub fn attributes_mut(&mut self) -> Option<&mut Attributes> {
        match self {
            Control::Empty => None,
            Control::Enable { attributes, .. }
            | Control::Seq { attributes, .. }
            | Control::Par { attributes, .. }
            | Control::If { attributes, .. }
            | Control::While { attributes, .. } => Some(attributes),
        }
    }

    /// The statement's `"static"` latency attribute, if annotated.
    pub fn static_latency(&self) -> Option<u64> {
        self.attributes().and_then(|a| a.get(super::attr::STATIC))
    }

    /// Visit every enabled group name (including `with` condition groups).
    pub fn for_each_group(&self, f: &mut impl FnMut(Id)) {
        match self {
            Control::Empty => {}
            Control::Enable { group, .. } => f(*group),
            Control::Seq { stmts, .. } | Control::Par { stmts, .. } => {
                for s in stmts {
                    s.for_each_group(f);
                }
            }
            Control::If {
                cond,
                tbranch,
                fbranch,
                ..
            } => {
                if let Some(c) = cond {
                    f(*c);
                }
                tbranch.for_each_group(f);
                fbranch.for_each_group(f);
            }
            Control::While { cond, body, .. } => {
                if let Some(c) = cond {
                    f(*c);
                }
                body.for_each_group(f);
            }
        }
    }

    /// The set of groups referenced anywhere in the program.
    pub fn used_groups(&self) -> std::collections::BTreeSet<Id> {
        let mut set = std::collections::BTreeSet::new();
        self.for_each_group(&mut |g| {
            set.insert(g);
        });
        set
    }

    /// Number of control statements in the program, counting every node
    /// (`seq`/`par`/`if`/`while` operators and group enables) but not
    /// `Empty`. This is the metric reported in the paper's §7.4.
    pub fn statement_count(&self) -> usize {
        match self {
            Control::Empty => 0,
            Control::Enable { .. } => 1,
            Control::Seq { stmts, .. } | Control::Par { stmts, .. } => {
                1 + stmts.iter().map(Control::statement_count).sum::<usize>()
            }
            Control::If {
                tbranch, fbranch, ..
            } => 1 + tbranch.statement_count() + fbranch.statement_count(),
            Control::While { body, .. } => 1 + body.statement_count(),
        }
    }

    /// Rename groups through `map` (used by sharing passes when merging).
    pub fn rename_groups(&mut self, map: &rustc_hash::FxHashMap<Id, Id>) {
        match self {
            Control::Empty => {}
            Control::Enable { group, .. } => {
                if let Some(n) = map.get(group) {
                    *group = *n;
                }
            }
            Control::Seq { stmts, .. } | Control::Par { stmts, .. } => {
                for s in stmts {
                    s.rename_groups(map);
                }
            }
            Control::If {
                cond,
                tbranch,
                fbranch,
                ..
            } => {
                if let Some(c) = cond {
                    if let Some(n) = map.get(c) {
                        *c = *n;
                    }
                }
                tbranch.rename_groups(map);
                fbranch.rename_groups(map);
            }
            Control::While { cond, body, .. } => {
                if let Some(c) = cond {
                    if let Some(n) = map.get(c) {
                        *c = *n;
                    }
                }
                body.rename_groups(map);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Control {
        // seq { a; par { b; c }; if p with g { d } else {} while p with g { e } }
        let p = PortRef::cell("cmp", "out");
        Control::seq(vec![
            Control::enable("a"),
            Control::par(vec![Control::enable("b"), Control::enable("c")]),
            Control::if_(p, Some(Id::new("g")), Control::enable("d"), Control::Empty),
            Control::while_(p, Some(Id::new("g")), Control::enable("e")),
        ])
    }

    #[test]
    fn used_groups_includes_cond_groups() {
        let groups: Vec<_> = sample()
            .used_groups()
            .into_iter()
            .map(|g| g.as_str())
            .collect();
        assert_eq!(groups, vec!["a", "b", "c", "d", "e", "g"]);
    }

    #[test]
    fn statement_count_counts_operators_and_enables() {
        // seq + a + par + b + c + if + d + while + e = 9
        assert_eq!(sample().statement_count(), 9);
        assert_eq!(Control::Empty.statement_count(), 0);
    }

    #[test]
    fn rename_groups_renames_enables_and_conds() {
        let mut c = sample();
        let map = [(Id::new("a"), Id::new("a2")), (Id::new("g"), Id::new("g2"))]
            .into_iter()
            .collect();
        c.rename_groups(&map);
        let groups = c.used_groups();
        assert!(groups.contains(&Id::new("a2")));
        assert!(groups.contains(&Id::new("g2")));
        assert!(!groups.contains(&Id::new("a")));
    }

    #[test]
    fn static_latency_reads_attribute() {
        let mut c = Control::enable("a");
        assert_eq!(c.static_latency(), None);
        c.attributes_mut()
            .unwrap()
            .insert(crate::ir::attr::STATIC, 7);
        assert_eq!(c.static_latency(), Some(7));
    }
}
