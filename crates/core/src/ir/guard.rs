//! Guard expressions (paper §3.2).
//!
//! Guards condition assignments: `add.left = cmp.out ? a_reg.out`. They are
//! boolean trees over 1-bit ports plus integer comparisons between ports and
//! constants — the comparison forms are exactly what the FSM compilation
//! passes emit (`fsm.out == 0`, `fsm.out < 3`; paper Fig. 2c and §4.4).

use super::cell::{Atom, PortRef};

/// Comparison operators usable inside guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// `==`
    Eq,
    /// `!=`
    Neq,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Geq,
    /// `<=`
    Leq,
}

impl CompOp {
    /// Evaluate the comparison on unsigned values.
    pub fn eval(self, l: u64, r: u64) -> bool {
        match self {
            CompOp::Eq => l == r,
            CompOp::Neq => l != r,
            CompOp::Gt => l > r,
            CompOp::Lt => l < r,
            CompOp::Geq => l >= r,
            CompOp::Leq => l <= r,
        }
    }

    /// The textual operator.
    pub fn as_str(self) -> &'static str {
        match self {
            CompOp::Eq => "==",
            CompOp::Neq => "!=",
            CompOp::Gt => ">",
            CompOp::Lt => "<",
            CompOp::Geq => ">=",
            CompOp::Leq => "<=",
        }
    }
}

/// A boolean guard expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// Always active; unconditional assignments carry this guard.
    True,
    /// The value of a 1-bit port.
    Port(PortRef),
    /// Logical negation.
    Not(Box<Guard>),
    /// Logical conjunction.
    And(Box<Guard>, Box<Guard>),
    /// Logical disjunction.
    Or(Box<Guard>, Box<Guard>),
    /// Integer comparison between two atoms of equal width.
    Comp(CompOp, Atom, Atom),
}

impl Guard {
    /// Guard reading a 1-bit port.
    pub fn port(p: PortRef) -> Self {
        Guard::Port(p)
    }

    /// `port == val` against a sized constant.
    pub fn port_eq(p: PortRef, val: u64, width: u32) -> Self {
        Guard::Comp(CompOp::Eq, Atom::Port(p), Atom::constant(val, width))
    }

    /// `port < val` against a sized constant.
    pub fn port_lt(p: PortRef, val: u64, width: u32) -> Self {
        Guard::Comp(CompOp::Lt, Atom::Port(p), Atom::constant(val, width))
    }

    /// `port >= val` against a sized constant.
    pub fn port_geq(p: PortRef, val: u64, width: u32) -> Self {
        Guard::Comp(CompOp::Geq, Atom::Port(p), Atom::constant(val, width))
    }

    /// Conjunction with [`Guard::True`] identities folded away.
    pub fn and(self, other: Guard) -> Guard {
        match (self, other) {
            (Guard::True, g) | (g, Guard::True) => g,
            (a, b) => Guard::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction with `True` short-circuiting.
    pub fn or(self, other: Guard) -> Guard {
        match (self, other) {
            (Guard::True, _) | (_, Guard::True) => Guard::True,
            (a, b) => Guard::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation with double negations folded away.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Guard {
        match self {
            Guard::Not(inner) => *inner,
            g => Guard::Not(Box::new(g)),
        }
    }

    /// True when the guard is the constant [`Guard::True`].
    pub fn is_true(&self) -> bool {
        matches!(self, Guard::True)
    }

    /// Collect every port read by the guard into `out`.
    pub fn ports_into(&self, out: &mut Vec<PortRef>) {
        match self {
            Guard::True => {}
            Guard::Port(p) => out.push(*p),
            Guard::Not(g) => g.ports_into(out),
            Guard::And(a, b) | Guard::Or(a, b) => {
                a.ports_into(out);
                b.ports_into(out);
            }
            Guard::Comp(_, l, r) => {
                if let Atom::Port(p) = l {
                    out.push(*p);
                }
                if let Atom::Port(p) = r {
                    out.push(*p);
                }
            }
        }
    }

    /// Every port read by the guard.
    pub fn ports(&self) -> Vec<PortRef> {
        let mut v = Vec::new();
        self.ports_into(&mut v);
        v
    }

    /// Iterate over every port read by the guard without collecting them.
    ///
    /// The iterator keeps an explicit worklist instead of materializing a
    /// `Vec<PortRef>`; for the common [`Guard::True`] case it performs no
    /// allocation at all, which matters in the analysis loops that scan
    /// every assignment of a component (see
    /// [`Assignment::reads_iter`](super::Assignment::reads_iter)).
    pub fn ports_iter(&self) -> GuardPorts<'_> {
        let mut it = GuardPorts {
            stack: Vec::new(),
            pending: None,
        };
        if !self.is_true() {
            it.stack.push(self);
        }
        it
    }

    /// Rewrite every port reference through `f`.
    pub fn map_ports(&mut self, f: &mut impl FnMut(PortRef) -> PortRef) {
        match self {
            Guard::True => {}
            Guard::Port(p) => *p = f(*p),
            Guard::Not(g) => g.map_ports(f),
            Guard::And(a, b) | Guard::Or(a, b) => {
                a.map_ports(f);
                b.map_ports(f);
            }
            Guard::Comp(_, l, r) => {
                for atom in [l, r] {
                    if let Atom::Port(p) = atom {
                        *p = f(*p);
                    }
                }
            }
        }
    }

    /// Number of nodes in the guard tree (used by area estimation and
    /// compilation statistics).
    pub fn size(&self) -> usize {
        match self {
            Guard::True => 0,
            Guard::Port(_) => 1,
            Guard::Not(g) => 1 + g.size(),
            Guard::And(a, b) | Guard::Or(a, b) => 1 + a.size() + b.size(),
            Guard::Comp(..) => 1,
        }
    }
}

/// Lazy depth-first iterator over the ports of a [`Guard`], created by
/// [`Guard::ports_iter`]. Yields ports in the same order as
/// [`Guard::ports_into`].
pub struct GuardPorts<'a> {
    stack: Vec<&'a Guard>,
    /// Second port of a comparison whose first port was just yielded.
    pending: Option<PortRef>,
}

impl Iterator for GuardPorts<'_> {
    type Item = PortRef;

    fn next(&mut self) -> Option<PortRef> {
        if let Some(p) = self.pending.take() {
            return Some(p);
        }
        while let Some(g) = self.stack.pop() {
            match g {
                Guard::True => {}
                Guard::Port(p) => return Some(*p),
                Guard::Not(inner) => self.stack.push(inner),
                // Left child visited first: push right below left.
                Guard::And(a, b) | Guard::Or(a, b) => {
                    self.stack.push(b);
                    self.stack.push(a);
                }
                Guard::Comp(_, l, r) => match (l.port(), r.port()) {
                    (Some(l), Some(r)) => {
                        self.pending = Some(*r);
                        return Some(*l);
                    }
                    (Some(p), None) | (None, Some(p)) => return Some(*p),
                    (None, None) => {}
                },
            }
        }
        None
    }
}

impl From<PortRef> for Guard {
    fn from(p: PortRef) -> Self {
        Guard::Port(p)
    }
}

impl std::fmt::Display for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Precedence: ! > comparison > & > |. Parenthesize children with
        // looser binding (matching the parser's grammar, so `!(x == 1)`
        // keeps its parentheses while `x == 1 & y` does not need any).
        fn fmt_prec(g: &Guard, prec: u8, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let my_prec = match g {
                Guard::Or(..) => 1,
                Guard::And(..) => 2,
                Guard::Comp(..) => 3,
                _ => 4,
            };
            let need_parens = my_prec < prec;
            if need_parens {
                write!(f, "(")?;
            }
            match g {
                Guard::True => write!(f, "1'd1")?,
                Guard::Port(p) => write!(f, "{p}")?,
                Guard::Not(inner) => {
                    write!(f, "!")?;
                    fmt_prec(inner, 4, f)?;
                }
                Guard::And(a, b) => {
                    fmt_prec(a, 2, f)?;
                    write!(f, " & ")?;
                    fmt_prec(b, 2, f)?;
                }
                Guard::Or(a, b) => {
                    fmt_prec(a, 1, f)?;
                    write!(f, " | ")?;
                    fmt_prec(b, 1, f)?;
                }
                Guard::Comp(op, l, r) => write!(f, "{l} {} {r}", op.as_str())?,
            }
            if need_parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        fmt_prec(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PortRef {
        PortRef::cell(name, "out")
    }

    #[test]
    fn comp_op_eval() {
        assert!(CompOp::Eq.eval(3, 3));
        assert!(CompOp::Neq.eval(3, 4));
        assert!(CompOp::Lt.eval(3, 4));
        assert!(CompOp::Geq.eval(4, 4));
        assert!(!CompOp::Gt.eval(4, 4));
        assert!(CompOp::Leq.eval(4, 4));
    }

    #[test]
    fn and_folds_true() {
        let g = Guard::True.and(Guard::port(p("a")));
        assert_eq!(g, Guard::port(p("a")));
        let g = Guard::port(p("a")).and(Guard::True);
        assert_eq!(g, Guard::port(p("a")));
    }

    #[test]
    fn or_short_circuits_true() {
        assert!(Guard::True.or(Guard::port(p("a"))).is_true());
    }

    #[test]
    fn not_folds_double_negation() {
        let g = Guard::port(p("a")).not().not();
        assert_eq!(g, Guard::port(p("a")));
    }

    #[test]
    fn collects_ports_from_comparisons() {
        let g = Guard::port_eq(p("fsm"), 2, 4).and(Guard::port(p("done")));
        let mut ports = g.ports();
        ports.sort();
        assert_eq!(ports, vec![p("done"), p("fsm")]);
    }

    #[test]
    fn display_respects_precedence() {
        let g = Guard::port(p("a")).or(Guard::port(p("b")).and(Guard::port(p("c"))));
        assert_eq!(g.to_string(), "a.out | b.out & c.out");
        let g2 = Guard::port(p("a"))
            .or(Guard::port(p("b")))
            .and(Guard::port(p("c")));
        assert_eq!(g2.to_string(), "(a.out | b.out) & c.out");
        let g3 = Guard::port(p("a")).and(Guard::port(p("b"))).not();
        assert_eq!(g3.to_string(), "!(a.out & b.out)");
    }

    #[test]
    fn ports_iter_matches_ports_into() {
        let guards = [
            Guard::True,
            Guard::port(p("a")),
            Guard::port(p("a")).not(),
            Guard::port(p("a")).and(Guard::port(p("b")).or(Guard::port(p("c")))),
            Guard::port_eq(p("fsm"), 2, 4).and(Guard::port(p("done"))),
            Guard::Comp(CompOp::Lt, Atom::Port(p("x")), Atom::Port(p("y"))),
            Guard::Comp(CompOp::Eq, Atom::constant(1, 2), Atom::constant(1, 2)),
        ];
        for g in guards {
            let collected: Vec<_> = g.ports_iter().collect();
            assert_eq!(collected, g.ports(), "order/content mismatch for {g}");
        }
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Guard::True.size(), 0);
        let g = Guard::port(p("a")).and(Guard::port_eq(p("b"), 1, 2));
        assert_eq!(g.size(), 3);
    }
}
