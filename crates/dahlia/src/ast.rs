//! The Dahlia abstract syntax tree.
//!
//! The same types represent both the surface program and the *lowered*
//! program (paper §6.2's "lowered Dahlia"): lowering removes `For` and
//! resolves banked memory accesses, leaving the constructs with one-to-one
//! Calyx mappings.

use calyx_core::errors::CalyxResult;
use calyx_core::ir::Id;

/// A memory declaration: `decl a: ubit<32>[8 bank 2][8];`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemDecl {
    /// Memory name.
    pub name: Id,
    /// Element width in bits.
    pub width: u32,
    /// Per-dimension `(size, banking factor)`. Banking factor 1 means
    /// unbanked; factor B splits the dimension cyclically over B banks.
    pub dims: Vec<(u64, u64)>,
}

impl MemDecl {
    /// Total element count.
    pub fn size(&self) -> u64 {
        self.dims.iter().map(|(s, _)| s).product()
    }

    /// The product of all banking factors (number of physical memories).
    pub fn bank_count(&self) -> u64 {
        self.dims.iter().map(|(_, b)| b).product()
    }

    /// True when any dimension is banked.
    pub fn is_banked(&self) -> bool {
        self.dims.iter().any(|(_, b)| *b > 1)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (combinational)
    Add,
    /// `-` (combinational)
    Sub,
    /// `*` (4-cycle pipelined unit)
    Mul,
    /// `/` (4-cycle pipelined unit)
    Div,
    /// `%` (shares the divider)
    Rem,
    /// `&` bitwise
    And,
    /// `|` bitwise
    Or,
    /// `^` bitwise
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `==`
    Eq,
    /// `!=`
    Neq,
    /// `>=`
    Ge,
    /// `<=`
    Le,
}

impl BinOp {
    /// Does this operator produce a 1-bit result?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Eq | BinOp::Neq | BinOp::Ge | BinOp::Le
        )
    }

    /// Does this operator require a multi-cycle unit?
    pub fn is_sequential(self) -> bool {
        matches!(self, BinOp::Mul | BinOp::Div | BinOp::Rem)
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal (width adapts to context).
    Num(u64),
    /// Variable read.
    Var(Id),
    /// Memory read: `a[i][j]`. `bank` is `None` in surface programs and
    /// resolved by lowering for banked memories.
    ReadMem {
        /// The memory.
        mem: Id,
        /// Physical bank, resolved during lowering.
        bank: Option<u64>,
        /// One index expression per (logical) dimension.
        indices: Vec<Expr>,
    },
    /// Binary operation.
    Binop {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Integer square root builtin (black-box RTL in the paper).
    Sqrt(Box<Expr>),
}

impl Expr {
    /// Convenience constructor for binary operations.
    pub fn binop(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binop {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// The direct sub-expressions, in field order.
    pub fn children(&self) -> impl Iterator<Item = &Expr> {
        let (indices, a, b): (&[Expr], _, _) = match self {
            Expr::Num(_) | Expr::Var(_) => (&[], None, None),
            Expr::ReadMem { indices, .. } => (indices, None, None),
            Expr::Binop { lhs, rhs, .. } => (&[], Some(&**lhs), Some(&**rhs)),
            Expr::Sqrt(e) => (&[], Some(&**e), None),
        };
        indices.iter().chain(a).chain(b)
    }

    /// Visit every subexpression (self included), pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        for e in self.children() {
            e.walk(f);
        }
    }

    /// The node rebuilt from `f` of each direct sub-expression, called in
    /// field order; the first error stops the rebuild.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn try_map(self, mut f: impl FnMut(Expr) -> CalyxResult<Expr>) -> CalyxResult<Expr> {
        Ok(match self {
            Expr::Num(_) | Expr::Var(_) => self,
            Expr::ReadMem { mem, bank, indices } => Expr::ReadMem {
                mem,
                bank,
                indices: indices.into_iter().map(f).collect::<CalyxResult<_>>()?,
            },
            Expr::Binop { op, lhs, rhs } => {
                let lhs = f(*lhs)?;
                Expr::binop(op, lhs, f(*rhs)?)
            }
            Expr::Sqrt(e) => Expr::Sqrt(Box::new(f(*e)?)),
        })
    }

    /// Number of sequential-unit operations (mul/div/rem/sqrt) in the tree.
    pub fn sequential_ops(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |e| match e {
            Expr::Binop { op, .. } if op.is_sequential() => n += 1,
            Expr::Sqrt(_) => n += 1,
            _ => {}
        });
        n
    }
}

/// A block: ordered (`---`) composition of unordered (`;`) statement sets.
pub type Block = Vec<Stmt>;

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `let x: ubit<32> = e;` — declares and initializes a register.
    Let {
        /// Variable name.
        var: Id,
        /// Declared width.
        width: u32,
        /// Initial value.
        init: Expr,
    },
    /// `x := e;`
    AssignVar {
        /// Target variable.
        var: Id,
        /// Right-hand side.
        rhs: Expr,
    },
    /// `a[i][j] := e;`
    Store {
        /// Target memory.
        mem: Id,
        /// Physical bank, resolved during lowering.
        bank: Option<u64>,
        /// One index per logical dimension.
        indices: Vec<Expr>,
        /// Value to store.
        rhs: Expr,
    },
    /// `if (c) { … } else { … }`
    If {
        /// Condition (must be combinational).
        cond: Expr,
        /// Taken branch.
        then_: Block,
        /// Untaken branch (possibly empty).
        else_: Block,
    },
    /// `while (c) { … }`
    While {
        /// Condition (must be combinational).
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `for (let i: ubit<W> = lo..hi) unroll u { … }` — removed by lowering.
    For {
        /// Loop variable.
        var: Id,
        /// Loop variable width.
        width: u32,
        /// Inclusive start.
        lo: u64,
        /// Exclusive end.
        hi: u64,
        /// Unroll factor (1 = no unrolling).
        unroll: u64,
        /// Loop body.
        body: Block,
    },
    /// Ordered composition (`---` between blocks).
    Seq(Vec<Stmt>),
    /// Unordered composition (`;` between statements).
    Par(Vec<Stmt>),
}

impl Stmt {
    /// The direct sub-statements, in field order.
    pub fn children(&self) -> impl Iterator<Item = &Stmt> {
        let (a, b): (&[Stmt], &[Stmt]) = match self {
            Stmt::Let { .. } | Stmt::AssignVar { .. } | Stmt::Store { .. } => (&[], &[]),
            Stmt::If { then_, else_, .. } => (then_, else_),
            Stmt::While { body, .. } | Stmt::For { body, .. } => (body, &[]),
            Stmt::Seq(ss) | Stmt::Par(ss) => (ss, &[]),
        };
        a.iter().chain(b)
    }

    /// The direct sub-expressions, in field order.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let (indices, e): (&[Expr], _) = match self {
            Stmt::Let { init: e, .. }
            | Stmt::AssignVar { rhs: e, .. }
            | Stmt::If { cond: e, .. }
            | Stmt::While { cond: e, .. } => (&[], Some(e)),
            Stmt::Store { indices, rhs, .. } => (indices, Some(rhs)),
            Stmt::For { .. } | Stmt::Seq(_) | Stmt::Par(_) => (&[], None),
        };
        indices.iter().chain(e)
    }

    /// Visit every statement (self included), pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        for s in self.children() {
            s.walk(f);
        }
    }

    /// The node rebuilt from `expr` of each direct sub-expression and
    /// `stmt` of each direct sub-statement, called in field order; the
    /// first error stops the rebuild.
    ///
    /// # Errors
    ///
    /// The first error `expr` or `stmt` returns.
    pub fn try_map(
        self,
        mut expr: impl FnMut(Expr) -> CalyxResult<Expr>,
        mut stmt: impl FnMut(Stmt) -> CalyxResult<Stmt>,
    ) -> CalyxResult<Stmt> {
        let mut block = |b: Block| b.into_iter().map(&mut stmt).collect::<CalyxResult<_>>();
        Ok(match self {
            Stmt::Let { var, width, init } => Stmt::Let {
                var,
                width,
                init: expr(init)?,
            },
            Stmt::AssignVar { var, rhs } => Stmt::AssignVar {
                var,
                rhs: expr(rhs)?,
            },
            Stmt::Store {
                mem,
                bank,
                indices,
                rhs,
            } => Stmt::Store {
                mem,
                bank,
                indices: indices
                    .into_iter()
                    .map(&mut expr)
                    .collect::<CalyxResult<_>>()?,
                rhs: expr(rhs)?,
            },
            Stmt::If { cond, then_, else_ } => Stmt::If {
                cond: expr(cond)?,
                then_: block(then_)?,
                else_: block(else_)?,
            },
            Stmt::While { cond, body } => Stmt::While {
                cond: expr(cond)?,
                body: block(body)?,
            },
            Stmt::For {
                var,
                width,
                lo,
                hi,
                unroll,
                body,
            } => Stmt::For {
                var,
                width,
                lo,
                hi,
                unroll,
                body: block(body)?,
            },
            Stmt::Seq(ss) => Stmt::Seq(block(ss)?),
            Stmt::Par(ss) => Stmt::Par(block(ss)?),
        })
    }
}

/// A full Dahlia program: memory declarations plus a body.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Externally visible memories.
    pub decls: Vec<MemDecl>,
    /// The program body.
    pub body: Stmt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_decl_accounting() {
        let m = MemDecl {
            name: Id::new("a"),
            width: 32,
            dims: vec![(8, 2), (4, 1)],
        };
        assert_eq!(m.size(), 32);
        assert_eq!(m.bank_count(), 2);
        assert!(m.is_banked());
    }

    #[test]
    fn sequential_op_counting() {
        let e = Expr::binop(
            BinOp::Add,
            Expr::binop(BinOp::Mul, Expr::Var(Id::new("a")), Expr::Var(Id::new("b"))),
            Expr::Sqrt(Box::new(Expr::Num(4))),
        );
        assert_eq!(e.sequential_ops(), 2);
        assert_eq!(Expr::Num(1).sequential_ops(), 0);
    }

    /// `try_map` calls its closures in field order, the order `exprs`,
    /// `children` and `walk` visit: a store's indices before its value,
    /// a condition before its branches, the taken branch first.
    #[test]
    fn traversal_follows_field_order() {
        let var = |v: &str| Expr::Var(Id::new(v));
        let store = |v: &str| Stmt::Store {
            mem: Id::new("m"),
            bank: None,
            indices: vec![var("i"), var("j")],
            rhs: var(v),
        };
        let s = Stmt::If {
            cond: var("c"),
            then_: vec![store("t")],
            else_: vec![Stmt::Par(vec![store("f")])],
        };
        let mut seen = Vec::new();
        let s = s
            .try_map(
                |e| {
                    seen.push(format!("{e:?}"));
                    Ok(e)
                },
                Ok,
            )
            .unwrap();
        assert_eq!(seen, [format!("{:?}", var("c"))]);
        let mut stores = Vec::new();
        s.walk(&mut |s| {
            if matches!(s, Stmt::Store { .. }) {
                stores.push(s.exprs().map(|e| format!("{e:?}")).collect::<Vec<_>>());
            }
        });
        let names = |v: &str| {
            [var("i"), var("j"), var(v)]
                .map(|e| format!("{e:?}"))
                .to_vec()
        };
        assert_eq!(stores, [names("t"), names("f")]);
        let mut order = Vec::new();
        store("x")
            .try_map(
                |e| {
                    order.push(format!("{e:?}"));
                    Ok(e)
                },
                Ok,
            )
            .unwrap();
        assert_eq!(order, names("x"));
    }

    #[test]
    fn operator_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Mul.is_sequential());
        assert!(BinOp::Rem.is_sequential());
        assert!(!BinOp::Shl.is_sequential());
    }
}
