//! What the primitive operators compute: the one evaluation of each
//! combinational operator and go/done unit, shared by the simulator's
//! models and constant folding. Which primitive is which operator is the
//! primitive table's business ([`PrimKind`](crate::ir::PrimKind)).
//!
//! The functions here run inside every settle of both simulation engines,
//! across a crate boundary, so they are `#[inline]`.

/// Mask `val` to `width` bits.
#[inline]
pub fn mask(val: u64, width: u32) -> u64 {
    if width >= 64 {
        val
    } else {
        val & ((1u64 << width) - 1)
    }
}

/// Sign-extend a `width`-bit value to i64.
#[inline]
pub fn to_signed(val: u64, width: u32) -> i64 {
    if width == 0 || width >= 64 {
        return val as i64;
    }
    let shift = 64 - width;
    ((val << shift) as i64) >> shift
}

/// Combinational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Not,
    Lsh,
    Rsh,
    Lt,
    Gt,
    Eq,
    Neq,
    Ge,
    Le,
    Slt,
    Sgt,
    Slice,
    Pad,
    Wire,
}

impl CombOp {
    /// Is this a two-operand operator (`left`/`right` rather than `in`)?
    pub fn is_binary(self) -> bool {
        !matches!(
            self,
            CombOp::Not | CombOp::Slice | CombOp::Pad | CombOp::Wire
        )
    }

    /// Evaluate with operand width `w` and output width `ow`.
    #[inline]
    pub fn eval(self, l: u64, r: u64, w: u32, ow: u32) -> u64 {
        let b = |cond: bool| u64::from(cond);
        match self {
            CombOp::Add => mask(l.wrapping_add(r), w),
            CombOp::Sub => mask(l.wrapping_sub(r), w),
            CombOp::And => l & r,
            CombOp::Or => l | r,
            CombOp::Xor => l ^ r,
            CombOp::Not => mask(!l, w),
            CombOp::Lsh => {
                if r >= u64::from(w) {
                    0
                } else {
                    mask(l << r, w)
                }
            }
            CombOp::Rsh => {
                if r >= u64::from(w) {
                    0
                } else {
                    l >> r
                }
            }
            CombOp::Lt => b(l < r),
            CombOp::Gt => b(l > r),
            CombOp::Eq => b(l == r),
            CombOp::Neq => b(l != r),
            CombOp::Ge => b(l >= r),
            CombOp::Le => b(l <= r),
            CombOp::Slt => b(to_signed(l, w) < to_signed(r, w)),
            CombOp::Sgt => b(to_signed(l, w) > to_signed(r, w)),
            CombOp::Slice => mask(l, ow),
            CombOp::Pad => l,
            CombOp::Wire => l,
        }
    }
}

/// The operation a go/done unit performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitOp {
    /// 4-cycle pipelined multiply.
    Mult,
    /// 4-cycle pipelined divide (quotient + remainder).
    Div,
    /// Data-dependent-latency integer square root.
    Sqrt,
}

impl UnitOp {
    /// The latency the unit declares, if it is fixed.
    pub fn static_latency(self) -> Option<u32> {
        match self {
            UnitOp::Mult | UnitOp::Div => Some(4),
            UnitOp::Sqrt => None,
        }
    }

    /// Latency from `go` to `done` for the latched operands.
    #[inline]
    pub fn latency(self, operand: u64) -> u32 {
        // Data-dependent: half the significant bits, plus two. A zero
        // operand still takes two cycles.
        self.static_latency()
            .unwrap_or_else(|| 2 + (64 - operand.leading_zeros()) / 2)
    }

    /// Compute `(out, out2)` from the latched operands.
    #[inline]
    pub fn compute(self, l: u64, r: u64, width: u32) -> (u64, u64) {
        match self {
            UnitOp::Mult => (mask(l.wrapping_mul(r), width), 0),
            UnitOp::Div => match (l.checked_div(r), l.checked_rem(r)) {
                (Some(q), Some(rem)) => (mask(q, width), mask(rem, width)),
                // Hardware convention: all-ones quotient, dividend
                // remainder (documented; division by zero is a frontend
                // bug but must not crash the simulation).
                _ => (mask(u64::MAX, width), l),
            },
            UnitOp::Sqrt => (isqrt(l), 0),
        }
    }
}

/// Integer square root (floor).
pub fn isqrt(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let mut x = (v as f64).sqrt() as u64;
    // Correct potential floating-point error.
    while x.saturating_mul(x) > v {
        x -= 1;
    }
    while (x + 1).saturating_mul(x + 1) <= v {
        x += 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking() {
        assert_eq!(mask(0x1ff, 8), 0xff);
        assert_eq!(mask(5, 64), 5);
        assert_eq!(mask(u64::MAX, 1), 1);
    }

    #[test]
    fn signed_views() {
        assert_eq!(to_signed(0xff, 8), -1);
        assert_eq!(to_signed(0x7f, 8), 127);
        assert_eq!(to_signed(0x80, 8), -128);
    }

    #[test]
    fn comb_arithmetic_wraps() {
        assert_eq!(CombOp::Add.eval(0xff, 1, 8, 8), 0);
        assert_eq!(CombOp::Sub.eval(0, 1, 8, 8), 0xff);
    }

    #[test]
    fn comb_shifts_saturate() {
        assert_eq!(CombOp::Lsh.eval(1, 3, 8, 8), 8);
        assert_eq!(CombOp::Lsh.eval(1, 8, 8, 8), 0);
        assert_eq!(CombOp::Rsh.eval(0x80, 7, 8, 8), 1);
        assert_eq!(CombOp::Rsh.eval(0x80, 9, 8, 8), 0);
    }

    #[test]
    fn signed_comparisons() {
        assert_eq!(CombOp::Slt.eval(0xff, 0, 8, 1), 1); // -1 < 0
        assert_eq!(CombOp::Lt.eval(0xff, 0, 8, 1), 0); // 255 < 0 is false
        assert_eq!(CombOp::Sgt.eval(1, 0xff, 8, 1), 1); // 1 > -1
    }

    #[test]
    fn slice_truncates_pad_extends() {
        assert_eq!(CombOp::Slice.eval(0x1234, 0, 16, 8), 0x34);
        assert_eq!(CombOp::Pad.eval(0x34, 0, 8, 16), 0x34);
    }

    #[test]
    fn divider_handles_zero() {
        assert_eq!(UnitOp::Div.compute(10, 3, 8), (3, 1));
        assert_eq!(UnitOp::Div.compute(10, 0, 8), (0xff, 10));
    }

    #[test]
    fn sqrt_latency_is_data_dependent() {
        assert!(UnitOp::Sqrt.latency(0) < UnitOp::Sqrt.latency(1 << 30));
        assert_eq!(UnitOp::Mult.latency(1 << 30), 4);
        assert_eq!(UnitOp::Sqrt.compute(16, 0, 32).0, 4);
        assert_eq!(UnitOp::Sqrt.compute(17, 0, 32).0, 4);
        assert_eq!(UnitOp::Sqrt.compute(0, 0, 32).0, 0);
    }

    #[test]
    fn isqrt_exhaustive_small() {
        for v in 0..1000u64 {
            let r = isqrt(v);
            assert!(r * r <= v && (r + 1) * (r + 1) > v, "isqrt({v}) = {r}");
        }
    }
}
