//! Behavioral models of the standard primitives.
//!
//! The timing contract matches the library definitions in
//! `calyx_core::ir::primitives` and the emitted SystemVerilog:
//!
//! - registers/memories commit on the clock edge, with a *registered*
//!   `done` (high for the one cycle after `write_en`);
//! - `std_mult_pipe`/`std_div_pipe` raise `done` exactly `L = 4` cycles
//!   after `go` is first sampled, holding `out` stable afterwards;
//! - `std_sqrt` is the same shape with a *data-dependent* latency
//!   (half the significant bits of the operand, plus two);
//! - everything else is combinational.

use crate::error::{SimError, SimResult};

/// Mask `val` to `width` bits.
pub fn mask(val: u64, width: u32) -> u64 {
    if width >= 64 {
        val
    } else {
        val & ((1u64 << width) - 1)
    }
}

/// Sign-extend a `width`-bit value to i64.
pub fn to_signed(val: u64, width: u32) -> i64 {
    if width == 0 || width >= 64 {
        return val as i64;
    }
    let shift = 64 - width;
    ((val << shift) as i64) >> shift
}

/// Combinational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Parse a primitive name into its operator.
    pub fn from_name(name: &str) -> Option<CombOp> {
        Some(match name {
            "std_add" => CombOp::Add,
            "std_sub" => CombOp::Sub,
            "std_and" => CombOp::And,
            "std_or" => CombOp::Or,
            "std_xor" => CombOp::Xor,
            "std_not" => CombOp::Not,
            "std_lsh" => CombOp::Lsh,
            "std_rsh" => CombOp::Rsh,
            "std_lt" => CombOp::Lt,
            "std_gt" => CombOp::Gt,
            "std_eq" => CombOp::Eq,
            "std_neq" => CombOp::Neq,
            "std_ge" => CombOp::Ge,
            "std_le" => CombOp::Le,
            "std_slt" => CombOp::Slt,
            "std_sgt" => CombOp::Sgt,
            "std_slice" => CombOp::Slice,
            "std_pad" => CombOp::Pad,
            "std_wire" => CombOp::Wire,
            _ => return None,
        })
    }

    /// Is this a two-operand operator (`left`/`right` rather than `in`)?
    pub fn is_binary(self) -> bool {
        !matches!(
            self,
            CombOp::Not | CombOp::Slice | CombOp::Pad | CombOp::Wire
        )
    }

    /// Evaluate with operand width `w` and output width `ow`.
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

/// State of a stateful primitive instance.
#[derive(Debug, Clone)]
pub enum PrimState {
    /// `std_reg`.
    Reg {
        /// Stored value.
        val: u64,
        /// Registered done flag.
        done: bool,
        /// Bit width.
        width: u32,
    },
    /// `std_mem_d1`/`d2`/`d3`.
    Mem {
        /// Flat storage, row-major.
        data: Vec<u64>,
        /// Dimension sizes.
        dims: Vec<u64>,
        /// Registered done flag.
        done: bool,
        /// Element width.
        width: u32,
    },
    /// `std_mult_pipe` / `std_div_pipe` / `std_sqrt`: a unit with a
    /// go/done handshake and an internal countdown.
    Unit {
        /// Which operation to perform on completion.
        op: UnitOp,
        /// Latched operands.
        operands: (u64, u64),
        /// Remaining edges until completion (None = idle).
        remaining: Option<u32>,
        /// Primary result.
        out: u64,
        /// Secondary result (division remainder).
        out2: u64,
        /// Done pulse flag.
        done: bool,
        /// Operand width.
        width: u32,
    },
}

/// The operation a [`PrimState::Unit`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitOp {
    /// 4-cycle pipelined multiply.
    Mult,
    /// 4-cycle pipelined divide (quotient + remainder).
    Div,
    /// Data-dependent-latency integer square root.
    Sqrt,
}

impl UnitOp {
    /// Latency from `go` to `done` for the latched operands.
    pub fn latency(self, operand: u64) -> u32 {
        match self {
            UnitOp::Mult | UnitOp::Div => 4,
            // Data-dependent: half the significant bits, plus two. A zero
            // operand still takes two cycles.
            UnitOp::Sqrt => 2 + (64 - operand.leading_zeros()) / 2,
        }
    }

    /// Compute `(out, out2)` from the latched operands.
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

impl PrimState {
    /// Flatten a multi-dimensional address; `addrs` has one entry per dim.
    pub fn flat_address(dims: &[u64], addrs: &[u64]) -> u64 {
        let mut flat = 0;
        for (a, d) in addrs.iter().zip(dims) {
            flat = flat * d + a;
        }
        flat
    }

    /// Read a memory combinationally; out-of-bounds reads return 0 (an
    /// undriven address while the memory's group is idle is normal).
    pub fn mem_read(&self, addrs: &[u64]) -> u64 {
        match self {
            PrimState::Mem { data, dims, .. } => {
                let flat = Self::flat_address(dims, addrs) as usize;
                data.get(flat).copied().unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// Whether the next clock edge changes this primitive's state even with
    /// its enable (`write_en`, `go`) low: a `done` pulse is up and must
    /// fall, or a unit is counting down.
    #[inline]
    pub fn busy(&self) -> bool {
        match self {
            PrimState::Reg { done, .. } | PrimState::Mem { done, .. } => *done,
            PrimState::Unit {
                remaining, done, ..
            } => *done || remaining.is_some(),
        }
    }

    /// Advance a register one clock edge.
    pub fn tick_reg(&mut self, input: u64, write_en: bool) {
        if let PrimState::Reg { val, done, width } = self {
            if write_en {
                *val = mask(input, *width);
                *done = true;
            } else {
                *done = false;
            }
        }
    }

    /// Advance a memory one clock edge.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] on a write past the end; the
    /// caller supplies `path` for the error message.
    pub fn tick_mem(
        &mut self,
        addrs: &[u64],
        write_data: u64,
        write_en: bool,
        path: &str,
    ) -> SimResult<()> {
        if let PrimState::Mem {
            data,
            dims,
            done,
            width,
        } = self
        {
            if write_en {
                let flat = Self::flat_address(dims, addrs);
                if (flat as usize) >= data.len() {
                    return Err(SimError::OutOfBounds {
                        memory: path.to_string(),
                        address: flat,
                        size: data.len() as u64,
                    });
                }
                data[flat as usize] = mask(write_data, *width);
                *done = true;
            } else {
                *done = false;
            }
        }
        Ok(())
    }

    /// Advance a go/done unit one clock edge.
    pub fn tick_unit(&mut self, left: u64, right: u64, go: bool) {
        if let PrimState::Unit {
            op,
            operands,
            remaining,
            out,
            out2,
            done,
            width,
        } = self
        {
            if *done {
                *done = false;
            }
            match remaining {
                Some(c) if *c <= 1 => {
                    let (a, b) = op.compute(operands.0, operands.1, *width);
                    *out = a;
                    *out2 = b;
                    *done = true;
                    *remaining = None;
                }
                Some(c) => *remaining = Some(*c - 1),
                None => {
                    if go {
                        *operands = (mask(left, *width), mask(right, *width));
                        let latency = op.latency(operands.0);
                        if latency <= 1 {
                            let (a, b) = op.compute(operands.0, operands.1, *width);
                            *out = a;
                            *out2 = b;
                            *done = true;
                        } else {
                            *remaining = Some(latency - 1);
                        }
                    }
                }
            }
        }
    }
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
    fn register_done_is_registered() {
        let mut r = PrimState::Reg {
            val: 0,
            done: false,
            width: 8,
        };
        r.tick_reg(42, true);
        match &r {
            PrimState::Reg { val, done, .. } => {
                assert_eq!(*val, 42);
                assert!(*done, "done high the cycle after write_en");
            }
            _ => unreachable!(),
        }
        r.tick_reg(0, false);
        match &r {
            PrimState::Reg { val, done, .. } => {
                assert_eq!(*val, 42, "value held");
                assert!(!*done, "done is a one-cycle pulse");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn multiplier_takes_four_cycles() {
        let mut m = PrimState::Unit {
            op: UnitOp::Mult,
            operands: (0, 0),
            remaining: None,
            out: 0,
            out2: 0,
            done: false,
            width: 16,
        };
        // go during cycle 0; done must be visible during cycle 4.
        m.tick_unit(7, 6, true); // edge 0
        for edge in 1..4 {
            match &m {
                PrimState::Unit { done, .. } => assert!(!done, "edge {edge}"),
                _ => unreachable!(),
            }
            m.tick_unit(0, 0, false);
        }
        match &m {
            PrimState::Unit { done, out, .. } => {
                assert!(*done, "done after 4 edges");
                assert_eq!(*out, 42);
            }
            _ => unreachable!(),
        }
        // Done is a pulse.
        m.tick_unit(0, 0, false);
        match &m {
            PrimState::Unit { done, out, .. } => {
                assert!(!done);
                assert_eq!(*out, 42, "result held after done");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn divider_handles_zero() {
        assert_eq!(UnitOp::Div.compute(10, 3, 8), (3, 1));
        assert_eq!(UnitOp::Div.compute(10, 0, 8), (0xff, 10));
    }

    #[test]
    fn sqrt_latency_is_data_dependent() {
        assert!(UnitOp::Sqrt.latency(0) < UnitOp::Sqrt.latency(1 << 30));
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

    #[test]
    fn memory_flat_addressing() {
        assert_eq!(PrimState::flat_address(&[4, 8], &[2, 3]), 19);
        assert_eq!(PrimState::flat_address(&[10], &[7]), 7);
        assert_eq!(PrimState::flat_address(&[2, 3, 4], &[1, 2, 3]), 23);
    }

    #[test]
    fn memory_write_bounds_checked() {
        let mut m = PrimState::Mem {
            data: vec![0; 4],
            dims: vec![4],
            done: false,
            width: 8,
        };
        m.tick_mem(&[2], 9, true, "m").unwrap();
        assert_eq!(m.mem_read(&[2]), 9);
        let err = m.tick_mem(&[5], 1, true, "m").unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
        // Out-of-bounds *reads* are harmless zeros.
        assert_eq!(m.mem_read(&[100]), 0);
    }
}
