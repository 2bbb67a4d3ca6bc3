//! Behavioral models of the stateful primitives: the state a register,
//! memory or unit keeps between clock edges, and how an edge changes it.
//! They keep the timing contract of the primitive table
//! ([`PrimKind`](calyx_core::ir::PrimKind)); combinational operators are
//! [`CombOp::eval`](calyx_core::prim::CombOp::eval) and carry no state.

use crate::error::{SimError, SimResult};
use calyx_core::prim::{mask, UnitOp};

/// State of a stateful primitive instance.
#[derive(Debug, Clone)]
pub enum PrimState {
    /// A register.
    Reg {
        /// Stored value.
        val: u64,
        /// Registered done flag.
        done: bool,
        /// Bit width.
        width: u32,
    },
    /// A memory.
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
    /// A unit with a go/done handshake and an internal countdown.
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
    /// caller supplies `path` for the error message, called only then.
    pub fn tick_mem(
        &mut self,
        addrs: &[u64],
        write_data: u64,
        write_en: bool,
        path: impl FnOnce() -> String,
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
                        memory: path(),
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
        m.tick_mem(&[2], 9, true, || "m".to_string()).unwrap();
        assert_eq!(m.mem_read(&[2]), 9);
        let err = m.tick_mem(&[5], 1, true, || "m".to_string()).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
        // Out-of-bounds *reads* are harmless zeros.
        assert_eq!(m.mem_read(&[100]), 0);
    }
}
