//! Simulation errors.

use std::fmt;

/// Errors surfaced by elaboration or simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The design could not be elaborated (undefined names, un-lowered
    /// components handed to the RTL engine, unsupported primitives).
    Elaboration(String),
    /// Two assignments drove the same port in the same cycle — the unique
    /// driver requirement of the IL (paper §3.2).
    DriverConflict {
        /// Human-readable path of the doubly-driven port.
        port: String,
        /// Cycle at which the conflict occurred.
        cycle: u64,
    },
    /// The combinational dependency graph has a cycle.
    CombinationalLoop(Vec<String>),
    /// The design did not raise `done` within the cycle budget.
    Timeout {
        /// The exhausted budget.
        max_cycles: u64,
    },
    /// A memory was written outside its bounds.
    OutOfBounds {
        /// Path of the memory cell.
        memory: String,
        /// The offending flat address.
        address: u64,
        /// The memory's size.
        size: u64,
    },
    /// A state-inspection call referenced a missing cell.
    UnknownCell(String),
    /// A state-inspection call named a cell that exists but is not of the
    /// kind it reads.
    WrongKind {
        /// Path of the cell.
        cell: String,
        /// The kind asked for: `memory` or `register`.
        expected: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Elaboration(msg) => write!(f, "elaboration failed: {msg}"),
            SimError::DriverConflict { port, cycle } => {
                write!(f, "multiple drivers active on `{port}` at cycle {cycle}")
            }
            SimError::CombinationalLoop(ports) => {
                write!(f, "combinational loop through: {}", ports.join(" -> "))
            }
            SimError::Timeout { max_cycles } => {
                write!(f, "design did not complete within {max_cycles} cycles")
            }
            SimError::OutOfBounds {
                memory,
                address,
                size,
            } => write!(
                f,
                "write to `{memory}` at address {address} outside size {size}"
            ),
            SimError::UnknownCell(path) => write!(f, "no such cell: `{path}`"),
            SimError::WrongKind { cell, expected } => {
                write!(f, "cell `{cell}` is not a {expected}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias.
pub type SimResult<T> = Result<T, SimError>;
