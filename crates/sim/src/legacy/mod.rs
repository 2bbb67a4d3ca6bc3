//! The pre-flatten simulation engines, kept verbatim as oracles.
//!
//! These are the tree-walking implementations that [`crate::interp`] and
//! [`crate::rtl`] replaced when the dense flat IR ([`crate::flatten`])
//! landed: the interpreter keeps port valuations in a
//! `HashMap<PortRef, u64>` and clones `Control` subtrees as it advances;
//! the RTL engine builds its own ad-hoc `usize` arena with boxed guard
//! trees. They are retained — not exported from the crate root, and
//! hidden from the docs — so the differential suite can pin the flat
//! engines to byte-identical state reports and cycle counts, and so the
//! `sim_profile` example can quantify the speedup against a live
//! baseline rather than a recorded number.

pub mod interp;
pub mod rtl;
