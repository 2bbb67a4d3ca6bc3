//! The Calyx intermediate language.
//!
//! A Calyx [`Context`] holds a set of [`Component`]s plus the standard
//! primitive [`Library`]. Each component instantiates [`Cell`]s, connects
//! their ports with guarded [`Assignment`]s — either directly (*continuous*
//! assignments) or encapsulated in named [`Group`]s — and schedules groups
//! with a [`Control`] program.
//!
//! Frontends construct programs through [`Builder`] or by parsing the
//! textual format with [`parse_context`]; the printer renders programs back
//! to the same format.

mod attributes;
mod builder;
mod cell;
mod component;
mod control;
mod guard;
mod id;
mod parser;
mod primitives;
mod printer;
mod rewriter;
mod source_map;
pub mod validate;

pub use attributes::{attr, Attributes};
pub use builder::Builder;
pub use cell::{Assignment, Atom, Cell, CellType, Direction, Group, PortDef, PortParent, PortRef};
pub use component::{Component, Context};
pub use control::Control;
pub use guard::{CompOp, Guard, GuardMemo, GuardPorts};
pub use id::Id;
pub use parser::{parse_context, parse_guard};
pub use primitives::{Library, PrimitiveDef, PrimitivePort, WidthSpec};
pub use printer::Printer;
pub use rewriter::Rewriter;
pub use source_map::{Loc, SourceMap, Truncation};
