//! The standard primitive library: one table, one row per primitive.
//!
//! Primitives are the leaves of the hardware hierarchy: registers, adders,
//! memories, and pipelined arithmetic units. Each row is a
//! [`PrimitiveDef`]: parameters (widths and sizes), ports whose widths may
//! reference those parameters, and a [`PrimKind`] saying what the
//! primitive *is*. Whether it is combinational, its `"static"` latency and
//! whether it has a clock are derived from the kind, and every consumer
//! matches on the kind, never on the name: the simulator's behavioural
//! models, the SystemVerilog templates, the area costs and constant
//! folding ([`CombOp::eval`]). A kind with no model, template or cost does
//! not compile. An `extern` row has no kind: a black box with fixed-width
//! ports, which no backend can model.
//!
//! # Timing contract
//!
//! The simulator's models and the emitted SystemVerilog both keep it:
//!
//! - [`PrimKind::Comb`] primitives settle within the cycle their inputs
//!   do. A memory's `read_data` is combinational on its address ports too.
//! - [`PrimKind::Reg`] and [`PrimKind::Mem`] commit on the clock edge when
//!   `write_en` is high. Their `done` is *registered*: it reads 1 for the
//!   one cycle after `write_en` was high. Their `"static"` latency is 1.
//! - A [`PrimKind::Unit`] latches its operands when `go` is sampled high,
//!   raises `done` for one cycle when the result is ready, and holds `out`
//!   afterwards. `std_mult_pipe` and `std_div_pipe` raise `done` exactly 4
//!   edges after `go` (the paper's "multiplies take four cycles", §6.2),
//!   and declare `"static"` 4.
//! - `std_sqrt` declares no latency, like the paper's black-box square
//!   root. Its behavioural model's latency is data-dependent (half the
//!   operand's significant bits, plus two). Its SV template's is fixed per
//!   width: `done` comes `WIDTH/2 + 1` edges after `go`. Both keep the
//!   go/done contract, and latency-insensitive compilation relies on
//!   nothing else.

use super::{attr, Attributes, Direction, Id, PortDef};
use crate::errors::{CalyxResult, Error};
use crate::prim::{CombOp, UnitOp};
use rustc_hash::FxHashMap;
use std::sync::OnceLock;

/// What a primitive is. Everything a backend needs to know about a std
/// primitive beyond its ports follows from this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimKind {
    /// A combinational operator.
    Comb(CombOp),
    /// A register: `in`, `write_en` → `out`, `done`.
    Reg,
    /// A memory of `dims` dimensions: one `addr<i>` port per dimension,
    /// `write_data`, `write_en` → `read_data`, `done`.
    Mem {
        /// Number of dimensions (1 to 3).
        dims: usize,
    },
    /// A unit with a go/done handshake.
    Unit(UnitOp),
}

impl PrimKind {
    /// The kind of std primitive `name`; `None` for an `extern` or an
    /// unknown name. An `extern` cannot take a std name, so a cell naming
    /// a std primitive is that primitive.
    pub fn of(name: Id) -> Option<PrimKind> {
        std_table().get(name)?.kind
    }

    /// True for combinational operators.
    pub fn is_comb(self) -> bool {
        matches!(self, PrimKind::Comb(_))
    }

    /// The fixed latency of the primitive's go/done (or write_en/done)
    /// interface, which is its `"static"` attribute.
    pub fn static_latency(self) -> Option<u64> {
        match self {
            PrimKind::Comb(_) => None,
            PrimKind::Reg | PrimKind::Mem { .. } => Some(1),
            PrimKind::Unit(op) => op.static_latency().map(u64::from),
        }
    }
}

/// A port width: either a constant or a reference to a primitive parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthSpec {
    /// A fixed width.
    Const(u32),
    /// The value of the named parameter.
    Param(Id),
}

/// A port on a primitive definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimitivePort {
    /// Port name.
    pub name: Id,
    /// Width, possibly parameter-dependent.
    pub width: WidthSpec,
    /// Direction from the primitive's perspective.
    pub direction: Direction,
}

/// One row of the primitive table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimitiveDef {
    /// Primitive name, e.g. `std_add`.
    pub name: Id,
    /// Parameter names in declaration order, e.g. `[WIDTH]`.
    pub params: Vec<Id>,
    /// Port declarations.
    pub ports: Vec<PrimitivePort>,
    /// Definition-level attributes: `share` on a std row, whatever an
    /// `extern` declares.
    pub attributes: Attributes,
    /// What the primitive is; `None` for an `extern` black box.
    pub kind: Option<PrimKind>,
    /// The file an `extern` names; `None` on a std row.
    pub file: Option<String>,
}

impl PrimitiveDef {
    /// Fixed latency in cycles, if the primitive has one: derived from the
    /// kind, or what an `extern` declares.
    pub fn static_latency(&self) -> Option<u64> {
        match self.kind {
            Some(kind) => kind.static_latency(),
            None => self.attributes.get(attr::STATIC),
        }
    }

    /// True when the primitive is purely combinational.
    pub fn is_comb(&self) -> bool {
        self.kind.is_some_and(PrimKind::is_comb)
    }

    /// True when marked shareable for resource sharing.
    pub fn is_shareable(&self) -> bool {
        self.attributes.has(attr::SHARE)
    }

    /// Resolve this definition's ports against concrete parameter values.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BuildError`] when the number of parameters is wrong
    /// or a parameter-sized width resolves to zero or exceeds 64 bits.
    pub fn resolve(&self, params: &[u64]) -> CalyxResult<Vec<PortDef>> {
        if params.len() != self.params.len() {
            return Err(Error::build(format!(
                "primitive `{}` takes {} parameter(s), got {}",
                self.name,
                self.params.len(),
                params.len()
            )));
        }
        let env: FxHashMap<Id, u64> = self
            .params
            .iter()
            .copied()
            .zip(params.iter().copied())
            .collect();
        self.ports
            .iter()
            .map(|p| {
                let width = match p.width {
                    WidthSpec::Const(w) => u64::from(w),
                    WidthSpec::Param(name) => env[&name],
                };
                if width == 0 || width > 64 {
                    return Err(Error::build(format!(
                        "primitive `{}` port `{}` resolves to unsupported width {width}",
                        self.name, p.name
                    )));
                }
                Ok(PortDef::new(p.name, width as u32, p.direction))
            })
            .collect()
    }
}

/// The collection of known primitives: the std table plus the program's
/// `extern` black boxes.
#[derive(Debug, Clone)]
pub struct Library {
    prims: FxHashMap<Id, PrimitiveDef>,
    /// The `extern` rows, in declaration order.
    externs: Vec<Id>,
}

impl Default for Library {
    fn default() -> Self {
        Self::std()
    }
}

/// The std table, built once per process.
fn std_table() -> &'static Library {
    static STD: OnceLock<Library> = OnceLock::new();
    STD.get_or_init(|| {
        use CombOp::*;
        use PrimKind::{Comb, Mem, Reg, Unit};
        let mut lib = Library {
            prims: FxHashMap::default(),
            externs: Vec::new(),
        };
        // Name, kind, and whether resource sharing may share instances.
        for (name, kind, share) in [
            ("std_reg", Reg, false),
            ("std_wire", Comb(Wire), false),
            ("std_add", Comb(Add), true),
            ("std_sub", Comb(Sub), true),
            ("std_and", Comb(And), true),
            ("std_or", Comb(Or), true),
            ("std_xor", Comb(Xor), true),
            ("std_lsh", Comb(Lsh), true),
            ("std_rsh", Comb(Rsh), true),
            ("std_not", Comb(Not), true),
            ("std_lt", Comb(Lt), true),
            ("std_gt", Comb(Gt), true),
            ("std_eq", Comb(Eq), true),
            ("std_neq", Comb(Neq), true),
            ("std_ge", Comb(Ge), true),
            ("std_le", Comb(Le), true),
            ("std_slt", Comb(Slt), true),
            ("std_sgt", Comb(Sgt), true),
            ("std_slice", Comb(Slice), true),
            ("std_pad", Comb(Pad), true),
            ("std_mult_pipe", Unit(UnitOp::Mult), true),
            ("std_div_pipe", Unit(UnitOp::Div), true),
            ("std_sqrt", Unit(UnitOp::Sqrt), false),
            ("std_mem_d1", Mem { dims: 1 }, false),
            ("std_mem_d2", Mem { dims: 2 }, false),
            ("std_mem_d3", Mem { dims: 3 }, false),
        ] {
            let mut attributes = Attributes::new();
            if share {
                attributes.insert(attr::SHARE, 1);
            }
            let (params, ports) = interface(kind);
            let def = PrimitiveDef {
                name: Id::new(name),
                params,
                ports,
                attributes,
                kind: Some(kind),
                file: None,
            };
            lib.prims.insert(def.name, def);
        }
        lib
    })
}

/// The parameters and ports of a std primitive of `kind`: the port names
/// the behavioural model, the template and the area cost rely on.
fn interface(kind: PrimKind) -> (Vec<Id>, Vec<PrimitivePort>) {
    use CombOp::*;
    use Direction::{Input, Output};
    let param = |name: &str| WidthSpec::Param(Id::new(name));
    let (w, one) = (param("WIDTH"), WidthSpec::Const(1));
    let mut params = vec![Id::new("WIDTH")];
    let ports = match kind {
        PrimKind::Comb(Add | Sub | And | Or | Xor | Lsh | Rsh) => {
            vec![("left", w, Input), ("right", w, Input), ("out", w, Output)]
        }
        PrimKind::Comb(Lt | Gt | Eq | Neq | Ge | Le | Slt | Sgt) => {
            vec![
                ("left", w, Input),
                ("right", w, Input),
                ("out", one, Output),
            ]
        }
        PrimKind::Comb(Not | Wire) => vec![("in", w, Input), ("out", w, Output)],
        // Width adaptation: truncation and zero-extension.
        PrimKind::Comb(Slice | Pad) => {
            params = vec![Id::new("IN_WIDTH"), Id::new("OUT_WIDTH")];
            vec![
                ("in", param("IN_WIDTH"), Input),
                ("out", param("OUT_WIDTH"), Output),
            ]
        }
        PrimKind::Reg => vec![
            ("in", w, Input),
            ("write_en", one, Input),
            ("out", w, Output),
            ("done", one, Output),
        ],
        PrimKind::Unit(UnitOp::Mult) => vec![
            ("left", w, Input),
            ("right", w, Input),
            ("go", one, Input),
            ("out", w, Output),
            ("done", one, Output),
        ],
        PrimKind::Unit(UnitOp::Div) => vec![
            ("left", w, Input),
            ("right", w, Input),
            ("go", one, Input),
            ("out_quotient", w, Output),
            ("out_remainder", w, Output),
            ("done", one, Output),
        ],
        PrimKind::Unit(UnitOp::Sqrt) => vec![
            ("in", w, Input),
            ("go", one, Input),
            ("out", w, Output),
            ("done", one, Output),
        ],
        PrimKind::Mem { dims } => {
            // A 1-d memory's sizes are `SIZE`/`IDX_SIZE`; deeper ones
            // number them per dimension.
            let dim = |i: usize, what: &str| match dims {
                1 => what.to_string(),
                _ => format!("D{i}_{what}"),
            };
            params.extend((0..dims).map(|i| Id::new(dim(i, "SIZE"))));
            params.extend((0..dims).map(|i| Id::new(dim(i, "IDX_SIZE"))));
            let mut ports: Vec<PrimitivePort> = (0..dims)
                .map(|i| PrimitivePort {
                    name: Id::ADDRS[i],
                    width: WidthSpec::Param(Id::new(dim(i, "IDX_SIZE"))),
                    direction: Input,
                })
                .collect();
            ports.extend(primitive_ports(vec![
                ("write_data", w, Input),
                ("write_en", one, Input),
                ("read_data", w, Output),
                ("done", one, Output),
            ]));
            return (params, ports);
        }
    };
    (params, primitive_ports(ports))
}

fn primitive_ports(ports: Vec<(&str, WidthSpec, Direction)>) -> Vec<PrimitivePort> {
    ports
        .into_iter()
        .map(|(name, width, direction)| PrimitivePort {
            name: Id::new(name),
            width,
            direction,
        })
        .collect()
}

impl Library {
    /// The standard library every [`Context`](super::Context) starts with.
    pub fn std() -> Self {
        std_table().clone()
    }

    /// Declare an `extern` black box. The name must be free: the parser
    /// refuses an `extern` that names a std primitive or an earlier one.
    pub fn add(&mut self, def: PrimitiveDef) {
        debug_assert!(!self.prims.contains_key(&def.name), "{}", def.name);
        self.externs.push(def.name);
        self.prims.insert(def.name, def);
    }

    /// The `extern` rows, in declaration order.
    pub fn externs(&self) -> impl Iterator<Item = &PrimitiveDef> {
        self.externs.iter().map(|name| &self.prims[name])
    }

    /// The name of every primitive in the library, in name order.
    pub fn names(&self) -> Vec<Id> {
        let mut names: Vec<Id> = self.prims.keys().copied().collect();
        names.sort();
        names
    }

    /// Look up a primitive by name.
    pub fn get(&self, name: Id) -> Option<&PrimitiveDef> {
        self.prims.get(&name)
    }

    /// Look up a primitive, erroring when absent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] when no primitive named `name` exists.
    pub fn expect(&self, name: Id) -> CalyxResult<&PrimitiveDef> {
        self.get(name)
            .ok_or_else(|| Error::undefined(format!("primitive `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_reg_resolves_widths() {
        let lib = Library::std();
        let reg = lib.expect(Id::new("std_reg")).unwrap();
        let ports = reg.resolve(&[32]).unwrap();
        let by_name = |n: &str| ports.iter().find(|p| p.name.as_str() == n).unwrap();
        assert_eq!(by_name("in").width, 32);
        assert_eq!(by_name("write_en").width, 1);
        assert_eq!(by_name("done").width, 1);
        assert_eq!(by_name("in").direction, Direction::Input);
        assert_eq!(by_name("out").direction, Direction::Output);
    }

    #[test]
    fn wrong_param_count_is_an_error() {
        let lib = Library::std();
        let add = lib.expect(Id::new("std_add")).unwrap();
        assert!(add.resolve(&[]).is_err());
        assert!(add.resolve(&[32, 4]).is_err());
    }

    #[test]
    fn zero_width_rejected() {
        let lib = Library::std();
        let add = lib.expect(Id::new("std_add")).unwrap();
        assert!(add.resolve(&[0]).is_err());
        assert!(add.resolve(&[65]).is_err());
    }

    #[test]
    fn memory_ports() {
        let lib = Library::std();
        let mem = lib.expect(Id::new("std_mem_d2")).unwrap();
        let ports = mem.resolve(&[32, 4, 8, 2, 3]).unwrap();
        let by_name = |n: &str| ports.iter().find(|p| p.name.as_str() == n).unwrap();
        assert_eq!(by_name("addr0").width, 2);
        assert_eq!(by_name("addr1").width, 3);
        assert_eq!(by_name("read_data").width, 32);
        let names = |def: &PrimitiveDef| def.params.iter().map(|p| p.as_str()).collect::<Vec<_>>();
        assert_eq!(
            names(mem),
            ["WIDTH", "D0_SIZE", "D1_SIZE", "D0_IDX_SIZE", "D1_IDX_SIZE"]
        );
        let d1 = lib.expect(Id::new("std_mem_d1")).unwrap();
        assert_eq!(names(d1), ["WIDTH", "SIZE", "IDX_SIZE"]);
    }

    #[test]
    fn latency_and_share_attributes() {
        let lib = Library::std();
        let def = |name: &str| lib.expect(Id::new(name)).unwrap();
        assert_eq!(def("std_reg").static_latency(), Some(1));
        assert_eq!(def("std_mem_d3").static_latency(), Some(1));
        assert_eq!(def("std_mult_pipe").static_latency(), Some(4));
        assert!(def("std_sqrt").static_latency().is_none());
        assert!(def("std_add").static_latency().is_none());
        assert!(def("std_add").is_shareable());
        assert!(!def("std_reg").is_shareable());
    }

    #[test]
    fn combinational_marking() {
        let lib = Library::std();
        let def = |name: &str| lib.expect(Id::new(name)).unwrap();
        assert!(def("std_add").is_comb());
        assert!(!def("std_reg").is_comb());
        assert!(!def("std_mem_d1").is_comb());
    }

    #[test]
    fn kinds_resolve_through_the_std_table() {
        assert_eq!(PrimKind::of(Id::new("std_reg")), Some(PrimKind::Reg));
        assert_eq!(
            PrimKind::of(Id::new("std_mem_d2")),
            Some(PrimKind::Mem { dims: 2 })
        );
        assert_eq!(PrimKind::of(Id::new("my_unit")), None);
    }
}
