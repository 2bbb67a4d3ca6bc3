//! The standard primitive library.
//!
//! Primitives are the leaves of the hardware hierarchy: registers, adders,
//! memories, and pipelined arithmetic units. Each [`PrimitiveDef`] declares
//! parameters (widths and sizes) and ports whose widths may reference those
//! parameters; instantiation resolves the widths to concrete values.
//!
//! Timing conventions (shared with the simulator and the Verilog backend):
//!
//! - Combinational primitives (`is_comb`) settle within a cycle.
//! - `std_reg` and memories commit on the clock edge; their `done` port is
//!   *registered*, reading 1 the cycle after `write_en` was high.
//! - `std_mult_pipe`/`std_div_pipe` assert `done` exactly 4 cycles after
//!   `go` is sampled (the paper's "multiplies take four cycles", §6.2).
//! - `std_sqrt` has *data-dependent* latency — it exercises the
//!   latency-insensitive compilation path, like the paper's black-box RTL
//!   square root.

use super::{attr, Attributes, Direction, Id, PortDef};
use crate::errors::{CalyxResult, Error};
use std::collections::HashMap;

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

/// The definition of a primitive component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimitiveDef {
    /// Primitive name, e.g. `std_add`.
    pub name: Id,
    /// Parameter names in declaration order, e.g. `[WIDTH]`.
    pub params: Vec<Id>,
    /// Port declarations.
    pub ports: Vec<PrimitivePort>,
    /// Definition-level attributes (`share`, `static`).
    pub attributes: Attributes,
    /// True when the primitive is purely combinational.
    pub is_comb: bool,
}

impl PrimitiveDef {
    /// Fixed latency in cycles, if the primitive declares one.
    pub fn static_latency(&self) -> Option<u64> {
        self.attributes.get(attr::static_())
    }

    /// True when marked shareable for resource sharing.
    pub fn is_shareable(&self) -> bool {
        self.attributes.has(attr::share())
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
        let env: HashMap<Id, u64> = self
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

/// The collection of known primitives (plus `extern` black-box components).
#[derive(Debug, Clone)]
pub struct Library {
    prims: HashMap<Id, PrimitiveDef>,
}

impl Default for Library {
    fn default() -> Self {
        Self::std()
    }
}

/// Shorthand used by [`Library::std`] below.
struct Sig(&'static str, &'static [&'static str]);

impl Library {
    /// An empty library (no primitives). Useful for tests that define their
    /// own.
    pub fn empty() -> Self {
        Library {
            prims: HashMap::new(),
        }
    }

    /// The standard library every [`Context`](super::Context) starts with.
    pub fn std() -> Self {
        use Direction::{Input, Output};
        let mut lib = Library::empty();

        let w = WidthSpec::Param(Id::new("WIDTH"));
        let one = WidthSpec::Const(1);

        // Registers: in, write_en -> out, done. `done` is registered.
        lib.define(
            Sig("std_reg", &["WIDTH"]),
            vec![
                ("in", w, Input),
                ("write_en", one, Input),
                ("out", w, Output),
                ("done", one, Output),
            ],
            Attributes::new().with(attr::static_(), 1),
            false,
        );

        // A named wire; useful for fan-out control and port adaptation.
        lib.define(
            Sig("std_wire", &["WIDTH"]),
            vec![("in", w, Input), ("out", w, Output)],
            Attributes::new(),
            true,
        );

        // Combinational binary arithmetic/logic: left, right -> out.
        for name in [
            "std_add", "std_sub", "std_and", "std_or", "std_xor", "std_lsh", "std_rsh",
        ] {
            lib.define(
                Sig(name, &["WIDTH"]),
                vec![("left", w, Input), ("right", w, Input), ("out", w, Output)],
                Attributes::new().with(attr::share(), 1),
                true,
            );
        }

        // Bitwise negation.
        lib.define(
            Sig("std_not", &["WIDTH"]),
            vec![("in", w, Input), ("out", w, Output)],
            Attributes::new().with(attr::share(), 1),
            true,
        );

        // Comparisons: left, right -> out (1 bit). Both unsigned and signed
        // views are provided; the signed ones interpret operands as two's
        // complement at the declared width.
        for name in [
            "std_lt", "std_gt", "std_eq", "std_neq", "std_ge", "std_le", "std_slt", "std_sgt",
        ] {
            lib.define(
                Sig(name, &["WIDTH"]),
                vec![
                    ("left", w, Input),
                    ("right", w, Input),
                    ("out", one, Output),
                ],
                Attributes::new().with(attr::share(), 1),
                true,
            );
        }

        // Width adaptation: truncation and zero-extension.
        let iw = WidthSpec::Param(Id::new("IN_WIDTH"));
        let ow = WidthSpec::Param(Id::new("OUT_WIDTH"));
        for name in ["std_slice", "std_pad"] {
            lib.define(
                Sig(name, &["IN_WIDTH", "OUT_WIDTH"]),
                vec![("in", iw, Input), ("out", ow, Output)],
                Attributes::new().with(attr::share(), 1),
                true,
            );
        }

        // Pipelined multiplier/divider: 4-cycle latency, go/done interface.
        lib.define(
            Sig("std_mult_pipe", &["WIDTH"]),
            vec![
                ("left", w, Input),
                ("right", w, Input),
                ("go", one, Input),
                ("out", w, Output),
                ("done", one, Output),
            ],
            Attributes::new()
                .with(attr::static_(), 4)
                .with(attr::share(), 1),
            false,
        );
        lib.define(
            Sig("std_div_pipe", &["WIDTH"]),
            vec![
                ("left", w, Input),
                ("right", w, Input),
                ("go", one, Input),
                ("out_quotient", w, Output),
                ("out_remainder", w, Output),
                ("done", one, Output),
            ],
            Attributes::new()
                .with(attr::static_(), 4)
                .with(attr::share(), 1),
            false,
        );

        // Integer square root with data-dependent latency (the paper's
        // black-box `sqrt.sv` example; exercises latency-insensitive code).
        lib.define(
            Sig("std_sqrt", &["WIDTH"]),
            vec![
                ("in", w, Input),
                ("go", one, Input),
                ("out", w, Output),
                ("done", one, Output),
            ],
            Attributes::new(),
            false,
        );

        // Memories. Reads are combinational on the address ports; writes
        // commit on the clock edge with a registered `done`.
        let size = |n: &str| WidthSpec::Param(Id::new(n));
        lib.define_mem(
            "std_mem_d1",
            &["WIDTH", "SIZE", "IDX_SIZE"],
            vec![("addr0", size("IDX_SIZE"))],
        );
        lib.define_mem(
            "std_mem_d2",
            &["WIDTH", "D0_SIZE", "D1_SIZE", "D0_IDX_SIZE", "D1_IDX_SIZE"],
            vec![
                ("addr0", size("D0_IDX_SIZE")),
                ("addr1", size("D1_IDX_SIZE")),
            ],
        );
        lib.define_mem(
            "std_mem_d3",
            &[
                "WIDTH",
                "D0_SIZE",
                "D1_SIZE",
                "D2_SIZE",
                "D0_IDX_SIZE",
                "D1_IDX_SIZE",
                "D2_IDX_SIZE",
            ],
            vec![
                ("addr0", size("D0_IDX_SIZE")),
                ("addr1", size("D1_IDX_SIZE")),
                ("addr2", size("D2_IDX_SIZE")),
            ],
        );
        lib
    }

    fn define(
        &mut self,
        sig: Sig,
        ports: Vec<(&str, WidthSpec, Direction)>,
        attributes: Attributes,
        is_comb: bool,
    ) {
        let def = PrimitiveDef {
            name: Id::new(sig.0),
            params: sig.1.iter().map(Id::new).collect(),
            ports: ports
                .into_iter()
                .map(|(n, w, d)| PrimitivePort {
                    name: Id::new(n),
                    width: w,
                    direction: d,
                })
                .collect(),
            attributes,
            is_comb,
        };
        self.prims.insert(def.name, def);
    }

    fn define_mem(
        &mut self,
        name: &'static str,
        params: &'static [&'static str],
        addrs: Vec<(&str, WidthSpec)>,
    ) {
        use Direction::{Input, Output};
        let w = WidthSpec::Param(Id::new("WIDTH"));
        let one = WidthSpec::Const(1);
        let mut ports: Vec<(&str, WidthSpec, Direction)> = addrs
            .into_iter()
            .map(|(n, spec)| (n, spec, Input))
            .collect();
        ports.push(("write_data", w, Input));
        ports.push(("write_en", one, Input));
        ports.push(("read_data", w, Output));
        ports.push(("done", one, Output));
        self.define(
            Sig(name, params),
            ports,
            Attributes::new().with(attr::static_(), 1),
            false,
        );
    }

    /// Register an additional primitive (used for `extern` declarations).
    pub fn add(&mut self, def: PrimitiveDef) -> Option<PrimitiveDef> {
        self.prims.insert(def.name, def)
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
    }

    #[test]
    fn latency_and_share_attributes() {
        let lib = Library::std();
        assert_eq!(
            lib.expect(Id::new("std_reg")).unwrap().static_latency(),
            Some(1)
        );
        assert_eq!(
            lib.expect(Id::new("std_mult_pipe"))
                .unwrap()
                .static_latency(),
            Some(4)
        );
        assert!(lib.expect(Id::new("std_add")).unwrap().is_shareable());
        assert!(!lib.expect(Id::new("std_reg")).unwrap().is_shareable());
        assert!(lib
            .expect(Id::new("std_sqrt"))
            .unwrap()
            .static_latency()
            .is_none());
    }

    #[test]
    fn combinational_marking() {
        let lib = Library::std();
        assert!(lib.expect(Id::new("std_add")).unwrap().is_comb);
        assert!(!lib.expect(Id::new("std_reg")).unwrap().is_comb);
        assert!(!lib.expect(Id::new("std_mem_d1")).unwrap().is_comb);
    }
}
