//! FPGA resource estimation — the Vivado synthesis substitute.
//!
//! The paper reports LUT counts from Vivado targeting a Zynq UltraScale+
//! at a 7ns clock (§7.1). We replace synthesis with a deterministic
//! technology model applied to the *lowered* program, so control logic
//! (FSM guards), sharing-induced multiplexers, and datapath units are all
//! visible to the estimate:
//!
//! A primitive is priced by its [`PrimKind`], at width W (its first
//! parameter):
//!
//! | structure | LUTs | FFs | DSP | BRAM |
//! |---|---|---|---|---|
//! | `Reg` | 0 | W + 1 (done) | | |
//! | `Comb(Add \| Sub)` | W (carry chain) | | | |
//! | `Comb(And \| Or \| Xor \| Not)` | ⌈W/2⌉ (LUT6 packing) | | | |
//! | `Comb(Eq \| Neq)` | ⌈W/3⌉ (3 bits/LUT + reduce) | | | |
//! | `Comb` ordered compares | W (carry chain) | | | |
//! | `Comb(Lsh \| Rsh)` | ⌈W·log₂W/2⌉ (barrel) | | | |
//! | `Comb(Slice \| Pad \| Wire)` | 0 (wiring) | | | |
//! | `Unit(Mult)` | W/2 control | 2·W pipeline | ⌈W/18⌉² | |
//! | `Unit(Div)` | 4·W (iterative) | 3·W | | |
//! | `Unit(Sqrt)` | 2·W | 2·W | | |
//! | `Mem` (bits B) | ⌈B/64⌉ if B ≤ 4096 (LUTRAM) | | | ⌈B/18432⌉ otherwise |
//! | an `extern` | 0 (vendor IP, reported separately) | | | |
//! | k-driver port mux (width W) | W·⌈(k−1)/2⌉ (4:1 per LUT6 pair) | | | |
//! | guard logic | ⌈unique boolean nodes/3⌉ + per-comparison costs | | | |
//!
//! Guard subexpressions are hash-consed before counting, mirroring the
//! common-subexpression extraction synthesis performs on FSM state decodes.
//! Absolute numbers are not Vivado's; *ratios* between designs estimated by
//! the same model are the quantities the paper's figures plot.

use crate::api::{Backend, BackendOpts, ReportFormat};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::{
    validate, Atom, CellType, CompOp, Component, Context, Guard, GuardMemo, Id, PortRef, PrimKind,
};
use calyx_core::json::Json;
use calyx_core::prim::{CombOp, UnitOp};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::ops::Add;
use std::rc::Rc;
use std::sync::Arc;

/// An FPGA resource estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Area {
    /// Lookup tables.
    pub luts: u64,
    /// Flip-flops (the paper's Fig. 9b "registers" metric counts
    /// register *cells*; see [`Area::register_cells`]).
    pub ffs: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// Block RAMs.
    pub brams: u64,
    /// Number of `std_reg` cells (datapath + control).
    pub register_cells: u64,
}

impl Area {
    /// The report's metrics as `(name, value)` pairs, in report order.
    /// Single source of truth for both output formats — a metric added
    /// here appears in text and JSON alike.
    pub fn metrics(&self) -> [(&'static str, u64); 5] {
        [
            ("luts", self.luts),
            ("ffs", self.ffs),
            ("dsps", self.dsps),
            ("brams", self.brams),
            ("register_cells", self.register_cells),
        ]
    }

    /// Write the stable, line-oriented text report: one `name value` pair
    /// per line, in [`Area::metrics`] order.
    ///
    /// # Errors
    ///
    /// Propagates write failures from `out`.
    pub fn write_text(&self, out: &mut dyn io::Write) -> io::Result<()> {
        for (name, value) in self.metrics() {
            writeln!(out, "{name} {value}")?;
        }
        Ok(())
    }
}

impl Add for Area {
    type Output = Area;
    fn add(self, rhs: Area) -> Area {
        Area {
            luts: self.luts + rhs.luts,
            ffs: self.ffs + rhs.ffs,
            dsps: self.dsps + rhs.dsps,
            brams: self.brams + rhs.brams,
            register_cells: self.register_cells + rhs.register_cells,
        }
    }
}

fn ceil_div(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

fn log2_ceil(v: u64) -> u64 {
    u64::from(calyx_core::utils::bits_needed(v.saturating_sub(1)))
}

/// The `area` backend: estimate the entrypoint's FPGA resources and
/// report them as a stable, line-oriented text table (or JSON, per
/// [`BackendOpts::format`]).
///
/// Requires a lowered design — the estimate prices FSM guard logic and
/// sharing-induced multiplexers, which only exist after lowering.
pub struct AreaBackend {
    format: ReportFormat,
}

impl Backend for AreaBackend {
    const NAME: &'static str = "area";
    const DESCRIPTION: &'static str =
        "estimate FPGA resources (LUTs/FFs/DSPs/BRAMs) of the lowered design";
    const EXTENSION: &'static str = "area";

    fn from_opts(opts: &BackendOpts) -> Self {
        AreaBackend {
            format: opts.format,
        }
    }

    fn required_pipeline(&self) -> &'static [&'static str] {
        &["lower"]
    }

    fn validate(&self, ctx: &Context) -> CalyxResult<()> {
        ctx.entry()?;
        validate::require_lowered(ctx)
    }

    fn emit(&self, ctx: &Context, out: &mut dyn io::Write) -> CalyxResult<()> {
        // Estimate fully before writing: a failure mid-model must not
        // leave a truncated report behind.
        let area = estimate(ctx, ctx.entrypoint.as_str())?;
        match self.format {
            ReportFormat::Text => area.write_text(out)?,
            ReportFormat::Json => {
                let metrics = area.metrics().map(|(name, value)| (name, value.into()));
                writeln!(out, "{}", Json::obj(metrics).render())?;
            }
        }
        Ok(())
    }
}

/// Estimate the resources of the design rooted at `top`.
///
/// Component instances are counted once per *instance* (hardware is not
/// shared across instantiations).
///
/// # Errors
///
/// Returns [`Error::Malformed`] when a referenced component still contains
/// control (run lowering first) or instantiation is cyclic, and
/// [`Error::Undefined`] for unknown names.
pub fn estimate(ctx: &Context, top: &str) -> CalyxResult<Area> {
    // The walk below recurses into instances.
    ctx.topological_order()?;
    let mut cache: HashMap<Id, Area> = HashMap::new();
    component_area(ctx, Id::new(top), &mut cache)
}

fn component_area(ctx: &Context, name: Id, cache: &mut HashMap<Id, Area>) -> CalyxResult<Area> {
    if let Some(a) = cache.get(&name) {
        return Ok(*a);
    }
    let comp = ctx
        .components
        .get(name)
        .ok_or_else(|| Error::undefined(format!("component `{name}`")))?;
    validate::require_lowered_component(comp)?;
    let mut total = Area::default();
    for cell in comp.cells.iter() {
        total = total
            + match &cell.prototype {
                CellType::Primitive {
                    name: prim, params, ..
                } => primitive_area(*prim, params),
                CellType::Component { name: child } => component_area(ctx, *child, cache)?,
            };
    }
    total = total + wiring_area(comp)?;
    cache.insert(name, total);
    Ok(total)
}

/// Resource cost of one instance of primitive `prim`, by its kind (the
/// table from the module docs). Public so the HLS baseline model prices
/// its functional units and memories with the *same* technology numbers,
/// keeping the paper's relative area comparisons meaningful.
pub fn primitive_area(prim: impl Into<Id>, params: &[u64]) -> Area {
    use CombOp::*;
    let w = params.first().copied().unwrap_or(1);
    let mut a = Area::default();
    let Some(kind) = PrimKind::of(prim.into()) else {
        // An `extern`: unknown implementation, count nothing. This is what
        // the paper does with black-box RTL (vendor IP reported separately
        // by synthesis).
        return a;
    };
    match kind {
        PrimKind::Reg => {
            a.ffs = w + 1;
            a.register_cells = 1;
        }
        PrimKind::Comb(Add | Sub) => a.luts = w,
        PrimKind::Comb(And | Or | Xor | Not) => a.luts = ceil_div(w, 2),
        PrimKind::Comb(Eq | Neq) => a.luts = ceil_div(w, 3),
        PrimKind::Comb(Lt | Gt | Ge | Le | Slt | Sgt) => a.luts = w,
        PrimKind::Comb(Lsh | Rsh) => a.luts = ceil_div(w * log2_ceil(w.max(2)), 2),
        PrimKind::Comb(Slice | Pad | Wire) => {}
        PrimKind::Unit(UnitOp::Mult) => {
            a.luts = w / 2;
            a.ffs = 2 * w;
            a.dsps = ceil_div(w, 18).pow(2);
        }
        PrimKind::Unit(UnitOp::Div) => {
            a.luts = 4 * w;
            a.ffs = 3 * w;
        }
        PrimKind::Unit(UnitOp::Sqrt) => {
            a.luts = 2 * w;
            a.ffs = 2 * w;
        }
        PrimKind::Mem { dims } => {
            let bits = w * params[1..=dims].iter().product::<u64>();
            if bits <= 4096 {
                a.luts = ceil_div(bits, 64);
            } else {
                a.brams = ceil_div(bits, 18 * 1024);
            }
        }
    }
    a
}

/// Multiplexing and guard logic from the component's own assignments.
fn wiring_area(comp: &Component) -> CalyxResult<Area> {
    let mut a = Area::default();

    // Multi-driver ports become mux trees.
    let mut drivers: BTreeMap<PortRef, u64> = BTreeMap::new();
    for asgn in &comp.continuous {
        *drivers.entry(asgn.dst).or_insert(0) += 1;
    }
    for (dst, k) in &drivers {
        if *k > 1 {
            let w = u64::from(comp.port_width(dst)?);
            a.luts += w * ceil_div(k - 1, 2);
        }
    }

    // Guard logic, hash-consed: every unique boolean connective costs a
    // third of a LUT; unique comparisons cost per the table.
    let mut guards = GuardLogic::default();
    for asgn in &comp.continuous {
        guards.count(&asgn.guard);
    }
    let mut cmp_luts: u64 = 0;
    for (op, l, r) in guards.comparisons {
        let w = u64::from(atom_width(&l, comp)?.max(atom_width(&r, comp)?));
        cmp_luts += match op {
            CompOp::Eq | CompOp::Neq => ceil_div(w, 3),
            _ => w,
        };
    }
    a.luts += ceil_div(guards.bool_nodes, 3) + cmp_luts;
    Ok(a)
}

/// The unique guard nodes of a component. A node is unique by what it
/// prints as — `a & (b & c)` and `(a & b) & c` are one piece of logic —
/// so the key is the printed text. A node that several guards share is
/// printed and counted for the first of them; the nodes above it append
/// its text instead of printing it again.
#[derive(Default)]
struct GuardLogic {
    seen: HashSet<Rc<str>>,
    /// What each shared node prints as.
    printed: GuardMemo<Rc<str>>,
    bool_nodes: u64,
    /// The unique comparisons, in the order met.
    comparisons: Vec<(CompOp, Atom, Atom)>,
}

impl GuardLogic {
    /// Count `guard` and the nodes beneath it; returns what it prints as.
    fn count(&mut self, guard: &Guard) -> Rc<str> {
        let mut text = String::new();
        match guard {
            Guard::True | Guard::Port(_) => return guard.to_string().into(),
            Guard::Comp(op, l, r) => {
                let text: Rc<str> = guard.to_string().into();
                if self.seen.insert(Rc::clone(&text)) {
                    self.comparisons.push((*op, *l, *r));
                }
                return text;
            }
            Guard::Not(inner) => {
                text.push('!');
                self.operand(inner, guard, &mut text);
            }
            Guard::And(l, r) | Guard::Or(l, r) => {
                self.operand(l, guard, &mut text);
                text.push_str(if matches!(guard, Guard::And(..)) {
                    " & "
                } else {
                    " | "
                });
                self.operand(r, guard, &mut text);
            }
        }
        let text: Rc<str> = text.into();
        if self.seen.insert(Rc::clone(&text)) {
            self.bool_nodes += 1;
        }
        text
    }

    /// Count `child` unless it has been, and append what it prints as
    /// under `parent` to `text`.
    fn operand(&mut self, child: &Arc<Guard>, parent: &Guard, text: &mut String) {
        let printed = match self.printed.get(child) {
            Some(printed) => Rc::clone(printed),
            None => {
                let printed = self.count(child);
                self.printed.insert(child, Rc::clone(&printed));
                printed
            }
        };
        if child.needs_parens_under(parent) {
            text.push('(');
            text.push_str(&printed);
            text.push(')');
        } else {
            text.push_str(&printed);
        }
    }
}

fn atom_width(atom: &Atom, comp: &Component) -> CalyxResult<u32> {
    match atom {
        Atom::Port(p) => comp.port_width(p),
        Atom::Const { width, .. } => Ok(*width),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::ir::parse_context;
    use calyx_core::passes::{opt_without, PassManager};

    fn lowered(src: &str) -> Context {
        let mut ctx = parse_context(src).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        ctx
    }

    #[test]
    fn primitive_table_spot_checks() {
        assert_eq!(primitive_area("std_add", &[32]).luts, 32);
        assert_eq!(primitive_area("std_reg", &[32]).ffs, 33);
        assert_eq!(primitive_area("std_reg", &[32]).register_cells, 1);
        assert_eq!(primitive_area("std_eq", &[32]).luts, 11);
        assert_eq!(primitive_area("std_mult_pipe", &[32]).dsps, 4);
        assert_eq!(primitive_area("std_mult_pipe", &[18]).dsps, 1);
        // Small memory -> LUTRAM; big memory -> BRAM.
        let small = primitive_area("std_mem_d1", &[32, 16, 4]);
        assert!(small.brams == 0 && small.luts > 0);
        let big = primitive_area("std_mem_d2", &[32, 64, 64, 6, 6]);
        assert!(big.brams > 0 && big.luts == 0);
    }

    /// The key of a guard is what it prints as, whether the text was
    /// printed or put together from shared operands' texts.
    #[test]
    fn guard_keys_are_the_printed_guards() {
        let p = |name: &str| Arc::new(Guard::Port(PortRef::cell(name, "out")));
        let or = Arc::new(Guard::Or(p("a"), p("b")));
        let and = Arc::new(Guard::And(Arc::clone(&or), p("c")));
        let cmp = Arc::new(Guard::port_eq(PortRef::cell("fsm", "out"), 2, 4));
        let guards = [
            Guard::Not(Arc::clone(&and)),
            Guard::Not(Arc::clone(&cmp)),
            Guard::Not(Arc::new(Guard::Not(p("a")))),
            Guard::And(Arc::clone(&and), Arc::clone(&and)),
            Guard::Or(Arc::clone(&and), Arc::clone(&or)),
            Guard::And(Arc::clone(&cmp), Arc::new(Guard::Or(cmp, and))),
            Guard::Or(Arc::new(Guard::True), or),
        ];
        let mut logic = GuardLogic::default();
        for guard in &guards {
            assert_eq!(&*logic.count(guard), guard.to_string());
        }
        // The seven roots, `a | b`, `(a | b) & c`, `!a` and the inner
        // `fsm.out == 4'd2 | …`; one comparison. Each is counted once,
        // however many guards share it.
        assert_eq!((logic.bool_nodes, logic.comparisons.len()), (11, 1));
    }

    #[test]
    fn estimates_whole_designs() {
        let ctx = lowered(
            r#"component main() -> () {
              cells { x = std_reg(32); a = std_add(32); }
              wires {
                group g {
                  a.left = x.out; a.right = 32'd1;
                  x.in = a.out; x.write_en = 1'd1;
                  g[done] = x.done;
                }
              }
              control { g; }
            }"#,
        );
        let area = estimate(&ctx, "main").unwrap();
        // 32-bit adder (32) + guard logic; reg contributes FFs only. A
        // single-enable control program needs no FSM register.
        assert!(area.luts >= 32, "{area:?}");
        assert!(area.ffs >= 33, "{area:?}");
        assert_eq!(area.register_cells, 1, "{area:?}");
    }

    #[test]
    fn sharing_reduces_unit_luts_but_adds_muxes() {
        // Two adders in sequence: sharing removes one 32-LUT adder but the
        // shared adder's ports gain extra drivers (mux cost).
        let src = r#"component main() -> () {
              cells {
                r0 = std_reg(32); r1 = std_reg(32);
                a0 = std_add(32); a1 = std_add(32);
              }
              wires {
                group g0 {
                  a0.left = r0.out; a0.right = 32'd1;
                  r0.in = a0.out; r0.write_en = 1'd1; g0[done] = r0.done;
                }
                group g1 {
                  a1.left = r1.out; a1.right = 32'd2;
                  r1.in = a1.out; r1.write_en = 1'd1; g1[done] = r1.done;
                }
              }
              control { seq { g0; g1; } }
            }"#;
        let lower = |pipeline: &[&str]| {
            let mut c = parse_context(src).unwrap();
            PassManager::from_names(pipeline)
                .unwrap()
                .run(&mut c)
                .unwrap();
            c
        };
        let baseline_ctx = lower(&["lower"]);
        let resource_sharing =
            opt_without(&["minimize-regs", "infer-static-timing", "static-timing"]);
        let shared_ctx = lower(&resource_sharing);
        let baseline = estimate(&baseline_ctx, "main").unwrap();
        let shared = estimate(&shared_ctx, "main").unwrap();
        // Sharing physically removed an adder...
        let adders = |ctx: &Context| {
            ctx.component("main")
                .unwrap()
                .cells
                .iter()
                .filter(|c| c.is_primitive("std_add"))
                .count()
        };
        assert_eq!(adders(&baseline_ctx), 2);
        assert_eq!(adders(&shared_ctx), 1);
        // ...but the input multiplexers can cost as much as the saved unit —
        // exactly the effect the paper reports in Fig. 9a. The estimate must
        // move by a bounded amount, not collapse by a full adder.
        let diff = shared.luts.abs_diff(baseline.luts);
        assert!(diff <= 96, "baseline {baseline:?} vs shared {shared:?}");
        assert_eq!(shared.ffs, baseline.ffs);
    }

    #[test]
    fn rejects_unlowered_designs() {
        let ctx = parse_context(
            r#"component main() -> () {
              cells { r = std_reg(8); }
              wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
              control { g; }
            }"#,
        )
        .unwrap();
        assert!(estimate(&ctx, "main").is_err());
    }

    #[test]
    fn hierarchical_designs_count_instances() {
        let ctx = lowered(
            r#"
            component pe() -> () {
              cells { r = std_reg(32); }
              wires { group w { r.in = 32'd1; r.write_en = 1'd1; w[done] = r.done; } }
              control { w; }
            }
            component main() -> () {
              cells { p0 = pe(); p1 = pe(); }
              wires {
                group a { p0.go = 1'd1; a[done] = p0.done; }
                group c { p1.go = 1'd1; c[done] = p1.done; }
              }
              control { seq { a; c; } }
            }"#,
        );
        let area = estimate(&ctx, "main").unwrap();
        // Two PE instances, each with a 32-bit register.
        assert!(area.ffs >= 66, "{area:?}");
        assert!(area.register_cells >= 2);
    }
}
