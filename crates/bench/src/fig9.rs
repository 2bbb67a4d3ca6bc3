//! Figure 9: ablation of the optimization passes on PolyBench.
//!
//! - **9a**: LUT change from resource sharing, register sharing, and both,
//!   normalized to a baseline with both disabled (the paper finds sharing
//!   can *increase* LUTs — +3% / +11% on average — because of the
//!   multiplexers it introduces).
//! - **9b**: register decrease factor from register sharing (paper: 12%
//!   average reduction, opportunities in every benchmark).
//! - **9c**: simulated cycle speedup from latency-sensitive compilation
//!   (paper: 1.43× average, no significant area change).
//!
//! Every configuration is simulated and verified against the reference
//! semantics, so the ablations double as a correctness matrix for the
//! optimization passes.

use calyx_backend::area::{self, Area};
use calyx_core::errors::CalyxResult;
use calyx_core::passes::opt_without;
use calyx_polybench::{simulate, KernelDef, KERNELS};

/// Per-kernel ablation results.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Kernel abbreviation.
    pub abbrev: &'static str,
    /// Baseline (both sharing passes off): area.
    pub baseline: Area,
    /// Resource sharing only.
    pub resource_sharing: Area,
    /// Register sharing only.
    pub register_sharing: Area,
    /// Both sharing passes.
    pub both: Area,
    /// Cycles with latency-insensitive compilation only.
    pub dynamic_cycles: u64,
    /// Cycles with latency-sensitive compilation.
    pub static_cycles: u64,
}

impl Fig9Row {
    /// Fig 9a series: LUT factor relative to baseline.
    pub fn lut_factor_rs(&self) -> f64 {
        self.resource_sharing.luts as f64 / self.baseline.luts as f64
    }

    /// Fig 9a series: register-sharing LUT factor.
    pub fn lut_factor_mr(&self) -> f64 {
        self.register_sharing.luts as f64 / self.baseline.luts as f64
    }

    /// Fig 9a series: both passes.
    pub fn lut_factor_both(&self) -> f64 {
        self.both.luts as f64 / self.baseline.luts as f64
    }

    /// Fig 9b: register decrease factor (baseline / shared; ≥ 1 is a win).
    pub fn register_decrease(&self) -> f64 {
        self.baseline.register_cells as f64 / self.register_sharing.register_cells as f64
    }

    /// Fig 9c: speedup from static compilation.
    pub fn static_speedup(&self) -> f64 {
        self.dynamic_cycles as f64 / self.static_cycles as f64
    }
}

fn area_of(def: &KernelDef, n: u64, pipeline: &[&str]) -> CalyxResult<(Area, u64)> {
    let run = simulate(def, n, 1, pipeline)?;
    Ok((area::estimate(&run.lowered, "main")?, run.cycles))
}

/// Run the full ablation for one kernel.
///
/// # Errors
///
/// Propagates compilation/verification failures.
pub fn run_kernel(def: &KernelDef, n: u64) -> CalyxResult<Fig9Row> {
    // The sharing ablations leave out static compilation too: Fig 9a/9b
    // compare latency-insensitive designs against the `lower` baseline.
    let (baseline, dynamic_cycles) = area_of(def, n, &["lower"])?;
    let rs_only = opt_without(&["minimize-regs", "infer-static-timing", "static-timing"]);
    let (resource_sharing, _) = area_of(def, n, &rs_only)?;
    let mr_only = opt_without(&["resource-sharing", "infer-static-timing", "static-timing"]);
    let (register_sharing, _) = area_of(def, n, &mr_only)?;
    let rs_and_mr = opt_without(&["infer-static-timing", "static-timing"]);
    let (both, _) = area_of(def, n, &rs_and_mr)?;
    let (_, static_cycles) = area_of(def, n, &["lower-static"])?;
    Ok(Fig9Row {
        abbrev: def.abbrev,
        baseline,
        resource_sharing,
        register_sharing,
        both,
        dynamic_cycles,
        static_cycles,
    })
}

/// Compute Figure 9 over the suite.
///
/// # Errors
///
/// Propagates the first failing kernel.
pub fn compute(n: u64) -> CalyxResult<Vec<Fig9Row>> {
    KERNELS.iter().map(|def| run_kernel(def, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_polybench::kernel;

    #[test]
    fn static_compilation_speeds_up_kernels() {
        for name in ["gemm", "trisolv"] {
            let row = run_kernel(kernel(name).unwrap(), 4).unwrap();
            assert!(
                row.static_speedup() > 1.0,
                "{name}: {} -> {}",
                row.dynamic_cycles,
                row.static_cycles
            );
        }
    }

    #[test]
    fn register_sharing_reduces_registers() {
        let row = run_kernel(kernel("gemm").unwrap(), 4).unwrap();
        assert!(
            row.register_sharing.register_cells <= row.baseline.register_cells,
            "{row:?}"
        );
        assert!(row.register_decrease() >= 1.0);
    }

    #[test]
    fn sharing_changes_luts_moderately() {
        // The paper's point: sharing's LUT effect is small and can go
        // either direction (mux overhead vs. unit savings).
        let row = run_kernel(kernel("mvt").unwrap(), 4).unwrap();
        for f in [
            row.lut_factor_rs(),
            row.lut_factor_mr(),
            row.lut_factor_both(),
        ] {
            assert!(f > 0.5 && f < 2.0, "LUT factor {f}: {row:?}");
        }
    }
}
