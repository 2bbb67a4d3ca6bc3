//! Figure 8: Dahlia-generated Calyx designs vs. the HLS baseline on the
//! PolyBench suite.
//!
//! - **8a**: cycle slowdown of Calyx designs relative to HLS (paper:
//!   3.1× geomean; 2.3× for the unrolled variants).
//! - **8b**: LUT increase relative to HLS (paper: 1.2×; 2.2× unrolled).
//!
//! Every Calyx design is simulated *and verified against the reference
//! semantics* before its cycles are reported; the HLS number models the
//! same lowered program.

use calyx_backend::area;
use calyx_core::errors::CalyxResult;
use calyx_polybench::{simulate, KernelDef, KERNELS};

/// One bar of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Kernel abbreviation (the paper's x-axis label).
    pub abbrev: &'static str,
    /// Unroll factor (1 = the plain variant).
    pub unroll: u64,
    /// Verified Calyx cycles.
    pub calyx_cycles: u64,
    /// HLS-model cycles.
    pub hls_cycles: u64,
    /// Calyx LUTs.
    pub calyx_luts: u64,
    /// HLS LUTs.
    pub hls_luts: u64,
}

impl Fig8Row {
    /// Figure 8a's y-value.
    pub fn slowdown(&self) -> f64 {
        self.calyx_cycles as f64 / self.hls_cycles as f64
    }

    /// Figure 8b's y-value.
    pub fn lut_factor(&self) -> f64 {
        self.calyx_luts as f64 / self.hls_luts as f64
    }
}

/// Run one kernel variant through both toolchains.
///
/// # Errors
///
/// Propagates compilation/verification failures.
pub fn run_kernel(def: &KernelDef, n: u64, unroll: u64) -> CalyxResult<Fig8Row> {
    let run = simulate(def, n, unroll, &["opt"])?;
    let calyx_area = area::estimate(&run.lowered, "main")?;
    let hls = calyx_hls::estimate(&run.ast)?;
    Ok(Fig8Row {
        abbrev: def.abbrev,
        unroll,
        calyx_cycles: run.cycles,
        hls_cycles: hls.cycles,
        calyx_luts: calyx_area.luts,
        hls_luts: hls.area.luts,
    })
}

/// Compute Figure 8 over the whole suite (plain + unrolled variants).
///
/// # Errors
///
/// Propagates the first failing kernel.
pub fn compute(n: u64, unroll: u64) -> CalyxResult<Vec<Fig8Row>> {
    let mut rows = Vec::new();
    for def in KERNELS {
        rows.push(run_kernel(def, n, 1)?);
        if def.unrollable && unroll > 1 {
            rows.push(run_kernel(def, n, unroll)?);
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geomean;
    use calyx_polybench::kernel;

    #[test]
    fn gemm_is_slower_than_hls_but_same_regime() {
        // The paper's qualitative claim: within a few factors of a heavily
        // optimized commercial toolchain.
        let row = run_kernel(kernel("gemm").unwrap(), 6, 1).unwrap();
        let slowdown = row.slowdown();
        assert!(
            slowdown > 1.0,
            "HLS pipelines; Calyx pays FSM overhead: {row:?}"
        );
        assert!(slowdown < 12.0, "within an order of magnitude: {row:?}");
    }

    #[test]
    fn unrolling_closes_the_gap() {
        let plain = run_kernel(kernel("gemm").unwrap(), 4, 1).unwrap();
        let unrolled = run_kernel(kernel("gemm").unwrap(), 4, 2).unwrap();
        assert!(
            unrolled.calyx_cycles < plain.calyx_cycles,
            "unrolled Calyx runs faster: {unrolled:?} vs {plain:?}"
        );
    }

    #[test]
    fn suite_subset_has_paper_shape() {
        let rows: Vec<Fig8Row> = ["gemm", "atax", "mvt", "trisolv"]
            .iter()
            .map(|k| run_kernel(kernel(k).unwrap(), 4, 1).unwrap())
            .collect();
        let slow = geomean(rows.iter().map(Fig8Row::slowdown));
        assert!(
            slow > 1.0 && slow < 15.0,
            "geomean slowdown {slow}: {rows:?}"
        );
    }
}
