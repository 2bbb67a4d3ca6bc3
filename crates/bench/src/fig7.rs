//! Figure 7: systolic arrays vs. Vivado HLS on matrix multiply.
//!
//! - **7a**: absolute cycle counts for Calyx latency-sensitive, Calyx
//!   latency-insensitive, and HLS, for sizes 2×2 … 8×8.
//! - **7b**: absolute LUT usage for the same designs.
//!
//! The HLS baseline follows the paper's setup — "a straightforward
//! matrix-multiply kernel in Vivado HLS that fully unrolls the outer two
//! loops": the *schedule* is modeled from the plain loop nest (memory
//! ports, not compute, are the bottleneck when arrays are unpartitioned),
//! while the *area* accounts for the `rows×cols` MAC units the unroll
//! pragma allocates.

use calyx_backend::area::{self, primitive_area, Area};
use calyx_core::errors::CalyxResult;
use calyx_core::passes::PassManager;
use calyx_sim::rtl::Simulator;
use calyx_systolic::{generate, SystolicConfig};

/// One row of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Array dimension (n×n by n×n).
    pub n: usize,
    /// Calyx with latency-sensitive compilation: cycles.
    pub calyx_static_cycles: u64,
    /// Calyx latency-insensitive: cycles.
    pub calyx_dynamic_cycles: u64,
    /// HLS baseline cycles.
    pub hls_cycles: u64,
    /// Calyx (latency-sensitive) LUTs.
    pub calyx_static_luts: u64,
    /// Calyx (latency-insensitive) LUTs.
    pub calyx_dynamic_luts: u64,
    /// HLS baseline LUTs.
    pub hls_luts: u64,
}

/// Lower one systolic configuration with the pass alias `pipeline`
/// (`lower-static` is the latency-sensitive design, `lower` the
/// latency-insensitive one) and simulate it; returns `(cycles, area)`.
///
/// # Errors
///
/// Propagates unknown aliases, compilation and simulation failures.
pub fn run_systolic(n: usize, pipeline: &str) -> CalyxResult<(u64, Area)> {
    let cfg = SystolicConfig::square(n);
    let mut ctx = generate(&cfg);
    PassManager::from_names(&[pipeline])?.run(&mut ctx)?;
    let mut sim = Simulator::new(&ctx, "main")
        .map_err(|e| calyx_core::errors::Error::malformed(e.to_string()))?;
    // Deterministic operands.
    for r in 0..n {
        let row: Vec<u64> = (0..n).map(|k| ((r * n + k) % 7 + 1) as u64).collect();
        sim.set_memory(&format!("l{r}"), &row)
            .map_err(|e| calyx_core::errors::Error::malformed(e.to_string()))?;
    }
    for c in 0..n {
        let col: Vec<u64> = (0..n).map(|k| ((k * n + c) % 5 + 1) as u64).collect();
        sim.set_memory(&format!("t{c}"), &col)
            .map_err(|e| calyx_core::errors::Error::malformed(e.to_string()))?;
    }
    let stats = sim
        .run(10_000_000)
        .map_err(|e| calyx_core::errors::Error::malformed(e.to_string()))?;
    let a = area::estimate(&ctx, "main")?;
    Ok((stats.cycles, a))
}

/// The HLS matmul baseline (see module docs).
///
/// # Errors
///
/// Propagates model failures (none expected for this generated source).
pub fn run_hls_matmul(n: usize) -> CalyxResult<calyx_hls::HlsReport> {
    let src = format!(
        "decl a: ubit<32>[{n}][{n}];
         decl b: ubit<32>[{n}][{n}];
         decl c: ubit<32>[{n}][{n}];
         for (let i: ubit<8> = 0..{n}) {{
           for (let j: ubit<8> = 0..{n}) {{
             for (let k: ubit<8> = 0..{n}) {{
               let t: ubit<32> = a[i][k] * b[k][j];
               ---
               c[i][j] := c[i][j] + t;
             }}
           }}
         }}"
    );
    let mut report = calyx_hls::estimate_source(&src)?;
    // The unroll pragmas on the outer loops replicate the MAC datapath
    // n*n times even though memory ports bound the schedule.
    let macs = (n * n) as u64 - 1;
    for _ in 0..macs {
        report.area = report.area + primitive_area("std_mult_pipe", &[32]);
        report.area = report.area + primitive_area("std_add", &[32]);
    }
    Ok(report)
}

/// Compute Figure 7 for the given sizes (the paper uses 2, 4, 6, 8).
///
/// # Errors
///
/// Propagates the first failing configuration.
pub fn compute(sizes: &[usize]) -> CalyxResult<Vec<Fig7Row>> {
    sizes
        .iter()
        .map(|&n| {
            let (static_cycles, static_area) = run_systolic(n, "lower-static")?;
            let (dynamic_cycles, dynamic_area) = run_systolic(n, "lower")?;
            let hls = run_hls_matmul(n)?;
            Ok(Fig7Row {
                n,
                calyx_static_cycles: static_cycles,
                calyx_dynamic_cycles: dynamic_cycles,
                hls_cycles: hls.cycles,
                calyx_static_luts: static_area.luts,
                calyx_dynamic_luts: dynamic_area.luts,
                hls_luts: hls.area.luts,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geomean;

    #[test]
    fn shape_matches_the_paper() {
        // Small sizes keep the test fast; the orderings are what matter.
        let rows = compute(&[2, 4]).unwrap();
        for row in &rows {
            // §7.1: Sensitive makes designs faster.
            assert!(
                row.calyx_static_cycles < row.calyx_dynamic_cycles,
                "{row:?}"
            );
            // Headline: systolic beats HLS on cycles.
            assert!(row.calyx_static_cycles < row.hls_cycles, "{row:?}");
        }
        // Speedup grows with size (crossover direction).
        let speedup = |r: &Fig7Row| r.hls_cycles as f64 / r.calyx_static_cycles as f64;
        assert!(speedup(&rows[1]) > speedup(&rows[0]), "{rows:?}");
        // LUTs are within a small factor of HLS (paper: 1.11x mean).
        let lut_factor = geomean(
            rows.iter()
                .map(|r| r.calyx_static_luts as f64 / r.hls_luts as f64),
        );
        assert!(lut_factor < 4.0 && lut_factor > 0.25, "factor {lut_factor}");
    }
}
