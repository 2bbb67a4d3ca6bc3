//! Per-pass profile of a pass pipeline: the milliseconds each pass of an
//! alias (or single pass) takes per sweep over the 19 PolyBench kernels
//! and the systolic arrays, plus the SystemVerilog emit of the result, the
//! median of several runs, in one process. The ledger traces per-pass time
//! only on its direct workloads; this is the table for the pipelines batch
//! and plan run (`lower`), or any other.
//!
//! ```sh
//! cargo run --release -p calyx_bench --example pass_profile
//! cargo run --release -p calyx_bench --example pass_profile -- opt 50 4 2,4,6
//! ```
//!
//! Arguments: the pass or alias (default `lower`), runs (default 20),
//! PolyBench size `n` (default 4, the ledger's), systolic sizes (default
//! `2,4,6`). A run lowers a fresh copy of every generated design; the copy
//! is not timed. `emit` is only reported when the pipeline leaves every
//! design lowered.

use calyx_backend::verilog::emit_to;
use calyx_core::ir::{validate, Context};
use calyx_core::passes::PassManager;
use calyx_polybench::{compile_kernel, KERNELS};
use calyx_systolic::{generate, SystolicConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one sweep over a set of designs spent, per pass in pipeline order
/// and in the emit.
struct Sweep {
    passes: Vec<(&'static str, Duration)>,
    emit: Option<Duration>,
}

/// Run `alias` over a copy of every design, then emit the results.
fn sweep(alias: &str, designs: &[Context]) -> Sweep {
    let mut passes: Vec<(&'static str, Duration)> = Vec::new();
    let mut lowered = Vec::with_capacity(designs.len());
    for design in designs {
        let mut ctx = design.clone();
        let mut pipeline = PassManager::from_names(&[alias]).expect("a registered pass or alias");
        pipeline.run(&mut ctx).expect("the design compiles");
        for (i, timing) in pipeline.timings().iter().enumerate() {
            match passes.get_mut(i) {
                Some((_, total)) => *total += timing.duration,
                None => passes.push((timing.name, timing.duration)),
            }
        }
        lowered.push(ctx);
    }
    let emit = lowered
        .iter()
        .all(|ctx| validate::require_lowered(ctx).is_ok());
    let emit = emit.then(|| {
        let mut sink = Vec::new();
        let start = Instant::now();
        for ctx in &lowered {
            sink.clear();
            emit_to(ctx, &mut sink).expect("lowered programs emit");
            black_box(&sink);
        }
        start.elapsed()
    });
    Sweep { passes, emit }
}

fn median(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// Print the median of every row over `runs` sweeps of `designs`.
fn report(set: &str, alias: &str, designs: &[Context], runs: usize) {
    let sweeps: Vec<Sweep> = (0..runs).map(|_| sweep(alias, designs)).collect();
    println!("{set}, {alias}, median of {runs} (ms per sweep):");
    let mut total = 0.0;
    for (i, (name, _)) in sweeps[0].passes.iter().enumerate() {
        let ms = median(sweeps.iter().map(|s| s.passes[i].1).collect());
        total += ms;
        println!("  {name:<22} {ms:>8.3}");
    }
    println!("  {:<22} {total:>8.3}", "passes");
    if sweeps[0].emit.is_some() {
        let ms = median(sweeps.iter().filter_map(|s| s.emit).collect());
        println!("  {:<22} {ms:>8.3}", "emit");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let alias = args.first().map_or("lower", String::as_str);
    let runs: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
        .max(1);
    let n: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let sizes: Vec<usize> = args
        .get(3)
        .map_or("2,4,6", String::as_str)
        .split(',')
        .map(|s| s.parse().expect("systolic sizes are numbers"))
        .collect();

    let kernels: Vec<Context> = KERNELS
        .iter()
        .map(|def| compile_kernel(def, n, 1).expect("kernel compiles").1)
        .collect();
    let arrays: Vec<Context> = sizes
        .iter()
        .map(|&size| generate(&SystolicConfig::square(size)))
        .collect();
    report(
        &format!("{} kernels n={n}", kernels.len()),
        alias,
        &kernels,
        runs,
    );
    report(&format!("systolic {sizes:?}"), alias, &arrays, runs);
}
