//! Profiling harness for the simulation engines: run ONE engine over ONE
//! PolyBench kernel many times, with nothing else in the process, so
//! sampling profilers (`gprofng collect app`, `perf record`) see only the
//! loop under study.
//!
//! ```sh
//! cargo run --release -p calyx_bench --example sim_profile -- rtl gemver 8 50
//! ```

use calyx_core::passes;
use calyx_polybench::{compile_kernel, input_data, kernel, logical_of};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = args.first().map(String::as_str).unwrap_or("rtl");
    let kname = args.get(1).map(String::as_str).unwrap_or("gemver");
    let n: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let iters: u32 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(20);

    let def = kernel(kname).expect("known kernel");
    let (ast, mut ctx) = compile_kernel(def, n, 1).expect("kernel compiles");
    if engine == "rtl" {
        passes::lower_pipeline().run(&mut ctx).expect("lowers");
    }
    let mut image = Vec::new();
    for decl in &ast.decls {
        let lname = logical_of(decl.name.as_str());
        let data = input_data(def.name, &lname, decl.size() as usize);
        let banks = calyx_dahlia::backend::split_banks(decl, &data);
        for ((bank, _), bank_data) in calyx_dahlia::backend::memory_banks(decl).iter().zip(&banks) {
            image.push((bank.clone(), bank_data.clone()));
        }
    }

    let start = std::time::Instant::now();
    let mut cycles = 0u64;
    for _ in 0..iters {
        cycles = match engine {
            "rtl" => {
                let mut sim = calyx_sim::rtl::Simulator::new(&ctx, "main").expect("builds");
                for (name, data) in &image {
                    sim.set_memory(&[name], data).expect("memory");
                }
                sim.run(100_000_000).expect("completes").cycles
            }
            "interp" => {
                let mut interp = calyx_sim::interp::Interpreter::new(&ctx, "main").expect("builds");
                for (name, data) in &image {
                    interp.set_memory(name, data).expect("memory");
                }
                interp.run(100_000_000).expect("completes").cycles
            }
            other => panic!("unknown engine `{other}` (rtl or interp)"),
        };
    }
    let wall = start.elapsed();
    let per = wall / iters;
    let rate = cycles as f64 / per.as_secs_f64().max(1e-9);
    println!("{engine}/{kname} n={n}: {cycles} cycles, {per:?}/run, {rate:.0} cycles/sec");
}
