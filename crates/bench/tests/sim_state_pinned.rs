//! What the simulators leave behind on every PolyBench kernel, pinned.
//!
//! `sim_state_pinned.txt` holds one row per kernel (n=4, on the memory
//! images `calyx_polybench::simulate` loads) and mode: the cycle count,
//! `digest64` of the state report `futil -b sim` / `-b interp` prints,
//! the kernel and the mode. Mode `interp` is the interpreter on the
//! un-lowered program; `lower`, `lower-static` and `opt` are the RTL
//! engine after that pipeline. The table was recorded at the last commit
//! that kept the pre-flatten tree-walking engines, where a differential
//! suite held both flat engines byte-identical to them on the `interp`,
//! `lower` and `lower-static` rows, and every `opt` row was checked
//! against the tree-walking RTL engine once. So these rows are what those
//! engines computed, and a change to fixpoint semantics, done-observation,
//! control sequencing or a primitive model shows here as a moved row.
//!
//! A mismatch panics with the whole recomputed table and the first
//! differing report in full. When a change is *meant* to move a row, read
//! that report, then replace the table file with the printed table.

use calyx_core::passes::PassManager;
use calyx_dahlia::ast::Program;
use calyx_dahlia::backend::{memory_banks, split_banks};
use calyx_polybench::{compile_kernel, input_data, logical_of, KernelDef, KERNELS};
use calyx_service::digest64;
use calyx_sim::interp::Interpreter;
use calyx_sim::{write_state_report, RunStats, SimResult, Simulator, StateSource};

const TABLE: &str = include_str!("sim_state_pinned.txt");

/// `interp` runs the interpreter; every other mode is the pipeline alias
/// whose output the RTL engine runs.
const MODES: [&str; 4] = ["interp", "lower", "lower-static", "opt"];

/// Generous cycle budget: every n=4 kernel finishes orders of magnitude
/// sooner, and a hang should time out, not wedge CI.
const BUDGET: u64 = 100_000_000;

/// The deterministic physical-memory image for a compiled kernel: the
/// per-bank data `calyx_polybench::simulate` loads, so the kernels run on
/// their real inputs (non-zero divisors, live datapaths).
fn memory_image(def: &KernelDef, ast: &Program) -> Vec<(String, Vec<u64>)> {
    let mut image = Vec::new();
    for decl in &ast.decls {
        let lname = logical_of(decl.name.as_str());
        let data = input_data(def.name, &lname, decl.size() as usize);
        let banks = split_banks(decl, &data);
        for ((bank_name, _), bank_data) in memory_banks(decl).iter().zip(&banks) {
            image.push((bank_name.clone(), bank_data.clone()));
        }
    }
    image
}

/// The state report `futil` prints for `def` under `mode`, and the
/// run's cycle count.
fn report(def: &KernelDef, mode: &str) -> SimResult<(u64, String)> {
    let (ast, mut ctx) = compile_kernel(def, 4, 1).unwrap();
    let image = memory_image(def, &ast);
    let (engine, stats): (Box<dyn StateSource>, RunStats) = if mode == "interp" {
        let mut interp = Interpreter::new(&ctx, "main")?;
        for (name, data) in &image {
            interp.set_memory(name, data)?;
        }
        let stats = interp.run(BUDGET)?;
        (Box::new(interp), stats)
    } else {
        let mut pipeline = PassManager::from_names(&[mode]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        let mut sim = Simulator::new(&ctx, "main")?;
        for (name, data) in &image {
            sim.set_memory(&[name], data)?;
        }
        let stats = sim.run(BUDGET)?;
        (Box::new(sim), stats)
    };
    let mut buf = Vec::new();
    write_state_report(&*engine, ctx.entry().unwrap(), stats, &mut buf).unwrap();
    Ok((stats.cycles, String::from_utf8(buf).unwrap()))
}

#[test]
fn every_kernel_leaves_its_pinned_state() {
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for def in KERNELS {
        for mode in MODES {
            let (cycles, report) =
                report(def, mode).unwrap_or_else(|e| panic!("{} {mode}: {e}", def.name));
            let digest = digest64(report.as_bytes());
            rows.push(format!("{cycles} {digest:#018x} {} {mode}", def.name));
            reports.push(report);
        }
    }
    let pinned: Vec<&str> = TABLE.lines().collect();
    if pinned == rows {
        return;
    }
    let first = match (0..rows.len()).find(|&i| pinned.get(i) != Some(&rows[i].as_str())) {
        Some(i) => format!(
            "row {} is `{}`, pinned `{}`; its report:\n{}",
            i + 1,
            rows[i],
            pinned.get(i).unwrap_or(&""),
            reports[i]
        ),
        None => format!(
            "the pinned table has rows past the {} recomputed",
            rows.len()
        ),
    };
    let table = rows.join("\n");
    panic!("simulated state moved: {first}\n--- recomputed table ---\n{table}\n");
}
