//! What the simulators leave behind on every PolyBench kernel and on the
//! systolic arrays, pinned.
//!
//! `sim_state_pinned.txt` holds one row per kernel (n=4, on the memory
//! images `calyx_polybench::memory_image` builds, which `simulate` loads)
//! and mode, then one per systolic array (2×2, 4×4, 6×6, on
//! `calyx_systolic::matmul_operands`) and mode: the cycle count,
//! `digest64` of the state report `futil -b sim` / `-b interp` prints,
//! the design and the mode. Mode `interp` is the interpreter on the
//! un-lowered program; `lower`, `lower-static` and `opt` are the RTL
//! engine after that pipeline. The kernel rows were recorded at the last
//! commit that kept the pre-flatten tree-walking engines, where a
//! differential suite held both flat engines byte-identical to them on the
//! `interp`, `lower` and `lower-static` rows, and every `opt` row was
//! checked against the tree-walking RTL engine once. So these rows are
//! what those engines computed, except that the lowered kernel rows were
//! re-recorded once, when `if`/`while` conditions that settle in their
//! cycle stopped latching into `cc`/`cs` (fewer cycles, other control
//! registers in the report); no `interp` or systolic row moved then. The
//! systolic rows were recorded when the
//! interpreter first ran component instances; their oracle is the
//! reference matrix multiply, which every run's `out` is held to before
//! its digest is taken. A change to fixpoint semantics, done-observation,
//! control sequencing, the instance handshake or a primitive model shows
//! here as a moved row.
//!
//! A mismatch panics with the whole recomputed table and the first
//! differing report in full. When a change is *meant* to move a row, read
//! that report, then replace the table file with the printed table.

use calyx_core::ir::Context;
use calyx_core::passes::PassManager;
use calyx_polybench::{compile_kernel, memory_image, KERNELS};
use calyx_service::digest64;
use calyx_sim::flatten::FlatProgram;
use calyx_sim::interp::Interp;
use calyx_sim::rtl::Rtl;
use calyx_sim::{write_state_report, Engine, Harness, SimResult};
use calyx_systolic::{generate, matmul_operands, SystolicConfig};

const TABLE: &str = include_str!("sim_state_pinned.txt");

/// `interp` runs the interpreter; every other mode is the pipeline alias
/// whose output the RTL engine runs.
const MODES: [&str; 4] = ["interp", "lower", "lower-static", "opt"];

/// Generous cycle budget: every n=4 kernel finishes orders of magnitude
/// sooner, and a hang should time out, not wedge CI.
const BUDGET: u64 = 100_000_000;

/// The state report `futil` prints for `ctx` under `mode`, run on
/// `image`, and the run's cycle count. `check` sees the final state first.
fn report(
    mut ctx: Context,
    mode: &str,
    image: &[(String, Vec<u64>)],
    check: impl Fn(&FlatProgram),
) -> SimResult<(u64, String)> {
    if mode == "interp" {
        return outcome::<Interp>(&ctx, image, check);
    }
    let mut pipeline = PassManager::from_names(&[mode]).unwrap();
    pipeline.run(&mut ctx).unwrap();
    outcome::<Rtl>(&ctx, image, check)
}

/// [`report`] on engine `E`.
fn outcome<E: Engine>(
    ctx: &Context,
    image: &[(String, Vec<u64>)],
    check: impl Fn(&FlatProgram),
) -> SimResult<(u64, String)> {
    let mut harness = Harness::<E>::new(ctx, "main")?;
    for (name, data) in image {
        harness.set_memory(name, data)?;
    }
    let stats = harness.run(BUDGET)?;
    check(harness.state());
    let mut buf = Vec::new();
    write_state_report(harness.state(), ctx.entry().unwrap(), stats, &mut buf).unwrap();
    Ok((stats.cycles, String::from_utf8(buf).unwrap()))
}

#[test]
fn every_kernel_leaves_its_pinned_state() {
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    let mut pin = |name: &str, mode: &str, outcome: SimResult<(u64, String)>| {
        let (cycles, report) = outcome.unwrap_or_else(|e| panic!("{name} {mode}: {e}"));
        let digest = digest64(report.as_bytes());
        rows.push(format!("{cycles} {digest:#018x} {name} {mode}"));
        reports.push(report);
    };
    for def in KERNELS {
        for mode in MODES {
            let (ast, ctx) = compile_kernel(def, 4, 1).unwrap();
            let image = memory_image(def, &ast);
            pin(def.name, mode, report(ctx, mode, &image, |_| {}));
        }
    }
    // The paper's own hierarchy: PE components started by `go` and
    // finished by `done`, whose result must be the matrix product before
    // a digest pins it.
    for n in [2, 4, 6] {
        let name = format!("systolic{n}x{n}");
        for mode in MODES {
            let ctx = generate(&SystolicConfig::square(n));
            let (image, expected) = matmul_operands(n);
            let check = |state: &FlatProgram| {
                let out = state.memory("out").unwrap();
                assert_eq!(out, expected, "{name} {mode}: `out` is not A·B");
            };
            pin(&name, mode, report(ctx, mode, &image, check));
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
