//! The paper's figures at smoke size, pinned byte for byte.
//!
//! `figures_pinned.txt` is the stdout of `figures fig7 --quick`, `fig8
//! --quick` and `fig9 --quick`, concatenated in that order: every cycle
//! count, LUT estimate and geomean the evaluation prints, for the systolic
//! arrays under `lower`/`lower-static`, the PolyBench kernels under `opt`
//! and each Fig 9 ablation pipeline. Its output is deterministic, so a
//! moved byte is a changed pipeline, pass, simulator or area model.
//!
//! A mismatch panics with the whole recomputed output. When a change is
//! *meant* to move a figure, read the diff, then replace the pinned file
//! with the printed text.

use std::process::Command;

const PINNED: &str = include_str!("figures_pinned.txt");

#[test]
fn quick_figures_print_their_pinned_bytes() {
    let mut out = String::new();
    for fig in ["fig7", "fig8", "fig9"] {
        let run = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args([fig, "--quick"])
            .output()
            .expect("figures spawns");
        assert!(
            run.status.success(),
            "figures {fig} --quick: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        out.push_str(&String::from_utf8(run.stdout).expect("UTF-8 stdout"));
    }
    assert!(
        out == PINNED,
        "the quick figures moved\n--- recomputed output ---\n{out}--- end ---"
    );
}
