//! Regression tests for the dynamic/static scheduling boundary.
//!
//! A static island asserts `done` combinationally in the very cycle its
//! final writes commit (§4.4's contract). The registered `done` pulses of
//! those writes (`mem.done`, `reg.done`) therefore land in the cycle
//! *after* the island completes — which is exactly when a dynamic parent
//! that advanced on the island's raw done would enable the next sibling.
//! A sibling whose own done comes from the same source then consumes the
//! stale pulse as its completion and is skipped without ever running.
//!
//! These tests pin the fix (CompileControl's `sd_*` completion savers)
//! end-to-end: minimized from a failing case of the
//! `optimizations_preserve_semantics` differential test, they fail with
//! the drained memory slot reading 0 if the saver logic regresses.

use calyx::core::ir::parse_context;
use calyx::core::passes::PassManager;
use calyx::sim::rtl::Simulator;

fn run(src: &str) -> Vec<u64> {
    let mut ctx = parse_context(src).expect("parses");
    let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
    pipeline.run(&mut ctx).expect("lowers");
    let mut sim = Simulator::new(&ctx, "main").expect("elaborates");
    sim.run(10_000).expect("terminates");
    sim.memory("mem").expect("memory readable")
}

/// seq { static island writing mem; dynamic group writing mem } — the
/// dynamic group's write must not be skipped.
#[test]
fn dynamic_seq_sibling_after_static_island_runs() {
    let mem = run(r#"component main() -> () {
      cells { @external mem = std_mem_d1(8, 2, 1); }
      wires {
        group island<"static"=1> {
          mem.addr0 = 1'd0; mem.write_data = 8'd7; mem.write_en = 1'd1;
          island[done] = 1'd1;
        }
        group wr {
          mem.addr0 = 1'd1; mem.write_data = 8'd42; mem.write_en = 1'd1;
          wr[done] = mem.done;
        }
      }
      control { seq { island; wr; } }
    }"#);
    assert_eq!(mem, vec![7, 42]);
}

/// The same hazard through a dynamic `if` whose taken branch is a static
/// island: the if completes in the island's commit cycle, and the next
/// seq sibling must still run.
#[test]
fn dynamic_sibling_after_if_with_static_branch_runs() {
    let mem = run(r#"component main() -> () {
      cells { @external mem = std_mem_d1(8, 2, 1); r = std_reg(8); lt = std_lt(8); }
      wires {
        group cond { lt.left = r.out; lt.right = 8'd140; cond[done] = 1'd1; }
        group island<"static"=1> {
          mem.addr0 = 1'd0; mem.write_data = 8'd7; mem.write_en = 1'd1;
          island[done] = 1'd1;
        }
        group other { r.in = 8'd1; r.write_en = 1'd1; other[done] = r.done; }
        group wr {
          mem.addr0 = 1'd1; mem.write_data = 8'd42; mem.write_en = 1'd1;
          wr[done] = mem.done;
        }
      }
      control { seq { if lt.out with cond { island; } else { other; } wr; } }
    }"#);
    assert_eq!(mem, vec![7, 42]);
}
