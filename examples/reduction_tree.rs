//! The paper's running example (§2): a parallel reduction tree computing
//! `(m1 + m2) + (m3 + m4)`, with the resource-sharing optimization from
//! §2.2 applied automatically by the compiler.
//!
//! The schedule runs the first layer's adders in parallel, then the second
//! layer; since `add0`/`add1` never execute at the same time as `add2`,
//! resource sharing maps the second layer onto a first-layer adder —
//! exactly the Figure 1c transformation.
//!
//! ```sh
//! cargo run --example reduction_tree
//! ```

use calyx::core::ir::{parse_context, Id, Printer};
use calyx::core::passes::{self, Pass, PassManager};
use calyx::sim::rtl::Simulator;

const TREE: &str = r#"
component main() -> () {
  cells {
    @external m1 = std_mem_d1(32, 1, 1);
    @external m2 = std_mem_d1(32, 1, 1);
    @external m3 = std_mem_d1(32, 1, 1);
    @external m4 = std_mem_d1(32, 1, 1);
    a0 = std_add(32);
    a1 = std_add(32);
    a2 = std_add(32);
    r0 = std_reg(32);
    r1 = std_reg(32);
    r2 = std_reg(32);
  }
  wires {
    group add0 {
      m1.addr0 = 1'd0;
      m2.addr0 = 1'd0;
      a0.left = m1.read_data;
      a0.right = m2.read_data;
      r0.in = a0.out;
      r0.write_en = 1'd1;
      add0[done] = r0.done;
    }
    group add1 {
      m3.addr0 = 1'd0;
      m4.addr0 = 1'd0;
      a1.left = m3.read_data;
      a1.right = m4.read_data;
      r1.in = a1.out;
      r1.write_en = 1'd1;
      add1[done] = r1.done;
    }
    group add2 {
      a2.left = r0.out;
      a2.right = r1.out;
      r2.in = a2.out;
      r2.write_en = 1'd1;
      add2[done] = r2.done;
    }
  }
  control {
    seq {
      par { add0; add1; }
      add2;
    }
  }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ctx = parse_context(TREE)?;

    // §2.2: resource sharing discovers that add2 never runs in parallel
    // with the first layer and rewires it onto a shared adder.
    passes::ResourceSharing.run(&mut ctx)?;
    passes::DeadCellRemoval.run(&mut ctx)?;
    let main = ctx.component("main").expect("main exists");
    let adders = main
        .cells
        .iter()
        .filter(|c| c.is_primitive("std_add"))
        .count();
    println!("adders after resource sharing: {adders} (was 3)");
    assert_eq!(adders, 2, "the second layer shares a first-layer adder");
    println!(
        "rewritten add2:\n{}",
        Printer::print_group(
            main.groups.get(Id::new("add2")).expect("add2 exists"),
            &main.guards
        )
    );

    // Lower and simulate: the optimized tree still sums correctly.
    PassManager::from_names(&["lower"])?.run(&mut ctx)?;
    let mut sim = Simulator::new(&ctx, "main")?;
    for (mem, v) in [("m1", 3u64), ("m2", 7), ("m3", 11), ("m4", 21)] {
        sim.set_memory(&[mem], &[v])?;
    }
    let stats = sim.run(1000)?;
    let sum = sim.register_value(&["r2"])?;
    println!("(3 + 7) + (11 + 21) = {sum} in {} cycles", stats.cycles);
    assert_eq!(sum, 42);
    Ok(())
}
