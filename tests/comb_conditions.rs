//! Conditions that decide in the cycle they settle, and the ones that
//! must not.
//!
//! `CompileControl` lets an `if`/`while` decide on its condition port in
//! the cycle the condition settles when the condition is combinational and
//! nothing under the statement drives a port it reads or drives; every
//! other condition keeps the §4.3 `cc`/`cs` registers and decides a cycle
//! later. The programs here sit on both sides of that rule. Each is
//! lowered under `lower`, `lower-static` and `opt`, run on the RTL engine,
//! and must leave the interpreter's final state. A lowering that lets a
//! condition and a body drive one port in the same cycle fails here naming
//! the port: the RTL engine refuses the combinational loop through it, or
//! reports the driver conflict on it.

use calyx::core::ir::{parse_context, Context};
use calyx::core::passes::PassManager;
use calyx::sim::interp::Interp;
use calyx::sim::rtl::Rtl;
use calyx::sim::{Engine, Harness};

const PIPELINES: [&str; 3] = ["lower", "lower-static", "opt"];

/// Cycles taken and the value of each named register or memory.
fn run<E: Engine>(ctx: &Context, cells: &[&str], what: &str) -> (u64, Vec<Vec<u64>>) {
    let mut harness = Harness::<E>::new(ctx, "main").unwrap_or_else(|e| panic!("{what}: {e}"));
    let stats = harness
        .run(10_000)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let state = cells
        .iter()
        .map(|&c| match harness.register_value(c) {
            Ok(v) => vec![v],
            Err(_) => harness.memory(c).expect("a register or a memory"),
        })
        .collect();
    (stats.cycles, state)
}

fn lowered(src: &str, pipeline: &str) -> Context {
    let mut ctx = parse_context(src).expect("parses");
    PassManager::from_names(&[pipeline])
        .unwrap()
        .run(&mut ctx)
        .expect("lowers");
    ctx
}

/// Run `src` lowered under each pipeline, check each final state against
/// the interpreter's, and return the RTL cycle counts in [`PIPELINES`]
/// order.
fn agrees(src: &str, cells: &[&str]) -> [u64; 3] {
    let (_, reference) = run::<Interp>(&parse_context(src).unwrap(), cells, "interp");
    PIPELINES.map(|pipeline| {
        let (cycles, state) = run::<Rtl>(&lowered(src, pipeline), cells, pipeline);
        assert_eq!(state, reference, "{pipeline} leaves another state");
        cycles
    })
}

/// Does the lowered `main` keep the §4.3 condition registers, or only the
/// `busy` register of a `while` that decides in its condition's cycle?
fn cell_prefixes(src: &str, pipeline: &str) -> (bool, bool) {
    let ctx = lowered(src, pipeline);
    let main = ctx.component("main").unwrap();
    let has = |prefix: &str| main.cells.names().any(|n| n.as_str().starts_with(prefix));
    (has("cc"), has("busy"))
}

/// (a) The condition reads `mem[0]` while the body's first group writes
/// `mem[1]`: both drive `mem.addr0`, so the loop latches its condition.
const MEMORY_CONDITION: &str = r#"component main() -> () {
  cells {
    @external mem = std_mem_d1(8, 2, 1);
    lt = std_lt(8); a0 = std_add(8); a1 = std_add(8);
  }
  wires {
    group cond { mem.addr0 = 1'd0; lt.left = mem.read_data; lt.right = 8'd5; cond[done] = 1'd1; }
    group other {
      mem.addr0 = 1'd1; a1.left = mem.read_data; a1.right = 8'd3;
      mem.write_data = a1.out; mem.write_en = 1'd1; other[done] = mem.done;
    }
    group step {
      mem.addr0 = 1'd0; a0.left = mem.read_data; a0.right = 8'd1;
      mem.write_data = a0.out; mem.write_en = 1'd1; step[done] = mem.done;
    }
  }
  control { while lt.out with cond { seq { other; step; } } }
}"#;

#[test]
fn a_condition_on_a_memory_the_body_addresses_falls_back() {
    agrees(MEMORY_CONDITION, &["mem"]);
    for pipeline in PIPELINES {
        assert_eq!(
            cell_prefixes(MEMORY_CONDITION, pipeline),
            (true, false),
            "{pipeline}"
        );
    }
}

/// (b) An `if` opens the loop body: the loop's and the `if`'s conditions
/// decide in the same cycle, and the taken branch starts in it.
#[test]
fn an_if_opening_a_loop_body_decides_with_the_loop() {
    let src = r#"component main() -> () {
      cells {
        i = std_reg(4); x = std_reg(8); y = std_reg(8);
        lt = std_lt(4); small = std_lt(4);
        inc = std_add(4); ax = std_add(8); ay = std_add(8);
      }
      wires {
        group wcond { lt.left = i.out; lt.right = 4'd5; wcond[done] = 1'd1; }
        group icond { small.left = i.out; small.right = 4'd2; icond[done] = 1'd1; }
        group tx { ax.left = x.out; ax.right = 8'd1; x.in = ax.out; x.write_en = 1'd1; tx[done] = x.done; }
        group fy { ay.left = y.out; ay.right = 8'd10; y.in = ay.out; y.write_en = 1'd1; fy[done] = y.done; }
        group incr { inc.left = i.out; inc.right = 4'd1; i.in = inc.out; i.write_en = 1'd1; incr[done] = i.done; }
      }
      control {
        while lt.out with wcond { seq { if small.out with icond { tx; } else { fy; } incr; } }
      }
    }"#;
    agrees(src, &["i", "x", "y"]);
    assert_eq!(cell_prefixes(src, "lower"), (true, true));
}

/// (c) The condition computes `i + 2 < 8` and the body `i + 1` on adders
/// of one type: `resource-sharing` under `opt` gives both to one cell, and
/// only there does the loop fall back.
const SHARED_ADDER: &str = r#"component main() -> () {
  cells { i = std_reg(8); n = std_reg(8); lt = std_lt(8); a0 = std_add(8); a1 = std_add(8); a2 = std_add(8); }
  wires {
    group cond { a0.left = i.out; a0.right = 8'd2; lt.left = a0.out; lt.right = 8'd8; cond[done] = 1'd1; }
    group incr { a1.left = i.out; a1.right = 8'd1; i.in = a1.out; i.write_en = 1'd1; incr[done] = i.done; }
    group count { a2.left = n.out; a2.right = 8'd1; n.in = a2.out; n.write_en = 1'd1; count[done] = n.done; }
  }
  control { while lt.out with cond { seq { incr; count; } } }
}"#;

#[test]
fn a_condition_sharing_an_adder_with_its_body_falls_back_under_opt() {
    agrees(SHARED_ADDER, &["i", "n"]);
    assert_eq!(cell_prefixes(SHARED_ADDER, "lower"), (false, true));
    assert_eq!(cell_prefixes(SHARED_ADDER, "opt"), (true, false));
}

/// A loop of `n` trips over `body`; `i` counts the trips.
fn counted(n: u64, cells: &str, groups: &str, body: &str) -> String {
    format!(
        r#"component main() -> () {{
          cells {{ i = std_reg(8); lt = std_lt(8); {cells} }}
          wires {{
            group cond {{ lt.left = i.out; lt.right = 8'd{n}; cond[done] = 1'd1; }}
            {groups}
          }}
          control {{ while lt.out with cond {{ {body} }} }}
        }}"#
    )
}

/// `i += 1`, a register write finished by the register's `done` pulse.
const INCR: &str = "group incr<\"static\"=1> { inc.left = i.out; inc.right = 8'd1; \
                    i.in = inc.out; i.write_en = 1'd1; incr[done] = i.done; }";

/// RTL cycles per trip of `program` under each pipeline, measured as the
/// difference between 8 and 4 trips; each run also agrees with the
/// interpreter.
fn per_trip(program: impl Fn(u64) -> String, cells: &[&str]) -> [u64; 3] {
    let four = agrees(&program(4), cells);
    let eight = agrees(&program(8), cells);
    [0, 1, 2].map(|p| {
        let extra = eight[p] - four[p];
        assert_eq!(extra % 4, 0, "{}: {four:?} -> {eight:?}", PIPELINES[p]);
        extra / 4
    })
}

/// (d) A loop that never runs its body finishes in the cycle it is started.
#[test]
fn a_zero_trip_loop_takes_one_cycle() {
    let src = counted(0, "inc = std_add(8);", INCR, "incr;");
    assert_eq!(agrees(&src, &["i"]), [1, 1, 1]);
}

/// (d) A body of one static cycle: `static-timing` makes `par { incr;
/// count; }` one static group whose `done` rises in the cycle it writes, so
/// the loop decides and runs a trip in one cycle. Under `lower` the `par`
/// stays dynamic: its start, the `done` pulses, its savers' reset.
#[test]
fn a_static_body_of_one_cycle_takes_one_cycle_per_trip() {
    let program = |n| {
        let groups = format!(
            "{INCR} group count<\"static\"=1> {{ add.left = c.out; add.right = 8'd2; \
             c.in = add.out; c.write_en = 1'd1; count[done] = c.done; }}"
        );
        counted(
            n,
            "inc = std_add(8); add = std_add(8); c = std_reg(8);",
            &groups,
            "par { incr; count; }",
        )
    };
    assert_eq!(per_trip(program, &["i", "c"]), [3, 1, 1]);
}

/// (d) A dynamic body: its write and its `done` pulse, two cycles per trip
/// where the latched condition took three.
#[test]
fn a_dynamic_body_takes_two_cycles_per_trip() {
    let program = |n| {
        counted(
            n,
            "inc = std_add(8);",
            &INCR.replace("<\"static\"=1>", ""),
            "incr;",
        )
    };
    assert_eq!(per_trip(program, &["i"]), [2, 2, 2]);
}

/// (d) An `if` with an empty `else` whose condition is false on every trip
/// finishes in its decision cycle, which is also the loop's: a trip is
/// that cycle, `incr`'s write and `done` pulse, and the `seq`'s final
/// state.
#[test]
fn an_if_with_an_empty_else_finishes_in_its_decision_cycle() {
    let program = |n| {
        let groups = format!(
            "{INCR} group never {{ big.left = i.out; big.right = 8'd200; never[done] = 1'd1; }} \
             group t {{ x.in = 8'd1; x.write_en = 1'd1; t[done] = x.done; }}"
        );
        counted(
            n,
            "inc = std_add(8); big = std_gt(8); x = std_reg(8);",
            &groups,
            "seq { if big.out with never { t; } incr; }",
        )
    };
    assert_eq!(per_trip(program, &["i", "x"]), [4, 4, 4]);
}
