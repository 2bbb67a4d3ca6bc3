//! Profiling harness for the three text layers: parse (Calyx text → IR),
//! print (IR → Calyx text) and emit (lowered IR → SystemVerilog), and for
//! the two hashes over that text, over the 19 PolyBench kernels and the
//! systolic arrays, many times, in one process. A sampling profiler then
//! sees only these loops, and two builds compare layer by layer without a
//! ledger run.
//!
//! ```sh
//! cargo run --release -p calyx_bench --example text_profile
//! cargo run --release -p calyx_bench --example text_profile -- 4 50 2,4,6
//! ```
//!
//! Arguments: PolyBench size `n` (default 4, the ledger's), runs (default
//! 20), systolic sizes (default `2,4,6`). Each design is the program the
//! frontend generates; `print` writes it as Calyx, `parse` reads that text
//! back, and `emit` writes the program lowered by `lower` as
//! SystemVerilog. `key` hashes the Calyx and the Verilog text with
//! `content_key`, the key of the parse and artifact caches, and `pin` with
//! `digest64`, the FNV-1a the pinned tables record. Each layer is reported
//! per sweep over a set of designs, with the bytes it reads (parse, key,
//! pin) or writes (print, emit) and the rate.

use calyx_backend::verilog::emit_to;
use calyx_core::ir::{parse_context, Context, Printer};
use calyx_core::passes::PassManager;
use calyx_polybench::{compile_kernel, KERNELS};
use calyx_service::{content_key, digest64};
use calyx_systolic::{generate, SystolicConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One design, ready for each layer.
struct Design {
    /// The generated program.
    ctx: Context,
    /// The program as Calyx text.
    text: String,
    /// The program after `lower`.
    lowered: Context,
    /// `lowered` as SystemVerilog.
    verilog: Vec<u8>,
}

impl Design {
    fn new(ctx: Context) -> Self {
        let text = Printer::print_context(&ctx);
        let mut lowered = ctx.clone();
        PassManager::from_names(&["lower"])
            .expect("`lower` is registered")
            .run(&mut lowered)
            .expect("lowers");
        let mut verilog = Vec::new();
        emit_to(&lowered, &mut verilog).expect("lowered programs emit");
        Design {
            ctx,
            text,
            lowered,
            verilog,
        }
    }
}

/// What one layer costs per sweep over a set of designs.
#[derive(Default)]
struct Layer {
    bytes: usize,
    time: Duration,
}

impl Layer {
    fn line(&self, label: &str) -> String {
        let secs = self.time.as_secs_f64();
        format!(
            "{label}: {} bytes, {:.3} ms, {:.1} MB/s",
            self.bytes,
            secs * 1e3,
            self.bytes as f64 / secs.max(1e-12) / 1e6,
        )
    }
}

/// Time `layer` over every design `runs` times; it returns the bytes it
/// read or wrote for one design.
fn measure(designs: &[Design], runs: u32, mut layer: impl FnMut(&Design) -> usize) -> Layer {
    let mut cost = Layer::default();
    let start = Instant::now();
    for _ in 0..runs {
        cost.bytes = designs.iter().map(&mut layer).sum();
    }
    cost.time = start.elapsed() / runs;
    cost
}

/// A layer that hashes a design's Calyx and Verilog text with `hash`.
fn hashed(hash: impl Fn(&[u8]) -> u64) -> impl FnMut(&Design) -> usize {
    move |d| {
        black_box(hash(black_box(d.text.as_bytes())));
        black_box(hash(black_box(&d.verilog)));
        d.text.len() + d.verilog.len()
    }
}

/// The layers, in the order [`report`] returns them.
const LAYERS: [&str; 5] = ["parse", "print", "emit", "key", "pin"];

/// Report every layer over `designs`, and return them.
fn report(set: &str, designs: &[Design], runs: u32) -> [Layer; 5] {
    let parse = measure(designs, runs, |d| {
        black_box(parse_context(&d.text).expect("printed text parses"));
        d.text.len()
    });
    let print = measure(designs, runs, |d| {
        black_box(Printer::print_context(&d.ctx)).len()
    });
    let mut sink = Vec::new();
    let emit = measure(designs, runs, |d| {
        sink.clear();
        emit_to(&d.lowered, &mut sink).expect("lowered programs emit");
        black_box(&sink).len()
    });
    let key = measure(designs, runs, hashed(|t| content_key(&[t])));
    let pin = measure(designs, runs, hashed(digest64));
    let layers = [parse, print, emit, key, pin];
    for (name, layer) in LAYERS.iter().zip(&layers) {
        println!("{}", layer.line(&format!("{set} {name}")));
    }
    layers
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let runs: u32 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
        .max(1);
    let sizes: Vec<usize> = args
        .get(2)
        .map(String::as_str)
        .unwrap_or("2,4,6")
        .split(',')
        .map(|s| s.parse().expect("systolic sizes are numbers"))
        .collect();

    let kernels: Vec<Design> = KERNELS
        .iter()
        .map(|def| Design::new(compile_kernel(def, n, 1).expect("kernel compiles").1))
        .collect();
    let arrays: Vec<Design> = sizes
        .iter()
        .map(|&size| Design::new(generate(&SystolicConfig::square(size))))
        .collect();

    let polybench = report(&format!("polybench n={n}"), &kernels, runs);
    let systolic = report(&format!("systolic {sizes:?}"), &arrays, runs);
    for (name, (a, b)) in LAYERS.iter().zip(polybench.iter().zip(&systolic)) {
        let both = Layer {
            bytes: a.bytes + b.bytes,
            time: a.time + b.time,
        };
        println!("{}", both.line(&format!("all {name}")));
    }
}
