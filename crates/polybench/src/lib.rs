//! The PolyBench linear-algebra suite for the Calyx evaluation (paper §7.2).
//!
//! All 19 kernels from PolyBench's linear-algebra category, written in the
//! Dahlia dialect ([`kernels`]) with bit-exact Rust reference semantics
//! ([`mod@reference`] helpers + per-kernel functions here). Ten kernels also
//! provide *unrolled* variants with banked memories (the paper reports
//! eleven; see `kernels` docs for the gap).
//!
//! The [`simulate`] harness compiles a kernel through the Dahlia→Calyx
//! pipeline, lowers it with a pipeline named by pass registry names, runs
//! the cycle-accurate simulator with deterministic input data, and checks every
//! output memory against the reference — this is the correctness backbone
//! of the whole repository.

pub mod kernels;
pub mod reference;

use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::Context;
use calyx_core::passes::PassManager;
use calyx_dahlia::ast::Program;
use calyx_dahlia::backend::{join_banks, memory_banks, split_banks};
use calyx_sim::rtl::Simulator;
use reference::*;
use std::collections::BTreeMap;

/// A kernel in the registry.
#[derive(Clone, Copy)]
pub struct KernelDef {
    /// Canonical PolyBench name.
    pub name: &'static str,
    /// The abbreviation used on the paper's figure axes.
    pub abbrev: &'static str,
    /// Whether an unrolled variant exists.
    pub unrollable: bool,
    /// Dahlia source generator.
    pub source: fn(n: u64, unroll: u64) -> String,
    /// Reference semantics over logical arrays.
    pub reference: fn(n: usize, mems: &mut BTreeMap<String, Vec<u64>>),
    /// Logical arrays whose final contents are checked.
    pub outputs: &'static [&'static str],
}

impl std::fmt::Debug for KernelDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelDef")
            .field("name", &self.name)
            .finish()
    }
}

/// Map a physical memory name to its logical array (input copies like `a2`
/// carry the same data as `a`).
pub fn logical_of(physical: &str) -> String {
    match physical {
        "a2" | "a1" => "a".to_string(),
        "b2" => "b".to_string(),
        "f2" => "f".to_string(),
        "xain" => "xa".to_string(),
        other => other.to_string(),
    }
}

/// The 19-kernel registry, in the paper's figure order.
pub const KERNELS: &[KernelDef] = &[
    KernelDef {
        name: "2mm",
        abbrev: "2mm",
        unrollable: true,
        source: kernels::two_mm,
        reference: ref_2mm,
        outputs: &["tmp", "d"],
    },
    KernelDef {
        name: "3mm",
        abbrev: "3mm",
        unrollable: true,
        source: kernels::three_mm,
        reference: ref_3mm,
        outputs: &["e", "f", "g"],
    },
    KernelDef {
        name: "atax",
        abbrev: "ata",
        unrollable: true,
        source: kernels::atax,
        reference: ref_atax,
        outputs: &["tmp", "y"],
    },
    KernelDef {
        name: "doitgen",
        abbrev: "dtg",
        unrollable: true,
        source: kernels::doitgen,
        reference: ref_doitgen,
        outputs: &["xa"],
    },
    KernelDef {
        name: "gemm",
        abbrev: "gmm",
        unrollable: true,
        source: kernels::gemm,
        reference: ref_gemm,
        outputs: &["c"],
    },
    KernelDef {
        name: "gemver",
        abbrev: "gmv",
        unrollable: false,
        source: kernels::gemver,
        reference: ref_gemver,
        outputs: &["a", "x", "w"],
    },
    KernelDef {
        name: "gesummv",
        abbrev: "gev",
        unrollable: true,
        source: kernels::gesummv,
        reference: ref_gesummv,
        outputs: &["y"],
    },
    KernelDef {
        name: "gramschmidt",
        abbrev: "gmt",
        unrollable: false,
        source: kernels::gramschmidt,
        reference: ref_gramschmidt,
        outputs: &["a", "q", "r"],
    },
    KernelDef {
        name: "mvt",
        abbrev: "mvt",
        unrollable: true,
        source: kernels::mvt,
        reference: ref_mvt,
        outputs: &["x1", "x2"],
    },
    KernelDef {
        name: "syr2k",
        abbrev: "s2k",
        unrollable: true,
        source: kernels::syr2k,
        reference: ref_syr2k,
        outputs: &["c"],
    },
    KernelDef {
        name: "syrk",
        abbrev: "sk",
        unrollable: true,
        source: kernels::syrk,
        reference: ref_syrk,
        outputs: &["c"],
    },
    KernelDef {
        name: "bicg",
        abbrev: "bcg",
        unrollable: true,
        source: kernels::bicg,
        reference: ref_bicg,
        outputs: &["s", "q"],
    },
    KernelDef {
        name: "cholesky",
        abbrev: "cky",
        unrollable: false,
        source: kernels::cholesky,
        reference: ref_cholesky,
        outputs: &["a"],
    },
    KernelDef {
        name: "durbin",
        abbrev: "dbn",
        unrollable: false,
        source: kernels::durbin,
        reference: ref_durbin,
        outputs: &["y"],
    },
    KernelDef {
        name: "lu",
        abbrev: "lu",
        unrollable: false,
        source: kernels::lu,
        reference: ref_lu,
        outputs: &["a"],
    },
    KernelDef {
        name: "ludcmp",
        abbrev: "lcp",
        unrollable: false,
        source: kernels::ludcmp,
        reference: ref_ludcmp,
        outputs: &["a", "y", "x"],
    },
    KernelDef {
        name: "symm",
        abbrev: "sym",
        unrollable: false,
        source: kernels::symm,
        reference: ref_symm,
        outputs: &["c"],
    },
    KernelDef {
        name: "trisolv",
        abbrev: "tsv",
        unrollable: false,
        source: kernels::trisolv,
        reference: ref_trisolv,
        outputs: &["x"],
    },
    KernelDef {
        name: "trmm",
        abbrev: "trm",
        unrollable: false,
        source: kernels::trmm,
        reference: ref_trmm,
        outputs: &["b"],
    },
];

/// Look up a kernel by name or abbreviation.
pub fn kernel(name: &str) -> Option<&'static KernelDef> {
    KERNELS.iter().find(|k| k.name == name || k.abbrev == name)
}

/// Deterministic input data for a logical array (seeded by kernel and array
/// name; small values keep divisors non-zero in the common case).
pub fn input_data(kernel: &str, logical: &str, len: usize) -> Vec<u64> {
    let mut seed: u64 = 0x9e37_79b9_7f4a_7c15;
    for b in kernel.bytes().chain(logical.bytes()) {
        seed = seed
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(u64::from(b));
    }
    (0..len)
        .map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % 6 + 1
        })
        .collect()
}

/// Result of a verified simulation run.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Simulated cycles (go to done).
    pub cycles: u64,
    /// The lowered Calyx program (for area estimation / emission).
    pub lowered: Context,
    /// The lowered Dahlia AST (for the HLS baseline model).
    pub ast: Program,
}

/// The memory image a compiled kernel runs on: each physical bank's name
/// and its share of [`input_data`] for the bank's logical array, in
/// declaration order. [`simulate`] loads it; so does every harness that
/// runs a kernel on its real inputs.
pub fn memory_image(def: &KernelDef, ast: &Program) -> Vec<(String, Vec<u64>)> {
    let mut image = Vec::new();
    for decl in &ast.decls {
        let lname = logical_of(decl.name.as_str());
        let data = input_data(def.name, &lname, decl.size() as usize);
        let banks = memory_banks(decl).into_iter().map(|(bank, _)| bank);
        image.extend(banks.zip(split_banks(decl, &data)));
    }
    image
}

/// Compile a kernel to Calyx (unlowered) plus its lowered Dahlia AST.
///
/// # Errors
///
/// Propagates Dahlia front-end errors.
pub fn compile_kernel(def: &KernelDef, n: u64, unroll: u64) -> CalyxResult<(Program, Context)> {
    let src = (def.source)(n, unroll);
    calyx_dahlia::compile_with_ast(&src)
}

/// Compile, lower with `pipeline` (pass names and aliases, as `futil -p`
/// takes them: `["lower"]`, `["opt"]`, an ablation from
/// [`opt_without`](calyx_core::passes::opt_without)), simulate with
/// deterministic inputs, and verify every output memory against the
/// reference semantics.
///
/// # Errors
///
/// Returns unknown pass names, compilation/simulation errors, or
/// [`Error::Malformed`] when an output memory diverges from the reference
/// (a compiler bug).
pub fn simulate(def: &KernelDef, n: u64, unroll: u64, pipeline: &[&str]) -> CalyxResult<KernelRun> {
    let (ast, mut ctx) = compile_kernel(def, n, unroll)?;
    PassManager::from_names(pipeline)?.run(&mut ctx)?;

    let mut sim =
        Simulator::new(&ctx, "main").map_err(|e| Error::malformed(format!("{}: {e}", def.name)))?;

    for (bank, data) in memory_image(def, &ast) {
        sim.set_memory(&bank, &data)
            .map_err(|e| Error::malformed(format!("{}: {e}", def.name)))?;
    }

    let stats = sim
        .run(100_000_000)
        .map_err(|e| Error::malformed(format!("{}: {e}", def.name)))?;

    // Reference execution on the logical arrays, which hold the data
    // the image split into banks.
    let mut expected = BTreeMap::new();
    for decl in &ast.decls {
        let lname = logical_of(decl.name.as_str());
        let data = input_data(def.name, &lname, decl.size() as usize);
        expected.entry(lname).or_insert(data);
    }
    (def.reference)(n as usize, &mut expected);

    // Verify outputs (reading back from the physical memory named after the
    // logical array).
    for &out in def.outputs {
        let decl = ast
            .decls
            .iter()
            .find(|d| d.name.as_str() == out)
            .ok_or_else(|| Error::malformed(format!("{}: no physical memory `{out}`", def.name)))?;
        let banks: Vec<Vec<u64>> = memory_banks(decl)
            .iter()
            .map(|(name, _)| {
                sim.memory(name)
                    .map_err(|e| Error::malformed(format!("{}: {e}", def.name)))
            })
            .collect::<CalyxResult<_>>()?;
        let got = join_banks(decl, &banks);
        let want = &expected[out];
        if got != *want {
            return Err(Error::malformed(format!(
                "{} (n={n}, unroll={unroll}): output `{out}` diverges\n  got  {got:?}\n  want {want:?}",
                def.name
            )));
        }
    }

    Ok(KernelRun {
        cycles: stats.cycles,
        lowered: ctx,
        ast,
    })
}

// ---------------------------------------------------------------------------
// Reference implementations (mirror the Dahlia sources statement-for-
// statement; see `reference` for the arithmetic conventions).
// ---------------------------------------------------------------------------

fn get2(m: &BTreeMap<String, Vec<u64>>, k: &str) -> Vec<u64> {
    m[k].clone()
}

fn ref_gemm(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let b = get2(m, "b");
    let c = m.get_mut("c").expect("c");
    for i in 0..n {
        for j in 0..n {
            c[ix(n, i, j)] = mul(c[ix(n, i, j)], 3);
            for k in 0..n {
                let t = mul(a[ix(n, i, k)], b[ix(n, k, j)]);
                c[ix(n, i, j)] = add(c[ix(n, i, j)], t);
            }
        }
    }
}

fn ref_2mm(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let b = get2(m, "b");
    let c = get2(m, "c");
    let tmp = m.get_mut("tmp").expect("tmp");
    for i in 0..n {
        for j in 0..n {
            tmp[ix(n, i, j)] = 0;
            for k in 0..n {
                tmp[ix(n, i, j)] = add(tmp[ix(n, i, j)], mul(a[ix(n, i, k)], b[ix(n, k, j)]));
            }
        }
    }
    let tmp = get2(m, "tmp");
    let d = m.get_mut("d").expect("d");
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                d[ix(n, i, j)] = add(d[ix(n, i, j)], mul(tmp[ix(n, i, k)], c[ix(n, k, j)]));
            }
        }
    }
}

fn ref_3mm(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let b = get2(m, "b");
    let c = get2(m, "c");
    let d = get2(m, "d");
    {
        let e = m.get_mut("e").expect("e");
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    e[ix(n, i, j)] = add(e[ix(n, i, j)], mul(a[ix(n, i, k)], b[ix(n, k, j)]));
                }
            }
        }
    }
    {
        let f = m.get_mut("f").expect("f");
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    f[ix(n, i, j)] = add(f[ix(n, i, j)], mul(c[ix(n, i, k)], d[ix(n, k, j)]));
                }
            }
        }
    }
    let e = get2(m, "e");
    let f = get2(m, "f");
    let g = m.get_mut("g").expect("g");
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                g[ix(n, i, j)] = add(g[ix(n, i, j)], mul(e[ix(n, i, k)], f[ix(n, k, j)]));
            }
        }
    }
}

fn ref_atax(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let x = get2(m, "x");
    {
        let tmp = m.get_mut("tmp").expect("tmp");
        for i in 0..n {
            tmp[i] = 0;
            for j in 0..n {
                tmp[i] = add(tmp[i], mul(a[ix(n, i, j)], x[j]));
            }
        }
    }
    let tmp = get2(m, "tmp");
    let y = m.get_mut("y").expect("y");
    for i in 0..n {
        for j in 0..n {
            y[j] = add(y[j], mul(a[ix(n, i, j)], tmp[i]));
        }
    }
}

fn ref_bicg(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let r = get2(m, "r");
    let p = get2(m, "p");
    {
        let s = m.get_mut("s").expect("s");
        for i in 0..n {
            for j in 0..n {
                s[j] = add(s[j], mul(r[i], a[ix(n, i, j)]));
            }
        }
    }
    let q = m.get_mut("q").expect("q");
    for i in 0..n {
        q[i] = 0;
        for j in 0..n {
            q[i] = add(q[i], mul(a[ix(n, i, j)], p[j]));
        }
    }
}

fn ref_doitgen(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let c4 = get2(m, "c4");
    let xa = m.get_mut("xa").expect("xa");
    let mut sum = vec![0u64; n];
    let ix3 = |r: usize, q: usize, p: usize| (r * n + q) * n + p;
    for r in 0..n {
        for q in 0..n {
            for p in 0..n {
                sum[p] = 0;
                for s in 0..n {
                    sum[p] = add(sum[p], mul(xa[ix3(r, q, s)], c4[ix(n, s, p)]));
                }
            }
            for p in 0..n {
                xa[ix3(r, q, p)] = sum[p];
            }
        }
    }
    m.insert("sum".to_string(), sum);
}

fn ref_mvt(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let y1 = get2(m, "y1");
    let y2 = get2(m, "y2");
    {
        let x1 = m.get_mut("x1").expect("x1");
        for i in 0..n {
            for j in 0..n {
                x1[i] = add(x1[i], mul(a[ix(n, i, j)], y1[j]));
            }
        }
    }
    let x2 = m.get_mut("x2").expect("x2");
    for i in 0..n {
        for j in 0..n {
            x2[i] = add(x2[i], mul(a[ix(n, j, i)], y2[j]));
        }
    }
}

fn ref_gemver(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let u1 = get2(m, "u1");
    let v1 = get2(m, "v1");
    let u2 = get2(m, "u2");
    let v2 = get2(m, "v2");
    let y = get2(m, "y");
    let z = get2(m, "z");
    {
        let a = m.get_mut("a").expect("a");
        for i in 0..n {
            for j in 0..n {
                let t1 = mul(u1[i], v1[j]);
                let t2 = mul(u2[i], v2[j]);
                a[ix(n, i, j)] = add(add(a[ix(n, i, j)], t1), t2);
            }
        }
    }
    let a = get2(m, "a");
    {
        let x = m.get_mut("x").expect("x");
        for i in 0..n {
            for j in 0..n {
                let t3 = mul(a[ix(n, j, i)], y[j]);
                x[i] = add(x[i], m32(t3 << 1));
            }
        }
        for i in 0..n {
            x[i] = add(x[i], z[i]);
        }
    }
    let x = get2(m, "x");
    let w = m.get_mut("w").expect("w");
    for i in 0..n {
        for j in 0..n {
            let t5 = mul(a[ix(n, i, j)], x[j]);
            w[i] = add(w[i], m32(t5 << 1));
        }
    }
}

fn ref_gesummv(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let b = get2(m, "b");
    let x = get2(m, "x");
    let mut tmp = vec![0u64; n];
    let y = m.get_mut("y").expect("y");
    for i in 0..n {
        tmp[i] = 0;
        y[i] = 0;
        for j in 0..n {
            tmp[i] = add(tmp[i], mul(a[ix(n, i, j)], x[j]));
            y[i] = add(y[i], mul(b[ix(n, i, j)], x[j]));
        }
        y[i] = add(m32(tmp[i] << 1), add(m32(y[i] << 1), y[i]));
    }
    m.insert("tmp".to_string(), tmp);
}

fn ref_symm(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let b = get2(m, "b");
    let c = m.get_mut("c").expect("c");
    for i in 0..n {
        for j in 0..n {
            let mut t2v: u64 = 0;
            let bij = b[ix(n, i, j)];
            for k in 0..n {
                if k < i {
                    c[ix(n, k, j)] = add(c[ix(n, k, j)], mul(bij, a[ix(n, i, k)]));
                    t2v = add(t2v, mul(b[ix(n, k, j)], a[ix(n, i, k)]));
                }
            }
            let paa = mul(bij, a[ix(n, i, i)]);
            c[ix(n, i, j)] = add(c[ix(n, i, j)], add(paa, t2v));
        }
    }
}

fn ref_syrk(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let c = m.get_mut("c").expect("c");
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                c[ix(n, i, j)] = add(c[ix(n, i, j)], mul(a[ix(n, i, k)], a[ix(n, j, k)]));
            }
        }
    }
}

fn ref_syr2k(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let b = get2(m, "b");
    let c = m.get_mut("c").expect("c");
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let t1 = mul(a[ix(n, i, k)], b[ix(n, j, k)]);
                let t2 = mul(b[ix(n, i, k)], a[ix(n, j, k)]);
                c[ix(n, i, j)] = add(c[ix(n, i, j)], add(t1, t2));
            }
        }
    }
}

fn ref_trmm(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = get2(m, "a");
    let b = m.get_mut("b").expect("b");
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                if k > i {
                    let t = mul(a[ix(n, k, i)], b[ix(n, k, j)]);
                    b[ix(n, i, j)] = add(b[ix(n, i, j)], t);
                }
            }
        }
    }
}

fn ref_trisolv(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let l = get2(m, "l");
    let b = get2(m, "b");
    let x = m.get_mut("x").expect("x");
    for i in 0..n {
        let mut acc = b[i];
        for j in 0..n {
            if j < i {
                acc = sub(acc, mul(l[ix(n, i, j)], x[j]));
            }
        }
        x[i] = div(acc, l[ix(n, i, i)]);
    }
}

fn ref_cholesky(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = m.get_mut("a").expect("a");
    for i in 0..n {
        for j in 0..n {
            if j <= i {
                let mut acc = a[ix(n, i, j)];
                for k in 0..n {
                    if k < j {
                        acc = sub(acc, mul(a[ix(n, i, k)], a[ix(n, j, k)]));
                    }
                }
                if j == i {
                    a[ix(n, i, j)] = sqrt(acc);
                } else {
                    a[ix(n, i, j)] = div(acc, a[ix(n, j, j)]);
                }
            }
        }
    }
}

fn ref_lu(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let a = m.get_mut("a").expect("a");
    lu_in_place(n, a);
}

fn lu_in_place(n: usize, a: &mut [u64]) {
    for i in 0..n {
        for j in 0..n {
            if j < i {
                let mut acc = a[ix(n, i, j)];
                for k in 0..n {
                    if k < j {
                        acc = sub(acc, mul(a[ix(n, i, k)], a[ix(n, k, j)]));
                    }
                }
                a[ix(n, i, j)] = div(acc, a[ix(n, j, j)]);
            }
        }
        for j in 0..n {
            if j >= i {
                let mut acc = a[ix(n, i, j)];
                for k in 0..n {
                    if k < i {
                        acc = sub(acc, mul(a[ix(n, i, k)], a[ix(n, k, j)]));
                    }
                }
                a[ix(n, i, j)] = acc;
            }
        }
    }
}

fn ref_ludcmp(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    {
        let a = m.get_mut("a").expect("a");
        lu_in_place(n, a);
    }
    let a = get2(m, "a");
    let b = get2(m, "b");
    {
        let y = m.get_mut("y").expect("y");
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..n {
                if j < i {
                    acc = sub(acc, mul(a[ix(n, i, j)], y[j]));
                }
            }
            y[i] = acc;
        }
    }
    let y = get2(m, "y");
    let x = m.get_mut("x").expect("x");
    for ii in 0..n {
        let i = n - 1 - ii;
        let mut acc = y[i];
        for j in 0..n {
            if j > i {
                acc = sub(acc, mul(a[ix(n, i, j)], x[j]));
            }
        }
        x[i] = div(acc, a[ix(n, i, i)]);
    }
}

fn ref_durbin(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let r = get2(m, "r");
    let mut z = get2(m, "z");
    let y = m.get_mut("y").expect("y");
    let mut alpha = sub(0, r[0]);
    let mut beta: u64 = 1;
    y[0] = sub(0, r[0]);
    for k in 1..n {
        let aa = mul(alpha, alpha);
        let onema = sub(1, aa);
        beta = mul(onema, beta);
        let mut sum: u64 = 0;
        for i in 0..n {
            if i < k {
                sum = add(sum, mul(r[k - i - 1], y[i]));
            }
        }
        let num = sub(0, add(r[k], sum));
        alpha = div(num, beta);
        for i in 0..n {
            if i < k {
                z[i] = add(y[i], mul(alpha, y[k - i - 1]));
            }
        }
        for i in 0..n {
            if i < k {
                y[i] = z[i];
            }
        }
        y[k] = alpha;
    }
    m.insert("z".to_string(), z);
}

fn ref_gramschmidt(n: usize, m: &mut BTreeMap<String, Vec<u64>>) {
    let mut a = get2(m, "a");
    let mut q = get2(m, "q");
    let mut r = get2(m, "r");
    for k in 0..n {
        let mut nrm: u64 = 0;
        for i in 0..n {
            let av = a[ix(n, i, k)];
            nrm = add(nrm, mul(av, av));
        }
        let rkk = sqrt(nrm);
        r[ix(n, k, k)] = rkk;
        for i in 0..n {
            q[ix(n, i, k)] = div(a[ix(n, i, k)], rkk);
        }
        for j in 0..n {
            if j > k {
                let mut rsum: u64 = 0;
                for i in 0..n {
                    rsum = add(rsum, mul(q[ix(n, i, k)], a[ix(n, i, j)]));
                }
                r[ix(n, k, j)] = rsum;
                for i in 0..n {
                    a[ix(n, i, j)] = sub(a[ix(n, i, j)], mul(q[ix(n, i, k)], rsum));
                }
            }
        }
    }
    m.insert("a".to_string(), a);
    m.insert("q".to_string(), q);
    m.insert("r".to_string(), r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_nineteen_kernels() {
        assert_eq!(KERNELS.len(), 19);
        let unrollable = KERNELS.iter().filter(|k| k.unrollable).count();
        assert_eq!(unrollable, 10);
    }

    #[test]
    fn input_data_is_deterministic_and_nonzero() {
        let a = input_data("gemm", "a", 64);
        let b = input_data("gemm", "a", 64);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (1..=6).contains(&v)));
        assert_ne!(a, input_data("gemm", "b", 64));
    }

    #[test]
    fn all_sources_parse_and_check() {
        for k in KERNELS {
            let src = (k.source)(4, 1);
            let p = calyx_dahlia::parse(&src).unwrap_or_else(|e| panic!("{}: {e}\n{src}", k.name));
            calyx_dahlia::check::check(&p).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn unrolled_sources_parse_and_check() {
        for k in KERNELS.iter().filter(|k| k.unrollable) {
            let src = (k.source)(4, 2);
            let p = calyx_dahlia::parse(&src).unwrap_or_else(|e| panic!("{}: {e}\n{src}", k.name));
            calyx_dahlia::check::check(&p).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn gemm_simulates_correctly() {
        simulate(kernel("gemm").unwrap(), 4, 1, &["lower"]).unwrap();
    }

    #[test]
    fn trisolv_simulates_correctly_with_division() {
        simulate(kernel("trisolv").unwrap(), 4, 1, &["lower"]).unwrap();
    }

    #[test]
    fn cholesky_simulates_correctly_with_sqrt() {
        simulate(kernel("cholesky").unwrap(), 4, 1, &["opt"]).unwrap();
    }

    #[test]
    fn unrolled_gemm_matches_reference() {
        simulate(kernel("gemm").unwrap(), 4, 2, &["lower"]).unwrap();
    }
}
