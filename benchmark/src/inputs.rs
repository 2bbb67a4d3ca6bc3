//! Seeded inputs: memory images for the simulated designs and the order
//! of designs within each sweep. The program under test only ever sees what
//! is generated here; the same seed gives the same inputs.

use calyx_dahlia::ast::MemDecl;
use calyx_dahlia::backend::{memory_banks, split_banks};
use calyx_polybench::{logical_of, KernelDef};
use calyx_systolic::{reference_matmul, SystolicConfig};
use std::collections::BTreeMap;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` name so adding a
    /// design never shifts another design's data.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in stream.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(state)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `len` values in `1..=6` — like `polybench::input_data`, small and
    /// never zero, so divisors stay non-zero and 32-bit products stay
    /// meaningful.
    pub fn words(&mut self, len: usize) -> Vec<u64> {
        (0..len).map(|_| self.below(6) + 1).collect()
    }

    /// A permutation of `0..n` (Fisher-Yates): the order of designs
    /// within one sweep.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i as u64 + 1) as usize);
        }
        order
    }
}

/// Expected final contents of one output memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Physical memories holding it, in bank order.
    pub banks: Vec<String>,
    /// The declaration, for re-joining banked contents.
    pub decl: MemDecl,
    /// Row-major contents the hand-written reference computes.
    pub want: Vec<u64>,
}

/// Memory image and expected outputs of one simulated design.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Image {
    /// `(memory cell, initial contents)`.
    pub init: Vec<(String, Vec<u64>)>,
    /// What the outputs must hold when the design is done.
    pub outputs: Vec<Output>,
}

/// Kernels that take a square root: `std_sqrt` iterates for a
/// data-dependent number of cycles. Their images are drawn from a fixed
/// seed, so that `design_cycles` is a property of the compiled design and
/// not of `--seed`.
pub const FIXED_IMAGE: &[&str] = &["cholesky", "gramschmidt"];

/// The image for a PolyBench kernel: seeded logical arrays, split over
/// the physical banks, and the kernel's hand-written Rust `reference`
/// run on the same arrays.
pub fn polybench_image(seed: u64, def: &KernelDef, n: u64, decls: &[MemDecl]) -> Image {
    let seed = if FIXED_IMAGE.contains(&def.name) {
        0
    } else {
        seed
    };
    let mut logical: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for decl in decls {
        let lname = logical_of(decl.name.as_str());
        logical.entry(lname.clone()).or_insert_with(|| {
            Rng::new(seed, &format!("{}/{lname}", def.name)).words(decl.size() as usize)
        });
    }
    let mut init = Vec::new();
    for decl in decls {
        let data = &logical[&logical_of(decl.name.as_str())];
        for ((bank, _), bank_data) in memory_banks(decl).into_iter().zip(split_banks(decl, data)) {
            init.push((bank, bank_data));
        }
    }
    let mut expected = logical;
    (def.reference)(n as usize, &mut expected);
    let outputs = def
        .outputs
        .iter()
        .map(|&out| {
            let decl = decls
                .iter()
                .find(|d| d.name.as_str() == out)
                .expect("every checked output is a declared memory")
                .clone();
            Output {
                banks: memory_banks(&decl).into_iter().map(|(b, _)| b).collect(),
                want: expected[out].clone(),
                decl,
            }
        })
        .collect();
    Image { init, outputs }
}

/// The image for an `n×n` systolic array: seeded operands and the
/// generator crate's `reference_matmul` of them.
pub fn systolic_image(seed: u64, cfg: &SystolicConfig) -> Image {
    let mut rng = Rng::new(seed, &format!("systolic/{}x{}", cfg.rows, cfg.cols));
    let a: Vec<Vec<u64>> = (0..cfg.rows).map(|_| rng.words(cfg.inner)).collect();
    let b: Vec<Vec<u64>> = (0..cfg.inner).map(|_| rng.words(cfg.cols)).collect();
    let mut init = Vec::new();
    for (r, row) in a.iter().enumerate() {
        init.push((format!("l{r}"), row.clone()));
    }
    for c in 0..cfg.cols {
        init.push((format!("t{c}"), b.iter().map(|row| row[c]).collect()));
    }
    let want = reference_matmul(&a, &b, cfg.inner, cfg.width).concat();
    let decl = MemDecl {
        name: "out".into(),
        width: cfg.width,
        dims: vec![(cfg.rows as u64, 1), (cfg.cols as u64, 1)],
    };
    Image {
        init,
        outputs: vec![Output {
            banks: vec!["out".to_string()],
            decl,
            want,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_polybench::{compile_kernel, kernel};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let def = kernel("gemm").unwrap();
        let (ast, _) = compile_kernel(def, 4, 1).unwrap();
        let a = polybench_image(7, def, 4, &ast.decls);
        assert_eq!(a, polybench_image(7, def, 4, &ast.decls));
        assert_ne!(a, polybench_image(8, def, 4, &ast.decls));
        let def = kernel("cholesky").unwrap();
        let (ast, _) = compile_kernel(def, 4, 1).unwrap();
        assert_eq!(
            polybench_image(7, def, 4, &ast.decls),
            polybench_image(8, def, 4, &ast.decls)
        );
        let cfg = SystolicConfig::square(3);
        assert_eq!(systolic_image(7, &cfg), systolic_image(7, &cfg));
        assert_ne!(systolic_image(7, &cfg), systolic_image(8, &cfg));
        let orders = |seed| {
            let mut rng = Rng::new(seed, "sweep-order");
            [rng.permutation(19), rng.permutation(19)]
        };
        assert_eq!(orders(7), orders(7));
        assert_ne!(orders(7), orders(8));
        // Every sweep draws its own order.
        assert_ne!(orders(7)[0], orders(7)[1]);
    }

    #[test]
    fn values_stay_in_one_to_six_and_orders_are_permutations() {
        let words = Rng::new(1, "w").words(1000);
        assert!(words.iter().all(|v| (1..=6).contains(v)));
        assert!((1..=6).all(|v| words.contains(&v)));
        let mut order = Rng::new(3, "sweep-order").permutation(19);
        order.sort_unstable();
        assert_eq!(order, (0..19).collect::<Vec<_>>());
    }
}
