//! Reference semantics for the PolyBench kernels.
//!
//! Pure-Rust implementations operating on flat row-major `u64` arrays with
//! 32-bit wrapping integer arithmetic — exactly the semantics of the
//! simulator's primitives (including the division-by-zero and integer
//! square-root conventions), so a compiled kernel's final memory state must
//! match these functions bit-for-bit.

/// 32-bit mask.
pub fn m32(x: u64) -> u64 {
    x & 0xffff_ffff
}

/// Wrapping 32-bit addition.
pub fn add(a: u64, b: u64) -> u64 {
    m32(a.wrapping_add(b))
}

/// Wrapping 32-bit subtraction.
pub fn sub(a: u64, b: u64) -> u64 {
    m32(a.wrapping_sub(b))
}

/// Wrapping 32-bit multiplication.
pub fn mul(a: u64, b: u64) -> u64 {
    m32(a.wrapping_mul(b))
}

/// Division matching `std_div_pipe`: division by zero yields all-ones.
pub fn div(a: u64, b: u64) -> u64 {
    a.checked_div(b).map_or(0xffff_ffff, m32)
}

/// Remainder matching `std_div_pipe`: modulo zero yields the dividend.
pub fn rem(a: u64, b: u64) -> u64 {
    a.checked_rem(b).map_or(a, m32)
}

/// Integer square root matching `std_sqrt`.
pub fn sqrt(v: u64) -> u64 {
    local_isqrt(v)
}

// A local copy of `calyx_core::prim::isqrt`: the reference must not call
// the code it checks. `sqrt_agrees_with_the_simulator` holds the two equal.
fn local_isqrt(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let mut x = (v as f64).sqrt() as u64;
    while x.saturating_mul(x) > v {
        x -= 1;
    }
    while (x + 1).saturating_mul(x + 1) <= v {
        x += 1;
    }
    x
}

/// Row-major index helper for 2-D arrays.
pub fn ix(n: usize, i: usize, j: usize) -> usize {
    i * n + j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_behaviour() {
        assert_eq!(add(0xffff_ffff, 1), 0);
        assert_eq!(sub(0, 1), 0xffff_ffff);
        assert_eq!(mul(0x10000, 0x10000), 0);
    }

    #[test]
    fn division_conventions() {
        assert_eq!(div(10, 3), 3);
        assert_eq!(div(10, 0), 0xffff_ffff);
        assert_eq!(rem(10, 3), 1);
        assert_eq!(rem(10, 0), 10);
    }

    #[test]
    fn isqrt_matches_floor() {
        for v in [0u64, 1, 2, 3, 4, 15, 16, 17, 143, 144, 145] {
            let r = sqrt(v);
            assert!(r * r <= v && (r + 1) * (r + 1) > v);
        }
    }

    /// Every 16-bit input, then both sides of each square at the powers of
    /// two and one below them, up to `(2^32 - 1)^2 + 1`.
    #[test]
    fn sqrt_agrees_with_the_simulator() {
        let squares = (1..=32).flat_map(|j| {
            [(1u64 << j) - 1, 1u64 << j]
                .into_iter()
                .filter(|&k| k <= u64::from(u32::MAX))
                .flat_map(|k| [k * k - 1, k * k, k * k + 1])
        });
        for v in (0..1u64 << 16).chain(squares) {
            assert_eq!(sqrt(v), calyx_core::prim::isqrt(v), "sqrt({v})");
        }
    }
}
