//! Small utilities shared across the compiler.

mod math;
mod ordered_map;
mod registry;

pub use math::bits_needed;
pub use ordered_map::{Named, OrderedMap};
pub use registry::{Entry, Registry};

/// Lower-case ASCII words separated by single dashes — the naming
/// convention [`Registry`] enforces for every CLI-facing name.
pub fn is_kebab_case(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('-')
        && !name.ends_with('-')
        && !name.contains("--")
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// `n` in decimal, spelled into `digits` without `fmt`. The text writers
/// (the Calyx printer and the Verilog emitter) write every width and
/// constant through this.
pub fn decimal(mut n: u64, digits: &mut [u8; 20]) -> &str {
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[start..]).expect("ASCII digits")
}

#[cfg(test)]
mod tests {
    use super::{decimal, is_kebab_case};

    #[test]
    fn decimal_matches_fmt() {
        for n in [0, 1, 9, 10, 99, 100, 4_294_967_296, u64::MAX] {
            assert_eq!(decimal(n, &mut [0; 20]), n.to_string());
        }
    }

    #[test]
    fn kebab_case_predicate() {
        assert!(is_kebab_case("compile-control"));
        assert!(is_kebab_case("opt"));
        assert!(!is_kebab_case(""));
        assert!(!is_kebab_case("CamelCase"));
        assert!(!is_kebab_case("snake_case"));
        assert!(!is_kebab_case("-lead"));
        assert!(!is_kebab_case("trail-"));
        assert!(!is_kebab_case("double--dash"));
    }
}
