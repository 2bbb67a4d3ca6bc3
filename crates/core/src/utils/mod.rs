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

#[cfg(test)]
mod tests {
    use super::is_kebab_case;

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
