//! [`Registry`]: the one name table under every registry in the workspace.

use super::is_kebab_case;
use crate::errors::{CalyxResult, Error};

/// What a [`Registry`] needs to know about the things it holds.
pub trait Entry: Sized {
    /// The word messages call an entry of this registry: `frontend`,
    /// `pass`, `state`, …
    const KIND: &'static str;

    /// The unique kebab-case name the entry is selected by.
    fn name(&self) -> &str;

    /// One-line description, for listings.
    fn description(&self) -> &str;

    /// File extensions (without the dot) the entry may be inferred from.
    /// At most one entry of a registry claims an extension.
    fn extensions(&self) -> Vec<&str> {
        Vec::new()
    }

    /// What a listing prints after the description and the extension
    /// claims: bracketed extras, already formatted.
    fn note(&self) -> String {
        String::new()
    }

    /// One `(name, description, note)` row per entry, in order: what a
    /// listing of `entries` prints. The note is the entry's extension
    /// claims (` [extensions: .a .b]`) followed by its [`Entry::note`].
    fn rows(entries: &[Self]) -> Vec<(&str, &str, String)> {
        let mut rows = Vec::new();
        for e in entries {
            let dotted: Vec<String> = e.extensions().iter().map(|x| format!(".{x}")).collect();
            let claims = if dotted.is_empty() {
                String::new()
            } else {
                format!(" [extensions: {}]", dotted.join(" "))
            };
            rows.push((e.name(), e.description(), claims + &e.note()));
        }
        rows
    }
}

/// Named entries in registration order: the one name table under every
/// registry in the workspace.
///
/// Frontends, backends, passes (and their aliases), lints, plan states and
/// plan ops are all *named things selected from a driver*, and they share
/// one contract:
///
/// - a name is unique and kebab-case, and a file extension is claimed by at
///   most one entry; a registration that breaks either **panics** — names
///   are compile-time constants, so a collision is a programming error, not
///   an input error;
/// - looking up an unknown name is an *input* error: [`Error::Undefined`]
///   naming the offender and listing the valid choices;
/// - entries are kept, looked up by extension and listed in registration
///   order.
///
/// The typed registries (`FrontendRegistry`, `PassRegistry`, …) wrap a
/// `Registry<E>` and add only what is particular to their kind: how an
/// entry is built from a type (`register::<T>()`), what the standard set
/// is, how a selected entry is constructed.
pub struct Registry<E> {
    entries: Vec<E>,
}

impl<E> Default for Registry<E> {
    fn default() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }
}

impl<E: Entry> Registry<E> {
    /// Add `entry` after the ones already registered and return its
    /// position.
    ///
    /// # Panics
    ///
    /// Panics when the name is not kebab-case or already taken, or when
    /// an extension is already claimed.
    pub fn insert(&mut self, entry: E) -> usize {
        let (kind, name) = (E::KIND, entry.name());
        assert!(
            is_kebab_case(name),
            "{kind} name `{name}` is not kebab-case"
        );
        assert!(
            self.find(name).is_none(),
            "{kind} name `{name}` registered twice"
        );
        for ext in entry.extensions() {
            assert!(
                self.by_extension(ext).is_none(),
                "extension `.{ext}` claimed by two {kind}s (second: `{name}`)"
            );
        }
        self.entries.push(entry);
        self.entries.len() - 1
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[E] {
        &self.entries
    }

    /// The position of the entry registered as `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name() == name)
    }

    /// The entry registered as `name`.
    pub fn find(&self, name: &str) -> Option<&E> {
        self.position(name).map(|at| &self.entries[at])
    }

    /// Every name, comma-separated in registration order — the "valid
    /// choices" half of an unknown-name error.
    pub fn names(&self) -> String {
        let names: Vec<&str> = self.entries.iter().map(Entry::name).collect();
        names.join(", ")
    }

    /// The entry registered as `name`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] naming `name` and listing the valid
    /// choices when there is none.
    pub fn get(&self, name: &str) -> CalyxResult<&E> {
        self.find(name).ok_or_else(|| {
            let kind = E::KIND;
            Error::undefined(format!("{kind} `{name}`; valid {kind}s: {}", self.names()))
        })
    }

    /// The entry claiming file extension `ext` (without the leading dot;
    /// ASCII case-insensitive), if any.
    pub fn by_extension(&self, ext: &str) -> Option<&E> {
        self.entries
            .iter()
            .find(|e| e.extensions().iter().any(|x| x.eq_ignore_ascii_case(ext)))
    }

    /// The entry inferred from `path`'s file extension, if any — the one
    /// inference rule, whatever is being inferred.
    pub fn infer_for_path(&self, path: &str) -> Option<&E> {
        std::path::Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
            .and_then(|ext| self.by_extension(ext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        name: &'static str,
        extensions: &'static [&'static str],
    }

    impl Entry for Toy {
        const KIND: &'static str = "toy";
        fn name(&self) -> &str {
            self.name
        }
        fn description(&self) -> &str {
            "a toy"
        }
        fn extensions(&self) -> Vec<&str> {
            self.extensions.to_vec()
        }
        fn note(&self) -> String {
            format!(" [{} letters]", self.name.len())
        }
    }

    fn toy(name: &'static str, extensions: &'static [&'static str]) -> Toy {
        Toy { name, extensions }
    }

    fn two_toys() -> Registry<Toy> {
        let mut reg = Registry::default();
        assert_eq!(reg.insert(toy("top", &["spin", "whirl"])), 0);
        assert_eq!(reg.insert(toy("yo-yo", &[])), 1);
        reg
    }

    #[test]
    fn lookups_by_name_position_and_extension() {
        let reg = two_toys();
        assert_eq!(reg.position("yo-yo"), Some(1));
        assert_eq!(reg.find("top").unwrap().name, "top");
        assert!(reg.find("kite").is_none() && reg.position("kite").is_none());
        assert_eq!(reg.by_extension("WHIRL").unwrap().name, "top");
        assert!(reg.by_extension("yo-yo").is_none());
        assert_eq!(reg.infer_for_path("a/b.x/c.Spin").unwrap().name, "top");
        assert!(reg.infer_for_path("spin").is_none());
        assert!(reg.infer_for_path("a.spin/noext").is_none());
    }

    #[test]
    fn unknown_name_is_an_error_listing_the_choices_in_order() {
        let reg = two_toys();
        assert_eq!(reg.get("top").unwrap().name, "top");
        match reg.get("kite") {
            Err(Error::Undefined(msg)) => assert_eq!(msg, "toy `kite`; valid toys: top, yo-yo"),
            other => panic!("expected Undefined, got {:?}", other.map(|t| t.name)),
        }
    }

    #[test]
    fn rows_are_in_registration_order_with_claims_then_note() {
        assert_eq!(
            Entry::rows(two_toys().entries()),
            vec![
                (
                    "top",
                    "a toy",
                    " [extensions: .spin .whirl] [3 letters]".to_string()
                ),
                ("yo-yo", "a toy", " [5 letters]".to_string()),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "toy name `Bad_Name` is not kebab-case")]
    fn non_kebab_case_name_panics() {
        two_toys().insert(toy("Bad_Name", &[]));
    }

    #[test]
    #[should_panic(expected = "toy name `top` registered twice")]
    fn duplicate_name_panics() {
        two_toys().insert(toy("top", &[]));
    }

    #[test]
    #[should_panic(expected = "extension `.SPIN` claimed by two toys (second: `kite`)")]
    fn duplicate_extension_panics_naming_the_second_claimant() {
        two_toys().insert(toy("kite", &["SPIN"]));
    }
}
