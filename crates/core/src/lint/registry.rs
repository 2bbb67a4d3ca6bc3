//! The named lint registry: a [`Registry`] of lints, with a unique stable
//! diagnostic code per lint on top of the shared name contract.

use super::diagnostic::Severity;
use super::sink::DiagnosticSink;
use super::{
    CombCycle, ConstLoop, DeadCell, DeadGroup, DeadWrite, MultipleDrivers, ParRace, UninitRead,
    UnreachableControl, UnusedPort, WellFormedLint, WidthTruncation,
};
use crate::analysis::AnalysisCache;
use crate::errors::CalyxResult;
use crate::ir::Context;
use crate::utils::{Entry, Registry};

/// A single check that reads a program and reports findings.
///
/// Lints are read-only: they take `&Context` and may pull cached analyses
/// ([`ReadWriteSets`](crate::analysis::ReadWriteSets),
/// [`ParConflicts`](crate::analysis::ParConflicts), …) through the
/// [`AnalysisCache`], but never mutate the IR. Findings go into the
/// [`DiagnosticSink`] — push everything you find; the driver decides what
/// is fatal.
pub trait Lint {
    /// Unique kebab-case lint name (the `--list-lints` name).
    const NAME: &'static str;
    /// Stable diagnostic code, `C` plus four digits (e.g. `C0101`).
    const CODE: &'static str;
    /// One-line description shown by `futil --list-lints`.
    const DESCRIPTION: &'static str;
    /// Severity of every diagnostic this lint produces.
    const SEVERITY: Severity;
    /// Long-form documentation shown by `futil check --explain <CODE>`:
    /// what the lint detects, an example, and how to fix it.
    const EXPLANATION: &'static str;

    /// Check `ctx`, pushing findings into `sink`.
    fn check(&self, ctx: &Context, cache: &mut AnalysisCache, sink: &mut DiagnosticSink);
}

/// A lint known to the registry.
#[derive(Debug)]
pub struct RegisteredLint {
    /// The lint's unique kebab-case name.
    pub name: &'static str,
    /// The lint's stable diagnostic code.
    pub code: &'static str,
    /// One-line description (from [`Lint::DESCRIPTION`]).
    pub description: &'static str,
    /// Severity of the lint's diagnostics.
    pub severity: Severity,
    /// Long-form documentation (from [`Lint::EXPLANATION`]).
    pub explanation: &'static str,
    /// Runs the lint over a program.
    pub run: fn(&Context, &mut AnalysisCache, &mut DiagnosticSink),
}

impl Entry for RegisteredLint {
    const KIND: &'static str = "lint";

    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        self.description
    }

    fn note(&self) -> String {
        format!(" [{}, {}]", self.code, self.severity)
    }
}

/// A registry of named lints.
///
/// [`LintRegistry::default`] knows every lint in this crate; tools can
/// [`register`](LintRegistry::register) their own on top.
pub struct LintRegistry {
    lints: Registry<RegisteredLint>,
}

impl Default for LintRegistry {
    /// The standard registry: all lints in this crate, well-formedness
    /// first (structural violations make later findings noisy), then
    /// errors before warnings.
    fn default() -> Self {
        let mut reg = LintRegistry::empty();
        reg.register::<WellFormedLint>();
        reg.register::<ParRace>();
        reg.register::<CombCycle>();
        reg.register::<MultipleDrivers>();
        reg.register::<UnreachableControl>();
        reg.register::<UninitRead>();
        reg.register::<DeadCell>();
        reg.register::<DeadGroup>();
        reg.register::<UnusedPort>();
        reg.register::<WidthTruncation>();
        reg.register::<DeadWrite>();
        reg.register::<ConstLoop>();
        reg
    }
}

impl LintRegistry {
    /// A registry with no lints, for tools that want full control.
    pub fn empty() -> Self {
        LintRegistry {
            lints: Registry::default(),
        }
    }

    /// Register lint `L` under its own [`Lint::NAME`].
    ///
    /// # Panics
    ///
    /// Panics as [`Registry::insert`] does, and when the code is already
    /// taken or is not `C` + four digits — these are compile-time
    /// constants, so a collision is a programming error.
    pub fn register<L: Lint + Default + 'static>(&mut self) {
        let code = L::CODE;
        assert!(
            code.len() == 5
                && code.starts_with('C')
                && code[1..].bytes().all(|b| b.is_ascii_digit()),
            "lint code `{code}` is not `C` followed by four digits"
        );
        assert!(
            !self.lints().iter().any(|l| l.code == code),
            "lint code `{code}` taken by two lints (second: `{}`)",
            L::NAME
        );
        self.lints.insert(RegisteredLint {
            name: L::NAME,
            code,
            description: L::DESCRIPTION,
            severity: L::SEVERITY,
            explanation: L::EXPLANATION,
            run: |ctx, cache, sink| L::default().check(ctx, cache, sink),
        });
    }

    /// All registered lints, in registration order.
    pub fn lints(&self) -> &[RegisteredLint] {
        self.lints.entries()
    }

    /// Look up a lint by name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`](crate::errors::Error::Undefined)
    /// listing the valid choices.
    pub fn get(&self, name: &str) -> CalyxResult<&RegisteredLint> {
        self.lints.get(name)
    }

    /// Run every registered lint over `ctx`, then sort the findings by
    /// source position. This is what `futil check` runs.
    pub fn check_all(&self, ctx: &Context, cache: &mut AnalysisCache) -> DiagnosticSink {
        let mut sink = DiagnosticSink::new();
        for lint in self.lints() {
            (lint.run)(ctx, cache, &mut sink);
        }
        sink.sort_by_location();
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::Error;

    #[test]
    fn default_registry_has_all_twelve_lints() {
        let reg = LintRegistry::default();
        assert_eq!(reg.lints().len(), 12);
    }

    #[test]
    fn every_lint_has_a_substantial_explanation() {
        for lint in LintRegistry::default().lints() {
            assert!(
                lint.explanation.len() > 100,
                "`{}` needs a real --explain body, not a stub",
                lint.name
            );
        }
    }

    #[test]
    fn error_lints_use_01xx_codes_and_warning_lints_02xx() {
        for lint in LintRegistry::default().lints() {
            let expected = match lint.severity {
                Severity::Error => "C01",
                Severity::Warning => "C02",
            };
            assert!(
                lint.code.starts_with(expected),
                "`{}` has severity {} but code `{}`",
                lint.name,
                lint.severity,
                lint.code
            );
        }
    }

    #[test]
    fn get_unknown_lint_lists_choices() {
        let reg = LintRegistry::default();
        let err = reg.get("par-rac").unwrap_err();
        match err {
            Error::Undefined(msg) => {
                assert!(msg.contains("par-rac"), "{msg}");
                assert!(msg.contains("par-race"), "{msg}");
                assert!(msg.contains("dead-cell"), "{msg}");
            }
            other => panic!("expected Undefined, got {other:?}"),
        }
    }

    /// A second lint under a taken code, whatever its name.
    #[derive(Default)]
    struct CodeSquatter;
    impl Lint for CodeSquatter {
        const NAME: &'static str = "code-squatter";
        const CODE: &'static str = ParRace::CODE;
        const DESCRIPTION: &'static str = "never registers";
        const SEVERITY: Severity = Severity::Error;
        const EXPLANATION: &'static str = "";
        fn check(&self, _: &Context, _: &mut AnalysisCache, _: &mut DiagnosticSink) {}
    }

    #[test]
    #[should_panic(expected = "lint code `C0101` taken by two lints (second: `code-squatter`)")]
    fn duplicate_code_panics() {
        LintRegistry::default().register::<CodeSquatter>();
    }

    /// The hand-written lint tables in `lint/mod.rs` and the README must
    /// quote the exact registry strings (the same ones `futil --list-lints`
    /// prints), or the copies drift apart.
    #[test]
    fn doc_tables_quote_registry_descriptions() {
        let mod_docs = include_str!("mod.rs");
        let readme = include_str!("../../../../README.md");
        for lint in LintRegistry::default().lints() {
            let row = format!(
                "| `{}` | `{}` | {} | {} |",
                lint.code, lint.name, lint.severity, lint.description
            );
            assert!(
                mod_docs.contains(&row),
                "lint/mod.rs table out of sync for `{}`: expected row `{row}`",
                lint.name
            );
            assert!(
                readme.contains(&row),
                "README lint table out of sync for `{}`: expected row `{row}`",
                lint.name
            );
        }
    }
}
