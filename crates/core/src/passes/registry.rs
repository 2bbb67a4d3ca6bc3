//! The named pass registry: build pipelines from data instead of code.
//!
//! Every pass registers a unique kebab-case name plus a one-line
//! description; *aliases* name whole pipelines (`lower`, `opt`, …) and
//! expand to lists of pass names. [`PassManager::from_names`] accepts any
//! mix of pass names and aliases, which is what drives the `futil -p` CLI
//! surface:
//!
//! ```text
//! futil prog.futil -p well-formed -p collapse-control   # hand-built
//! futil prog.futil -p opt                               # alias
//! ```
//!
//! ```
//! use calyx_core::passes::PassManager;
//!
//! let pm = PassManager::from_names(&["lower"]).unwrap();
//! assert_eq!(pm.pass_names().len(), 8);
//! assert!(PassManager::from_names(&["no-such-pass"]).is_err());
//! ```

use super::traversal::{Pass, PassManager};
use super::{
    CollapseControl, CompileControl, DeadCellRemoval, DeadGroupRemoval, GoInsertion, GuardSimplify,
    InferStaticTiming, MinimizeRegs, RemoveGroups, ResourceSharing, StaticTiming, WellFormed,
};
use crate::errors::{CalyxResult, Error};
use crate::utils::{Entry, Registry};

/// The latency-insensitive lowering pipeline (the paper's §4.2 workflow).
pub const ALIAS_LOWER: &[&str] = &[
    "well-formed",
    "collapse-control",
    "dead-group-removal",
    "compile-control",
    "go-insertion",
    "remove-groups",
    "guard-simplify",
    "dead-cell-removal",
];

/// Lowering with latency inference + static compilation (§4.4, §5.3).
pub const ALIAS_LOWER_STATIC: &[&str] = &[
    "well-formed",
    "collapse-control",
    "dead-group-removal",
    "infer-static-timing",
    "static-timing",
    "compile-control",
    "go-insertion",
    "remove-groups",
    "guard-simplify",
    "dead-cell-removal",
];

/// The full optimizing pipeline (§5): sharing + static lowering.
pub const ALIAS_OPT: &[&str] = &[
    "well-formed",
    "collapse-control",
    "dead-group-removal",
    "resource-sharing",
    "minimize-regs",
    "infer-static-timing",
    "static-timing",
    "compile-control",
    "go-insertion",
    "remove-groups",
    "guard-simplify",
    "dead-cell-removal",
];

/// Validation only.
pub const ALIAS_NONE: &[&str] = &["well-formed"];

/// A pass known to the registry.
pub struct RegisteredPass {
    /// The pass's unique kebab-case name.
    pub name: &'static str,
    /// One-line description (from [`Pass::description`]).
    pub description: &'static str,
    /// Constructs a fresh instance of the pass.
    pub construct: fn() -> Box<dyn Pass>,
}

impl Entry for RegisteredPass {
    const KIND: &'static str = "pass";

    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        self.description
    }
}

/// A named pipeline; listed with its expansion as the description.
struct Alias {
    name: &'static str,
    expansion: Vec<&'static str>,
    arrows: String,
}

impl Entry for Alias {
    const KIND: &'static str = "alias";

    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        &self.arrows
    }
}

/// A registry of named passes and pipeline aliases: two [`Registry`]
/// tables, where an alias may not shadow a pass.
///
/// [`PassRegistry::default`] knows every pass in this crate plus the
/// standard aliases; frontends can [`register`](PassRegistry::register)
/// their own passes and [`add_alias`](PassRegistry::add_alias) their own
/// pipelines on top.
pub struct PassRegistry {
    passes: Registry<RegisteredPass>,
    aliases: Registry<Alias>,
}

impl Default for PassRegistry {
    /// The standard registry: all passes in this crate, plus the aliases
    /// `none`, `lower`, `lower-static`, `opt`, and `all` (the artifact's
    /// name for the full pipeline).
    fn default() -> Self {
        let mut reg = PassRegistry::empty();
        reg.register::<WellFormed>();
        reg.register::<CollapseControl>();
        reg.register::<DeadGroupRemoval>();
        reg.register::<DeadCellRemoval>();
        reg.register::<InferStaticTiming>();
        reg.register::<StaticTiming>();
        reg.register::<CompileControl>();
        reg.register::<GoInsertion>();
        reg.register::<RemoveGroups>();
        reg.register::<GuardSimplify>();
        reg.register::<ResourceSharing>();
        reg.register::<MinimizeRegs>();
        reg.add_alias("none", ALIAS_NONE);
        reg.add_alias("lower", ALIAS_LOWER);
        reg.add_alias("lower-static", ALIAS_LOWER_STATIC);
        reg.add_alias("opt", ALIAS_OPT);
        reg.add_alias("all", ALIAS_OPT);
        reg
    }
}

impl PassRegistry {
    /// A registry with no passes and no aliases, for frontends that want
    /// full control over what is registered.
    pub fn empty() -> Self {
        PassRegistry {
            passes: Registry::default(),
            aliases: Registry::default(),
        }
    }

    /// Register pass `P` under its own [`Pass::name`].
    ///
    /// # Panics
    ///
    /// Panics as [`Registry::insert`] does: the name is already taken or
    /// is not kebab-case.
    pub fn register<P: Pass + Default + 'static>(&mut self) {
        let probe = P::default();
        self.passes.insert(RegisteredPass {
            name: Pass::name(&probe),
            description: Pass::description(&probe),
            construct: || Box::new(P::default()),
        });
    }

    /// Define alias `name` as the pipeline `expansion` (a list of pass
    /// names).
    ///
    /// # Panics
    ///
    /// Panics when the alias shadows a pass name, is redefined, or names an
    /// unregistered pass — alias tables are compile-time constants.
    pub fn add_alias(&mut self, name: &'static str, expansion: &[&'static str]) {
        assert!(
            self.passes.find(name).is_none() && self.aliases.find(name).is_none(),
            "alias `{name}` collides with an existing pass or alias"
        );
        for pass in expansion {
            assert!(
                self.passes.find(pass).is_some(),
                "alias `{name}` expands to unregistered pass `{pass}`"
            );
        }
        self.aliases.insert(Alias {
            name,
            expansion: expansion.to_vec(),
            arrows: expansion.join(" -> "),
        });
    }

    /// All registered passes, in registration order.
    pub fn passes(&self) -> &[RegisteredPass] {
        self.passes.entries()
    }

    /// All aliases with their expansions, in definition order.
    pub fn aliases(&self) -> impl Iterator<Item = (&'static str, &[&'static str])> + '_ {
        let aliases = self.aliases.entries().iter();
        aliases.map(|a| (a.name, a.expansion.as_slice()))
    }

    /// The listing rows of the aliases (see [`Entry::rows`]): each
    /// described by its expansion, `a -> b -> c`.
    pub fn alias_rows(&self) -> Vec<(&str, &str, String)> {
        Entry::rows(self.aliases.entries())
    }

    /// Expand a mixed list of pass names and aliases into pass names.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] naming the offending entry and listing
    /// the valid choices when a name is neither a pass nor an alias.
    pub fn expand(&self, names: &[&str]) -> CalyxResult<Vec<&'static str>> {
        let mut out = Vec::new();
        for &name in names {
            if let Some(pass) = self.passes.find(name) {
                out.push(pass.name);
            } else if let Some(alias) = self.aliases.find(name) {
                out.extend_from_slice(&alias.expansion);
            } else {
                return Err(Error::undefined(format!(
                    "pass or alias `{name}`; valid passes: {}; valid aliases: {}",
                    self.passes.names(),
                    self.aliases.names(),
                )));
            }
        }
        Ok(out)
    }

    /// Build a [`PassManager`] from a mixed list of pass names and aliases.
    ///
    /// # Errors
    ///
    /// Propagates unknown names from [`PassRegistry::expand`].
    pub fn build(&self, names: &[&str]) -> CalyxResult<PassManager> {
        let mut pm = PassManager::new();
        for name in self.expand(names)? {
            let pass = self
                .passes
                .find(name)
                .expect("expand returns registered names");
            pm.register_boxed((pass.construct)());
        }
        Ok(pm)
    }
}

impl PassManager {
    /// Build a pipeline from pass names and aliases using the standard
    /// registry — the data-driven equivalent of the `lower_pipeline*`
    /// constructors and the engine behind `futil -p`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] for names that are neither a registered
    /// pass nor an alias.
    pub fn from_names(names: &[&str]) -> CalyxResult<PassManager> {
        PassRegistry::default().build(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Context;

    #[test]
    fn default_registry_has_all_twelve_passes() {
        let reg = PassRegistry::default();
        assert_eq!(reg.passes().len(), 12);
    }

    #[test]
    fn aliases_expand_to_registered_names() {
        let reg = PassRegistry::default();
        let alias_names: Vec<&str> = reg.aliases().map(|(n, _)| n).collect();
        assert_eq!(
            alias_names,
            vec!["none", "lower", "lower-static", "opt", "all"]
        );
        for (alias, expansion) in reg.aliases() {
            assert!(!expansion.is_empty(), "alias `{alias}` is empty");
            for pass in expansion {
                assert!(
                    reg.passes().iter().any(|p| p.name == *pass),
                    "alias `{alias}` expands to unknown pass `{pass}`"
                );
            }
        }
    }

    #[test]
    fn from_names_mixes_aliases_and_passes() {
        let pm = PassManager::from_names(&["none", "collapse-control"]).unwrap();
        assert_eq!(pm.pass_names(), vec!["well-formed", "collapse-control"]);
    }

    #[test]
    fn from_names_unknown_name_is_an_error_not_a_panic() {
        let err = PassManager::from_names(&["lowwer"]).unwrap_err();
        match err {
            Error::Undefined(msg) => {
                assert!(msg.contains("lowwer"), "{msg}");
                // The message lists the valid choices.
                assert!(msg.contains("collapse-control"), "{msg}");
                assert!(msg.contains("lower-static"), "{msg}");
            }
            other => panic!("expected Undefined, got {other:?}"),
        }
    }

    #[test]
    fn alias_pipelines_run() {
        let mut ctx = Context::new();
        ctx.add_component(ctx.new_component("main"));
        for alias in ["none", "lower", "lower-static", "opt", "all"] {
            let mut pm = PassManager::from_names(&[alias]).unwrap();
            pm.run(&mut ctx.clone())
                .unwrap_or_else(|e| panic!("alias `{alias}`: {e}"));
        }
    }

    /// The hand-written pass tables in `passes/mod.rs` and the README must
    /// quote the exact registry description strings (the same ones
    /// `futil --list-passes` prints), or the three copies drift apart.
    #[test]
    fn doc_tables_quote_registry_descriptions() {
        let mod_docs = include_str!("mod.rs");
        let readme = include_str!("../../../../README.md");
        for pass in PassRegistry::default().passes() {
            let row = format!("| `{}` | {} |", pass.name, pass.description);
            assert!(
                mod_docs.contains(&row),
                "passes/mod.rs table out of sync for `{}`: expected row `{row}`",
                pass.name
            );
            assert!(
                readme.contains(&row),
                "README pass table out of sync for `{}`: expected row `{row}`",
                pass.name
            );
        }
    }
}
