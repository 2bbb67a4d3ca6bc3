//! The [`Frontend`] trait and [`FrontendRegistry`]: program ingestion as
//! a first-class, data-driven API.
//!
//! A frontend turns one source text into a Calyx [`Context`] — the entry
//! half of the generator → IR → passes → backend workflow, mirroring the
//! [`Backend`](https://docs.rs/calyx_backend) trait on the exit half. The
//! trait splits ingestion into a contract with three obligations:
//!
//! 1. [`Frontend::extensions`] *declares* the file extensions the driver
//!    may infer this frontend from, so `futil prog.fuse` selects the
//!    Dahlia compiler without an explicit `-f`.
//! 2. [`Frontend::from_opts`] *captures* generator parameters from the
//!    driver's repeated `--fopt key=value` flags, rejecting unknown keys
//!    with an error that names the frontend and lists the valid keys
//!    (generators are parametric — a systolic array has dimensions — and
//!    those parameters arrive through the same bag for every frontend).
//! 3. [`Frontend::parse`] ingests the source. For pure generators the
//!    "source" may be a small configuration file, a kernel name, or even
//!    empty when every parameter came through `--fopt`.
//!
//! [`FrontendRegistry`] is a [`Registry`] of frontends, under the
//! contract every registry shares: frontends register a unique kebab-case
//! [`Frontend::NAME`] plus a one-line [`Frontend::DESCRIPTION`], lookups
//! of unknown names return [`Error::Undefined`] listing the valid
//! choices, and duplicate or ill-formatted names (or ambiguous
//! extensions) panic at registration time.
//!
//! ```
//! use calyx_core::ir::parse_context;
//! use calyx_frontend::{FrontendOpts, FrontendRegistry};
//!
//! let src = "component main() -> () {
//!     cells { r = std_reg(8); }
//!     wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
//!     control { g; }
//!   }";
//!
//! let registry = FrontendRegistry::default();
//! // Extension-based lookup: `.futil` selects the native parser.
//! let native = registry.by_extension("futil").unwrap();
//! assert_eq!(native.name, "calyx");
//!
//! // The native frontend is byte-identical to `parse_context`.
//! let frontend = registry.get("calyx", &FrontendOpts::default()).unwrap();
//! let ctx = frontend.parse(src).unwrap();
//! assert_eq!(
//!     calyx_core::ir::Printer::print_context(&ctx),
//!     calyx_core::ir::Printer::print_context(&parse_context(src).unwrap()),
//! );
//!
//! // Generators take their parameters through `--fopt`-style options.
//! let mut opts = FrontendOpts::default();
//! for flag in ["rows=2", "cols=2", "inner=2"] {
//!     opts.push_flag(flag).unwrap();
//! }
//! let systolic = registry.get("systolic", &opts).unwrap();
//! let array = systolic.parse("").unwrap();
//! assert!(array.component("main").is_some());
//! ```

use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::Context;
use calyx_core::utils::{Entry, Registry};

/// Generator parameters collected from the driver's repeated
/// `--fopt key=value` flags.
///
/// The driver parses its flags into one bag and hands it to
/// [`FrontendRegistry::get`]; each frontend picks out the keys it
/// declares in [`Frontend::options`] and rejects the rest (via
/// [`FrontendOpts::expect_keys`]), so a typo'd key is an error naming
/// the frontend instead of a silently ignored flag.
#[derive(Debug, Clone, Default)]
pub struct FrontendOpts {
    pairs: Vec<(String, String)>,
}

impl FrontendOpts {
    /// Record one `key=value` flag argument, as passed to `--fopt`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] when `flag` has no `=` or an empty
    /// key.
    pub fn push_flag(&mut self, flag: &str) -> CalyxResult<()> {
        match flag.split_once('=') {
            Some((key, value)) if !key.is_empty() => {
                self.pairs.push((key.to_string(), value.to_string()));
                Ok(())
            }
            _ => Err(Error::undefined(format!(
                "`--fopt` argument `{flag}`; expected `key=value`"
            ))),
        }
    }

    /// Record a `key = value` pair directly (the programmatic equivalent
    /// of one `--fopt` flag).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.pairs.push((key.into(), value.into()));
    }

    /// The value of `key`; the last occurrence wins, so later flags
    /// override earlier ones.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `key` parsed as an unsigned number.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] (naming `frontend`) when the value
    /// is present but not a number.
    pub fn get_u64(&self, frontend: &'static str, key: &str) -> CalyxResult<Option<u64>> {
        self.get(key)
            .map(|v| {
                v.parse().map_err(|_| {
                    Error::malformed(format!(
                        "frontend `{frontend}`: option `{key}` expects a number, got `{v}`"
                    ))
                })
            })
            .transpose()
    }

    /// Reject any key outside the `options` table with an
    /// [`Error::Undefined`] that names `frontend` and lists the keys it
    /// accepts.
    ///
    /// Every [`Frontend::from_opts`] implementation calls this with its
    /// own [`Frontend::options`] table — the declared table is the
    /// source of truth, so the accepted keys can never drift from the
    /// advertised ones, and unknown-key errors read the same for every
    /// frontend.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] on the first unknown key.
    pub fn expect_keys(&self, frontend: &'static str, options: &[(&str, &str)]) -> CalyxResult<()> {
        for (key, _) in &self.pairs {
            if !options.iter().any(|(k, _)| k == key) {
                let hint = if options.is_empty() {
                    format!("`{frontend}` takes no `--fopt` options")
                } else {
                    format!(
                        "valid options: {}",
                        options
                            .iter()
                            .map(|(k, _)| *k)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                return Err(Error::undefined(format!(
                    "option `{key}` for frontend `{frontend}`; {hint}"
                )));
            }
        }
        Ok(())
    }
}

/// A producer of Calyx programs: one accelerator generator or parser.
///
/// See the [module docs](self) for the contract. Implementations are
/// cheap value types constructed from [`FrontendOpts`]; all real work
/// happens in [`Frontend::parse`].
pub trait Frontend {
    /// Unique kebab-case name — the `-f` argument.
    const NAME: &'static str;

    /// One-line description for `--list-frontends` and generated docs.
    const DESCRIPTION: &'static str;

    /// File extensions (without the leading dot) the driver infers this
    /// frontend from when `-f` is omitted. Empty means "explicit `-f`
    /// only".
    fn extensions() -> &'static [&'static str]
    where
        Self: Sized;

    /// The `--fopt` keys this frontend consumes, as
    /// `(key, description)` pairs. Shown by `--list-frontends`, quoted
    /// in the README table, and the source of truth for
    /// [`FrontendOpts::expect_keys`].
    fn options() -> &'static [(&'static str, &'static str)]
    where
        Self: Sized,
    {
        &[]
    }

    /// Construct the frontend, capturing the options it consumes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] for unknown `--fopt` keys (call
    /// `opts.expect_keys(Self::NAME, Self::options())` first) and
    /// [`Error::Malformed`] for well-known keys with invalid values.
    /// Drivers treat these as usage errors (exit 2), not input errors.
    fn from_opts(opts: &FrontendOpts) -> CalyxResult<Self>
    where
        Self: Sized;

    /// Ingest one source text into a Calyx [`Context`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] (with 1-based line/column positions, so
    /// drivers can render caret diagnostics) for malformed source, or
    /// any error of the underlying generator.
    fn parse(&self, src: &str) -> CalyxResult<Context>;
}

/// Object-safe view of a [`Frontend`].
///
/// The associated consts and static methods make [`Frontend`] itself
/// non-object-safe; every `Frontend` automatically implements this
/// companion, which is what [`FrontendRegistry::get`] hands back to
/// drivers.
pub trait DynFrontend {
    /// [`Frontend::NAME`].
    fn name(&self) -> &'static str;
    /// [`Frontend::parse`].
    ///
    /// # Errors
    ///
    /// See [`Frontend::parse`].
    fn parse(&self, src: &str) -> CalyxResult<Context>;
}

impl<F: Frontend> DynFrontend for F {
    fn name(&self) -> &'static str {
        F::NAME
    }

    fn parse(&self, src: &str) -> CalyxResult<Context> {
        Frontend::parse(self, src)
    }
}

/// A frontend known to the registry.
pub struct RegisteredFrontend {
    /// The frontend's unique kebab-case name.
    pub name: &'static str,
    /// One-line description (from [`Frontend::DESCRIPTION`]).
    pub description: &'static str,
    /// Extensions the driver infers this frontend from (see
    /// [`Frontend::extensions`]), captured at registration.
    pub extensions: &'static [&'static str],
    /// The `--fopt` keys this frontend consumes (see
    /// [`Frontend::options`]), captured at registration.
    pub options: &'static [(&'static str, &'static str)],
    ctor: fn(&FrontendOpts) -> CalyxResult<Box<dyn DynFrontend>>,
}

impl Entry for RegisteredFrontend {
    const KIND: &'static str = "frontend";

    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        self.description
    }

    fn extensions(&self) -> Vec<&str> {
        self.extensions.to_vec()
    }

    /// One indented `--fopt` line per option the frontend consumes.
    fn note(&self) -> String {
        let options = self.options.iter();
        options
            .map(|(key, what)| format!("\n    --fopt {key:<15}{what}"))
            .collect()
    }
}

/// A registry of named frontends.
///
/// [`FrontendRegistry::default`] knows every frontend in this crate;
/// drivers can [`register`](FrontendRegistry::register) their own on
/// top.
pub struct FrontendRegistry {
    frontends: Registry<RegisteredFrontend>,
}

impl Default for FrontendRegistry {
    /// The standard registry: `calyx`, `dahlia`, `systolic`, and
    /// `polybench`, in listing order.
    fn default() -> Self {
        let mut reg = FrontendRegistry::empty();
        reg.register::<crate::native::CalyxFrontend>();
        reg.register::<crate::dahlia::DahliaFrontend>();
        reg.register::<crate::systolic::SystolicFrontend>();
        reg.register::<crate::polybench::PolybenchFrontend>();
        reg
    }
}

impl FrontendRegistry {
    /// A registry with no frontends, for drivers that want full control
    /// over what is selectable.
    pub fn empty() -> Self {
        FrontendRegistry {
            frontends: Registry::default(),
        }
    }

    /// Register frontend `F` under [`Frontend::NAME`].
    ///
    /// # Panics
    ///
    /// Panics as [`Registry::insert`] does: the name is already taken or
    /// not kebab-case, or an extension is already claimed.
    pub fn register<F: Frontend + 'static>(&mut self) {
        self.frontends.insert(RegisteredFrontend {
            name: F::NAME,
            description: F::DESCRIPTION,
            extensions: F::extensions(),
            options: F::options(),
            ctor: |opts| Ok(Box::new(F::from_opts(opts)?) as Box<dyn DynFrontend>),
        });
    }

    /// All registered frontends, in registration order.
    pub fn frontends(&self) -> &[RegisteredFrontend] {
        self.frontends.entries()
    }

    /// The frontend claiming file extension `ext` (without the leading
    /// dot; ASCII case-insensitive), if any.
    pub fn by_extension(&self, ext: &str) -> Option<&RegisteredFrontend> {
        self.frontends.by_extension(ext)
    }

    /// The frontend inferred from `path`'s file extension, if any.
    ///
    /// This is the one extension-inference rule shared by the `futil`
    /// driver, the batch/serve engine, and the plan-based build graph —
    /// all of them reach [`Registry::infer_for_path`].
    pub fn infer_for_path(&self, path: &str) -> Option<&RegisteredFrontend> {
        self.frontends.infer_for_path(path)
    }

    /// Resolve the frontend name for an input: an explicit name wins,
    /// else the frontend inferred from the input path's extension, else
    /// the native `calyx` parser. The second component is `true` when
    /// the fallback fired (no explicit name and no claiming frontend),
    /// so drivers can warn that the choice is a guess.
    pub fn resolve_name<'a>(
        &'a self,
        explicit: Option<&'a str>,
        input: Option<&str>,
    ) -> (&'a str, bool) {
        if let Some(name) = explicit {
            return (name, false);
        }
        match input.and_then(|path| self.infer_for_path(path)) {
            Some(f) => (f.name, false),
            None => ("calyx", true),
        }
    }

    /// Construct the frontend registered as `name`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] naming the offending entry and
    /// listing the valid choices when `name` is unknown, and propagates
    /// [`Frontend::from_opts`] errors (unknown `--fopt` keys, invalid
    /// values).
    pub fn get(&self, name: &str, opts: &FrontendOpts) -> CalyxResult<Box<dyn DynFrontend>> {
        (self.frontends.get(name)?.ctor)(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_has_all_four_frontends() {
        let reg = FrontendRegistry::default();
        let names: Vec<&str> = reg.frontends().iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["calyx", "dahlia", "systolic", "polybench"]);
    }

    #[test]
    fn extension_lookup_reaches_the_declared_claims() {
        let reg = FrontendRegistry::default();
        assert_eq!(reg.by_extension("futil").unwrap().name, "calyx");
        assert_eq!(reg.by_extension("FUSE").unwrap().name, "dahlia");
        assert_eq!(reg.by_extension("systolic").unwrap().name, "systolic");
        assert!(reg.by_extension("sv").is_none());
    }

    /// The one shared inference rule: explicit name wins, then the
    /// path's extension, then the `calyx` fallback (flagged so drivers
    /// can warn).
    #[test]
    fn resolve_name_prefers_explicit_then_extension_then_fallback() {
        let reg = FrontendRegistry::default();
        assert_eq!(
            reg.resolve_name(Some("polybench"), Some("x.fuse")),
            ("polybench", false)
        );
        assert_eq!(reg.resolve_name(None, Some("x.fuse")), ("dahlia", false));
        assert_eq!(
            reg.resolve_name(None, Some("dir.fuse/x.futil")),
            ("calyx", false)
        );
        assert_eq!(reg.resolve_name(None, Some("-")), ("calyx", true));
        assert_eq!(reg.resolve_name(None, Some("x.sv")), ("calyx", true));
        assert_eq!(reg.resolve_name(None, None), ("calyx", true));
        assert_eq!(reg.infer_for_path("a/b/k.poly").unwrap().name, "polybench");
        assert!(reg.infer_for_path("noext").is_none());
    }

    #[test]
    fn unknown_frontend_is_an_error_listing_choices() {
        let err = match FrontendRegistry::default().get("dahlai", &FrontendOpts::default()) {
            Err(e) => e,
            Ok(_) => panic!("unknown frontend resolved"),
        };
        match err {
            Error::Undefined(msg) => {
                assert!(msg.contains("dahlai"), "{msg}");
                assert!(msg.contains("dahlia"), "{msg}");
                assert!(msg.contains("systolic"), "{msg}");
                assert!(msg.contains("polybench"), "{msg}");
            }
            other => panic!("expected Undefined, got {other:?}"),
        }
    }

    fn get_err(name: &str, opts: &FrontendOpts) -> Error {
        match FrontendRegistry::default().get(name, opts) {
            Err(e) => e,
            Ok(_) => panic!("`{name}` resolved unexpectedly"),
        }
    }

    #[test]
    fn unknown_fopt_key_names_the_frontend() {
        let mut opts = FrontendOpts::default();
        opts.set("rows", "2");
        let msg = format!("{}", get_err("calyx", &opts));
        assert!(msg.contains("option `rows` for frontend `calyx`"), "{msg}");
        assert!(msg.contains("takes no `--fopt` options"), "{msg}");

        let mut opts = FrontendOpts::default();
        opts.set("rosw", "2");
        let msg = format!("{}", get_err("systolic", &opts));
        assert!(
            msg.contains("option `rosw` for frontend `systolic`"),
            "{msg}"
        );
        assert!(msg.contains("rows"), "{msg}");
    }

    #[test]
    fn malformed_fopt_flag_is_rejected() {
        let mut opts = FrontendOpts::default();
        assert!(opts.push_flag("rows").is_err());
        assert!(opts.push_flag("=2").is_err());
        opts.push_flag("rows=2").unwrap();
        opts.push_flag("rows=3").unwrap();
        // Later flags override earlier ones.
        assert_eq!(opts.get("rows"), Some("3"));
    }

    struct ExtensionSquatter;
    impl Frontend for ExtensionSquatter {
        const NAME: &'static str = "squatter";
        const DESCRIPTION: &'static str = "claims .futil";
        fn extensions() -> &'static [&'static str] {
            &["futil"]
        }
        fn from_opts(_: &FrontendOpts) -> CalyxResult<Self> {
            Ok(ExtensionSquatter)
        }
        fn parse(&self, _: &str) -> CalyxResult<Context> {
            Ok(Context::new())
        }
    }

    #[test]
    #[should_panic(expected = "claimed by two frontends")]
    fn ambiguous_extension_panics() {
        let mut reg = FrontendRegistry::default();
        reg.register::<ExtensionSquatter>();
    }

    /// The hand-written frontend table in the README must quote the
    /// exact registry strings (the same ones `futil --list-frontends`
    /// prints), or the copies drift apart — same guard as the pass and
    /// backend tables.
    #[test]
    fn readme_frontend_table_quotes_registry() {
        let readme = include_str!("../../../README.md");
        for f in FrontendRegistry::default().frontends() {
            let exts = if f.extensions.is_empty() {
                "—".to_string()
            } else {
                f.extensions
                    .iter()
                    .map(|e| format!("`.{e}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let opts = if f.options.is_empty() {
                "—".to_string()
            } else {
                f.options
                    .iter()
                    .map(|(k, _)| format!("`{k}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let row = format!("| `{}` | {} | {} | {} |", f.name, exts, opts, f.description);
            assert!(
                readme.contains(&row),
                "README frontend table out of sync for `{}`: expected row `{row}`",
                f.name
            );
        }
    }
}
