//! Typed states: the nodes of the build graph.
//!
//! A *state* names one artifact kind the toolchain can hold in its hand
//! — Dahlia source, canonical Calyx text, lowered Calyx, SystemVerilog,
//! a simulation state report. Ops (the edges) transform one state into
//! another; the planner routes over them. States carry two kinds of
//! extension metadata:
//!
//! - [`State::extensions`] — input extensions the driver *infers* the
//!   state from (`futil build x.fuse` starts at `dahlia`). These mirror
//!   the frontend registry's extension claims for frontend-shaped
//!   states, so inference can never diverge from `futil -f` inference.
//! - [`State::artifact_ext`] — the extension cached artifacts and
//!   `--out-dir`-style files of this state are written with (mirroring
//!   [`Backend::EXTENSION`](calyx_backend::Backend::EXTENSION) for
//!   backend-shaped states).

/// Dense index of a state in its [`PlanGraph`](crate::PlanGraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) usize);

/// One artifact kind the planner can route from or to.
#[derive(Debug, Clone)]
pub struct State {
    /// Unique kebab-case name — the `--to`/`--from` argument.
    pub name: String,
    /// One-line description for `--list-states` and the README table.
    pub description: String,
    /// Input file extensions (without the dot) the driver infers this
    /// state from. Empty means "explicit `--from` only".
    pub extensions: Vec<String>,
    /// Extension cached artifacts of this state are stored under.
    pub artifact_ext: String,
}

impl calyx_core::utils::Entry for State {
    const KIND: &'static str = "state";

    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn extensions(&self) -> Vec<&str> {
        self.extensions.iter().map(String::as_str).collect()
    }
}
