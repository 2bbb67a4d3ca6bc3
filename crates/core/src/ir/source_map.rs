//! Source locations for parsed programs.
//!
//! The IR itself is position-free: passes synthesize cells, groups, and
//! assignments wholesale, and attaching spans to every node would tax the
//! (heavily cloned and compared) core types for information only
//! diagnostics consume. Instead the parser records a [`SourceMap`] *side
//! table* keyed by the stable names diagnostics talk about — components,
//! cells, groups, signature ports — plus assignment indices, and the
//! [`Context`](super::Context) carries it along. Generated programs (the
//! builder API, frontends other than the native parser) simply leave the
//! map empty; every lookup is an `Option`, so consumers degrade to
//! span-free messages.
//!
//! The map also records **constant truncation events**: `4'd20` masks to
//! `4` at lex time (hardware semantics), so the only place the over-wide
//! literal is observable is the lexer — the
//! [`width-truncation`](crate::lint) lint replays these events.

use super::Id;
use rustc_hash::FxHashMap;

/// A 1-based source position (line, column) — the same coordinates
/// [`Error::Parse`](crate::errors::Error) reports and
/// [`caret_snippet`](crate::errors::caret_snippet) renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Loc {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// A sized literal whose value did not fit its declared width and was
/// truncated at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// Position of the literal.
    pub loc: Loc,
    /// Declared width in bits.
    pub width: u32,
    /// The value as written.
    pub val: u64,
    /// The value actually kept (`val` masked to `width` bits).
    pub kept: u64,
}

/// Name-keyed source locations recorded by the parser.
///
/// Keys are `(component, name)` pairs (assignments add the index within
/// their group or the continuous section), so the table stays valid as
/// long as the named entities exist — passes that synthesize or rename
/// entities simply produce names with no entry. The tables are only ever
/// looked up, never walked, so they hash the interned indices.
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    cells: FxHashMap<(Id, Id), Loc>,
    groups: FxHashMap<(Id, Id), Loc>,
    ports: FxHashMap<(Id, Id), Loc>,
    /// `(component, group, index)`; `None` is the continuous section.
    assignments: FxHashMap<(Id, Option<Id>, usize), Loc>,
    truncations: Vec<Truncation>,
}

impl SourceMap {
    /// True when nothing was recorded (e.g. a generated program).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
            && self.groups.is_empty()
            && self.ports.is_empty()
            && self.assignments.is_empty()
            && self.truncations.is_empty()
    }

    /// Record where cell `cell` of component `comp` is declared.
    pub fn record_cell(&mut self, comp: Id, cell: Id, loc: Loc) {
        self.cells.insert((comp, cell), loc);
    }

    /// Where cell `cell` of component `comp` is declared, if known.
    pub fn cell(&self, comp: Id, cell: Id) -> Option<Loc> {
        self.cells.get(&(comp, cell)).copied()
    }

    /// Record where group `group` of component `comp` is declared.
    pub fn record_group(&mut self, comp: Id, group: Id, loc: Loc) {
        self.groups.insert((comp, group), loc);
    }

    /// Where group `group` of component `comp` is declared, if known.
    pub fn group(&self, comp: Id, group: Id) -> Option<Loc> {
        self.groups.get(&(comp, group)).copied()
    }

    /// Record where signature port `port` of component `comp` is declared.
    pub fn record_port(&mut self, comp: Id, port: Id, loc: Loc) {
        self.ports.insert((comp, port), loc);
    }

    /// Where signature port `port` of component `comp` is declared.
    pub fn port(&self, comp: Id, port: Id) -> Option<Loc> {
        self.ports.get(&(comp, port)).copied()
    }

    /// Record where assignment `index` of `group` (or of the continuous
    /// section, for `None`) in component `comp` starts.
    pub fn record_assignment(&mut self, comp: Id, group: Option<Id>, index: usize, loc: Loc) {
        self.assignments.insert((comp, group, index), loc);
    }

    /// Where assignment `index` of `group` (`None` = continuous section)
    /// in component `comp` starts, if known.
    pub fn assignment(&self, comp: Id, group: Option<Id>, index: usize) -> Option<Loc> {
        self.assignments.get(&(comp, group, index)).copied()
    }

    /// Record a constant-truncation event.
    pub fn record_truncation(&mut self, t: Truncation) {
        self.truncations.push(t);
    }

    /// Every truncated literal, in source order.
    pub fn truncations(&self) -> &[Truncation] {
        &self.truncations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_mirror_records() {
        let mut sm = SourceMap::default();
        assert!(sm.is_empty());
        let (main, r, g) = (Id::new("main"), Id::new("r"), Id::new("g"));
        sm.record_cell(main, r, Loc { line: 2, col: 11 });
        sm.record_group(main, g, Loc { line: 4, col: 7 });
        sm.record_assignment(main, Some(g), 0, Loc { line: 5, col: 9 });
        sm.record_assignment(main, None, 0, Loc { line: 9, col: 3 });
        assert_eq!(sm.cell(main, r), Some(Loc { line: 2, col: 11 }));
        assert_eq!(sm.cell(main, g), None);
        assert_eq!(sm.group(main, g), Some(Loc { line: 4, col: 7 }));
        assert_eq!(
            sm.assignment(main, Some(g), 0),
            Some(Loc { line: 5, col: 9 })
        );
        assert_eq!(sm.assignment(main, None, 0), Some(Loc { line: 9, col: 3 }));
        assert_eq!(sm.assignment(main, Some(g), 1), None);
        assert!(!sm.is_empty());
    }

    #[test]
    fn truncations_keep_source_order() {
        let mut sm = SourceMap::default();
        for line in [3, 1] {
            sm.record_truncation(Truncation {
                loc: Loc { line, col: 1 },
                width: 4,
                val: 20,
                kept: 4,
            });
        }
        let lines: Vec<usize> = sm.truncations().iter().map(|t| t.loc.line).collect();
        assert_eq!(lines, vec![3, 1], "insertion order, not sorted");
    }
}
