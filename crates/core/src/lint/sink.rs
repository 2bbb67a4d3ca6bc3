//! The accumulating diagnostic collector.

use super::diagnostic::{Diagnostic, Severity};
use crate::json::Json;

/// Collects [`Diagnostic`]s instead of failing fast, so one checking run
/// reports *every* problem in the program.
///
/// Lints push in registration order;
/// [`sort_by_location`](DiagnosticSink::sort_by_location) then orders
/// findings the way a reader scans a file — by position, position-free
/// diagnostics last — while keeping the push order among ties (the sort
/// is stable).
#[derive(Debug, Clone, Default)]
pub struct DiagnosticSink {
    diags: Vec<Diagnostic>,
}

impl DiagnosticSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// All findings, in their current order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// True when nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Total number of findings.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == s).count()
    }

    /// Apply rustc-style per-lint level overrides: findings from lints in
    /// `allow` are dropped entirely; findings from lints in `deny` are
    /// promoted to [`Severity::Error`]. Both match the lint *name* (the
    /// `--list-lints` name), and `allow` wins when a lint appears in
    /// both — silencing is the more explicit request.
    pub fn apply_lint_levels(&mut self, allow: &[String], deny: &[String]) {
        self.diags
            .retain(|d| !allow.iter().any(|name| name == d.lint));
        for d in &mut self.diags {
            if deny.iter().any(|name| name == d.lint) {
                d.severity = Severity::Error;
            }
        }
    }

    /// Stable-sort findings by source position (line, then column);
    /// position-free findings sort last, keeping their push order.
    pub fn sort_by_location(&mut self) {
        self.diags.sort_by_key(|d| match d.loc {
            Some(l) => (0, l.line, l.col),
            None => (1, 0, 0),
        });
    }

    /// The one-line closing summary, e.g. `2 errors, 1 warning`.
    pub fn summary(&self) -> String {
        fn plural(n: usize, what: &str) -> String {
            format!("{n} {what}{}", if n == 1 { "" } else { "s" })
        }
        format!(
            "{}, {}",
            plural(self.errors(), "error"),
            plural(self.warnings(), "warning")
        )
    }

    /// Render every finding as caret-annotated text against `src`,
    /// followed by the summary line. Empty sinks render to an empty
    /// string (a clean check prints nothing).
    pub fn render_text(&self, file: &str, src: &str) -> String {
        if self.diags.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.render_text(file, src));
            out.push('\n');
        }
        out.push_str(&self.summary());
        out
    }

    /// Render every finding as a stable JSON object:
    ///
    /// ```json
    /// {
    ///   "file": "prog.futil",
    ///   "errors": 1,
    ///   "warnings": 0,
    ///   "diagnostics": [
    ///     {"code": "C0101", "lint": "par-race", "severity": "error",
    ///      "line": 6, "col": 11, "message": "...", "notes": []}
    ///   ]
    /// }
    /// ```
    ///
    /// `line`/`col` are `null` for position-free findings. The schema is
    /// pinned by golden tests; add fields rather than changing these.
    pub fn render_json(&self, file: &str) -> String {
        let diagnostics = self.diags.iter().map(|d| {
            Json::obj([
                ("code", d.code.into()),
                ("lint", d.lint.into()),
                ("severity", d.severity.to_string().into()),
                ("line", d.loc.map(|l| l.line).into()),
                ("col", d.loc.map(|l| l.col).into()),
                ("message", d.message.as_str().into()),
                (
                    "notes",
                    Json::Arr(d.notes.iter().map(|n| n.as_str().into()).collect()),
                ),
            ])
        });
        Json::obj([
            ("file", file.into()),
            ("errors", self.errors().into()),
            ("warnings", self.warnings().into()),
            ("diagnostics", Json::Arr(diagnostics.collect())),
        ])
        .render_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Loc;

    fn diag(sev: Severity, code: &'static str, line: Option<usize>) -> Diagnostic {
        Diagnostic::new(sev, code, "some-lint", format!("message for {code}"))
            .at(line.map(|line| Loc { line, col: 1 }))
    }

    #[test]
    fn counts_and_summary_pluralize() {
        let mut sink = DiagnosticSink::new();
        assert!(sink.is_empty());
        assert_eq!(sink.summary(), "0 errors, 0 warnings");
        sink.push(diag(Severity::Error, "C0101", Some(3)));
        sink.push(diag(Severity::Warning, "C0201", None));
        assert_eq!((sink.len(), sink.errors(), sink.warnings()), (2, 1, 1));
        assert_eq!(sink.summary(), "1 error, 1 warning");
    }

    #[test]
    fn sort_is_by_position_with_unpositioned_last() {
        let mut sink = DiagnosticSink::new();
        sink.push(diag(Severity::Warning, "C0204", None));
        sink.push(diag(Severity::Error, "C0102", Some(9)));
        sink.push(diag(Severity::Error, "C0101", Some(2)));
        sink.sort_by_location();
        let codes: Vec<&str> = sink.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["C0101", "C0102", "C0204"]);
    }

    #[test]
    fn lint_levels_allow_drops_and_deny_promotes() {
        let mut sink = DiagnosticSink::new();
        sink.push(Diagnostic::new(
            Severity::Warning,
            "C0201",
            "dead-cell",
            "m1",
        ));
        sink.push(Diagnostic::new(
            Severity::Warning,
            "C0205",
            "dead-write",
            "m2",
        ));
        sink.push(Diagnostic::new(Severity::Error, "C0101", "par-race", "m3"));
        sink.apply_lint_levels(&["dead-cell".into()], &["dead-write".into()]);
        assert_eq!(sink.len(), 2, "{:?}", sink.diagnostics());
        assert_eq!((sink.errors(), sink.warnings()), (2, 0));
    }

    #[test]
    fn allow_wins_over_deny_for_the_same_lint() {
        let mut sink = DiagnosticSink::new();
        sink.push(Diagnostic::new(
            Severity::Warning,
            "C0205",
            "dead-write",
            "m",
        ));
        sink.apply_lint_levels(&["dead-write".into()], &["dead-write".into()]);
        assert!(sink.is_empty());
    }

    #[test]
    fn clean_sink_renders_empty_text() {
        assert_eq!(DiagnosticSink::new().render_text("f", "src"), "");
    }

    #[test]
    fn json_schema_is_stable() {
        let mut sink = DiagnosticSink::new();
        sink.push(
            Diagnostic::new(Severity::Error, "C0101", "par-race", "a \"race\"")
                .at(Some(Loc { line: 6, col: 11 }))
                .note("see line 7"),
        );
        sink.push(diag(Severity::Warning, "C0201", None));
        assert_eq!(
            sink.render_json("f.futil"),
            "{\n  \"file\": \"f.futil\",\n  \"errors\": 1,\n  \"warnings\": 1,\n  \"diagnostics\": [\n    {\"code\": \"C0101\", \"lint\": \"par-race\", \"severity\": \"error\", \"line\": 6, \"col\": 11, \"message\": \"a \\\"race\\\"\", \"notes\": [\"see line 7\"]},\n    {\"code\": \"C0201\", \"lint\": \"some-lint\", \"severity\": \"warning\", \"line\": null, \"col\": null, \"message\": \"message for C0201\", \"notes\": []}\n  ]\n}"
        );
    }

    #[test]
    fn empty_sink_json_has_empty_array() {
        assert_eq!(
            DiagnosticSink::new().render_json("f"),
            "{\n  \"file\": \"f\",\n  \"errors\": 0,\n  \"warnings\": 0,\n  \"diagnostics\": []\n}"
        );
    }
}
