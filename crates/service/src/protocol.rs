//! The JSON-lines request/response protocol shared by `futil --batch`
//! manifests and `futil serve`.
//!
//! One request per line, one response per line. A request either
//! describes a *compile job* (what `futil` does once: frontend →
//! pipeline → backend) or asks for a *registry listing* (`list`), the
//! serve-mode equivalent of the driver's `--list-*` flags. Every
//! key is validated against [`REQUEST_KEYS`] — the same table the README
//! protocol spec is sync-tested against — so an unknown or misspelled
//! field produces a positioned error listing the valid keys instead of
//! being silently ignored.

use crate::json::{self, Json};
use crate::metrics::StageTimes;
use crate::session::Session;

/// Every key a request object may carry, with the one-line description
/// the README protocol table quotes. The parser rejects anything else.
pub const REQUEST_KEYS: &[(&str, &str)] = &[
    (
        "input",
        "path to the source file; the frontend is inferred from its extension",
    ),
    ("source", "inline source text (alternative to `input`)"),
    (
        "name",
        "job label used in summaries and `--out-dir` file names",
    ),
    ("frontend", "frontend name (see `--list-frontends`)"),
    (
        "fopts",
        "object of generator options, one member per `--fopt key=value`",
    ),
    (
        "pipeline",
        "array of pass/alias names (default: the backend's required pipeline)",
    ),
    (
        "backend",
        "backend name (default: `calyx`; see `--list-backends`)",
    ),
    (
        "out",
        "output file path (default: `--out-dir/<name>.<ext>`, else inline/discard)",
    ),
    (
        "cycles",
        "simulation cycle budget for `sim`/`interp` (default 1000000)",
    ),
    (
        "format",
        "report format for report-style backends: `text` or `json`",
    ),
    ("timeout_ms", "per-job wall-clock timeout in milliseconds"),
    (
        "list",
        "registry listing request: `frontends`, `backends`, `passes`, or `lints`",
    ),
];

/// Every key a response object may carry, with the one-line description
/// the README protocol table quotes.
pub const RESPONSE_KEYS: &[(&str, &str)] = &[
    ("id", "0-based sequence number of the request this answers"),
    (
        "name",
        "the job's label (omitted when the request never named one)",
    ),
    ("status", "`ok`, `error`, `panic`, `timeout`, or `skipped`"),
    ("error", "what went wrong (statuses other than `ok`)"),
    (
        "cache",
        "parse-cache outcome for the job's source: `hit` or `miss`",
    ),
    (
        "parse_us",
        "wall time of the frontend/parse stage, in microseconds",
    ),
    (
        "passes_us",
        "wall time of the pass pipeline, in microseconds",
    ),
    ("emit_us", "wall time of backend emission, in microseconds"),
    ("total_us", "end-to-end job wall time, in microseconds"),
    (
        "out",
        "path the output was written to (jobs with an output path)",
    ),
    (
        "output",
        "the backend's output, inline (serve-mode jobs with no `out` path)",
    ),
    ("list", "which registry a listing response describes"),
    (
        "items",
        "listing payload: array of `{name, description}` objects",
    ),
];

/// Terminal state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Compiled and emitted successfully.
    Ok,
    /// A structured compile error (bad input, unknown name, I/O, ...).
    Error,
    /// The job panicked; the worker survived and reported it.
    Panic,
    /// The job exceeded its wall-clock budget and was abandoned.
    Timeout,
    /// Never ran: an earlier failure aborted the batch (`--fail-fast`).
    Skipped,
}

impl Status {
    /// The protocol string for this status.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
            Status::Panic => "panic",
            Status::Timeout => "timeout",
            Status::Skipped => "skipped",
        }
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One compile job, as named by a manifest line, a serve request, or a
/// positional `futil --batch` input.
///
/// Every field is optional; [`JobDefaults`](crate::engine::JobDefaults)
/// (built from the driver's flags) fills the gaps at execution time.
#[derive(Debug, Clone, Default)]
pub struct JobRequest {
    /// Job label (summaries, `--out-dir` file names).
    pub name: Option<String>,
    /// Path to the source file.
    pub input: Option<String>,
    /// Inline source text.
    pub source: Option<String>,
    /// Frontend name; `None` infers from `input`'s extension.
    pub frontend: Option<String>,
    /// Generator options, `--fopt`-style.
    pub fopts: Vec<(String, String)>,
    /// Pass pipeline; `None` uses the backend's required pipeline.
    pub pipeline: Option<Vec<String>>,
    /// Backend name.
    pub backend: Option<String>,
    /// Output file path.
    pub out: Option<String>,
    /// Simulation cycle budget.
    pub cycles: Option<u64>,
    /// Report format (`text` / `json`) for report-style backends.
    pub format: Option<String>,
    /// Per-job timeout in milliseconds.
    pub timeout_ms: Option<u64>,
}

/// One parsed protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile something.
    Job(Box<JobRequest>),
    /// List a registry (`frontends`, `backends`, `passes`, `lints`).
    List(String),
}

fn valid_keys() -> String {
    REQUEST_KEYS
        .iter()
        .map(|(k, _)| *k)
        .collect::<Vec<_>>()
        .join(", ")
}

fn expect_str(m: &json::Member) -> Result<String, String> {
    m.value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("key `{}` at column {} expects a string", m.key, m.col))
}

fn expect_u64(m: &json::Member) -> Result<u64, String> {
    m.value.as_u64().ok_or_else(|| {
        format!(
            "key `{}` at column {} expects a non-negative integer",
            m.key, m.col
        )
    })
}

impl Request {
    /// Parse and validate one JSON-lines request.
    ///
    /// # Errors
    ///
    /// Returns a message with the offending 1-based byte column for
    /// syntax errors, type mismatches, and unknown keys (listing the
    /// valid keys, which drivers surface as exit-2 style usage errors).
    pub fn from_json_line(line: &str) -> Result<Request, String> {
        let value = json::parse(line).map_err(|e| e.to_string())?;
        let members = value
            .as_obj()
            .ok_or_else(|| "a request must be a JSON object".to_string())?;

        let mut req = JobRequest::default();
        let mut list: Option<String> = None;
        for m in members {
            match m.key.as_str() {
                "name" => req.name = Some(expect_str(m)?),
                "input" => req.input = Some(expect_str(m)?),
                "source" => req.source = Some(expect_str(m)?),
                "frontend" => req.frontend = Some(expect_str(m)?),
                "backend" => req.backend = Some(expect_str(m)?),
                "out" => req.out = Some(expect_str(m)?),
                "cycles" => req.cycles = Some(expect_u64(m)?),
                "timeout_ms" => req.timeout_ms = Some(expect_u64(m)?),
                "format" => {
                    let f = expect_str(m)?;
                    if f != "text" && f != "json" {
                        return Err(format!(
                            "key `format` at column {} expects `text` or `json`, got `{f}`",
                            m.col
                        ));
                    }
                    req.format = Some(f);
                }
                "fopts" => {
                    let obj = m.value.as_obj().ok_or_else(|| {
                        format!("key `fopts` at column {} expects an object", m.col)
                    })?;
                    for opt in obj {
                        // Integral numbers are a natural spelling for
                        // dimension options; stringify them.
                        let value = match &opt.value {
                            Json::Str(s) => s.clone(),
                            other => other.as_u64().map(|n| n.to_string()).ok_or_else(|| {
                                format!(
                                    "fopt `{}` at column {} expects a string or integer",
                                    opt.key, opt.col
                                )
                            })?,
                        };
                        req.fopts.push((opt.key.clone(), value));
                    }
                }
                "pipeline" => {
                    let items = m.value.as_arr().ok_or_else(|| {
                        format!(
                            "key `pipeline` at column {} expects an array of pass names",
                            m.col
                        )
                    })?;
                    let mut names = Vec::with_capacity(items.len());
                    for item in items {
                        names.push(item.as_str().map(str::to_string).ok_or_else(|| {
                            format!("`pipeline` entries at column {} must be strings", m.col)
                        })?);
                    }
                    req.pipeline = Some(names);
                }
                "list" => {
                    let kind = expect_str(m)?;
                    let kinds = Session::list_kinds();
                    if !kinds.contains(&kind.as_str()) {
                        return Err(format!(
                            "key `list` at column {} expects one of: {}",
                            m.col,
                            kinds.join(", ")
                        ));
                    }
                    list = Some(kind);
                }
                other => {
                    return Err(format!(
                        "unknown key `{other}` at column {}; valid keys: {}",
                        m.col,
                        valid_keys()
                    ));
                }
            }
        }

        if let Some(kind) = list {
            if members.len() > 1 {
                return Err("a `list` request takes no other keys".to_string());
            }
            return Ok(Request::List(kind));
        }
        if req.input.is_some() && req.source.is_some() {
            return Err("`input` and `source` are mutually exclusive".to_string());
        }
        if req.input.is_none() && req.source.is_none() && req.frontend.is_none() {
            return Err(
                "a job needs `input`, `source`, or an explicit `frontend` (generator frontends \
                 may run on empty source)"
                    .to_string(),
            );
        }
        Ok(Request::Job(Box::new(req)))
    }
}

/// One job's terminal record: status, diagnostics, stage timings, and
/// where the output went. Rendered as a single JSON line in serve mode
/// and embedded (sans `output`) in batch summaries.
#[derive(Debug, Clone)]
pub struct JobResponse {
    /// 0-based request sequence number.
    pub id: usize,
    /// Job label; empty renders no `name` field.
    pub name: String,
    /// Terminal status.
    pub status: Status,
    /// What went wrong, for statuses other than [`Status::Ok`].
    pub error: Option<String>,
    /// Parse-cache outcome (`"hit"` / `"miss"`), when the job parsed.
    pub cache: Option<&'static str>,
    /// Per-stage wall times, when the job completed.
    pub stages: Option<StageTimes>,
    /// Path the output was written to.
    pub out: Option<String>,
    /// Inline output (serve-mode jobs with no output path).
    pub output: Option<String>,
}

impl JobResponse {
    /// A response carrying only identity and status.
    pub fn new(id: usize, name: impl Into<String>, status: Status) -> Self {
        JobResponse {
            id,
            name: name.into(),
            status,
            error: None,
            cache: None,
            stages: None,
            out: None,
            output: None,
        }
    }

    /// A failing response with a message.
    pub fn fail(
        id: usize,
        name: impl Into<String>,
        status: Status,
        error: impl Into<String>,
    ) -> Self {
        let mut r = JobResponse::new(id, name, status);
        r.error = Some(error.into());
        r
    }

    /// True for [`Status::Ok`].
    pub fn is_ok(&self) -> bool {
        self.status == Status::Ok
    }

    /// The response as an object. Field order is fixed; absent optionals
    /// are omitted rather than `null`, and every key is drawn from
    /// [`RESPONSE_KEYS`].
    pub(crate) fn to_json(&self) -> Json {
        let mut members = vec![("id", self.id.into())];
        if !self.name.is_empty() {
            members.push(("name", self.name.as_str().into()));
        }
        members.push(("status", self.status.as_str().into()));
        if let Some(e) = &self.error {
            members.push(("error", e.as_str().into()));
        }
        if let Some(c) = self.cache {
            members.push(("cache", c.into()));
        }
        if let Some(s) = &self.stages {
            let stages = [
                ("parse_us", s.parse),
                ("passes_us", s.passes),
                ("emit_us", s.emit),
                ("total_us", s.total),
            ];
            members.extend(stages.map(|(key, d)| (key, d.as_micros().into())));
        }
        if let Some(p) = &self.out {
            members.push(("out", p.as_str().into()));
        }
        if let Some(o) = &self.output {
            members.push(("output", o.as_str().into()));
        }
        Json::obj(members)
    }

    /// The response as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

/// Render a listing response for `list` requests: the registry name and
/// its `{name, description}` items, all drawn from [`RESPONSE_KEYS`].
pub fn render_listing(id: usize, kind: &str, items: &[(String, String)]) -> String {
    let items = items.iter().map(|(name, description)| {
        Json::obj([
            ("name", name.as_str().into()),
            ("description", description.as_str().into()),
        ])
    });
    Json::obj([
        ("id", id.into()),
        ("status", Status::Ok.as_str().into()),
        ("list", kind.into()),
        ("items", Json::Arr(items.collect())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn job(line: &str) -> JobRequest {
        match Request::from_json_line(line).unwrap() {
            Request::Job(j) => *j,
            Request::List(_) => panic!("expected a job"),
        }
    }

    #[test]
    fn full_job_request_parses() {
        let j = job(r#"{"input": "a.futil", "name": "a", "backend": "verilog",
                "pipeline": ["opt"], "fopts": {"kernel": "gemm", "n": 8},
                "cycles": 100, "format": "json", "timeout_ms": 500}"#);
        assert_eq!(j.input.as_deref(), Some("a.futil"));
        assert_eq!(j.name.as_deref(), Some("a"));
        assert_eq!(j.backend.as_deref(), Some("verilog"));
        assert_eq!(j.pipeline.as_deref(), Some(&["opt".to_string()][..]));
        assert_eq!(
            j.fopts,
            vec![
                ("kernel".to_string(), "gemm".to_string()),
                ("n".to_string(), "8".to_string())
            ]
        );
        assert_eq!((j.cycles, j.timeout_ms), (Some(100), Some(500)));
        assert_eq!(j.format.as_deref(), Some("json"));
    }

    #[test]
    fn unknown_keys_are_positioned_and_list_valid_keys() {
        let e = Request::from_json_line(r#"{"input": "a", "fronted": "calyx"}"#).unwrap_err();
        assert!(e.contains("unknown key `fronted` at column 16"), "{e}");
        for (k, _) in REQUEST_KEYS {
            assert!(e.contains(k), "valid-keys listing misses `{k}`: {e}");
        }
    }

    #[test]
    fn type_mismatches_are_positioned() {
        let e = Request::from_json_line(r#"{"input": 3}"#).unwrap_err();
        assert!(e.contains("`input` at column 2 expects a string"), "{e}");
        let e = Request::from_json_line(r#"{"input": "a", "cycles": "x"}"#).unwrap_err();
        assert!(e.contains("non-negative integer"), "{e}");
        let e = Request::from_json_line(r#"{"input": "a", "pipeline": "opt"}"#).unwrap_err();
        assert!(e.contains("array of pass names"), "{e}");
        let e = Request::from_json_line(r#"{"input": "a", "format": "yaml"}"#).unwrap_err();
        assert!(e.contains("`text` or `json`"), "{e}");
    }

    #[test]
    fn job_shape_is_validated() {
        let e = Request::from_json_line(r#"{"input": "a", "source": "b"}"#).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = Request::from_json_line(r#"{"name": "empty"}"#).unwrap_err();
        assert!(e.contains("needs `input`, `source`"), "{e}");
        // A bare generator frontend is a valid job.
        let j = job(r#"{"frontend": "polybench", "fopts": {"kernel": "gemm"}}"#);
        assert!(j.input.is_none() && j.source.is_none());
    }

    #[test]
    fn list_requests_parse_and_reject_extras() {
        match Request::from_json_line(r#"{"list": "backends"}"#).unwrap() {
            Request::List(kind) => assert_eq!(kind, "backends"),
            Request::Job(_) => panic!("expected a listing"),
        }
        let e = Request::from_json_line(r#"{"list": "register"}"#).unwrap_err();
        assert!(e.contains("frontends, backends, passes, lints"), "{e}");
        let e = Request::from_json_line(r#"{"list": "passes", "input": "a"}"#).unwrap_err();
        assert!(e.contains("no other keys"), "{e}");
    }

    #[test]
    fn syntax_errors_carry_columns() {
        let e = Request::from_json_line("{\"input\": }").unwrap_err();
        assert!(e.contains("column 11"), "{e}");
        let e = Request::from_json_line("[1]").unwrap_err();
        assert!(e.contains("must be a JSON object"), "{e}");
    }

    #[test]
    fn response_render_is_pinned() {
        let mut r = JobResponse::new(3, "gemm", Status::Ok);
        r.cache = Some("hit");
        r.stages = Some(StageTimes {
            parse: Duration::from_micros(100),
            passes: Duration::from_micros(200),
            emit: Duration::from_micros(30),
            total: Duration::from_micros(345),
        });
        r.out = Some("out/gemm.sv".to_string());
        assert_eq!(
            r.render(),
            "{\"id\": 3, \"name\": \"gemm\", \"status\": \"ok\", \"cache\": \"hit\", \
             \"parse_us\": 100, \"passes_us\": 200, \"emit_us\": 30, \"total_us\": 345, \
             \"out\": \"out/gemm.sv\"}"
        );

        let r = JobResponse::fail(0, "", Status::Error, "boom \"quoted\"");
        assert_eq!(
            r.render(),
            "{\"id\": 0, \"status\": \"error\", \"error\": \"boom \\\"quoted\\\"\"}"
        );
    }

    /// Every key a rendered response uses must come from the documented
    /// table — the encoder cannot drift from the protocol spec.
    #[test]
    fn rendered_responses_use_only_documented_keys() {
        let mut r = JobResponse::new(1, "n", Status::Ok);
        r.error = Some("e".into());
        r.cache = Some("miss");
        r.stages = Some(StageTimes::default());
        r.out = Some("o".into());
        r.output = Some("text".into());
        for rendered in [
            r.render(),
            render_listing(0, "backends", &[("sim".into(), "d".into())]),
        ] {
            let v = crate::json::parse(&rendered).unwrap();
            for m in v.as_obj().unwrap() {
                assert!(
                    RESPONSE_KEYS.iter().any(|(k, _)| *k == m.key)
                        || m.key == "name"
                        || m.key == "description",
                    "undocumented response key `{}`",
                    m.key
                );
            }
        }
    }

    /// The hand-written protocol tables in the README must quote
    /// [`REQUEST_KEYS`] and [`RESPONSE_KEYS`] verbatim — the same
    /// strings the request validator lists when it rejects an unknown
    /// key — or the spec and the encoder drift apart. Same guard as the
    /// frontend/backend/lint README tables.
    #[test]
    fn readme_protocol_tables_quote_the_key_constants() {
        let readme = include_str!("../../../README.md");
        for (key, description) in REQUEST_KEYS.iter().chain(RESPONSE_KEYS) {
            let row = format!("| `{key}` | {description} |");
            assert!(
                readme.contains(&row),
                "README protocol table out of sync for `{key}`: expected row `{row}`"
            );
        }
        for kind in Session::list_kinds() {
            assert!(
                readme.contains(&format!("`{kind}`")),
                "README never mentions list kind `{kind}`"
            );
        }
    }

    #[test]
    fn listing_renders_items() {
        let line = render_listing(
            2,
            "frontends",
            &[
                ("calyx".into(), "native".into()),
                ("dahlia".into(), "hll".into()),
            ],
        );
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("list").unwrap().as_str(), Some("frontends"));
        assert_eq!(v.get("items").unwrap().as_arr().unwrap().len(), 2);
    }
}
