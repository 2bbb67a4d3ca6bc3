//! `BENCHMARK.json`: the contract file at the root of the repository. It
//! is the one place that holds each metric's direction and regression
//! bound; the ledger reads them from there to print and to diff.

use calyx_service::json::{self, Json};
use std::path::Path;

/// Exact metrics: counts that repeat bit for bit. Any change in one is a
/// change in the compiler's output, never noise.
pub const EXACT: &[&str] = &["design_cycles", "design_luts"];

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may get worse (end-to-end
    /// metrics only; per-layer metrics have no bound).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the ledger uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(root: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{k}`"))
    };
    root.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                lower_is_better: field(m, "better")? == "lower",
                bound: match m.get("bound") {
                    Some(Json::Num(b)) => Some(*b),
                    _ => None,
                },
            })
        })
        .collect()
}

impl Spec {
    /// Parse the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing key.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = json::parse(text.trim()).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = root
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: no `workloads` list")?
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("why"))
            })
            .collect();
        Ok(Spec {
            run_seconds: match root.get("run_seconds") {
                Some(Json::Num(s)) => *s,
                _ => return Err("BENCHMARK.json: no `run_seconds`".to_string()),
            },
            workloads,
            end_to_end: metric_list(&root, "end_to_end")?,
            per_layer: metric_list(&root, "per_layer")?,
        })
    }

    /// Read and parse `path`.
    ///
    /// # Errors
    ///
    /// The file cannot be read or does not parse.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        Spec::parse(&text)
    }
}
