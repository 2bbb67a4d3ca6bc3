//! `ledger diff A.json B.json`: compare two result files, end-to-end
//! metric by workload, against the bounds in `BENCHMARK.json`.
//!
//! A is the baseline, B the candidate. Each file holds one or more sets of
//! runs; a pairing is judged on the medians over its sets, and on the
//! run-to-run spread when a file holds enough sets to show one.

use crate::spec::{MetricSpec, Spec, EXACT};
use crate::stats::{median, quartiles, sorted};
use calyx_service::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// The judgement on one metric × workload pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound and the two sides' runs
    /// overlap: the data cannot say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of one side: the interquartile distance with four or
/// more runs, the range with two or three, nothing to go on with one.
fn spread(values: &[f64]) -> f64 {
    match values.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let v = sorted(values);
            v[v.len() - 1] - v[0]
        }
        _ => quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1),
    }
}

/// Judge candidate runs `b` against baseline runs `a`. Returns the verdict
/// and the share by which B's median is worse than A's (negative: better).
pub fn judge(a: &[f64], b: &[f64], m: &MetricSpec) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let sign = if m.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma
    };
    let b_worse_than_a = |x: f64, y: f64| sign * (y - x) > 0.0;
    if EXACT.contains(&m.name.as_str()) {
        // Counts repeat exactly; a side that disagrees with itself is a
        // non-deterministic compiler, which no bound excuses.
        let steady = |v: &[f64]| v.iter().all(|x| *x == v[0]);
        let verdict = if !steady(a) || !steady(b) {
            Verdict::Unresolved
        } else if worse_by > 0.0 {
            Verdict::Worse
        } else if worse_by < 0.0 {
            Verdict::Better
        } else {
            Verdict::Same
        };
        return (verdict, worse_by);
    }
    let bound = m.bound.unwrap_or(0.0);
    let noisy = ma != 0.0 && spread(a).max(spread(b)) / ma.abs() > bound;
    let verdict = if noisy {
        let all = |f: &dyn Fn(f64, f64) -> bool| a.iter().all(|x| b.iter().all(|y| f(*x, *y)));
        if all(&|x, y| b_worse_than_a(y, x)) {
            Verdict::Better
        } else if worse_by > bound && all(&b_worse_than_a) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

/// `(workload, metric) -> one value per set`, from a result file's
/// untraced runs.
pub fn end_to_end_values(file: &Json) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let sets = file
        .get("sets")
        .and_then(Json::as_arr)
        .ok_or("result file has no `sets`")?;
    for record in sets.iter().filter_map(Json::as_arr).flatten() {
        if record.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run record has no `workload`")?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or("a run record has no `result.metrics`")?;
        for m in metrics {
            if let Some(Json::Num(v)) = m.value.get("value") {
                out.entry((workload.to_string(), m.key.clone()))
                    .or_default()
                    .push(*v);
            }
        }
    }
    Ok(out)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print one row per metric × workload; returns how many were `worse`
/// and how many `unresolved`.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn diff(spec: &Spec, a: &Path, b: &Path) -> Result<(usize, usize), String> {
    let va = end_to_end_values(&load(a)?)?;
    let vb = end_to_end_values(&load(b)?)?;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "worse by", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(a), Some(b)) = (va.get(&key), vb.get(&key)) else {
                println!("{workload:<16} {:<14} missing from one file", m.name);
                unresolved += 1;
                continue;
            };
            let (verdict, worse_by) = judge(a, b, m);
            worse += usize::from(verdict == Verdict::Worse);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{workload:<16} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {} (n={}/{})",
                m.name,
                median(a),
                median(b),
                worse_by * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                verdict.label(),
                a.len(),
                b.len(),
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok((worse, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.to_string(),
            unit: "ms".to_string(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn single_runs_are_judged_on_the_bound() {
        let m = metric("sweep_p50_ms", true, 0.05);
        assert_eq!(judge(&[100.0], &[104.0], &m).0, Verdict::Same);
        assert_eq!(judge(&[100.0], &[106.0], &m).0, Verdict::Worse);
        assert_eq!(judge(&[100.0], &[94.0], &m).0, Verdict::Better);
        let up = metric("throughput", false, 0.05);
        assert_eq!(judge(&[100.0], &[94.0], &up).0, Verdict::Worse);
        assert_eq!(judge(&[100.0], &[106.0], &up).0, Verdict::Better);
    }

    #[test]
    fn noisy_sides_are_unresolved_unless_they_do_not_overlap() {
        let m = metric("sweep_p50_ms", true, 0.05);
        // Spread (range 20) far beyond the bound, runs overlap.
        assert_eq!(
            judge(&[90.0, 100.0, 110.0], &[95.0, 108.0, 112.0], &m).0,
            Verdict::Unresolved
        );
        // Same spread, but every B run beats every A run.
        assert_eq!(
            judge(&[90.0, 100.0, 110.0], &[60.0, 70.0, 80.0], &m).0,
            Verdict::Better
        );
        // ... or loses to every A run, by more than the bound.
        assert_eq!(
            judge(&[90.0, 100.0, 110.0], &[120.0, 130.0, 140.0], &m).0,
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        let m = metric("design_cycles", true, 0.001);
        assert_eq!(judge(&[5000.0], &[5000.0], &m).0, Verdict::Same);
        assert_eq!(judge(&[5000.0], &[5001.0], &m).0, Verdict::Worse);
        assert_eq!(judge(&[5000.0], &[4999.0], &m).0, Verdict::Better);
        assert_eq!(
            judge(&[5000.0, 5001.0], &[5000.0, 5000.0], &m).0,
            Verdict::Unresolved
        );
    }
}
