//! Throughput and latency accounting for batch runs.
//!
//! Each job records wall times per stage ([`StageTimes`]); the batch
//! aggregates them into a [`BatchSummary`] reporting kernels/sec and
//! nearest-rank p50/p99 job latency, rendered as a human-readable text
//! block or a schema-pinned JSON object (`futil --batch --format json`).

use crate::cache::CacheStats;
use crate::json::Json;
use crate::protocol::{JobResponse, Status};
use std::time::Duration;

/// Wall-clock time spent in each stage of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimes {
    /// Frontend ingestion (parse/generation); on a job-cache hit, which
    /// runs no stage, the cache lookup.
    pub parse: Duration,
    /// The pass pipeline.
    pub passes: Duration,
    /// Backend validation + emission.
    pub emit: Duration,
    /// End-to-end job time (≥ the sum of the stages).
    pub total: Duration,
}

/// Nearest-rank percentile of an **ascending-sorted** slice: the
/// smallest element ≥ `pct`% of the population. Empty input is zero.
pub fn percentile(sorted: &[Duration], pct: u32) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (sorted.len() as u64 * u64::from(pct)).div_ceil(100);
    sorted[(rank.max(1) as usize - 1).min(sorted.len() - 1)]
}

/// The outcome of one batch: every job's response plus batch-level wall
/// time and job-cache counters.
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Per-job responses, in job order.
    pub results: Vec<JobResponse>,
    /// Wall time from first dispatch to last completion.
    pub wall: Duration,
    /// Job-cache activity during the batch.
    pub cache: CacheStats,
}

impl BatchSummary {
    fn count(&self, f: impl Fn(Status) -> bool) -> usize {
        self.results.iter().filter(|r| f(r.status)).count()
    }

    /// Jobs that compiled and emitted successfully.
    pub fn ok(&self) -> usize {
        self.count(|s| s == Status::Ok)
    }

    /// Jobs that failed (error, panic, or timeout).
    pub fn failed(&self) -> usize {
        self.count(|s| matches!(s, Status::Error | Status::Panic | Status::Timeout))
    }

    /// Jobs never run because `--fail-fast` aborted the batch.
    pub fn skipped(&self) -> usize {
        self.count(|s| s == Status::Skipped)
    }

    /// True when every job succeeded (drivers exit 0 on this).
    pub fn all_ok(&self) -> bool {
        self.ok() == self.results.len()
    }

    /// Completed-job latencies (total stage time), ascending.
    pub fn latencies(&self) -> Vec<Duration> {
        let mut v: Vec<Duration> = self
            .results
            .iter()
            .filter_map(|r| r.stages.map(|s| s.total))
            .collect();
        v.sort_unstable();
        v
    }

    /// Successful jobs per wall-clock second.
    pub fn kernels_per_sec(&self) -> f64 {
        self.ok() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The human-readable summary. With `detail`, appends the per-job
    /// stage table (`futil --batch --time`/`--stats` aggregate per-job
    /// timings here instead of interleaving stderr lines).
    pub fn render_text(&self, detail: bool) -> String {
        let lat = self.latencies();
        let mut out = format!(
            "batch: {} jobs, {} ok, {} failed, {} skipped in {:.3?} ({:.1} kernels/sec)\n\
             latency: p50 {:.3?}  p99 {:.3?}\n\
             cache: {} hits, {} misses",
            self.results.len(),
            self.ok(),
            self.failed(),
            self.skipped(),
            self.wall,
            self.kernels_per_sec(),
            percentile(&lat, 50),
            percentile(&lat, 99),
            self.cache.hits,
            self.cache.misses,
        );
        if detail {
            out.push_str(&format!(
                "\n  {:>4}  {:<8}{:<6}{:>10}{:>10}{:>10}{:>10}  {}",
                "id", "status", "cache", "parse", "passes", "emit", "total", "name"
            ));
            for r in &self.results {
                let t = |d: Option<Duration>| match d {
                    Some(d) => format!("{d:.3?}"),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "\n  {:>4}  {:<8}{:<6}{:>10}{:>10}{:>10}{:>10}  {}",
                    r.id,
                    r.status.to_string(),
                    r.cache.unwrap_or("-"),
                    t(r.stages.map(|s| s.parse)),
                    t(r.stages.map(|s| s.passes)),
                    t(r.stages.map(|s| s.emit)),
                    t(r.stages.map(|s| s.total)),
                    r.name,
                ));
            }
        }
        for r in self.results.iter().filter(|r| !r.is_ok()) {
            let msg = r.error.as_deref().unwrap_or("unknown failure");
            // First line only: caret diagnostics span several lines.
            let first = msg.lines().next().unwrap_or(msg);
            out.push_str(&format!(
                "\n  job {} ({}): {}: {first}",
                r.id, r.name, r.status
            ));
        }
        out
    }

    /// The machine-readable summary: one object in the block layout of
    /// [`Json::render_block`], whose schema (keys, nesting, and per-job
    /// records) is pinned by golden tests — add fields rather than
    /// changing these. `kernels_per_sec` is rounded to one decimal.
    ///
    /// ```json
    /// {
    ///   "jobs": 2,
    ///   "ok": 2,
    ///   "failed": 0,
    ///   "skipped": 0,
    ///   "wall_us": 3120,
    ///   "kernels_per_sec": 641,
    ///   "p50_us": 1490,
    ///   "p99_us": 1630,
    ///   "parse_cache": {"hits": 1, "misses": 1},
    ///   "results": [
    ///     {"id": 0, "name": "gemm", "status": "ok", "cache": "miss", "parse_us": 900, …},
    ///     …
    ///   ]
    /// }
    /// ```
    pub fn render_json(&self) -> String {
        let lat = self.latencies();
        let cache = Json::obj([
            ("hits", self.cache.hits.into()),
            ("misses", self.cache.misses.into()),
        ]);
        Json::obj([
            ("jobs", self.results.len().into()),
            ("ok", self.ok().into()),
            ("failed", self.failed().into()),
            ("skipped", self.skipped().into()),
            ("wall_us", self.wall.as_micros().into()),
            (
                "kernels_per_sec",
                ((self.kernels_per_sec() * 10.0).round() / 10.0).into(),
            ),
            ("p50_us", percentile(&lat, 50).as_micros().into()),
            ("p99_us", percentile(&lat, 99).as_micros().into()),
            ("parse_cache", cache),
            (
                "results",
                Json::Arr(self.results.iter().map(JobResponse::to_json).collect()),
            ),
        ])
        .render_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50), Duration::ZERO);
        let one = [us(7)];
        assert_eq!(percentile(&one, 50), us(7));
        assert_eq!(percentile(&one, 99), us(7));
        let v: Vec<Duration> = (1..=100).map(us).collect();
        assert_eq!(percentile(&v, 50), us(50));
        assert_eq!(percentile(&v, 99), us(99));
        assert_eq!(percentile(&v, 100), us(100));
        let v: Vec<Duration> = (1..=4).map(us).collect();
        assert_eq!(percentile(&v, 50), us(2));
        assert_eq!(percentile(&v, 99), us(4));
    }

    fn sample() -> BatchSummary {
        let mut ok = JobResponse::new(0, "a", Status::Ok);
        ok.cache = Some("miss");
        ok.stages = Some(StageTimes {
            parse: us(900),
            passes: us(400),
            emit: us(150),
            total: us(1490),
        });
        let mut ok2 = JobResponse::new(1, "b", Status::Ok);
        ok2.cache = Some("hit");
        ok2.stages = Some(StageTimes {
            parse: us(100),
            passes: us(410),
            emit: us(160),
            total: us(700),
        });
        let bad = JobResponse::fail(2, "c", Status::Error, "no such kernel");
        BatchSummary {
            results: vec![ok, ok2, bad],
            wall: Duration::from_millis(2),
            cache: CacheStats { hits: 1, misses: 1 },
        }
    }

    #[test]
    fn counts_and_rates() {
        let s = sample();
        assert_eq!((s.ok(), s.failed(), s.skipped()), (2, 1, 0));
        assert!(!s.all_ok());
        assert_eq!(s.latencies(), vec![us(700), us(1490)]);
        assert!(
            (s.kernels_per_sec() - 1000.0).abs() < 1.0,
            "{}",
            s.kernels_per_sec()
        );
    }

    #[test]
    fn text_summary_reports_failures_and_detail() {
        let s = sample();
        let text = s.render_text(false);
        assert!(
            text.starts_with("batch: 3 jobs, 2 ok, 1 failed, 0 skipped in 2"),
            "{text}"
        );
        assert!(text.contains("(1000.0 kernels/sec)"), "{text}");
        assert!(
            text.contains("latency: p50 700.000µs  p99 1.490ms"),
            "{text}"
        );
        assert!(text.contains("\ncache: 1 hits, 1 misses"), "{text}");
        assert!(text.contains("job 2 (c): error: no such kernel"), "{text}");
        assert!(!text.contains("passes"), "{text}");

        let detail = s.render_text(true);
        assert!(detail.contains("passes"), "{detail}");
        assert!(detail.contains("miss"), "{detail}");
        assert!(detail.contains("1.490ms"), "{detail}");
    }

    /// The JSON schema is load-bearing: CI and external tooling parse
    /// it. This golden pins the exact bytes for a fixed summary.
    #[test]
    fn json_summary_schema_is_pinned() {
        let s = sample();
        assert_eq!(
            s.render_json(),
            "{\n  \"jobs\": 3,\n  \"ok\": 2,\n  \"failed\": 1,\n  \"skipped\": 0,\n  \"wall_us\": 2000,\n  \"kernels_per_sec\": 1000,\n  \"p50_us\": 700,\n  \"p99_us\": 1490,\n  \"parse_cache\": {\"hits\": 1, \"misses\": 1},\n  \"results\": [\n    {\"id\": 0, \"name\": \"a\", \"status\": \"ok\", \"cache\": \"miss\", \"parse_us\": 900, \"passes_us\": 400, \"emit_us\": 150, \"total_us\": 1490},\n    {\"id\": 1, \"name\": \"b\", \"status\": \"ok\", \"cache\": \"hit\", \"parse_us\": 100, \"passes_us\": 410, \"emit_us\": 160, \"total_us\": 700},\n    {\"id\": 2, \"name\": \"c\", \"status\": \"error\", \"error\": \"no such kernel\"}\n  ]\n}"
        );
        // And it parses back with the crate's own reader.
        let v = crate::json::parse(&s.render_json()).unwrap();
        assert_eq!(v.get("jobs").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("results").unwrap().as_arr().unwrap().len(), 3);
        // Throughput keeps one decimal.
        let s = BatchSummary {
            wall: Duration::from_millis(3),
            ..sample()
        };
        assert!(s.render_json().contains("\"kernels_per_sec\": 666.7,\n"));
    }
}
