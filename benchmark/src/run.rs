//! One run of one workload: establish what is correct, then in rounds set
//! up, warm up and time sweeps, for the given number of seconds in all,
//! and turn what was measured into named metrics.
//!
//! An untraced run (`trace = false`) yields the end-to-end metrics. A
//! traced run alternates traced and untraced sweeps in the same process —
//! the traced ones feed the per-layer metrics, and the difference between
//! the two medians is the tracing overhead.

use crate::host;
use crate::inputs::Rng;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, sorted};
use crate::trace::{ms, Tracer};
use crate::workloads::{establish, Env, Kind, Prepared, Tally};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Rounds of a run. Each round sets the workload up afresh, warms it up
/// and times sweeps for a fifth of `--seconds`, so the set-ups are samples
/// from five different moments of the run, as the sweeps are.
pub const ROUNDS: usize = 5;

/// The percentile (nearest rank) the two gated timings report:
/// `sweep_p10_ms` over the run's sweeps and `setup_s` over its set-ups
/// (of five, the fastest). The box this runs on is shared, and a
/// neighbour's load slows everything by up to half for seconds at a
/// time; which share of a run that covers varies from run to run, so the
/// median flips between two modes. A low percentile reads the mode the
/// neighbours left alone. It cannot see a slowdown that spares a tenth of
/// the samples; the record carries the plain p50 and p90 for that.
pub const QUIET_PCT: f64 = 10.0;

/// Fewest timed untraced sweeps of a full run, so that ten samples lie
/// below p10 and ten beyond p90. A run on a slow or disturbed box
/// overruns `--seconds` rather than quote a percentile it has not seen.
pub const MIN_SWEEPS: usize = 100;

/// Fewest traced sweeps of a full traced run.
pub const MIN_TRACED_SWEEPS: usize = 20;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub kind: Kind,
    pub seed: u64,
    /// How long to time sweeps for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// One round, one warm-up sweep, two timed sweeps (of each kind).
    pub smoke: bool,
    pub env: Env,
}

/// A named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one run produced.
pub struct RunResult {
    pub cfg: RunCfg,
    /// Designs attempted and failed over the timed sweeps.
    pub tally: Tally,
    /// Every end-to-end metric (untraced) or every per-layer one (traced).
    pub metrics: Vec<Metric>,
    /// Time of every round's set-up, in the order they ran (s).
    pub setups_s: Vec<f64>,
    pub warmup_sweeps: usize,
    /// Timed traced sweeps: the sample count behind per-layer medians.
    pub traced_sweeps: usize,
    pub first_failure: Option<String>,
    /// Time of every timed untraced sweep, in the order they ran (ms).
    pub sweep_ms: Vec<f64>,
    pub prepared: Prepared,
    pub tracer: Tracer,
}

impl RunResult {
    /// No design failed in any timed sweep.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed == 0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run one workload.
///
/// # Errors
///
/// A design that does not compile, simulate to its reference, or repeat
/// itself; a missing `futil` binary.
pub fn run(cfg: RunCfg) -> Result<RunResult, String> {
    let kind = cfg.kind;
    let (rounds, warmup) = if cfg.smoke {
        (1, 1)
    } else {
        (ROUNDS, kind.warmup_sweeps())
    };
    let min_sweeps = match (cfg.smoke, cfg.trace) {
        (true, false) => 2,
        (true, true) => 4,
        (false, false) => MIN_SWEEPS,
        (false, true) => 2 * MIN_TRACED_SWEEPS,
    };
    // The benchmark's own checking, outside every clock.
    let expected = establish(kind, cfg.seed)?;

    let mut tracer = Tracer::new(expected.len());
    let mut order = Rng::new(cfg.seed, "sweep-order");
    let mut setups = Vec::with_capacity(rounds);
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut tally = Tally::default();
    let mut job_ms = Vec::new();
    let mut first_failure = None;
    let mut last: Option<Prepared> = None;
    let mut n = 0usize;
    for round in 1..=rounds {
        // One set-up alive at a time, so peak memory is that of one.
        drop(last.take());

        // Set-up: inputs, registries, services and graphs, cache priming,
        // warm-up sweeps.
        let started = Instant::now();
        let mut prepared = Prepared::new(kind, cfg.seed, &cfg.env, &expected)?;
        for _ in 0..warmup {
            tracer.begin_sweep(false);
            let _ = prepared.sweep(&order.permutation(expected.len()), &mut tracer, false);
            let _ = tracer.end_sweep();
        }
        setups.push(started.elapsed().as_secs_f64());

        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / rounds as f64);
        let quota = (min_sweeps * round).div_ceil(rounds);
        loop {
            let traced = cfg.trace && n.is_multiple_of(2);
            tracer.begin_sweep(traced);
            let t = prepared.sweep(&order.permutation(expected.len()), &mut tracer, false);
            let sweep = ms(tracer.end_sweep());
            if traced {
                traced_ms.push(sweep);
            } else {
                plain_ms.push(sweep);
            }
            tally.attempted += t.attempted;
            tally.failed += t.failed;
            n += 1;
            if n >= quota && (cfg.smoke || Instant::now() >= deadline) {
                break;
            }
        }
        job_ms.append(&mut prepared.job_ms);
        first_failure = first_failure.or(prepared.first_failure.take());
        last = Some(prepared);
    }
    let mut prepared = last.expect("at least one round ran");
    prepared.job_ms = job_ms;

    let metrics = if cfg.trace {
        // Traced and untraced sweeps alternate, so a disturbance of the
        // box hits both alike and their plain medians compare.
        let untraced = median(&plain_ms);
        per_layer(
            &prepared,
            &tracer,
            ratio(median(&traced_ms) - untraced, untraced),
        )
    } else {
        let sweeps = sorted(&plain_ms);
        let values = [
            percentile(&sorted(&setups), QUIET_PCT),
            percentile(&sweeps, QUIET_PCT),
            host::peak_rss_mb(),
            prepared.design_cycles() as f64,
            prepared.design_luts() as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };

    Ok(RunResult {
        tally,
        metrics,
        setups_s: setups,
        warmup_sweeps: warmup,
        traced_sweeps: traced_ms.len(),
        first_failure,
        sweep_ms: plain_ms,
        prepared,
        tracer,
        cfg,
    })
}

/// Every per-layer metric, from the traced sweeps' samples: the median
/// over sweeps of what one sweep spent or counted, plus the ratios
/// derived from those medians.
fn per_layer(prepared: &Prepared, tracer: &Tracer, overhead: f64) -> Vec<Metric> {
    let mut v: BTreeMap<&str, f64> = tracer
        .samples
        .iter()
        .map(|(name, samples)| (*name, median(samples)))
        .collect();
    for &(name, value) in &prepared.once {
        v.entry(name).or_insert(value);
    }
    let get = |v: &BTreeMap<&str, f64>, name: &str| v.get(name).copied().unwrap_or(0.0);
    let mb_per_s = |bytes: f64, ms: f64| ratio(bytes / 1e6, ms / 1e3);

    let jobs = sorted(&prepared.job_ms);
    let derived = [
        (
            "core.parser.mb_per_s",
            mb_per_s(get(&v, "core.printer.bytes"), get(&v, "core.parser.ms")),
        ),
        (
            "backend.verilog.mb_per_s",
            match get(&v, "backend.verilog.emit_ms") {
                0.0 => 0.0,
                emit_ms => mb_per_s(get(&v, "backend.verilog.bytes"), emit_ms),
            },
        ),
        (
            "sim.rtl.ns_per_cycle",
            ratio(get(&v, "sim.rtl.run_ms") * 1e6, get(&v, "sim.rtl.cycles")),
        ),
        (
            "sim.interp.ns_per_cycle",
            ratio(
                get(&v, "sim.interp.run_ms") * 1e6,
                get(&v, "sim.interp.cycles"),
            ),
        ),
        (
            "core.analysis.cache_hit_ratio",
            ratio(
                get(&v, "core.analysis.cache_hits"),
                get(&v, "core.analysis.cache_hits") + get(&v, "core.analysis.cache_misses"),
            ),
        ),
        (
            "service.cache.hit_ratio",
            ratio(
                get(&v, "service.cache.hits"),
                get(&v, "service.cache.hits") + get(&v, "service.cache.misses"),
            ),
        ),
        (
            "plan.cache_hit_ratio",
            ratio(
                get(&v, "plan.steps_cached"),
                get(&v, "plan.steps_cached") + get(&v, "plan.steps_ran"),
            ),
        ),
        ("service.job_p50_ms", percentile(&jobs, 50.0)),
        ("service.job_p99_ms", percentile(&jobs, 99.0)),
        (
            "cli.compile_ms",
            (get(&v, "cli.job") - get(&v, "cli.spawn_ms")).max(0.0),
        ),
        ("bench.trace_overhead_share", overhead),
    ];
    v.extend(derived);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: get(&v, name),
        })
        .collect()
}
