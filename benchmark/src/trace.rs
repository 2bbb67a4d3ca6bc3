//! The span recorder and the route clock.
//!
//! The benchmark measures the program from outside: a *span* is one call
//! into a public function of the program (or one piece of the benchmark's
//! own bookkeeping), recorded by the code in `workloads.rs` around that
//! call. Spans form a tree per sweep — sweep → design → layer call — and
//! are kept in memory; the first [`KEEP_SWEEPS`] traced sweeps are
//! written out as Chrome-trace JSON when the run ends.
//!
//! The same object keeps the *route clock*, which runs whether or not
//! spans are recorded: a design's route time is the wall time between
//! [`Tracer::begin_route`] and [`Tracer::end_route`] minus everything
//! wrapped in [`Tracer::begin_excluded`] (output verification and the
//! measurements taken beside the route), so traced and untraced sweeps
//! time the same work.

use crate::report::obj;
use calyx_service::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A duration in milliseconds, the unit of every time the ledger reports.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Traced sweeps whose spans are kept for the Chrome trace file.
pub const KEEP_SWEEPS: u32 = 20;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Design index of a span that covers the whole sweep.
pub const ALL_DESIGNS: u16 = u16::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer metric this interval feeds (e.g. `sim.rtl.run_ms`).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index (within the same sweep) of the span that caused this one.
    pub parent: u32,
    /// Sweep id, shared by every span of one sweep.
    pub sweep: u32,
    /// Index of the design in the workload's list, or [`ALL_DESIGNS`].
    pub design: u16,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. `spans` is one sweep (parents index into it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Handle returned by the `begin_*` calls; hand it back to [`Tracer::end`].
#[must_use]
pub struct Token {
    span: Option<u32>,
    excluded_since: Option<Instant>,
}

/// Span recorder + route clock for one workload run.
pub struct Tracer {
    origin: Instant,
    /// Whether the current sweep records spans.
    on: bool,
    sweep: u32,
    traced_sweeps: u32,
    design: u16,
    stack: Vec<u32>,
    spans: Vec<Span>,
    kept: Vec<Span>,
    route_start: Instant,
    excluded: Duration,
    sweep_route: Duration,
    counters: BTreeMap<&'static str, f64>,
    /// Per traced sweep, one value per metric name: the summed duration
    /// (ms) of the spans of that name plus whatever [`Tracer::add`] counted.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The same, split by design: `per_design[design][metric]`.
    pub per_design: Vec<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    /// A recorder for a workload of `designs` designs.
    pub fn new(designs: usize) -> Self {
        let now = Instant::now();
        Tracer {
            origin: now,
            on: false,
            sweep: 0,
            traced_sweeps: 0,
            design: ALL_DESIGNS,
            stack: Vec::new(),
            spans: Vec::new(),
            kept: Vec::new(),
            route_start: now,
            excluded: Duration::ZERO,
            sweep_route: Duration::ZERO,
            counters: BTreeMap::new(),
            samples: BTreeMap::new(),
            per_design: vec![BTreeMap::new(); designs],
        }
    }

    /// Whether the current sweep records spans. Measurements taken
    /// *beside* the route (print→parse, area, IR counts) run only then.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a sweep; `traced` turns span recording on for it.
    pub fn begin_sweep(&mut self, traced: bool) {
        self.on = traced;
        self.sweep_route = Duration::ZERO;
        self.design = ALL_DESIGNS;
        if traced {
            let t = self.begin("sweep");
            debug_assert_eq!(t.span, Some(0));
        }
    }

    /// End the sweep: fold its spans into [`Tracer::samples`] and return
    /// the sweep's time, the sum of its route times.
    pub fn end_sweep(&mut self) -> Duration {
        if self.on {
            let end = self.now_ns();
            self.spans[0].end_ns = end;
            self.stack.clear();
            self.fold();
            self.traced_sweeps += 1;
        }
        self.sweep += 1;
        self.on = false;
        self.sweep_route
    }

    fn fold(&mut self) {
        let mut totals = std::mem::take(&mut self.counters);
        for s in &self.spans {
            let ms = s.dur_ns() as f64 / 1e6;
            *totals.entry(s.name).or_insert(0.0) += ms;
            if let Some(d) = self.per_design.get_mut(s.design as usize) {
                d.entry(s.name).or_default().push(ms);
            }
        }
        for (name, v) in totals {
            self.samples.entry(name).or_default().push(v);
        }
        if self.traced_sweeps < KEEP_SWEEPS {
            self.kept.append(&mut self.spans);
        } else {
            self.spans.clear();
        }
    }

    /// Start timing one route: design `design` of the list, or
    /// [`ALL_DESIGNS`] when one call serves the whole list (a batch).
    pub fn begin_route(&mut self, design: u16) -> Token {
        self.design = design;
        let tok = self.begin("route");
        self.excluded = Duration::ZERO;
        self.route_start = Instant::now();
        tok
    }

    /// Stop the route clock; returns wall time minus excluded time.
    pub fn end_route(&mut self, tok: Token) -> Duration {
        let route = self.route_start.elapsed().saturating_sub(self.excluded);
        self.end(tok);
        self.design = ALL_DESIGNS;
        self.sweep_route += route;
        route
    }

    /// Open a span named after the layer metric it feeds. Free when the
    /// sweep is untraced.
    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.on {
            return Token {
                span: None,
                excluded_since: None,
            };
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            sweep: self.sweep,
            design: self.design,
        });
        Token {
            span: Some(idx),
            excluded_since: None,
        }
    }

    /// Open a span whose time does not count towards the route: the
    /// benchmark's own work (verifying outputs, measuring beside the
    /// route). The clock part runs in untraced sweeps too.
    pub fn begin_excluded(&mut self, name: &'static str) -> Token {
        let mut tok = self.begin(name);
        tok.excluded_since = Some(Instant::now());
        tok
    }

    /// Close the span (and the exclusion) `tok` opened.
    pub fn end(&mut self, tok: Token) {
        if let Some(since) = tok.excluded_since {
            self.excluded += since.elapsed();
        }
        if let Some(idx) = tok.span {
            self.spans[idx as usize].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Count `v` against `name` for the current sweep (work done, bytes,
    /// hits) — recorded at the same boundary as the span it belongs to.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Summed self time (ms) per span name over the kept sweeps.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for sweep in self.kept.chunk_by(|a, b| a.sweep == b.sweep) {
            for (s, own) in sweep.iter().zip(self_times(sweep)) {
                *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        out
    }

    /// The kept spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
    /// one complete ("X") event per span, microsecond timestamps.
    pub fn chrome_trace(&self, design_names: &[String]) -> String {
        let mut base = 0u32;
        let mut prev_sweep = self.kept.first().map_or(0, |s| s.sweep);
        let events = self.kept.iter().enumerate().map(|(i, s)| {
            if s.sweep != prev_sweep {
                prev_sweep = s.sweep;
                base = i as u32;
            }
            let design = design_names
                .get(s.design as usize)
                .map_or("*", String::as_str);
            let parent = match s.parent {
                NO_PARENT => Json::Null,
                p => Json::Num(f64::from(base + p)),
            };
            obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    obj(vec![
                        ("id", Json::Num(i as f64)),
                        ("parent", parent),
                        ("sweep", Json::Num(f64::from(s.sweep))),
                        ("design", Json::Str(design.to_string())),
                    ]),
                ),
            ])
        });
        obj(vec![("traceEvents", Json::Arr(events.collect()))]).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            sweep: 0,
            design: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("sweep", 0, 100, NO_PARENT),
            span("route", 10, 90, 0),
            span("a", 10, 40, 1),
            span("b", 50, 80, 1),
            span("b.inner", 55, 60, 3),
        ];
        // sweep: 100 - 80; route: 80 - 30 - 30; a: leaf; b: 30 - 5.
        assert_eq!(self_times(&spans), vec![20, 20, 30, 25, 5]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn untraced_sweeps_record_nothing_but_still_clock_the_route() {
        let mut tr = Tracer::new(1);
        tr.begin_sweep(false);
        let r = tr.begin_route(0);
        let t = tr.begin("layer");
        tr.end(t);
        let x = tr.begin_excluded("bench.verify_ms");
        std::thread::sleep(Duration::from_millis(20));
        tr.end(x);
        let route = tr.end_route(r);
        let sweep = tr.end_sweep();
        assert_eq!(route, sweep);
        assert!(
            route < Duration::from_millis(15),
            "excluded time leaked: {route:?}"
        );
        assert!(tr.samples.is_empty() && tr.kept.is_empty());
    }

    #[test]
    fn traced_sweeps_fold_spans_into_per_sweep_samples() {
        let mut tr = Tracer::new(2);
        for _ in 0..3 {
            tr.begin_sweep(true);
            for d in 0..2 {
                let r = tr.begin_route(d);
                let t = tr.begin("layer");
                tr.add("layer.count", 2.0);
                tr.end(t);
                let _ = tr.end_route(r);
            }
            let _ = tr.end_sweep();
        }
        assert_eq!(tr.samples["layer"].len(), 3);
        assert_eq!(tr.samples["layer.count"], vec![4.0; 3]);
        assert_eq!(tr.per_design[1]["layer"].len(), 3);
        // sweep → route → layer nesting survives into the trace file.
        let trace = tr.chrome_trace(&["d0".to_string(), "d1".to_string()]);
        let parsed = calyx_service::json::parse(&trace).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3 * (1 + 2 * 2));
        let second_sweep_layer = &events[5 + 2];
        assert_eq!(
            second_sweep_layer.get("name").and_then(Json::as_str),
            Some("layer")
        );
        let args = second_sweep_layer.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(5 + 1));
        assert_eq!(args.get("design").and_then(Json::as_str), Some("d0"));
    }
}
