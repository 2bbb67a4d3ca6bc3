//! The ledger's metric names and units — the same list `BENCHMARK.json`
//! carries with directions and bounds (a test keeps the two in step).
//!
//! Every run prints every metric of its kind. A per-layer metric whose
//! layer a workload never calls reads 0 there: no time spent, no work done.

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sweep_p10_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("design_cycles", "cycles"),
    ("design_luts", "count"),
];

/// The time metric of pass `name`: `core.passes.<name>.ms`, if the ledger
/// has one (a test keeps the list in step with the pass registry).
pub fn pass_metric(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|(metric, _)| *metric).find(|metric| {
        metric
            .strip_prefix("core.passes.")
            .and_then(|rest| rest.strip_suffix(".ms"))
            == Some(name)
    })
}

/// Per-layer metrics, reported by traced runs (`--trace 1`). Times are
/// the median over traced sweeps of the time one sweep spent in the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // frontend
    ("frontend.dahlia.ms", "ms"),
    ("frontend.systolic.ms", "ms"),
    ("frontend.src_bytes", "bytes"),
    // core.ir
    ("core.parser.ms", "ms"),
    ("core.parser.mb_per_s", "MB/s"),
    ("core.printer.ms", "ms"),
    ("core.printer.bytes", "bytes"),
    ("core.ir.cells_in", "count"),
    ("core.ir.groups_in", "count"),
    ("core.ir.control_in", "count"),
    ("core.ir.assignments_in", "count"),
    ("core.ir.cells_out", "count"),
    ("core.ir.assignments_out", "count"),
    // core.passes
    ("core.passes.well-formed.ms", "ms"),
    ("core.passes.collapse-control.ms", "ms"),
    ("core.passes.dead-group-removal.ms", "ms"),
    ("core.passes.dead-cell-removal.ms", "ms"),
    ("core.passes.infer-static-timing.ms", "ms"),
    ("core.passes.static-timing.ms", "ms"),
    ("core.passes.compile-control.ms", "ms"),
    ("core.passes.go-insertion.ms", "ms"),
    ("core.passes.remove-groups.ms", "ms"),
    ("core.passes.guard-simplify.ms", "ms"),
    ("core.passes.resource-sharing.ms", "ms"),
    ("core.passes.minimize-regs.ms", "ms"),
    ("core.passes.total_ms", "ms"),
    ("core.passes.resource-sharing.cells_removed", "count"),
    ("core.passes.minimize-regs.regs_removed", "count"),
    ("core.passes.dead-cell-removal.cells_removed", "count"),
    ("core.analysis.cache_hits", "count"),
    ("core.analysis.cache_misses", "count"),
    ("core.analysis.cache_recomputes", "count"),
    ("core.analysis.cache_hit_ratio", "ratio"),
    // backend
    ("backend.verilog.emit_ms", "ms"),
    ("backend.verilog.bytes", "bytes"),
    ("backend.verilog.loc", "lines"),
    ("backend.verilog.mb_per_s", "MB/s"),
    ("backend.area.estimate_ms", "ms"),
    // sim
    ("sim.flatten.design_ms", "ms"),
    ("sim.flatten.control_ms", "ms"),
    ("sim.flatten.primitives", "count"),
    ("sim.rtl.run_ms", "ms"),
    ("sim.rtl.cycles", "cycles"),
    ("sim.rtl.ns_per_cycle", "ns"),
    ("sim.interp.run_ms", "ms"),
    ("sim.interp.cycles", "cycles"),
    ("sim.interp.ns_per_cycle", "ns"),
    // service
    ("service.construct_ms", "ms"),
    ("service.jobs", "count"),
    ("service.jobs_failed", "count"),
    ("service.stage.parse_ms", "ms"),
    ("service.stage.passes_ms", "ms"),
    ("service.stage.emit_ms", "ms"),
    ("service.stage.total_ms", "ms"),
    ("service.job_p50_ms", "ms"),
    ("service.job_p99_ms", "ms"),
    ("service.cache.hits", "count"),
    ("service.cache.misses", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.pool.busy_share", "ratio"),
    // plan
    ("plan.derive_ms", "ms"),
    ("plan.route_ms", "ms"),
    ("plan.steps_ran", "count"),
    ("plan.steps_cached", "count"),
    ("plan.cache_hit_ratio", "ratio"),
    ("plan.step.polybench-to-calyx.ms", "ms"),
    ("plan.step.emit-verilog.ms", "ms"),
    ("plan.exec_overhead_ms", "ms"),
    ("plan.cache.files", "count"),
    ("plan.cache.bytes", "bytes"),
    // cli
    ("cli.spawn_ms", "ms"),
    ("cli.compile_ms", "ms"),
    ("cli.stdout_bytes", "bytes"),
    // bench
    ("bench.verify_ms", "ms"),
    ("bench.trace_overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::passes::PassRegistry;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert!(unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn every_registered_pass_has_a_time_metric() {
        let registered: Vec<&str> = PassRegistry::default()
            .passes()
            .iter()
            .map(|p| p.name)
            .collect();
        for pass in &registered {
            assert!(pass_metric(pass).is_some(), "no time metric for `{pass}`");
        }
        let timed = PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("core.passes.") && n.ends_with(".ms"))
            .count();
        assert_eq!(
            timed,
            registered.len(),
            "a time metric for a pass that is gone"
        );
    }
}
