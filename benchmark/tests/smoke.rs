//! Smoke runs of all eight workloads — one set-up, one warm-up sweep, two
//! timed sweeps — through the same code the full runs use, plus the
//! failure path and the contract's file formats.

use calyx_service::json::{self, Json};
use ledger::metrics::{END_TO_END, PER_LAYER};
use ledger::report::{record_json, result_json, RECORD_KEYS, RESULT_KEYS};
use ledger::run::{run, RunCfg, RunResult};
use ledger::spec::Spec;
use ledger::workloads::{establish, Env, Kind, Prepared};
use std::path::PathBuf;

fn smoke(kind: Kind, trace: bool, corrupt: Option<usize>, tag: &str) -> RunResult {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    run(RunCfg {
        kind,
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
        env: Env {
            futil: PathBuf::from(env!("CARGO_BIN_EXE_futil")),
            scratch,
            corrupt,
        },
    })
    .unwrap_or_else(|e| panic!("{} does not set up: {e}", kind.name()))
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn keys(j: &Json) -> Vec<&str> {
    j.as_obj()
        .expect("an object")
        .iter()
        .map(|m| m.key.as_str())
        .collect()
}

#[test]
fn every_workload_runs_untraced_and_is_correct() {
    for kind in Kind::ALL {
        let r = smoke(kind, false, None, "untraced");
        assert!(r.correct(), "{}: {:?}", kind.name(), r.first_failure);
        assert_eq!(
            (r.sweep_ms.len(), r.warmup_sweeps, r.setups_s.len()),
            (2, 1, 1)
        );
        assert_eq!(r.tally.attempted, 2 * r.prepared.designs.len() as u64);
        // Every end-to-end metric, in the declared order, none of them 0.
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
        for m in &r.metrics {
            assert!(m.value > 0.0, "{}: {} is {}", kind.name(), m.name, m.value);
        }
    }
}

#[test]
fn every_workload_runs_traced_and_names_its_layers() {
    for kind in Kind::ALL {
        let r = smoke(kind, true, None, "traced");
        assert!(r.correct(), "{}: {:?}", kind.name(), r.first_failure);
        assert_eq!((r.sweep_ms.len(), r.traced_sweeps), (2, 2));
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
        // The layer each workload exists to exercise shows up; a layer it
        // never calls reads 0.
        let (present, absent) = match kind {
            Kind::PolybenchInterp => ("sim.interp.run_ms", "sim.rtl.run_ms"),
            Kind::PolybenchRtl => ("sim.rtl.run_ms", "sim.interp.run_ms"),
            Kind::SystolicLower => ("core.passes.well-formed.ms", "core.passes.minimize-regs.ms"),
            Kind::SystolicOpt => ("core.passes.minimize-regs.ms", "sim.interp.run_ms"),
            Kind::BatchCold => ("cli.compile_ms", "service.cache.hits"),
            Kind::BatchWarm => ("service.cache.hits", "service.cache.misses"),
            Kind::PlanCold => ("plan.steps_ran", "plan.steps_cached"),
            Kind::PlanWarm => ("plan.steps_cached", "plan.steps_ran"),
        };
        assert!(value(&r, present) > 0.0, "{}: {present}", kind.name());
        assert_eq!(value(&r, absent), 0.0, "{}: {absent}", kind.name());
        // The trace is valid JSON with one event per kept span.
        let names: Vec<String> = r.prepared.designs.iter().map(|d| d.name.clone()).collect();
        let trace = json::parse(&r.tracer.chrome_trace(&names)).expect("trace parses");
        assert!(!trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }
}

#[test]
fn a_corrupted_expected_output_is_counted_as_a_failure() {
    for kind in Kind::ALL {
        let r = smoke(kind, false, Some(0), "corrupt");
        assert!(!r.correct(), "{} missed the corruption", kind.name());
        // Design 0 fails in both timed sweeps; the other designs pass.
        assert_eq!(r.tally.failed, 2, "{}: {:?}", kind.name(), r.first_failure);
        assert!(r.first_failure.is_some());
    }
}

#[test]
fn same_seed_same_exact_metrics() {
    let env = Env {
        futil: PathBuf::from(env!("CARGO_BIN_EXE_futil")),
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("exact"),
        corrupt: None,
    };
    for kind in [Kind::SystolicOpt, Kind::PolybenchRtl] {
        let set_up = |seed| {
            let expected = establish(kind, seed).expect("designs compile and verify");
            Prepared::new(kind, seed, &env, &expected).expect("sets up")
        };
        let (a, b, other) = (set_up(7), set_up(7), set_up(8));
        let expect =
            |p: &Prepared| -> Vec<_> { p.designs.iter().map(|d| d.expect.clone()).collect() };
        assert_eq!(expect(&a), expect(&b), "{}", kind.name());
        assert_eq!(
            (a.design_cycles(), a.design_luts()),
            (b.design_cycles(), b.design_luts())
        );
        // Another seed changes the inputs, never what is compiled or how
        // many cycles it takes.
        assert_ne!(a.designs[0].image, other.designs[0].image);
        assert_eq!(
            (a.design_cycles(), a.design_luts()),
            (other.design_cycles(), other.design_luts())
        );
    }
}

#[test]
fn result_and_record_round_trip_with_pinned_keys() {
    let r = smoke(Kind::SystolicOpt, true, None, "json");
    let line = result_json(&r).render();
    assert!(!line.contains('\n'));
    let parsed = json::parse(&line).expect("the result line parses");
    assert_eq!(parsed.render(), line);
    assert_eq!(keys(&parsed), RESULT_KEYS);
    let metrics = parsed.get("metrics").unwrap();
    assert_eq!(keys(metrics).len(), PER_LAYER.len());
    for m in metrics.as_obj().unwrap() {
        assert_eq!(keys(&m.value), ["value", "unit"]);
    }
    // Two designs in each of the two traced and two untraced sweeps.
    assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(8));

    let record = record_json(&r);
    let reparsed = json::parse(&record.render()).expect("the record parses");
    assert_eq!(reparsed.render(), record.render());
    assert_eq!(keys(&reparsed), RECORD_KEYS);
    let rows = reparsed
        .get("designs")
        .and_then(|d| d.get("rows"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows[0]
        .get("layer_median_ms")
        .unwrap()
        .get("sim.rtl.run_ms")
        .is_some());
}

#[test]
fn benchmark_json_agrees_with_the_code() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Spec::load(&path).expect("BENCHMARK.json loads");
    let pairs = |list: &[ledger::spec::MetricSpec]| -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    };
    let code = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs(&spec.end_to_end), code(END_TO_END));
    assert_eq!(pairs(&spec.per_layer), code(PER_LAYER));
    let workloads: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, kinds);
    assert!(spec
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.lower_is_better));
    assert!((1.0..=60.0).contains(&spec.run_seconds));
}
