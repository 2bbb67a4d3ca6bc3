//! The route executor: run a [`Route`] step by step through the
//! artifact cache.
//!
//! Each step computes its cache key from the *current* artifact text
//! (not the original input), so cache hits propagate transitively: if
//! step N re-runs but produces byte-identical output, step N+1 still
//! hits. A derived op's step builds its [`Job`] once, keys itself with
//! [`Session::job_key`](calyx_service::Session::job_key) of that job and,
//! on a miss, compiles that same job; a custom op's step is keyed by
//! [`ArtifactCache::key`]. Either way a cached step costs one fast pass
//! over its input plus one file read, and constructs no frontend,
//! backend or pass. Per-step [`StepReport`]s record whether the step ran
//! or was served from cache, with wall times, so drivers can print
//! `step <op>: ran|cached` status lines and benches can assert
//! "warm rebuild executes zero steps".

use crate::cache::ArtifactCache;
use crate::graph::PlanGraph;
use crate::op::{Action, ExecEnv, OpOpts};
use crate::planner::Route;
use calyx_core::errors::{CalyxResult, Error};
use calyx_service::{Job, StageError};
use std::path::PathBuf;
use std::time::Instant;

/// The name a compiled step's diagnostics give its input.
const SHOWN: &str = "<plan>";

/// How `execute` should run a build.
#[derive(Debug, Clone)]
pub struct BuildOpts {
    /// Options forwarded to ops (and folded into fingerprints).
    pub opts: OpOpts,
    /// Artifact cache directory.
    pub cache_dir: PathBuf,
    /// When false (`--no-cache`), neither read nor write the cache:
    /// every step runs.
    pub use_cache: bool,
}

impl Default for BuildOpts {
    fn default() -> Self {
        BuildOpts {
            opts: OpOpts::default(),
            cache_dir: PathBuf::from(".futil-cache"),
            use_cache: true,
        }
    }
}

/// Whether a step actually executed or was served from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The op ran and its output was (re)computed.
    Ran,
    /// The output was served from the artifact cache.
    Cached,
}

impl StepStatus {
    /// Lowercase label used in driver status lines.
    pub fn label(self) -> &'static str {
        match self {
            StepStatus::Ran => "ran",
            StepStatus::Cached => "cached",
        }
    }
}

/// One executed (or skipped) step of a route.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Op name.
    pub op: String,
    /// Ran or cached.
    pub status: StepStatus,
    /// Wall time of this step (cache probe included).
    pub micros: u128,
}

/// The result of executing a route.
#[derive(Debug, Clone)]
pub struct BuildOutcome {
    /// Final artifact text (the input itself for an empty route).
    pub output: String,
    /// Per-step reports, in execution order.
    pub steps: Vec<StepReport>,
}

impl BuildOutcome {
    /// How many steps actually ran (vs served from cache).
    pub fn ran(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.status == StepStatus::Ran)
            .count()
    }

    /// How many steps were served from the cache.
    pub fn cached(&self) -> usize {
        self.steps.len() - self.ran()
    }
}

/// Refuse `--fopt`s that the route's source frontend does not take, as
/// the direct driver refuses them: construct the frontend the route's
/// start state names with them. Only a frontend op passes the options
/// on, so without this check a route that starts with another op (every
/// route from `calyx`) would drop them unread. A start state that names
/// no frontend, or a build without `--fopt`s, has nothing to check.
///
/// # Errors
///
/// The [`Stage::Resolve`](calyx_service::Stage::Resolve) error that
/// [`Session::resolve`](calyx_service::Session::resolve) reports for
/// the same options.
pub fn check_fopts(
    graph: &PlanGraph,
    route: &Route,
    env: &ExecEnv,
    opts: &OpOpts,
) -> Result<(), StageError> {
    let source = graph.state(route.from).name.as_str();
    if opts.fopts.is_empty() || env.frontends.frontends().iter().all(|f| f.name != source) {
        return Ok(());
    }
    let job = Job {
        frontend: Some(source),
        fopts: opts.fopts.clone(),
        pipeline: Some(&[]),
        ..Job::default()
    };
    env.resolve(&job).map(drop)
}

/// Execute `route` over `input`, threading each step's output into the
/// next and consulting the artifact cache around every step.
///
/// # Errors
///
/// Propagates [`check_fopts`], then the first failing op (unresolved
/// names, parse errors, pass failures, backend failures) or cache-write
/// IO errors.
pub fn execute(
    graph: &PlanGraph,
    route: &Route,
    input: &str,
    env: &ExecEnv,
    build: &BuildOpts,
) -> CalyxResult<BuildOutcome> {
    check_fopts(graph, route, env, &build.opts)?;
    let cache = ArtifactCache::new(build.cache_dir.clone());
    let mut text = input.to_string();
    let mut steps = Vec::with_capacity(route.steps.len());
    for &idx in &route.steps {
        let op = &graph.ops()[idx];
        let ext = &graph.state(op.to()).artifact_ext;
        let start = Instant::now();
        // Serve the artifact stored under `key`, or run the step and store
        // what it made. Under `--no-cache`, or without a key, the step runs
        // and nothing is stored: a job has no key when a name in it does
        // not resolve, and its run reports which.
        let step = |key: Option<u64>, run: &dyn Fn() -> CalyxResult<String>| -> CalyxResult<_> {
            let key = key.filter(|_| build.use_cache);
            if let Some(hit) = key.and_then(|key| cache.lookup(op.name(), key, ext)) {
                return Ok((StepStatus::Cached, hit));
            }
            let output = run()?;
            if let Some(key) = key {
                cache.store(op.name(), key, ext, &output)?;
            }
            Ok((StepStatus::Ran, output))
        };
        let (status, output) = match op.action() {
            Action::Compile(compile) => {
                let job = compile.job(&build.opts);
                step(env.job_key(&job, SHOWN, &text), &|| {
                    compile_job(env, &job, &text)
                })?
            }
            Action::Custom { fingerprint, run } => {
                let key = ArtifactCache::key(fingerprint, &build.opts, &text);
                step(Some(key), &|| run(&text, env, &build.opts))?
            }
        };
        steps.push(StepReport {
            op: op.name().to_string(),
            status,
            micros: start.elapsed().as_micros(),
        });
        text = output;
    }
    Ok(BuildOutcome {
        output: text,
        steps,
    })
}

/// Text in, text out: compile `src` as `job` through the shared core.
fn compile_job(env: &ExecEnv, job: &Job, src: &str) -> CalyxResult<String> {
    let compiled = env.resolve(job)?.compile(SHOWN, src)?;
    String::from_utf8(compiled.output)
        .map_err(|_| Error::malformed(format!("backend `{}` emitted non-UTF-8", job.backend)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A custom op `name` from `from` to `to`.
    fn custom(
        name: &str,
        from: crate::StateId,
        to: crate::StateId,
        run: impl Fn(&str) -> String + 'static,
    ) -> OpSpec {
        OpSpec {
            name: name.into(),
            description: String::new(),
            from,
            to,
            cost: 10,
            action: Action::Custom {
                fingerprint: name.into(),
                run: Box::new(move |s, _, _| Ok(run(s))),
            },
        }
    }

    /// a → b → c, with run counters so tests can see cache skips.
    fn graph(counter: &Arc<AtomicUsize>) -> (PlanGraph, Route) {
        let mut g = PlanGraph::empty();
        let a = g.add_state("a", "", &[], "a");
        let b = g.add_state("b", "", &[], "b");
        let c = g.add_state("c", "", &[], "c");
        for (name, from, to, tag) in [("ab", a, b, "B"), ("bc", b, c, "C")] {
            let n = Arc::clone(counter);
            g.add_op(custom(name, from, to, move |s| {
                n.fetch_add(1, Ordering::SeqCst);
                format!("{s}{tag}")
            }));
        }
        let route = g.plan(a, c).unwrap();
        (g, route)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plan-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_rebuild_runs_zero_steps() {
        let runs = Arc::new(AtomicUsize::new(0));
        let (g, route) = graph(&runs);
        let env = ExecEnv::default();
        let build = BuildOpts {
            cache_dir: temp_dir("warm"),
            ..BuildOpts::default()
        };
        let cold = execute(&g, &route, "x", &env, &build).unwrap();
        assert_eq!(
            (cold.output.as_str(), cold.ran(), cold.cached()),
            ("xBC", 2, 0)
        );
        let warm = execute(&g, &route, "x", &env, &build).unwrap();
        assert_eq!(
            (warm.output.as_str(), warm.ran(), warm.cached()),
            ("xBC", 0, 2)
        );
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        let _ = std::fs::remove_dir_all(&build.cache_dir);
    }

    #[test]
    fn no_cache_forces_every_step() {
        let runs = Arc::new(AtomicUsize::new(0));
        let (g, route) = graph(&runs);
        let env = ExecEnv::default();
        let build = BuildOpts {
            cache_dir: temp_dir("nocache"),
            use_cache: false,
            ..BuildOpts::default()
        };
        for _ in 0..2 {
            let out = execute(&g, &route, "x", &env, &build).unwrap();
            assert_eq!(out.ran(), 2);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 4);
        assert!(!build.cache_dir.exists(), "--no-cache must not write");
    }

    #[test]
    fn downstream_steps_stay_cached_when_intermediate_is_identical() {
        // Two inputs that the first op maps to the same intermediate:
        // the second build re-runs step 1 but hits the cache on step 2.
        let runs = Arc::new(AtomicUsize::new(0));
        let mut g = PlanGraph::empty();
        let a = g.add_state("a", "", &[], "a");
        let b = g.add_state("b", "", &[], "b");
        let c = g.add_state("c", "", &[], "c");
        let n = Arc::clone(&runs);
        g.add_op(custom("normalize", a, b, |s| s.trim().to_string()));
        g.add_op(custom("emit", b, c, move |s| {
            n.fetch_add(1, Ordering::SeqCst);
            format!("<{s}>")
        }));
        let route = g.plan(a, c).unwrap();
        let env = ExecEnv::default();
        let build = BuildOpts {
            cache_dir: temp_dir("transitive"),
            ..BuildOpts::default()
        };
        let first = execute(&g, &route, "x", &env, &build).unwrap();
        assert_eq!((first.output.as_str(), first.ran()), ("<x>", 2));
        // Whitespace-only edit: step 1 re-runs, step 2 is cached.
        let second = execute(&g, &route, "  x ", &env, &build).unwrap();
        assert_eq!(second.output, "<x>");
        assert_eq!(second.steps[0].status, StepStatus::Ran);
        assert_eq!(second.steps[1].status, StepStatus::Cached);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "emit ran exactly once");
        let _ = std::fs::remove_dir_all(&build.cache_dir);
    }

    /// A derived step is keyed on the options of the stages its job
    /// runs: `--cycles` re-runs the simulation, not the frontend.
    #[test]
    fn option_changes_invalidate_only_declaring_ops() {
        let g = crate::derive::standard();
        let from = g.state_id("dahlia").unwrap();
        let route = g.plan(from, g.state_id("sim-report").unwrap()).unwrap();
        let env = ExecEnv::default();
        let mut build = BuildOpts {
            cache_dir: temp_dir("opts"),
            ..BuildOpts::default()
        };
        let src = "decl a: ubit<32>[1];\nlet x: ubit<32> = a[0];";
        let cold = execute(&g, &route, src, &env, &build).unwrap();
        assert_eq!(cold.ran(), 2);
        build.opts.cycles = 42;
        let out = execute(&g, &route, src, &env, &build).unwrap();
        let status: Vec<StepStatus> = out.steps.iter().map(|s| s.status).collect();
        assert_eq!(status, [StepStatus::Cached, StepStatus::Ran]);
        let _ = std::fs::remove_dir_all(&build.cache_dir);
    }

    /// A derived step's artifact is stored under `Session::job_key` of
    /// the job it compiles.
    #[test]
    fn a_derived_step_is_keyed_by_the_job_it_compiles() {
        let g = crate::derive::standard();
        let route = g
            .plan(g.state_id("calyx").unwrap(), g.state_id("verilog").unwrap())
            .unwrap();
        let env = ExecEnv::default();
        let build = BuildOpts {
            cache_dir: temp_dir("job-key"),
            ..BuildOpts::default()
        };
        let src = "component main() -> () { cells {} wires {} control {} }";
        execute(&g, &route, src, &env, &build).unwrap();
        let Action::Compile(compile) = g.ops()[route.steps[0]].action() else {
            panic!("`emit-verilog` compiles a job");
        };
        let key = env.job_key(&compile.job(&build.opts), SHOWN, src).unwrap();
        let cache = ArtifactCache::new(build.cache_dir.clone());
        assert!(cache.lookup("emit-verilog", key, "sv").is_some());
        let _ = std::fs::remove_dir_all(&build.cache_dir);
    }
}
