//! The route executor: run a [`Route`] step by step through the
//! artifact cache.
//!
//! Each step computes its cache key from the *current* artifact text
//! (not the original input), so cache hits propagate transitively: if
//! step N re-runs but produces byte-identical output, step N+1 still
//! hits. The key is [`ArtifactCache::key`], the service's
//! `content_key` over the op's fingerprint and that text: a cached step
//! costs one fast pass over its input plus one file read. Per-step
//! [`StepReport`]s record whether the step ran or was served from
//! cache, with wall times, so drivers can print
//! `step <op>: ran|cached` status lines and benches can assert
//! "warm rebuild executes zero steps".

use crate::cache::ArtifactCache;
use crate::graph::PlanGraph;
use crate::op::{ExecEnv, OpOpts};
use crate::planner::Route;
use calyx_core::errors::CalyxResult;
use std::path::PathBuf;
use std::time::Instant;

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

/// Execute `route` over `input`, threading each step's output into the
/// next and consulting the artifact cache around every step.
///
/// # Errors
///
/// Propagates the first failing op (parse errors, pass failures,
/// backend failures) or cache-write IO errors.
pub fn execute(
    graph: &PlanGraph,
    route: &Route,
    input: &str,
    env: &ExecEnv,
    build: &BuildOpts,
) -> CalyxResult<BuildOutcome> {
    let cache = ArtifactCache::new(build.cache_dir.clone());
    let mut text = input.to_string();
    let mut steps = Vec::with_capacity(route.steps.len());
    for &idx in &route.steps {
        let op = &graph.ops()[idx];
        let artifact_ext = &graph.state(op.to()).artifact_ext;
        let start = Instant::now();
        let key = ArtifactCache::key(&op.fingerprint(&build.opts), &text);
        let (status, output) = match build
            .use_cache
            .then(|| cache.lookup(op.name(), key, artifact_ext))
            .flatten()
        {
            Some(hit) => (StepStatus::Cached, hit),
            None => {
                let out = op.run(&text, env, &build.opts)?;
                if build.use_cache {
                    cache.store(op.name(), key, artifact_ext, &out)?;
                }
                (StepStatus::Ran, out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpSpec, OptUse};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// a → b → c, with run counters so tests can see cache skips.
    fn graph(counter: &Arc<AtomicUsize>) -> (PlanGraph, Route) {
        let mut g = PlanGraph::empty();
        let a = g.add_state("a", "", &[], "a");
        let b = g.add_state("b", "", &[], "b");
        let c = g.add_state("c", "", &[], "c");
        for (name, from, to, tag) in [("ab", a, b, "B"), ("bc", b, c, "C")] {
            let n = Arc::clone(counter);
            g.add_op(OpSpec {
                name: name.into(),
                description: String::new(),
                from,
                to,
                cost: 10,
                fingerprint: name.into(),
                uses: OptUse::default(),
                run: Box::new(move |s, _, _| {
                    n.fetch_add(1, Ordering::SeqCst);
                    Ok(format!("{s}{tag}"))
                }),
            });
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
        g.add_op(OpSpec {
            name: "normalize".into(),
            description: String::new(),
            from: a,
            to: b,
            cost: 10,
            fingerprint: "normalize".into(),
            uses: OptUse::default(),
            run: Box::new(move |s, _, _| Ok(s.trim().to_string())),
        });
        g.add_op(OpSpec {
            name: "emit".into(),
            description: String::new(),
            from: b,
            to: c,
            cost: 10,
            fingerprint: "emit".into(),
            uses: OptUse::default(),
            run: Box::new(move |s, _, _| {
                n.fetch_add(1, Ordering::SeqCst);
                Ok(format!("<{s}>"))
            }),
        });
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

    #[test]
    fn option_changes_invalidate_only_declaring_ops() {
        let mut g = PlanGraph::empty();
        let a = g.add_state("a", "", &[], "a");
        let b = g.add_state("b", "", &[], "b");
        let c = g.add_state("c", "", &[], "c");
        g.add_op(OpSpec {
            name: "blind".into(),
            description: String::new(),
            from: a,
            to: b,
            cost: 10,
            fingerprint: "blind".into(),
            uses: OptUse::default(),
            run: Box::new(|s, _, _| Ok(s.to_string())),
        });
        g.add_op(OpSpec {
            name: "sim".into(),
            description: String::new(),
            from: b,
            to: c,
            cost: 10,
            fingerprint: "sim".into(),
            uses: OptUse {
                cycles: true,
                ..OptUse::default()
            },
            run: Box::new(|s, _, o| Ok(format!("{s}@{}", o.cycles))),
        });
        let route = g.plan(a, c).unwrap();
        let env = ExecEnv::default();
        let mut build = BuildOpts {
            cache_dir: temp_dir("opts"),
            ..BuildOpts::default()
        };
        execute(&g, &route, "x", &env, &build).unwrap();
        build.opts.cycles = 42;
        let out = execute(&g, &route, "x", &env, &build).unwrap();
        assert_eq!(
            out.steps[0].status,
            StepStatus::Cached,
            "blind op unaffected"
        );
        assert_eq!(
            out.steps[1].status,
            StepStatus::Ran,
            "cycles-using op re-ran"
        );
        assert_eq!(out.output, "x@42");
        let _ = std::fs::remove_dir_all(&build.cache_dir);
    }
}
