//! Deriving the standard build graph from a [`Session`]'s registries.
//!
//! The graph is not hand-maintained: states and ops fall out of the
//! frontend, pass-alias, backend, and lint registries, so registering a
//! new frontend or backend automatically grows the plan space. Nor do
//! the ops compile anything themselves: each compiler op is a
//! [`Compile`] — which frontend reads the input text, which pipeline
//! runs, which backend writes the output text — that the executor turns
//! into one [`Job`](calyx_service::Job), keys with
//! [`Session::job_key`] and hands to the same [`Session::resolve`] →
//! [`compile`](calyx_service::Resolved::compile) core as a direct `futil`
//! run or a service request. The rules:
//!
//! - Every **frontend** contributes a source state (named after the
//!   frontend, claiming its registered extensions) and — except the
//!   native `calyx` parser, whose state *is* the hub — a
//!   `<frontend>-to-calyx` op producing canonical Calyx text (that
//!   frontend, no passes, the `calyx` printer backend).
//! - Every **pass alias** whose expansion lowers (contains
//!   `remove-groups`) contributes an op from `calyx` to the shared
//!   `calyx-lowered` state (the alias as the pipeline, the `calyx`
//!   printer backend). The key expands the alias, so editing it
//!   invalidates exactly the builds that used it. An alias's cost
//!   is ten times its position in [`PassRegistry::aliases`], and the
//!   standard registry adds its aliases lightest first, so `lower` (10)
//!   beats `lower-static` (20), `opt` (30) and `all` (40); an alias a
//!   third party adds later ranks after all of them and never silently
//!   hijacks a default route. A non-lowering alias (like `none`) maps
//!   `calyx` to itself and is skipped.
//! - Every **backend** except the `calyx` printer contributes an
//!   `emit-<name>` op from `calyx`, whose job names no pipeline, so it
//!   runs the backend's [`default_pipeline`] before emitting (`verilog`
//!   runs `lower`, `interp` runs `none` = well-formedness). Emission
//!   deliberately does *not* read the `calyx-lowered` state: lowered
//!   guard expressions flatten when printed and re-associate when
//!   re-parsed, so an extra print/parse roundtrip after the pass
//!   pipeline would change the emitted guard grouping — plan-built
//!   artifacts must be byte-identical to direct `futil -f ... -b ...`
//!   runs, and only pre-pass canonical text has that pinned roundtrip
//!   property. The target state is `verilog` for the SystemVerilog
//!   backend and `<name>-report` otherwise, with the artifact extension
//!   taken from [`Backend::EXTENSION`](calyx_backend::Backend::EXTENSION)
//!   via the registry.
//! - The **lint registry** contributes one hand-registered composite
//!   op, `check`, from `calyx` to `lint-report` — [`Session::lint`]'s
//!   report as a cacheable artifact. It compiles no job, so it is an
//!   [`Action::Custom`], fingerprinted on the registered lint codes.
//!
//! Third parties extend the graph the same two ways they extend the
//! underlying registries: register into a session's registries and call
//! [`from_session`], or add bespoke states/ops directly with
//! [`PlanGraph::add_state`]/[`PlanGraph::add_op`].
//!
//! [`PassRegistry::aliases`]: calyx_core::passes::PassRegistry::aliases

use crate::graph::PlanGraph;
use crate::op::{Action, Compile, OpSpec, HUB};
use calyx_backend::ReportFormat;
use calyx_core::ir::parse_context;
use calyx_service::{default_pipeline, Session};

/// The pass that marks an expansion as "lowering": after it the program
/// is structural (no groups, no control), i.e. in the `calyx-lowered`
/// state.
const LOWERING_MARK: &str = "remove-groups";

/// The standard build graph, derived from the default registries.
pub fn standard() -> PlanGraph {
    from_session(&Session::default())
}

/// Derive a build graph from a session's (possibly extended)
/// registries. See the [module docs](self) for the derivation rules.
/// Hand the *same* session to [`execute`](crate::execute) so execution
/// resolves the same entries the derivation advertised.
pub fn from_session(session: &Session) -> PlanGraph {
    let Session {
        frontends,
        passes,
        backends,
        lints,
    } = session;
    let mut g = PlanGraph::empty();
    let compile = |frontend: &str, pipeline: Option<Vec<String>>, backend: &str| {
        Action::Compile(Compile {
            frontend: frontend.to_string(),
            pipeline,
            backend: backend.to_string(),
        })
    };

    // Frontend states: one per registered frontend, claiming its input
    // extensions. The native parser's state is the `calyx` hub.
    for f in frontends.frontends() {
        let artifact_ext = f.extensions.first().copied().unwrap_or(f.name);
        g.add_state(f.name, f.description, f.extensions, artifact_ext);
    }
    let calyx = g
        .state_id(HUB)
        .expect("the native `calyx` frontend is the hub of the standard graph");
    let lowered = g.add_state(
        "calyx-lowered",
        "Calyx after a lowering pipeline (structural: no groups, no control)",
        &[],
        "futil",
    );

    // Frontend ops: `<name>-to-calyx`, producing canonical text so every
    // downstream cache key sees the same bytes for the same program.
    for f in frontends.frontends() {
        if f.name == HUB {
            continue;
        }
        g.add_op(OpSpec {
            name: format!("{}-to-calyx", f.name),
            description: format!("run the `{}` frontend, emitting canonical Calyx", f.name),
            from: g.state_id(f.name).expect("state registered above"),
            to: calyx,
            cost: 10,
            action: compile(f.name, Some(Vec::new()), HUB),
        });
    }

    // Pipeline-alias ops: `calyx` → `calyx-lowered`. Non-lowering
    // aliases (`none`) are skipped — they map the state to itself.
    for (position, (alias, expansion)) in (0u32..).zip(passes.aliases()) {
        if !expansion.contains(&LOWERING_MARK) {
            continue;
        }
        g.add_op(OpSpec {
            name: alias.to_string(),
            description: format!(
                "run the `{alias}` pass pipeline ({} passes)",
                expansion.len()
            ),
            from: calyx,
            to: lowered,
            cost: 10 * position,
            action: compile(HUB, Some(vec![alias.to_string()]), HUB),
        });
    }

    // Backend ops: `emit-<name>`, from canonical `calyx`, running the
    // backend's default pipeline in-op (see the module docs for why
    // emission does not read `calyx-lowered`).
    for b in backends.backends() {
        if b.name == HUB {
            continue;
        }
        let to = if b.name == "verilog" {
            g.add_state("verilog", b.description, &[], b.extension)
        } else {
            g.add_state(
                &format!("{}-report", b.name),
                b.description,
                &[],
                b.extension,
            )
        };
        g.add_op(OpSpec {
            name: format!("emit-{}", b.name),
            description: format!(
                "run the `{}` pipeline, then the `{}` backend",
                default_pipeline(b.required_pipeline).join(" "),
                b.name
            ),
            from: calyx,
            to,
            cost: 10,
            action: compile(HUB, None, b.name),
        });
    }

    // The hand-registered composite op: the whole lint registry as one
    // cacheable `check` step. Findings are the *artifact*, not a
    // failure — `futil build --to lint-report` always produces a report.
    let lint_report = g.add_state(
        "lint-report",
        "diagnostics from every registered lint, as text or JSON",
        &[],
        "lint",
    );
    let codes: Vec<&str> = lints.lints().iter().map(|l| l.code).collect();
    g.add_op(OpSpec {
        name: "check".to_string(),
        description: format!("run all {} registered lints", codes.len()),
        from: calyx,
        to: lint_report,
        cost: 10,
        action: Action::Custom {
            fingerprint: format!("lints:{}", codes.join(",")),
            run: Box::new(|src, env, opts| {
                let sink = env.lint(&parse_context(src)?);
                Ok(match opts.format {
                    ReportFormat::Text => sink.render_text("<plan>", src),
                    ReportFormat::Json => sink.render_json("<plan>"),
                })
            }),
        },
    });

    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, BuildOpts};
    use crate::op::ExecEnv;
    use calyx_backend::BackendRegistry;
    use calyx_core::passes::PassRegistry;
    use calyx_frontend::FrontendRegistry;

    #[test]
    fn standard_graph_has_the_expected_states_and_ops() {
        let g = standard();
        let states: Vec<&str> = g.states().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            states,
            [
                "calyx",
                "dahlia",
                "systolic",
                "polybench",
                "calyx-lowered",
                "verilog",
                "area-report",
                "sim-report",
                "interp-report",
                "lint-report",
            ]
        );
        let ops: Vec<&str> = g.ops().iter().map(|o| o.name()).collect();
        assert_eq!(
            ops,
            [
                "dahlia-to-calyx",
                "systolic-to-calyx",
                "polybench-to-calyx",
                "lower",
                "lower-static",
                "opt",
                "all",
                "emit-verilog",
                "emit-area",
                "emit-sim",
                "emit-interp",
                "check",
            ]
        );
    }

    #[test]
    fn every_lowering_alias_is_an_op_and_none_is_not() {
        let g = standard();
        for (alias, expansion) in PassRegistry::default().aliases() {
            let derived = g.op_by_name(alias).is_some();
            assert_eq!(
                derived,
                expansion.contains(&LOWERING_MARK),
                "alias `{alias}` derivation disagrees with its expansion"
            );
        }
        assert!(g.op_by_name("none").is_none());
    }

    #[test]
    fn state_extensions_mirror_the_frontend_registry() {
        let g = standard();
        for f in FrontendRegistry::default().frontends() {
            let id = g.state_id(f.name).expect("frontend state derived");
            assert_eq!(g.state(id).extensions, f.extensions);
        }
        assert_eq!(
            g.infer_state("kernels/gemm.fuse"),
            g.state_id("dahlia"),
            "plan inference must match `futil -f` inference"
        );
    }

    #[test]
    fn artifact_extensions_mirror_the_backend_registry() {
        let g = standard();
        for b in BackendRegistry::default().backends() {
            if b.name == "calyx" {
                continue;
            }
            let state = if b.name == "verilog" {
                "verilog".to_string()
            } else {
                format!("{}-report", b.name)
            };
            let id = g.state_id(&state).expect("backend state derived");
            assert_eq!(g.state(id).artifact_ext, b.extension);
        }
    }

    #[test]
    fn default_route_to_verilog_is_frontend_then_emit() {
        let g = standard();
        let route = g
            .plan(
                g.state_id("dahlia").unwrap(),
                g.state_id("verilog").unwrap(),
            )
            .unwrap();
        let names: Vec<&str> = route.steps.iter().map(|&i| g.ops()[i].name()).collect();
        assert_eq!(names, ["dahlia-to-calyx", "emit-verilog"]);
    }

    #[test]
    fn default_route_to_lowered_uses_the_plain_lowering_alias() {
        let g = standard();
        let route = g
            .plan(
                g.state_id("calyx").unwrap(),
                g.state_id("calyx-lowered").unwrap(),
            )
            .unwrap();
        let names: Vec<&str> = route.steps.iter().map(|&i| g.ops()[i].name()).collect();
        // Cost ranking: `lower` beats `lower-static`, `opt`, and `all`.
        assert_eq!(names, ["lower"]);
    }

    /// A third-party lowering alias ranks after the standard ones, even
    /// when its pipeline is lighter than `lower`.
    #[test]
    fn a_later_lowering_alias_never_wins_the_default_route() {
        let mut passes = PassRegistry::default();
        passes.add_alias(
            "quick-lower",
            &["compile-control", "go-insertion", "remove-groups"],
        );
        let g = from_session(&Session {
            passes,
            ..Session::default()
        });
        let quick = g
            .op_by_name("quick-lower")
            .expect("a lowering alias is an op");
        assert!(g.ops().iter().all(|op| op.cost() <= quick.cost()));
        let route = g
            .plan(
                g.state_id("calyx").unwrap(),
                g.state_id("calyx-lowered").unwrap(),
            )
            .unwrap();
        assert_eq!(g.ops()[route.steps[0]].name(), "lower");
    }

    /// An alias op's key expands the alias: the same op over an edited
    /// expansion re-runs, and over the old one again hits its artifact.
    #[test]
    fn an_alias_edit_invalidates_the_steps_that_ran_it() {
        let build = BuildOpts {
            cache_dir: std::env::temp_dir()
                .join(format!("plan-derive-alias-{}", std::process::id())),
            ..BuildOpts::default()
        };
        let _ = std::fs::remove_dir_all(&build.cache_dir);
        let short: &[&str] = &["compile-control", "go-insertion", "remove-groups"];
        let long: &[&str] = &[
            "well-formed",
            "compile-control",
            "go-insertion",
            "remove-groups",
        ];
        let mut statuses = Vec::new();
        for expansion in [short, long, short] {
            let mut passes = PassRegistry::default();
            passes.add_alias("quick-lower", expansion);
            let env = Session {
                passes,
                ..Session::default()
            };
            let g = from_session(&env);
            let route = crate::Route {
                from: g.state_id("calyx").unwrap(),
                to: g.state_id("calyx-lowered").unwrap(),
                steps: vec![g
                    .ops()
                    .iter()
                    .position(|op| op.name() == "quick-lower")
                    .unwrap()],
            };
            let src = "component main() -> () {
                cells { r = std_reg(8); }
                wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
                control { g; }
              }";
            let out = execute(&g, &route, src, &env, &build).unwrap();
            statuses.push(out.steps[0].status.label());
        }
        assert_eq!(statuses, ["ran", "ran", "cached"]);
        let _ = std::fs::remove_dir_all(&build.cache_dir);
    }

    #[test]
    fn source_states_cannot_be_goals() {
        let g = standard();
        let msg = g
            .plan(g.state_id("calyx").unwrap(), g.state_id("dahlia").unwrap())
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("no route from state `calyx` to `dahlia`"),
            "{msg}"
        );
        assert!(msg.contains("verilog"), "{msg}");
    }

    /// The README's "Plan-based builds" tables are rebuilt row-by-row
    /// from the derived graph — the same strings `--list-states` and
    /// `--list-ops` print — so the documentation cannot drift.
    #[test]
    fn readme_plan_tables_stay_in_sync() {
        let readme = include_str!("../../../README.md");
        let g = standard();
        for s in g.states() {
            let exts = if s.extensions.is_empty() {
                "—".to_string()
            } else {
                s.extensions
                    .iter()
                    .map(|e| format!("`.{e}`"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let row = format!("| `{}` | {} | {} |", s.name, exts, s.description);
            assert!(readme.contains(&row), "README missing state row: {row}");
        }
        for op in g.ops() {
            let row = format!(
                "| `{}` | `{}` -> `{}` | {} |",
                op.name(),
                g.state(op.from()).name,
                g.state(op.to()).name,
                op.description()
            );
            assert!(readme.contains(&row), "README missing op row: {row}");
        }
    }

    /// Third parties extend the *standard* graph directly: a bespoke
    /// state and op slot into routes alongside the derived ones.
    #[test]
    fn third_parties_extend_the_standard_graph() {
        let mut g = standard();
        let verilog = g.state_id("verilog").unwrap();
        let bitstream = g.add_state("bitstream", "a mock place-and-route result", &[], "bit");
        g.add_op(OpSpec {
            name: "place-and-route".into(),
            description: "mock place-and-route".into(),
            from: verilog,
            to: bitstream,
            cost: 10,
            action: Action::Custom {
                fingerprint: "pnr:mock".into(),
                run: Box::new(|src, _, _| Ok(format!("BITSTREAM {} bytes", src.len()))),
            },
        });
        let route = g.plan(g.state_id("dahlia").unwrap(), bitstream).unwrap();
        let names: Vec<&str> = route.steps.iter().map(|&i| g.ops()[i].name()).collect();
        assert_eq!(
            names,
            ["dahlia-to-calyx", "emit-verilog", "place-and-route"]
        );
        let out = execute(
            &g,
            &route,
            "decl a: ubit<32>[1];\nlet x: ubit<32> = a[0];",
            &ExecEnv::default(),
            &BuildOpts {
                use_cache: false,
                ..BuildOpts::default()
            },
        )
        .unwrap();
        assert!(out.output.starts_with("BITSTREAM "), "{}", out.output);
    }

    /// End-to-end over a real program, no cache: calyx → lowered →
    /// verilog, plus the composite check op.
    #[test]
    fn standard_ops_execute_real_programs() {
        let src = "component main() -> () {
            cells { r = std_reg(8); }
            wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
            control { g; }
          }";
        let g = standard();
        let env = ExecEnv::default();
        let build = BuildOpts {
            use_cache: false,
            ..BuildOpts::default()
        };
        let calyx = g.state_id("calyx").unwrap();
        let route = g.plan(calyx, g.state_id("verilog").unwrap()).unwrap();
        let out = execute(&g, &route, src, &env, &build).unwrap();
        assert!(out.output.contains("module main"), "{}", out.output);

        let route = g.plan(calyx, g.state_id("lint-report").unwrap()).unwrap();
        // Clean program: empty text report (same as `futil check`).
        let report = execute(&g, &route, src, &env, &build).unwrap();
        assert!(report.output.is_empty(), "{}", report.output);
        let json_build = BuildOpts {
            opts: crate::op::OpOpts {
                format: ReportFormat::Json,
                ..crate::op::OpOpts::default()
            },
            ..build
        };
        let report = execute(&g, &route, src, &env, &json_build).unwrap();
        assert!(report.output.contains("\"errors\": 0"), "{}", report.output);
    }
}
