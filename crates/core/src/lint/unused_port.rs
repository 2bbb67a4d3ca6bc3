//! `unused-port` (C0203): signature ports the component ignores.

use super::diagnostic::{Diagnostic, Severity};
use super::registry::Lint;
use super::sink::DiagnosticSink;
use crate::analysis::{AnalysisCache, PortUses};
use crate::ir::{attr, Context, Direction, PortRef};

/// Flags declared signature ports the component never touches: inputs no
/// assignment reads, outputs no assignment writes. The implicit `go`/
/// `done` interface pair is exempt — lowering wires those up itself.
#[derive(Default)]
pub struct UnusedPort;

impl Lint for UnusedPort {
    const NAME: &'static str = "unused-port";
    const CODE: &'static str = "C0203";
    const DESCRIPTION: &'static str = "signature inputs never read, outputs never written";
    const SEVERITY: Severity = Severity::Warning;
    const EXPLANATION: &'static str = "\
A component signature port nothing touches is a stale interface: an
input no assignment or condition ever reads, or an output no assignment
ever drives (an undriven output reads as constant 0 downstream).

This usually means the implementation changed and the signature did
not.

Fix it by removing the port from the signature (and from every
instantiation site), or by wiring it to the logic that was supposed to
use it.";

    fn check(&self, ctx: &Context, cache: &mut AnalysisCache, sink: &mut DiagnosticSink) {
        for comp in ctx.components.iter() {
            let uses = cache.get::<PortUses>(comp);
            for port in &comp.signature {
                if port.attributes.has(attr::INTERFACE) {
                    continue;
                }
                let reference = PortRef::this(port.name);
                let problem = match port.direction {
                    Direction::Input if !uses.is_read(reference) => "input",
                    Direction::Output if !uses.is_written(reference) => "output",
                    _ => continue,
                };
                let verb = match port.direction {
                    Direction::Input => "read",
                    Direction::Output => "written",
                };
                sink.push(
                    Diagnostic::new(
                        Self::SEVERITY,
                        Self::CODE,
                        Self::NAME,
                        format!(
                            "{problem} port `{}` of component `{}` is never {verb}",
                            port.name, comp.name
                        ),
                    )
                    .at(ctx.sources.port(comp.name, port.name))
                    .note(match port.direction {
                        Direction::Input => "the component ignores whatever is driven here",
                        Direction::Output => "instantiators will read an undriven port",
                    }),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;

    fn check(src: &str) -> DiagnosticSink {
        let ctx = parse_context(src).unwrap();
        let mut sink = DiagnosticSink::new();
        UnusedPort.check(&ctx, &mut AnalysisCache::new(), &mut sink);
        sink
    }

    #[test]
    fn ignored_input_and_undriven_output_warn() {
        let sink = check(
            r#"component main(x: 8) -> (y: 8) {
                cells { r = std_reg(8); }
                wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
                control { g; }
            }"#,
        );
        assert_eq!(sink.warnings(), 2, "{:?}", sink.diagnostics());
        let msgs: Vec<&str> = sink
            .diagnostics()
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("input port `x`") && m.contains("never read")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("output port `y`") && m.contains("never written")),
            "{msgs:?}"
        );
    }

    #[test]
    fn used_ports_are_fine() {
        let sink = check(
            r#"component main(x: 8) -> (y: 8) {
                cells { r = std_reg(8); }
                wires {
                  y = r.out;
                  group g { r.in = x; r.write_en = 1'd1; g[done] = r.done; }
                }
                control { g; }
            }"#,
        );
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn implicit_interface_ports_are_exempt() {
        let sink = check(
            r#"component main() -> () {
                cells { r = std_reg(8); }
                wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
                control { g; }
            }"#,
        );
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }
}
