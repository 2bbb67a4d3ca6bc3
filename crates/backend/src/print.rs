//! The `calyx` backend: print the program as Calyx text.
//!
//! This is the [`Printer`] behind the
//! [`Backend`] contract — the identity backend that makes the compiler's
//! intermediate state inspectable at any pipeline stage.

use crate::api::{Backend, BackendOpts};
use calyx_core::errors::CalyxResult;
use calyx_core::ir::{Context, Printer};
use std::io;

/// Prints the (possibly compiled) program in the textual Calyx format.
///
/// Accepts any program: [`Backend::validate`] never fails and
/// [`Backend::required_pipeline`] is empty, so drivers that default to a
/// backend's declared pipeline fall back to their own default for this
/// one.
pub struct CalyxBackend;

impl Backend for CalyxBackend {
    const NAME: &'static str = "calyx";
    const DESCRIPTION: &'static str = "print the program as Calyx text";
    const EXTENSION: &'static str = "futil";

    fn from_opts(_: &BackendOpts) -> Self {
        CalyxBackend
    }

    fn required_pipeline(&self) -> &'static [&'static str] {
        &[]
    }

    fn validate(&self, _: &Context) -> CalyxResult<()> {
        Ok(())
    }

    fn emit(&self, ctx: &Context, out: &mut dyn io::Write) -> CalyxResult<()> {
        // Stream component by component through one reused buffer;
        // byte-identical to `Printer::print_context` without
        // materializing the whole program text.
        let mut buf = String::new();
        Printer::write_externs(&ctx.lib, &mut buf);
        for comp in ctx.components.iter() {
            Printer::write_component(comp, &mut buf);
            buf.push('\n');
            out.write_all(buf.as_bytes())?;
            buf.clear();
        }
        out.write_all(buf.as_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::ir::parse_context;

    #[test]
    fn emission_matches_the_printer_byte_for_byte() {
        let ctx = parse_context(
            r#"
            extern "blackbox.sv" { component my_unit(in: 8) -> (out: 8); }
            component helper() -> () {
              cells { r = std_reg(8); }
              wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
              control { g; }
            }
            component main() -> () {
              cells { h = helper(); }
              wires { group go { h.go = 1'd1; go[done] = h.done; } }
              control { go; }
            }"#,
        )
        .unwrap();
        let mut out = Vec::new();
        CalyxBackend.emit(&ctx, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            Printer::print_context(&ctx)
        );
    }
}
