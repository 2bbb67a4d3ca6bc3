//! Parser for the textual Calyx format.
//!
//! The grammar follows the paper's concrete syntax (§3) plus the `extern`
//! form for black-box RTL (§6.2):
//!
//! ```text
//! file      ::= (import | extern | component)*
//! import    ::= "import" STRING ";"
//! extern    ::= "extern" STRING "{" prim_decl* "}"
//! prim_decl ::= "component" IDENT "(" ports ")" "->" "(" ports ")" ";"
//! component ::= "component" IDENT attrs? "(" ports ")" "->" "(" ports ")"
//!               "{" cells wires control "}"
//! cells     ::= "cells" "{" (at_attrs IDENT "=" IDENT "(" nums ")" ";")* "}"
//! wires     ::= "wires" "{" (group | assign)* "}"
//! group     ::= "group" IDENT attrs? "{" assign* "}"
//! assign    ::= portref "=" (guard "?")? atom ";"
//! control   ::= "control" "{" stmt? "}"
//! stmt      ::= at_attrs (IDENT ";" | seq | par | if | while)
//! ```
//!
//! Components may reference each other in any order; parsing is two-phase
//! (signatures first, then bodies).

use super::cell::Group;
use super::{
    Assignment, Atom, Attributes, CellType, CompOp, Component, Context, Control, Direction, Guard,
    Id, Library, Loc, PortDef, PrimitiveDef, PrimitivePort, SourceMap, Truncation, WidthSpec,
};
use crate::errors::{CalyxResult, Error};
use crate::prim::mask;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(u64),
    Sized { width: u32, val: u64 },
    Str(String),
    // Punctuation and operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Lt,
    Gt,
    Leq,
    Geq,
    EqEq,
    Neq,
    Eq,
    Semi,
    Colon,
    Comma,
    Dot,
    Question,
    Bang,
    Amp,
    Pipe,
    At,
    Arrow,
    Eof,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

/// Tokenize `src`, additionally reporting every sized literal whose value
/// was truncated to its declared width — masking happens here, so the
/// lexer is the only place the over-wide value is still observable.
fn lex(src: &str) -> CalyxResult<(Vec<Spanned>, Vec<Truncation>)> {
    let mut toks = Vec::new();
    let mut truncations = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            toks.push(Spanned {
                tok: $tok,
                line,
                col,
            });
            i += $len;
            col += $len;
        }};
    }
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push!(Tok::LParen, 1),
            ')' => push!(Tok::RParen, 1),
            '{' => push!(Tok::LBrace, 1),
            '}' => push!(Tok::RBrace, 1),
            '[' => push!(Tok::LBracket, 1),
            ']' => push!(Tok::RBracket, 1),
            ';' => push!(Tok::Semi, 1),
            ':' => push!(Tok::Colon, 1),
            ',' => push!(Tok::Comma, 1),
            '.' => push!(Tok::Dot, 1),
            '?' => push!(Tok::Question, 1),
            '&' if bytes.get(i + 1) == Some(&b'&') => push!(Tok::Amp, 2),
            '&' => push!(Tok::Amp, 1),
            '|' if bytes.get(i + 1) == Some(&b'|') => push!(Tok::Pipe, 2),
            '|' => push!(Tok::Pipe, 1),
            '@' => push!(Tok::At, 1),
            '-' if bytes.get(i + 1) == Some(&b'>') => push!(Tok::Arrow, 2),
            '=' if bytes.get(i + 1) == Some(&b'=') => push!(Tok::EqEq, 2),
            '=' => push!(Tok::Eq, 1),
            '!' if bytes.get(i + 1) == Some(&b'=') => push!(Tok::Neq, 2),
            '!' => push!(Tok::Bang, 1),
            '<' if bytes.get(i + 1) == Some(&b'=') => push!(Tok::Leq, 2),
            '<' => push!(Tok::Lt, 1),
            '>' if bytes.get(i + 1) == Some(&b'=') => push!(Tok::Geq, 2),
            '>' => push!(Tok::Gt, 1),
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(Error::Parse {
                        msg: "unterminated string literal".into(),
                        line,
                        col,
                    });
                }
                let s = src[start..j].to_string();
                let len = j + 1 - i;
                push!(Tok::Str(s), len);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let first: u64 = src[start..j].parse().map_err(|_| Error::Parse {
                    msg: format!("number `{}` out of range", &src[start..j]),
                    line,
                    col,
                })?;
                // Sized literal: `32'd5`.
                if bytes.get(j) == Some(&b'\'') && bytes.get(j + 1) == Some(&b'd') {
                    let vstart = j + 2;
                    let mut k = vstart;
                    while k < bytes.len() && bytes[k].is_ascii_digit() {
                        k += 1;
                    }
                    if k == vstart {
                        return Err(Error::Parse {
                            msg: "expected digits after 'd".into(),
                            line,
                            col,
                        });
                    }
                    let val: u64 = src[vstart..k].parse().map_err(|_| Error::Parse {
                        msg: format!("constant `{}` out of range", &src[vstart..k]),
                        line,
                        col,
                    })?;
                    let width = first as u32;
                    let kept = mask(val, width);
                    if kept != val {
                        truncations.push(Truncation {
                            loc: Loc { line, col },
                            width,
                            val,
                            kept,
                        });
                    }
                    let len = k - i;
                    push!(
                        Tok::Sized {
                            width: first as u32,
                            val
                        },
                        len
                    );
                } else {
                    let len = j - i;
                    push!(Tok::Num(first), len);
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let s = src[start..j].to_string();
                let len = j - i;
                push!(Tok::Ident(s), len);
            }
            other => {
                return Err(Error::Parse {
                    msg: format!("unexpected character `{other}`"),
                    line,
                    col,
                })
            }
        }
    }
    toks.push(Spanned {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok((toks, truncations))
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

/// A guard-or-atom expression; disambiguated by the trailing `?`.
enum GExpr {
    Atom(Atom),
    Guard(Guard),
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// The position of the *current* (not yet consumed) token — captured
    /// before consuming a name to record where that name is declared.
    fn loc(&self) -> Loc {
        let sp = &self.toks[self.pos];
        Loc {
            line: sp.line,
            col: sp.col,
        }
    }

    fn err(&self, msg: impl std::fmt::Display) -> Error {
        let sp = &self.toks[self.pos];
        Error::Parse {
            msg: msg.to_string(),
            line: sp.line,
            col: sp.col,
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> CalyxResult<()> {
        if *self.peek() == tok {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.next();
            true
        } else {
            false
        }
    }

    fn ident(&mut self, what: &str) -> CalyxResult<Id> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(Id::new(s))
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> CalyxResult<()> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.next();
                Ok(())
            }
            other => Err(self.err(format!("expected keyword `{kw}`, found {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn num(&mut self, what: &str) -> CalyxResult<u64> {
        match self.peek().clone() {
            Tok::Num(n) => {
                self.next();
                Ok(n)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    /// `<"key"=num, ...>` — optional.
    fn angle_attributes(&mut self) -> CalyxResult<Attributes> {
        let mut attrs = Attributes::new();
        if !self.eat(Tok::Lt) {
            return Ok(attrs);
        }
        loop {
            let key = match self.next() {
                Tok::Str(s) => Id::new(s),
                other => {
                    return Err(self.err(format!("expected attribute string, found {other:?}")))
                }
            };
            self.expect(Tok::Eq, "`=`")?;
            let val = self.num("attribute value")?;
            attrs.insert(key, val);
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::Gt, "`>`")?;
        Ok(attrs)
    }

    /// `@key` or `@key(num)` — zero or more.
    fn at_attributes(&mut self) -> CalyxResult<Attributes> {
        let mut attrs = Attributes::new();
        while self.eat(Tok::At) {
            let key = self.ident("attribute name")?;
            let val = if self.eat(Tok::LParen) {
                let v = self.num("attribute value")?;
                self.expect(Tok::RParen, "`)`")?;
                v
            } else {
                1
            };
            attrs.insert(key, val);
        }
        Ok(attrs)
    }

    /// `name: width, ...` until the closing paren, with each port's
    /// declaration position (dropped by `extern` signatures, recorded in
    /// the source map for component signatures).
    fn port_list(&mut self, direction: Direction) -> CalyxResult<Vec<(PortDef, Loc)>> {
        let mut ports = Vec::new();
        self.expect(Tok::LParen, "`(`")?;
        if self.eat(Tok::RParen) {
            return Ok(ports);
        }
        loop {
            let attrs = self.at_attributes()?;
            let loc = self.loc();
            let name = self.ident("port name")?;
            self.expect(Tok::Colon, "`:`")?;
            let width = self.num("port width")? as u32;
            let mut def = PortDef::new(name, width, direction);
            def.attributes = attrs;
            ports.push((def, loc));
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        Ok(ports)
    }

    /// Port reference: `cell.port`, `group[hole]`, or a bare `this` port.
    fn port_ref(&mut self) -> CalyxResult<super::PortRef> {
        let first = self.ident("port reference")?;
        if self.eat(Tok::Dot) {
            let port = self.ident("port name")?;
            Ok(super::PortRef::cell(first, port))
        } else if self.eat(Tok::LBracket) {
            let hole = self.ident("hole name")?;
            self.expect(Tok::RBracket, "`]`")?;
            Ok(super::PortRef::hole(first, hole))
        } else {
            Ok(super::PortRef::this(first))
        }
    }

    fn atom(&mut self) -> CalyxResult<Atom> {
        match self.peek().clone() {
            Tok::Sized { width, val } => {
                self.next();
                Ok(Atom::constant(val, width))
            }
            Tok::Ident(_) => Ok(Atom::Port(self.port_ref()?)),
            other => Err(self.err(format!("expected port or constant, found {other:?}"))),
        }
    }

    // Guard grammar: or > and > comparison/unary.
    fn gexpr(&mut self) -> CalyxResult<GExpr> {
        self.g_or()
    }

    fn g_or(&mut self) -> CalyxResult<GExpr> {
        let mut lhs = self.g_and()?;
        while *self.peek() == Tok::Pipe {
            self.next();
            let rhs = self.g_and()?;
            lhs = GExpr::Guard(to_guard(lhs)?.or(to_guard(rhs)?));
        }
        Ok(lhs)
    }

    fn g_and(&mut self) -> CalyxResult<GExpr> {
        let mut lhs = self.g_cmp()?;
        while *self.peek() == Tok::Amp {
            self.next();
            let rhs = self.g_cmp()?;
            lhs = GExpr::Guard(to_guard(lhs)?.and(to_guard(rhs)?));
        }
        Ok(lhs)
    }

    fn g_cmp(&mut self) -> CalyxResult<GExpr> {
        let lhs = self.g_unary()?;
        let op = match self.peek() {
            Tok::EqEq => Some(CompOp::Eq),
            Tok::Neq => Some(CompOp::Neq),
            Tok::Lt => Some(CompOp::Lt),
            Tok::Gt => Some(CompOp::Gt),
            Tok::Leq => Some(CompOp::Leq),
            Tok::Geq => Some(CompOp::Geq),
            _ => None,
        };
        match op {
            None => Ok(lhs),
            Some(op) => {
                self.next();
                let rhs = self.g_unary()?;
                let l = to_atom(lhs).map_err(|m| self.err(m))?;
                let r = to_atom(rhs).map_err(|m| self.err(m))?;
                Ok(GExpr::Guard(Guard::Comp(op, l, r)))
            }
        }
    }

    fn g_unary(&mut self) -> CalyxResult<GExpr> {
        if self.eat(Tok::Bang) {
            let inner = self.g_unary()?;
            return Ok(GExpr::Guard(to_guard(inner)?.not()));
        }
        if self.eat(Tok::LParen) {
            let inner = self.gexpr()?;
            self.expect(Tok::RParen, "`)`")?;
            return Ok(inner);
        }
        Ok(GExpr::Atom(self.atom()?))
    }

    /// `dst = (guard ?)? src ;`
    fn assignment(&mut self) -> CalyxResult<Assignment> {
        let dst = self.port_ref()?;
        self.expect(Tok::Eq, "`=`")?;
        let first = self.gexpr()?;
        let asgn = if self.eat(Tok::Question) {
            let guard = to_guard(first)?;
            let src = self.atom()?;
            Assignment::guarded(dst, src, guard)
        } else {
            let src = to_atom(first).map_err(|m| self.err(m))?;
            Assignment::new(dst, src)
        };
        self.expect(Tok::Semi, "`;`")?;
        Ok(asgn)
    }

    fn control_stmt(&mut self) -> CalyxResult<Control> {
        let attrs = self.at_attributes()?;
        let mut stmt = if self.at_keyword("seq") {
            self.next();
            Control::seq(self.stmt_block()?)
        } else if self.at_keyword("par") {
            self.next();
            Control::par(self.stmt_block()?)
        } else if self.at_keyword("if") {
            self.next();
            let port = self.port_ref()?;
            let cond = if self.at_keyword("with") {
                self.next();
                Some(self.ident("condition group")?)
            } else {
                None
            };
            let tbranch = block_to_control(self.stmt_block()?);
            let fbranch = if self.at_keyword("else") {
                self.next();
                block_to_control(self.stmt_block()?)
            } else {
                Control::Empty
            };
            Control::if_(port, cond, tbranch, fbranch)
        } else if self.at_keyword("while") {
            self.next();
            let port = self.port_ref()?;
            let cond = if self.at_keyword("with") {
                self.next();
                Some(self.ident("condition group")?)
            } else {
                None
            };
            let body = block_to_control(self.stmt_block()?);
            Control::while_(port, cond, body)
        } else {
            let group = self.ident("group name")?;
            self.expect(Tok::Semi, "`;`")?;
            Control::enable(group)
        };
        if let Some(a) = stmt.attributes_mut() {
            for (k, v) in attrs.iter() {
                a.insert(k, v);
            }
        }
        Ok(stmt)
    }

    fn stmt_block(&mut self) -> CalyxResult<Vec<Control>> {
        self.expect(Tok::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while !self.eat(Tok::RBrace) {
            stmts.push(self.control_stmt()?);
        }
        Ok(stmts)
    }
}

fn to_guard(e: GExpr) -> CalyxResult<Guard> {
    match e {
        GExpr::Guard(g) => Ok(g),
        GExpr::Atom(Atom::Port(p)) => Ok(Guard::Port(p)),
        GExpr::Atom(Atom::Const { val: 1, width: 1 }) => Ok(Guard::True),
        GExpr::Atom(a) => Err(Error::malformed(format!(
            "constant `{a}` cannot be used as a guard"
        ))),
    }
}

fn to_atom(e: GExpr) -> Result<Atom, String> {
    match e {
        GExpr::Atom(a) => Ok(a),
        GExpr::Guard(_) => Err("expected a port or constant, found a guard expression".into()),
    }
}

fn block_to_control(mut stmts: Vec<Control>) -> Control {
    match stmts.len() {
        0 => Control::Empty,
        1 => stmts.pop().expect("len checked"),
        _ => Control::seq(stmts),
    }
}

// ---------------------------------------------------------------------------
// Two-phase file parsing
// ---------------------------------------------------------------------------

struct RawCell {
    attrs: Attributes,
    name: Id,
    proto: Id,
    params: Vec<u64>,
}

struct RawComponent {
    name: Id,
    attrs: Attributes,
    inputs: Vec<PortDef>,
    outputs: Vec<PortDef>,
    cells: Vec<RawCell>,
    groups: Vec<Group>,
    continuous: Vec<Assignment>,
    control: Control,
}

fn parse_component(p: &mut Parser, sources: &mut SourceMap) -> CalyxResult<RawComponent> {
    p.keyword("component")?;
    let name = p.ident("component name")?;
    let attrs = p.angle_attributes()?;
    let inputs = p.port_list(Direction::Input)?;
    p.expect(Tok::Arrow, "`->`")?;
    let outputs = p.port_list(Direction::Output)?;
    for (def, loc) in inputs.iter().chain(outputs.iter()) {
        sources.record_port(name, def.name, *loc);
    }
    let inputs: Vec<PortDef> = inputs.into_iter().map(|(d, _)| d).collect();
    let outputs: Vec<PortDef> = outputs.into_iter().map(|(d, _)| d).collect();
    p.expect(Tok::LBrace, "`{`")?;

    // cells { ... }
    p.keyword("cells")?;
    p.expect(Tok::LBrace, "`{`")?;
    let mut cells = Vec::new();
    while !p.eat(Tok::RBrace) {
        let cattrs = p.at_attributes()?;
        let cloc = p.loc();
        let cname = p.ident("cell name")?;
        p.expect(Tok::Eq, "`=`")?;
        let proto = p.ident("primitive or component name")?;
        p.expect(Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if !p.eat(Tok::RParen) {
            loop {
                params.push(p.num("parameter")?);
                if !p.eat(Tok::Comma) {
                    break;
                }
            }
            p.expect(Tok::RParen, "`)`")?;
        }
        p.expect(Tok::Semi, "`;`")?;
        sources.record_cell(name, cname, cloc);
        cells.push(RawCell {
            attrs: cattrs,
            name: cname,
            proto,
            params,
        });
    }

    // wires { ... }
    p.keyword("wires")?;
    p.expect(Tok::LBrace, "`{`")?;
    let mut groups = Vec::new();
    let mut continuous = Vec::new();
    while !p.eat(Tok::RBrace) {
        if p.at_keyword("group") {
            p.next();
            let gloc = p.loc();
            let gname = p.ident("group name")?;
            let gattrs = p.angle_attributes()?;
            p.expect(Tok::LBrace, "`{`")?;
            sources.record_group(name, gname, gloc);
            let mut group = Group::new(gname);
            group.attributes = gattrs;
            while !p.eat(Tok::RBrace) {
                let aloc = p.loc();
                sources.record_assignment(name, Some(gname), group.assignments.len(), aloc);
                group.assignments.push(p.assignment()?);
            }
            groups.push(group);
        } else {
            let aloc = p.loc();
            sources.record_assignment(name, None, continuous.len(), aloc);
            continuous.push(p.assignment()?);
        }
    }

    // control { ... }
    p.keyword("control")?;
    p.expect(Tok::LBrace, "`{`")?;
    let control = if p.eat(Tok::RBrace) {
        Control::Empty
    } else {
        let stmt = p.control_stmt()?;
        p.expect(Tok::RBrace, "`}`")?;
        stmt
    };

    p.expect(Tok::RBrace, "`}` (end of component)")?;
    Ok(RawComponent {
        name,
        attrs,
        inputs,
        outputs,
        cells,
        groups,
        continuous,
        control,
    })
}

/// Parse `extern "file.sv" { component name(ins) -> (outs); ... }` into
/// kind-less rows of `lib` with fixed widths. A name already in `lib` —
/// a std primitive or an earlier `extern` — is an error at that name.
fn parse_extern(p: &mut Parser, lib: &mut Library) -> CalyxResult<()> {
    p.keyword("extern")?;
    let file = match p.next() {
        Tok::Str(file) => file,
        other => {
            return Err(p.err(format!(
                "expected file string after `extern`, found {other:?}"
            )))
        }
    };
    p.expect(Tok::LBrace, "`{`")?;
    while !p.eat(Tok::RBrace) {
        p.keyword("component")?;
        let at = p.loc();
        let name = p.ident("extern component name")?;
        if let Some(prev) = lib.get(name) {
            let msg = match &prev.file {
                None => format!("extern `{name}` redefines the standard primitive `{name}`"),
                Some(f) => format!("extern `{name}` is already declared (in \"{f}\")"),
            };
            return Err(Error::Parse {
                msg,
                line: at.line,
                col: at.col,
            });
        }
        let attrs = p.angle_attributes()?;
        let inputs = p.port_list(Direction::Input)?;
        p.expect(Tok::Arrow, "`->`")?;
        let outputs = p.port_list(Direction::Output)?;
        p.expect(Tok::Semi, "`;`")?;
        let ports = inputs
            .iter()
            .chain(outputs.iter())
            .map(|(pd, _)| PrimitivePort {
                name: pd.name,
                width: WidthSpec::Const(pd.width),
                direction: pd.direction,
            })
            .collect();
        lib.add(PrimitiveDef {
            name,
            params: Vec::new(),
            ports,
            attributes: attrs,
            kind: None,
            file: Some(file.clone()),
        });
    }
    Ok(())
}

/// Parse a complete program into a [`Context`] with the standard library.
///
/// # Errors
///
/// Returns [`Error::Parse`] with position information on syntax errors, and
/// resolution errors (undefined primitives/components, bad parameters) as
/// [`Error::Undefined`]/[`Error::BuildError`].
pub fn parse_context(src: &str) -> CalyxResult<Context> {
    let (toks, truncations) = lex(src)?;
    let mut sources = SourceMap::default();
    for t in truncations {
        sources.record_truncation(t);
    }
    let mut p = Parser { toks, pos: 0 };
    let mut raws = Vec::new();
    let mut ctx = Context::new();
    loop {
        match p.peek() {
            Tok::Eof => break,
            Tok::Ident(s) if s == "import" => {
                p.next();
                match p.next() {
                    Tok::Str(_) => {}
                    other => {
                        return Err(p.err(format!("expected import path string, found {other:?}")))
                    }
                }
                p.expect(Tok::Semi, "`;`")?;
            }
            Tok::Ident(s) if s == "extern" => parse_extern(&mut p, &mut ctx.lib)?,
            Tok::Ident(s) if s == "component" => raws.push(parse_component(&mut p, &mut sources)?),
            other => return Err(p.err(format!("expected top-level item, found {other:?}"))),
        }
    }

    // Phase 1: register signatures so components can instantiate each other
    // regardless of definition order.
    for raw in &raws {
        let mut ports = raw.inputs.clone();
        ports.extend(raw.outputs.iter().cloned());
        let mut comp = Component::new(raw.name, ports);
        comp.attributes = raw.attrs.clone();
        ctx.add_component(comp);
    }

    // Phase 2: fill in bodies.
    for raw in raws {
        let mut comp = ctx
            .components
            .get(raw.name)
            .cloned()
            .expect("registered in phase 1");
        for rc in raw.cells {
            let proto = if ctx.components.contains(rc.proto) {
                CellType::Component { name: rc.proto }
            } else {
                CellType::Primitive {
                    name: rc.proto,
                    params: rc.params,
                }
            };
            let mut cell = ctx.make_cell(rc.name, proto)?;
            cell.attributes = rc.attrs;
            if comp.cells.insert(cell).is_some() {
                return Err(Error::malformed(format!(
                    "duplicate cell `{}` in component `{}`",
                    rc.name, raw.name
                )));
            }
        }
        for g in raw.groups {
            let gname = g.name;
            if comp.groups.insert(g).is_some() {
                return Err(Error::malformed(format!(
                    "duplicate group `{gname}` in component `{}`",
                    raw.name
                )));
            }
        }
        comp.continuous = raw.continuous;
        comp.control = raw.control;
        ctx.add_component(comp);
    }
    ctx.sources = sources;
    Ok(ctx)
}

/// Parse a guard expression standalone (used by tests and the REPL-style
/// examples).
///
/// # Errors
///
/// Returns [`Error::Parse`] on malformed guards.
pub fn parse_guard(src: &str) -> CalyxResult<Guard> {
    let (toks, _) = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let e = p.gexpr()?;
    if *p.peek() != Tok::Eof {
        return Err(p.err("trailing tokens after guard"));
    }
    to_guard(e)
}

#[cfg(test)]
mod tests {
    use super::super::Printer;
    use super::*;

    const FIG2: &str = r#"
        // Figure 2a from the paper.
        component main() -> () {
          cells {
            x = std_reg(32);
          }
          wires {
            group one {
              x.in = 32'd1;
              x.write_en = 1'd1;
              one[done] = x.done;
            }
            group two {
              x.in = 32'd2;
              x.write_en = 1'd1;
              two[done] = x.done;
            }
          }
          control {
            seq { one; two; }
          }
        }
    "#;

    #[test]
    fn parses_figure_2() {
        let ctx = parse_context(FIG2).unwrap();
        let main = ctx.component("main").unwrap();
        assert_eq!(main.cells.len(), 1);
        assert_eq!(main.groups.len(), 2);
        assert_eq!(main.control.statement_count(), 3);
        let one = main.groups.get(Id::new("one")).unwrap();
        assert_eq!(one.assignments.len(), 3);
        assert_eq!(one.assignments[0].src, Atom::constant(1, 32));
    }

    #[test]
    fn round_trips_through_printer() {
        let ctx = parse_context(FIG2).unwrap();
        let printed = Printer::print_context(&ctx);
        let reparsed = parse_context(&printed).unwrap();
        assert_eq!(
            Printer::print_context(&reparsed),
            printed,
            "print→parse→print must be stable"
        );
    }

    #[test]
    fn parses_guards_with_precedence() {
        let g = parse_guard("a.out & !b.out | fsm.out == 2'd3").unwrap();
        // (a.out & !b.out) | (fsm.out == 2'd3)
        match g {
            Guard::Or(lhs, rhs) => {
                assert!(matches!(*lhs, Guard::And(..)));
                assert!(matches!(*rhs, Guard::Comp(CompOp::Eq, ..)));
            }
            other => panic!("unexpected guard {other:?}"),
        }
    }

    #[test]
    fn parses_guarded_assignments() {
        let src = r#"
            component main(x: 32) -> (y: 32) {
              cells { a = std_add(32); }
              wires {
                a.left = x;
                a.right = a.out < 32'd10 ? x;
                y = a.out;
              }
              control {}
            }
        "#;
        let ctx = parse_context(src).unwrap();
        let main = ctx.component("main").unwrap();
        assert_eq!(main.continuous.len(), 3);
        assert!(matches!(
            main.continuous[1].guard,
            Guard::Comp(CompOp::Lt, ..)
        ));
    }

    #[test]
    fn parses_if_while_control() {
        let src = r#"
            component main() -> () {
              cells { lt = std_lt(4); r = std_reg(4); }
              wires {
                group cond { cond[done] = 1'd1; }
                group body {
                  r.in = 4'd1; r.write_en = 1'd1; body[done] = r.done;
                }
              }
              control {
                seq {
                  while lt.out with cond { body; }
                  if lt.out with cond { body; } else { body; }
                }
              }
            }
        "#;
        let ctx = parse_context(src).unwrap();
        let main = ctx.component("main").unwrap();
        match &main.control {
            Control::Seq { stmts, .. } => {
                assert!(matches!(stmts[0], Control::While { .. }));
                assert!(matches!(stmts[1], Control::If { .. }));
            }
            other => panic!("unexpected control {other:?}"),
        }
    }

    #[test]
    fn components_reference_each_other_in_any_order() {
        let src = r#"
            component main() -> () {
              cells { p = pe(); }
              wires {}
              control {}
            }
            component pe(a: 8) -> (b: 8) {
              cells {}
              wires { b = a; }
              control {}
            }
        "#;
        let ctx = parse_context(src).unwrap();
        let main = ctx.component("main").unwrap();
        let p = main.cells.get(Id::new("p")).unwrap();
        assert!(matches!(p.prototype, CellType::Component { .. }));
        // Instantiated `pe` exposes reversed-direction ports plus interface.
        assert_eq!(p.port_width(Id::new("a")), Some(8));
        assert_eq!(p.port_width(Id::new("go")), Some(1));
    }

    #[test]
    fn extern_defines_primitives() {
        let src = r#"
            extern "sqrt.sv" {
              component sqrt(in: 32, go: 1) -> (out: 32, done: 1);
            }
            component main() -> () {
              cells { s = sqrt(); }
              wires {}
              control {}
            }
        "#;
        let ctx = parse_context(src).unwrap();
        let main = ctx.component("main").unwrap();
        let s = main.cells.get(Id::new("s")).unwrap();
        assert!(s.is_primitive("sqrt"));
        assert_eq!(s.port_width(Id::new("out")), Some(32));
        let def = ctx.lib.expect(Id::new("sqrt")).unwrap();
        assert_eq!((def.kind, def.file.as_deref()), (None, Some("sqrt.sv")));
    }

    /// An `extern` may not take a std primitive's name or repeat an
    /// earlier `extern`: either is an error at the second name.
    #[test]
    fn extern_redefinitions_are_positioned_errors() {
        for (src, col, what) in [
            (
                "extern \"bb.sv\" { component std_reg(in: 8) -> (out: 8); }",
                28,
                "standard primitive `std_reg`",
            ),
            (
                "extern \"a.sv\" { component u(in: 8) -> (out: 8); }\n\
                 extern \"b.sv\" { component u(in: 8) -> (out: 8); }",
                27,
                "already declared (in \"a.sv\")",
            ),
        ] {
            match parse_context(src).unwrap_err() {
                Error::Parse { msg, line, col: c } => {
                    assert!(msg.contains(what), "{msg}");
                    assert_eq!((line, c), (src.lines().count(), col), "{msg}");
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    /// Externs print before the components, grouped by file in
    /// declaration order, and the printed text parses back to itself.
    #[test]
    fn externs_print_and_round_trip() {
        let src = r#"
            extern "b.sv" { component zed<"static"=2>(in: 8) -> (out: 8); }
            extern "a.sv" {
              component alpha(@go go: 1, x: 4) -> (y: 4, done: 1);
              component beta() -> (o: 1);
            }
            component main() -> () {
              cells { z = zed(); a = alpha(); }
              wires { z.in = 8'd1; }
              control {}
            }
        "#;
        let printed = Printer::print_context(&parse_context(src).unwrap());
        assert!(
            printed.starts_with(
                "extern \"b.sv\" {\n  component zed<\"static\"=2>(in: 8) -> (out: 8);\n}\n\n\
                 extern \"a.sv\" {\n  component alpha(go: 1, x: 4) -> (y: 4, done: 1);\n  \
                 component beta() -> (o: 1);\n}\n\ncomponent main"
            ),
            "{printed}"
        );
        let reparsed = parse_context(&printed).unwrap();
        assert_eq!(Printer::print_context(&reparsed), printed);
        let zed = reparsed.lib.expect(Id::new("zed")).unwrap();
        assert_eq!(zed.static_latency(), Some(2));
    }

    #[test]
    fn control_attributes_survive() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(1); }
              wires {
                group g { r.in = 1'd1; r.write_en = 1'd1; g[done] = r.done; }
              }
              control { @static(4) seq { g; } }
            }
        "#;
        let ctx = parse_context(src).unwrap();
        let main = ctx.component("main").unwrap();
        assert_eq!(main.control.static_latency(), Some(4));
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_context("component main() -> () { cells ! }").unwrap_err();
        match err {
            Error::Parse { line, col, .. } => {
                assert_eq!(line, 1);
                assert!(col > 20);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn source_map_records_declaration_sites() {
        let src = "component main(x: 8) -> () {\n\
                   \x20 cells { r = std_reg(4); }\n\
                   \x20 wires {\n\
                   \x20   group g { r.in = 4'd20; r.write_en = 1'd1; g[done] = r.done; }\n\
                   \x20 }\n\
                   \x20 control { g; }\n\
                   }\n";
        let ctx = parse_context(src).unwrap();
        let (main, r, g) = (Id::new("main"), Id::new("r"), Id::new("g"));
        let sm = &ctx.sources;
        assert_eq!(
            sm.port(main, Id::new("x")),
            Some(super::Loc { line: 1, col: 16 })
        );
        assert_eq!(sm.cell(main, r), Some(super::Loc { line: 2, col: 11 }));
        assert_eq!(sm.group(main, g), Some(super::Loc { line: 4, col: 11 }));
        // First assignment of `g` starts at its destination port.
        assert_eq!(
            sm.assignment(main, Some(g), 0),
            Some(super::Loc { line: 4, col: 15 })
        );
        // `4'd20` does not fit 4 bits: recorded as a truncation, value masked.
        let t = sm.truncations();
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].width, t[0].val, t[0].kept), (4, 20, 4));
        assert_eq!(t[0].loc, super::Loc { line: 4, col: 22 });
        let main_comp = ctx.component("main").unwrap();
        let grp = main_comp.groups.get(g).unwrap();
        assert_eq!(grp.assignments[0].src, Atom::constant(4, 4));
    }

    #[test]
    fn generated_programs_have_empty_source_maps() {
        assert!(Context::new().sources.is_empty());
    }

    #[test]
    fn duplicate_cells_rejected() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(1); r = std_reg(2); }
              wires {}
              control {}
            }
        "#;
        assert!(matches!(parse_context(src), Err(Error::Malformed(_))));
    }

    #[test]
    fn imports_are_ignored() {
        let src = r#"
            import "primitives/core.futil";
            component main() -> () { cells {} wires {} control {} }
        "#;
        assert!(parse_context(src).is_ok());
    }
}
