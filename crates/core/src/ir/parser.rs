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
//!
//! **What a token costs.** The lexer makes one pass over the bytes and
//! allocates nothing per token: a [`Tok`] is `Copy`, an identifier is
//! interned as it is lexed (a keyword is a well-known [`Id`], so matching
//! one compares two indices), and a string literal is a slice of the
//! source, which keeps `import` and `extern` paths out of the interner.
//! Positions are 1-based lines and columns counted in characters, the
//! coordinates [`caret_snippet`](crate::errors::caret_snippet) renders.
//! Error texts print a token as `Ident("x")`, `Str("f.sv")`, `Num(3)`,
//! `Sized { width: 4, val: 1 }` or a punctuation name such as `LParen`.

use super::cell::Group;
use super::{
    Assignment, Atom, Attributes, CellType, CompOp, Component, Context, Control, Direction,
    GuardId, GuardNode, GuardPool, Id, Library, Loc, PortDef, PrimitiveDef, PrimitivePort,
    SourceMap, Truncation, WidthSpec,
};
use crate::errors::{CalyxResult, Error};
use crate::prim::mask;
use std::fmt;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// An interned identifier whose `Debug` is its text, so a token prints as
/// `Ident("x")` in error messages.
#[derive(Clone, Copy, PartialEq)]
struct Name(Id);

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0.as_str(), f)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'src> {
    Ident(Name),
    Num(u64),
    Sized {
        width: u32,
        val: u64,
    },
    /// The text between the quotes.
    Str(&'src str),
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

#[derive(Debug, Clone, Copy)]
struct Spanned<'src> {
    tok: Tok<'src>,
    loc: Loc,
}

/// A parse error at `loc`.
fn err_at(loc: Loc, msg: impl fmt::Display) -> Error {
    Error::Parse {
        msg: msg.to_string(),
        line: loc.line,
        col: loc.col,
    }
}

/// A width, which must fit `u32`.
fn width_at(n: u64, loc: Loc) -> CalyxResult<u32> {
    u32::try_from(n).map_err(|_| err_at(loc, format!("width `{n}` out of range")))
}

/// The end of the run of bytes from `i` that satisfy `f`.
fn run_end(bytes: &[u8], mut i: usize, f: impl Fn(u8) -> bool) -> usize {
    while i < bytes.len() && f(bytes[i]) {
        i += 1;
    }
    i
}

/// Tokenize `src`, additionally reporting every sized literal whose value
/// was truncated to its declared width — masking happens here, so the
/// lexer is the only place the over-wide value is still observable.
fn lex(src: &str) -> CalyxResult<(Vec<Spanned<'_>>, Vec<Truncation>)> {
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut truncations = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    // Push a token that spans `$len` bytes of as many characters.
    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            let len = $len;
            toks.push(Spanned {
                tok: $tok,
                loc: Loc { line, col },
            });
            i += len;
            col += len;
        }};
    }
    while i < bytes.len() {
        let here = Loc { line, col };
        let next = bytes.get(i + 1).copied();
        match bytes[i] {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                col += 1;
            }
            b'/' if next == Some(b'/') => i = run_end(bytes, i, |b| b != b'\n'),
            b'(' => push!(Tok::LParen, 1),
            b')' => push!(Tok::RParen, 1),
            b'{' => push!(Tok::LBrace, 1),
            b'}' => push!(Tok::RBrace, 1),
            b'[' => push!(Tok::LBracket, 1),
            b']' => push!(Tok::RBracket, 1),
            b';' => push!(Tok::Semi, 1),
            b':' => push!(Tok::Colon, 1),
            b',' => push!(Tok::Comma, 1),
            b'.' => push!(Tok::Dot, 1),
            b'?' => push!(Tok::Question, 1),
            b'&' if next == Some(b'&') => push!(Tok::Amp, 2),
            b'&' => push!(Tok::Amp, 1),
            b'|' if next == Some(b'|') => push!(Tok::Pipe, 2),
            b'|' => push!(Tok::Pipe, 1),
            b'@' => push!(Tok::At, 1),
            b'-' if next == Some(b'>') => push!(Tok::Arrow, 2),
            b'=' if next == Some(b'=') => push!(Tok::EqEq, 2),
            b'=' => push!(Tok::Eq, 1),
            b'!' if next == Some(b'=') => push!(Tok::Neq, 2),
            b'!' => push!(Tok::Bang, 1),
            b'<' if next == Some(b'=') => push!(Tok::Leq, 2),
            b'<' => push!(Tok::Lt, 1),
            b'>' if next == Some(b'=') => push!(Tok::Geq, 2),
            b'>' => push!(Tok::Gt, 1),
            b'"' => {
                let end = run_end(bytes, i + 1, |b| b != b'"');
                if end >= bytes.len() {
                    return Err(err_at(here, "unterminated string literal"));
                }
                let text = &src[i + 1..end];
                toks.push(Spanned {
                    tok: Tok::Str(text),
                    loc: here,
                });
                // The quotes are one column each; the text may not be ASCII.
                col += text.chars().count() + 2;
                i = end + 1;
            }
            b'0'..=b'9' => {
                let end = run_end(bytes, i, |b| b.is_ascii_digit());
                let digits = &src[i..end];
                let first: u64 = digits
                    .parse()
                    .map_err(|_| err_at(here, format!("number `{digits}` out of range")))?;
                // Sized literal: `32'd5`.
                if bytes.get(end) == Some(&b'\'') && bytes.get(end + 1) == Some(&b'd') {
                    let vend = run_end(bytes, end + 2, |b| b.is_ascii_digit());
                    if vend == end + 2 {
                        return Err(err_at(here, "expected digits after 'd"));
                    }
                    let digits = &src[end + 2..vend];
                    let val: u64 = digits
                        .parse()
                        .map_err(|_| err_at(here, format!("constant `{digits}` out of range")))?;
                    let width = width_at(first, here)?;
                    let kept = mask(val, width);
                    if kept != val {
                        truncations.push(Truncation {
                            loc: here,
                            width,
                            val,
                            kept,
                        });
                    }
                    push!(Tok::Sized { width, val }, vend - i);
                } else {
                    push!(Tok::Num(first), end - i);
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let end = run_end(bytes, i, |b| b.is_ascii_alphanumeric() || b == b'_');
                push!(Tok::Ident(Name(Id::new(&src[i..end]))), end - i);
            }
            _ => {
                // Every token ends on an ASCII byte, so `i` starts a character.
                let other = src[i..].chars().next().expect("`i` is inside `src`");
                return Err(err_at(here, format!("unexpected character `{other}`")));
            }
        }
    }
    toks.push(Spanned {
        tok: Tok::Eof,
        loc: Loc { line, col },
    });
    Ok((toks, truncations))
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'src> {
    toks: Vec<Spanned<'src>>,
    pos: usize,
    /// The guards of the component being read: its assignments' guards
    /// are interned here as they are parsed.
    guards: GuardPool,
    /// How many `!` and `(` the guard being read is inside of.
    depth: usize,
}

/// How deep a guard may nest `!` and `(`. The parser recurses once per
/// level, so the cap keeps a hostile input from overflowing its stack; a
/// `&`/`|` chain is a loop and may be as long as the input.
const MAX_GUARD_DEPTH: usize = 256;

/// A guard-or-atom expression; disambiguated by the trailing `?`.
enum GExpr {
    Atom(Atom),
    Guard(GuardId),
}

impl<'src> Parser<'src> {
    fn new(toks: Vec<Spanned<'src>>) -> Self {
        Parser {
            toks,
            pos: 0,
            guards: GuardPool::default(),
            depth: 0,
        }
    }

    fn peek(&self) -> Tok<'src> {
        self.toks[self.pos].tok
    }

    fn next(&mut self) -> Tok<'src> {
        let t = self.peek();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// The position of the *current* (not yet consumed) token — captured
    /// before consuming a name to record where that name is declared.
    fn loc(&self) -> Loc {
        self.toks[self.pos].loc
    }

    fn err(&self, msg: impl fmt::Display) -> Error {
        err_at(self.loc(), msg)
    }

    fn expect(&mut self, tok: Tok, what: &str) -> CalyxResult<()> {
        if self.peek() == tok {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if self.peek() == tok {
            self.next();
            true
        } else {
            false
        }
    }

    fn ident(&mut self, what: &str) -> CalyxResult<Id> {
        match self.peek() {
            Tok::Ident(Name(id)) => {
                self.next();
                Ok(id)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn keyword(&mut self, kw: Id) -> CalyxResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword `{kw}`, found {:?}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, kw: Id) -> bool {
        self.eat(Tok::Ident(Name(kw)))
    }

    fn num(&mut self, what: &str) -> CalyxResult<u64> {
        match self.peek() {
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
            let at = self.loc();
            let width = width_at(self.num("port width")?, at)?;
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
        match self.peek() {
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
        while self.eat(Tok::Pipe) {
            let rhs = self.g_and()?;
            let (l, r) = (self.guard_of(lhs)?, self.guard_of(rhs)?);
            lhs = GExpr::Guard(self.guards.or(l, r));
        }
        Ok(lhs)
    }

    fn g_and(&mut self) -> CalyxResult<GExpr> {
        let mut lhs = self.g_cmp()?;
        while self.eat(Tok::Amp) {
            let rhs = self.g_cmp()?;
            let (l, r) = (self.guard_of(lhs)?, self.guard_of(rhs)?);
            lhs = GExpr::Guard(self.guards.and(l, r));
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
                Ok(GExpr::Guard(self.guards.add(GuardNode::Comp(op, l, r))))
            }
        }
    }

    fn g_unary(&mut self) -> CalyxResult<GExpr> {
        let (nested, loc) = (self.peek(), self.loc());
        if !matches!(nested, Tok::Bang | Tok::LParen) {
            return Ok(GExpr::Atom(self.atom()?));
        }
        if self.depth == MAX_GUARD_DEPTH {
            return Err(err_at(
                loc,
                format!("guard nests deeper than {MAX_GUARD_DEPTH} levels of `!` and `(`"),
            ));
        }
        self.next();
        self.depth += 1;
        let inner = if nested == Tok::Bang {
            let inner = self.g_unary()?;
            let inner = self.guard_of(inner)?;
            GExpr::Guard(self.guards.not(inner))
        } else {
            let inner = self.gexpr()?;
            self.expect(Tok::RParen, "`)`")?;
            inner
        };
        self.depth -= 1;
        Ok(inner)
    }

    /// A guard-or-atom read as a guard: a bare port is a port guard and
    /// `1'd1` is true.
    fn guard_of(&mut self, e: GExpr) -> CalyxResult<GuardId> {
        match e {
            GExpr::Guard(g) => Ok(g),
            GExpr::Atom(Atom::Port(p)) => Ok(self.guards.port(p)),
            GExpr::Atom(Atom::Const { val: 1, width: 1 }) => Ok(GuardId::TRUE),
            GExpr::Atom(a) => Err(Error::malformed(format!(
                "constant `{a}` cannot be used as a guard"
            ))),
        }
    }

    /// `dst = (guard ?)? src ;`
    fn assignment(&mut self) -> CalyxResult<Assignment> {
        let dst = self.port_ref()?;
        self.expect(Tok::Eq, "`=`")?;
        let first = self.gexpr()?;
        let asgn = if self.eat(Tok::Question) {
            let guard = self.guard_of(first)?;
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
        let mut stmt = if self.eat_keyword(Id::SEQ) {
            Control::seq(self.stmt_block()?)
        } else if self.eat_keyword(Id::PAR) {
            Control::par(self.stmt_block()?)
        } else if self.eat_keyword(Id::IF) {
            let port = self.port_ref()?;
            let cond = self.with_group()?;
            let tbranch = block_to_control(self.stmt_block()?);
            let fbranch = if self.eat_keyword(Id::ELSE) {
                block_to_control(self.stmt_block()?)
            } else {
                Control::Empty
            };
            Control::if_(port, cond, tbranch, fbranch)
        } else if self.eat_keyword(Id::WHILE) {
            let port = self.port_ref()?;
            let cond = self.with_group()?;
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

    /// `with group` after an `if` or `while` port — optional.
    fn with_group(&mut self) -> CalyxResult<Option<Id>> {
        if self.eat_keyword(Id::WITH) {
            self.ident("condition group").map(Some)
        } else {
            Ok(None)
        }
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

/// What phase 2 fills in: the body of a component that phase 1
/// registered with its signature.
struct RawBody {
    name: Id,
    cells: Vec<RawCell>,
    groups: Vec<Group>,
    continuous: Vec<Assignment>,
    guards: GuardPool,
    control: Control,
}

/// Parse one component into its signature-only [`Component`] and the body
/// phase 2 resolves.
fn parse_component(p: &mut Parser, sources: &mut SourceMap) -> CalyxResult<(Component, RawBody)> {
    p.keyword(Id::COMPONENT)?;
    let name = p.ident("component name")?;
    let attrs = p.angle_attributes()?;
    let mut ports = p.port_list(Direction::Input)?;
    p.expect(Tok::Arrow, "`->`")?;
    ports.extend(p.port_list(Direction::Output)?);
    for (def, loc) in &ports {
        sources.record_port(name, def.name, *loc);
    }
    let mut signature = Component::new(name, ports.into_iter().map(|(d, _)| d).collect());
    signature.attributes = attrs;
    p.expect(Tok::LBrace, "`{`")?;

    // cells { ... }
    p.keyword(Id::CELLS)?;
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
    p.keyword(Id::WIRES)?;
    p.guards = GuardPool::default();
    p.expect(Tok::LBrace, "`{`")?;
    let mut groups = Vec::new();
    let mut continuous = Vec::new();
    while !p.eat(Tok::RBrace) {
        if p.eat_keyword(Id::GROUP) {
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
    p.keyword(Id::CONTROL)?;
    p.expect(Tok::LBrace, "`{`")?;
    let control = if p.eat(Tok::RBrace) {
        Control::Empty
    } else {
        let stmt = p.control_stmt()?;
        p.expect(Tok::RBrace, "`}`")?;
        stmt
    };

    p.expect(Tok::RBrace, "`}` (end of component)")?;
    let body = RawBody {
        name,
        cells,
        groups,
        continuous,
        guards: std::mem::take(&mut p.guards),
        control,
    };
    Ok((signature, body))
}

/// Parse `extern "file.sv" { component name(ins) -> (outs); ... }` into
/// kind-less rows of `lib` with fixed widths. A name already in `lib` —
/// a std primitive or an earlier `extern` — is an error at that name.
fn parse_extern(p: &mut Parser, lib: &mut Library) -> CalyxResult<()> {
    p.keyword(Id::EXTERN)?;
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
        p.keyword(Id::COMPONENT)?;
        let at = p.loc();
        let name = p.ident("extern component name")?;
        if let Some(prev) = lib.get(name) {
            let msg = match &prev.file {
                None => format!("extern `{name}` redefines the standard primitive `{name}`"),
                Some(f) => format!("extern `{name}` is already declared (in \"{f}\")"),
            };
            return Err(err_at(at, msg));
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
            file: Some(file.to_owned()),
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
    let mut p = Parser::new(toks);
    let mut bodies = Vec::new();
    let mut ctx = Context::new();
    // Phase 1: register signatures as the components are read, so they
    // can instantiate each other regardless of definition order.
    loop {
        match p.peek() {
            Tok::Eof => break,
            Tok::Ident(Name(Id::IMPORT)) => {
                p.next();
                match p.next() {
                    Tok::Str(_) => {}
                    other => {
                        return Err(p.err(format!("expected import path string, found {other:?}")))
                    }
                }
                p.expect(Tok::Semi, "`;`")?;
            }
            Tok::Ident(Name(Id::EXTERN)) => parse_extern(&mut p, &mut ctx.lib)?,
            Tok::Ident(Name(Id::COMPONENT)) => {
                let (signature, body) = parse_component(&mut p, &mut sources)?;
                ctx.add_component(signature);
                bodies.push(body);
            }
            other => return Err(p.err(format!("expected top-level item, found {other:?}"))),
        }
    }

    // Phase 2: fill in bodies. A cell resolves against the signatures
    // alone, so each is made before its component is borrowed to take it.
    for body in bodies {
        let registered = "registered in phase 1";
        for rc in body.cells {
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
            let comp = ctx.components.get_mut(body.name).expect(registered);
            if comp.cells.insert(cell).is_some() {
                return Err(Error::malformed(format!(
                    "duplicate cell `{}` in component `{}`",
                    rc.name, body.name
                )));
            }
        }
        let comp = ctx.components.get_mut(body.name).expect(registered);
        for g in body.groups {
            let gname = g.name;
            if comp.groups.insert(g).is_some() {
                return Err(Error::malformed(format!(
                    "duplicate group `{gname}` in component `{}`",
                    body.name
                )));
            }
        }
        comp.continuous = body.continuous;
        comp.guards = body.guards;
        comp.control = body.control;
    }
    ctx.sources = sources;
    Ok(ctx)
}

/// Parse a guard expression standalone into `pool` (used by tests).
///
/// # Errors
///
/// Returns [`Error::Parse`] on malformed guards.
pub fn parse_guard(src: &str, pool: &mut GuardPool) -> CalyxResult<GuardId> {
    let (toks, _) = lex(src)?;
    let mut p = Parser::new(toks);
    p.guards = std::mem::take(pool);
    let parsed = p.gexpr().and_then(|e| {
        if p.peek() != Tok::Eof {
            return Err(p.err("trailing tokens after guard"));
        }
        p.guard_of(e)
    });
    *pool = p.guards;
    parsed
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
        let mut pool = GuardPool::default();
        let g = parse_guard("a.out & !b.out | fsm.out == 2'd3", &mut pool).unwrap();
        // (a.out & !b.out) | (fsm.out == 2'd3)
        match pool[g] {
            GuardNode::Or(lhs, rhs) => {
                assert!(matches!(pool[lhs], GuardNode::And(..)));
                assert!(matches!(pool[rhs], GuardNode::Comp(CompOp::Eq, ..)));
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
            main.guards[main.continuous[1].guard],
            GuardNode::Comp(CompOp::Lt, ..)
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

    /// The message and `(line, col)` of the parse error `src` fails with.
    #[track_caller]
    fn parse_error(src: &str) -> (String, usize, usize) {
        match parse_context(src) {
            Err(Error::Parse { msg, line, col }) => (msg, line, col),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    /// Error texts name a token by its kind and text, one case per kind.
    #[test]
    fn error_texts_name_the_token_found() {
        for (src, found) in [
            ("component main() -> () { x }", r#"Ident("x")"#),
            (r#"component main() -> () { "s" }"#, r#"Str("s")"#),
            ("component 7", "Num(7)"),
            (
                "component main() -> () { cells { r = std_reg(1'd1); } }",
                "Sized { width: 1, val: 1 }",
            ),
            (
                "component main() -> () { cells { r = std_reg(1) } }",
                "RBrace",
            ),
            ("component main() -> () {", "Eof"),
        ] {
            let (msg, ..) = parse_error(src);
            assert!(msg.ends_with(&format!(", found {found}")), "{src}: {msg}");
        }
        let (msg, ..) = parse_error("component main() -> () { x }");
        assert_eq!(msg, r#"expected keyword `cells`, found Ident("x")"#);
    }

    /// `!` and `(` nest at most [`MAX_GUARD_DEPTH`] deep in a guard; the
    /// first one past the cap is a positioned error, however many follow.
    #[test]
    fn guards_nested_past_the_cap_are_positioned_errors() {
        let nested = |open: &str, close: &str, n: usize| {
            format!("{}r.out{}", open.repeat(n), close.repeat(n))
        };
        let mut pool = GuardPool::default();
        parse_guard(&nested("(", ")", MAX_GUARD_DEPTH), &mut pool).unwrap();
        parse_guard(&nested("!", "", MAX_GUARD_DEPTH), &mut pool).unwrap();
        for (open, close, n) in [("(", ")", 20_000), ("!", "", 50_000), ("!(", ")", 300)] {
            let guard = nested(open, close, n);
            let src = format!(
                "component main() -> () {{\n  cells {{ r = std_reg(1); }}\n  \
                 wires {{ r.in = {guard} ? 1'd1; }}\n  control {{}}\n}}"
            );
            let (msg, line, col) = parse_error(&src);
            assert_eq!(msg, "guard nests deeper than 256 levels of `!` and `(`");
            let column = "  wires { r.in = ".len() + MAX_GUARD_DEPTH + 1;
            assert_eq!((line, col), (3, column), "{open}");
        }
    }

    /// A column counts characters: the `é` in the path is one column,
    /// though two bytes.
    #[test]
    fn columns_count_characters_not_bytes() {
        let src = "extern \"é.sv\" { component std_reg(in: 8) -> (out: 8); }";
        let (msg, line, col) = parse_error(src);
        assert!(msg.contains("standard primitive `std_reg`"), "{msg}");
        assert_eq!((line, col), (1, 27));
        assert!(src
            .chars()
            .skip(col - 1)
            .collect::<String>()
            .starts_with("std_reg"));
    }

    #[test]
    fn an_unexpected_character_is_named_as_itself() {
        let src = "component main() -> () { cells { é = std_reg(1); } wires {} control {} }";
        let (msg, line, col) = parse_error(src);
        assert_eq!(msg, "unexpected character `é`");
        assert_eq!((line, col), (1, 34));
    }

    /// A width that does not fit 32 bits is an error at its number, for a
    /// port and for a sized constant, instead of wrapping.
    #[test]
    fn widths_beyond_u32_are_positioned_errors() {
        for (src, number) in [
            (
                "component main(x: 4294967297) -> () { cells {} wires {} control {} }",
                "4294967297",
            ),
            (
                "component main() -> (o: 8) { cells {} wires { o = 4294967304'd1; } control {} }",
                "4294967304",
            ),
        ] {
            let (msg, line, col) = parse_error(src);
            assert_eq!(msg, format!("width `{number}` out of range"));
            assert_eq!((line, col), (1, src.find(number).unwrap() + 1));
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
