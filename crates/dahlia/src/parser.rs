//! Parser for the Dahlia dialect.
//!
//! Grammar sketch (whitespace-insensitive, `//` comments):
//!
//! ```text
//! program  ::= decl* block
//! decl     ::= "decl" IDENT ":" "ubit" "<" NUM ">" dim+ ";"
//! dim      ::= "[" NUM ("bank" NUM)? "]"
//! block    ::= chunk ("---" chunk)*            // ordered composition
//! chunk    ::= stmt*                           // unordered composition
//! stmt     ::= "let" IDENT ":" "ubit" "<" NUM ">" "=" expr ";"
//!            | IDENT ":=" expr ";"
//!            | IDENT ("[" expr "]")+ ":=" expr ";"
//!            | "if" "(" expr ")" "{" block "}" ("else" "{" block "}")?
//!            | "while" "(" expr ")" "{" block "}"
//!            | "for" "(" "let" IDENT ":" "ubit" "<" NUM ">" "=" NUM ".." NUM ")"
//!              ("unroll" NUM)? "{" block "}"
//! expr     ::= comparison over | ^ & << >> + - * / % sqrt() with C-like
//!              precedence
//! ```
//!
//! Blocks and expressions nest at most [`MAX_NESTING`] levels deep.

use crate::ast::{BinOp, Block, Expr, MemDecl, Program, Stmt};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::Id;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(u64),
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Colon,
    ColonEq,
    Eq,
    EqEq,
    Neq,
    Lt,
    Gt,
    Leq,
    Geq,
    Shl,
    Shr,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    DotDot,
    Dashes,
    Eof,
}

struct Lexer;

impl Lexer {
    fn lex(src: &str) -> CalyxResult<Vec<(Tok, usize)>> {
        let bytes = src.as_bytes();
        let mut toks = Vec::new();
        let mut i = 0;
        let mut line = 1;
        while i < bytes.len() {
            let c = bytes[i] as char;
            let two = |off: usize, ch: u8| bytes.get(i + off) == Some(&ch);
            match c {
                '\n' => {
                    line += 1;
                    i += 1;
                }
                ' ' | '\t' | '\r' => i += 1,
                '/' if two(1, b'/') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                '-' if two(1, b'-') && two(2, b'-') => {
                    toks.push((Tok::Dashes, line));
                    i += 3;
                }
                '(' => {
                    toks.push((Tok::LParen, line));
                    i += 1;
                }
                ')' => {
                    toks.push((Tok::RParen, line));
                    i += 1;
                }
                '{' => {
                    toks.push((Tok::LBrace, line));
                    i += 1;
                }
                '}' => {
                    toks.push((Tok::RBrace, line));
                    i += 1;
                }
                '[' => {
                    toks.push((Tok::LBracket, line));
                    i += 1;
                }
                ']' => {
                    toks.push((Tok::RBracket, line));
                    i += 1;
                }
                ';' => {
                    toks.push((Tok::Semi, line));
                    i += 1;
                }
                ':' if two(1, b'=') => {
                    toks.push((Tok::ColonEq, line));
                    i += 2;
                }
                ':' => {
                    toks.push((Tok::Colon, line));
                    i += 1;
                }
                '=' if two(1, b'=') => {
                    toks.push((Tok::EqEq, line));
                    i += 2;
                }
                '=' => {
                    toks.push((Tok::Eq, line));
                    i += 1;
                }
                '!' if two(1, b'=') => {
                    toks.push((Tok::Neq, line));
                    i += 2;
                }
                '<' if two(1, b'<') => {
                    toks.push((Tok::Shl, line));
                    i += 2;
                }
                '<' if two(1, b'=') => {
                    toks.push((Tok::Leq, line));
                    i += 2;
                }
                '<' => {
                    toks.push((Tok::Lt, line));
                    i += 1;
                }
                '>' if two(1, b'>') => {
                    toks.push((Tok::Shr, line));
                    i += 2;
                }
                '>' if two(1, b'=') => {
                    toks.push((Tok::Geq, line));
                    i += 2;
                }
                '>' => {
                    toks.push((Tok::Gt, line));
                    i += 1;
                }
                '+' => {
                    toks.push((Tok::Plus, line));
                    i += 1;
                }
                '-' => {
                    toks.push((Tok::Minus, line));
                    i += 1;
                }
                '*' => {
                    toks.push((Tok::Star, line));
                    i += 1;
                }
                '/' => {
                    toks.push((Tok::Slash, line));
                    i += 1;
                }
                '%' => {
                    toks.push((Tok::Percent, line));
                    i += 1;
                }
                '&' => {
                    toks.push((Tok::Amp, line));
                    i += 1;
                }
                '|' => {
                    toks.push((Tok::Pipe, line));
                    i += 1;
                }
                '^' => {
                    toks.push((Tok::Caret, line));
                    i += 1;
                }
                '.' if two(1, b'.') => {
                    toks.push((Tok::DotDot, line));
                    i += 2;
                }
                c if c.is_ascii_digit() => {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let n: u64 = src[start..i].parse().map_err(|_| Error::Parse {
                        msg: format!("number `{}` out of range", &src[start..i]),
                        line,
                        col: 0,
                    })?;
                    toks.push((Tok::Num(n), line));
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let start = i;
                    while i < bytes.len()
                        && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    toks.push((Tok::Ident(src[start..i].to_string()), line));
                }
                other => {
                    return Err(Error::Parse {
                        msg: format!("unexpected character `{other}`"),
                        line,
                        col: 0,
                    })
                }
            }
        }
        toks.push((Tok::Eof, line));
        Ok(toks)
    }
}

/// How deep blocks and expressions may nest together: a `{` block, a
/// `(`, `sqrt(` or `[` each count one level, and an expression inside
/// them its height (`x` is one level, the chain `x + x + x` three).
/// Parsing, checking, lowering and emission all recurse once per level,
/// so the cap keeps a hostile input from overflowing a worker thread's
/// stack.
pub const MAX_NESTING: usize = 256;

/// Operators by precedence, loosest first; each level is
/// left-associative.
const LEVELS: [&[(Tok, BinOp)]; 6] = [
    &[(Tok::Pipe, BinOp::Or)],
    &[(Tok::Caret, BinOp::Xor)],
    &[(Tok::Amp, BinOp::And)],
    &[(Tok::Shl, BinOp::Shl), (Tok::Shr, BinOp::Shr)],
    &[(Tok::Plus, BinOp::Add), (Tok::Minus, BinOp::Sub)],
    &[
        (Tok::Star, BinOp::Mul),
        (Tok::Slash, BinOp::Div),
        (Tok::Percent, BinOp::Rem),
    ],
];

/// The comparisons, looser than every level of [`LEVELS`].
const COMPARISONS: &[(Tok, BinOp)] = &[
    (Tok::Lt, BinOp::Lt),
    (Tok::Gt, BinOp::Gt),
    (Tok::EqEq, BinOp::Eq),
    (Tok::Neq, BinOp::Neq),
    (Tok::Geq, BinOp::Ge),
    (Tok::Leq, BinOp::Le),
];

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// How many blocks and bracketed expressions enclose the position.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl std::fmt::Display) -> Error {
        Error::Parse {
            msg: msg.to_string(),
            line: self.toks[self.pos].1,
            col: 0,
        }
    }

    fn expect(&mut self, t: Tok, what: &str) -> CalyxResult<()> {
        if *self.peek() == t {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn eat(&mut self, t: Tok) -> bool {
        if *self.peek() == t {
            self.next();
            true
        } else {
            false
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn kw(&mut self, kw: &str) -> CalyxResult<()> {
        if self.at_kw(kw) {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!("expected keyword `{kw}`")))
        }
    }

    fn ident(&mut self, what: &str) -> CalyxResult<Id> {
        match self.next() {
            Tok::Ident(s) => Ok(Id::new(s)),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn num(&mut self, what: &str) -> CalyxResult<u64> {
        match self.next() {
            Tok::Num(n) => Ok(n),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    /// `ubit < NUM >`, where `NUM` is a width the primitives support:
    /// 1 to 64 bits.
    fn width(&mut self) -> CalyxResult<u32> {
        self.kw("ubit")?;
        self.expect(Tok::Lt, "`<`")?;
        let w = self.num("width")?;
        let w = u32::try_from(w)
            .ok()
            .filter(|w| (1..=64).contains(w))
            .ok_or_else(|| self.err(format!("width {w} is outside 1..=64")))?;
        self.expect(Tok::Gt, "`>`")?;
        Ok(w)
    }

    fn decl(&mut self) -> CalyxResult<MemDecl> {
        self.kw("decl")?;
        let name = self.ident("memory name")?;
        self.expect(Tok::Colon, "`:`")?;
        let width = self.width()?;
        let mut dims = Vec::new();
        while self.eat(Tok::LBracket) {
            let size = self.num("dimension size")?;
            let banks = if self.at_kw("bank") {
                self.next();
                self.num("bank factor")?
            } else {
                1
            };
            self.expect(Tok::RBracket, "`]`")?;
            dims.push((size, banks));
        }
        self.expect(Tok::Semi, "`;`")?;
        if dims.is_empty() {
            return Err(self.err("memories need at least one dimension"));
        }
        Ok(MemDecl { name, width, dims })
    }

    /// Parse `chunk (--- chunk)*` until `}`/EOF; wrap per the composition
    /// semantics.
    fn block(&mut self) -> CalyxResult<Block> {
        let mut chunks: Vec<Stmt> = Vec::new();
        loop {
            let mut stmts = Vec::new();
            while !matches!(self.peek(), Tok::RBrace | Tok::Eof | Tok::Dashes) {
                stmts.push(self.stmt()?);
            }
            chunks.push(match stmts.len() {
                0 => Stmt::Par(Vec::new()),
                1 => stmts.pop().expect("length checked"),
                _ => Stmt::Par(stmts),
            });
            if !self.eat(Tok::Dashes) {
                break;
            }
        }
        Ok(chunks)
    }

    fn braced_block(&mut self) -> CalyxResult<Block> {
        self.expect(Tok::LBrace, "`{`")?;
        let b = self.nested(Self::block)?;
        self.expect(Tok::RBrace, "`}`")?;
        Ok(b)
    }

    fn stmt(&mut self) -> CalyxResult<Stmt> {
        if self.at_kw("let") {
            self.next();
            let var = self.ident("variable")?;
            self.expect(Tok::Colon, "`:`")?;
            let width = self.width()?;
            self.expect(Tok::Eq, "`=`")?;
            let init = self.expr()?;
            self.expect(Tok::Semi, "`;`")?;
            return Ok(Stmt::Let { var, width, init });
        }
        if self.at_kw("if") {
            self.next();
            self.expect(Tok::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(Tok::RParen, "`)`")?;
            let then_ = self.braced_block()?;
            let else_ = if self.at_kw("else") {
                self.next();
                self.braced_block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If { cond, then_, else_ });
        }
        if self.at_kw("while") {
            self.next();
            self.expect(Tok::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(Tok::RParen, "`)`")?;
            let body = self.braced_block()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.at_kw("for") {
            self.next();
            self.expect(Tok::LParen, "`(`")?;
            self.kw("let")?;
            let var = self.ident("loop variable")?;
            self.expect(Tok::Colon, "`:`")?;
            let width = self.width()?;
            self.expect(Tok::Eq, "`=`")?;
            let lo = self.num("range start")?;
            self.expect(Tok::DotDot, "`..`")?;
            let hi = self.num("range end")?;
            self.expect(Tok::RParen, "`)`")?;
            let unroll = if self.at_kw("unroll") {
                self.next();
                self.num("unroll factor")?
            } else {
                1
            };
            let body = self.braced_block()?;
            return Ok(Stmt::For {
                var,
                width,
                lo,
                hi,
                unroll,
                body,
            });
        }
        // Assignment: `x := e;` or `m[i]... := e;`
        let name = self.ident("statement")?;
        let (indices, _) = self.indices()?;
        self.expect(Tok::ColonEq, "`:=`")?;
        let rhs = self.expr()?;
        self.expect(Tok::Semi, "`;`")?;
        if indices.is_empty() {
            Ok(Stmt::AssignVar { var: name, rhs })
        } else {
            Ok(Stmt::Store {
                mem: name,
                bank: None,
                indices,
                rhs,
            })
        }
    }

    /// Parse `f` one level deeper: a block, or a parenthesized, `sqrt` or
    /// index expression.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> CalyxResult<T>) -> CalyxResult<T> {
        self.fits(1)?;
        self.depth += 1;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    /// Refuse a node `height` levels tall at the current depth when it
    /// would nest past [`MAX_NESTING`].
    fn fits(&self, height: usize) -> CalyxResult<()> {
        if self.depth + height > MAX_NESTING {
            return Err(self.err(format!(
                "blocks and expressions nest deeper than {MAX_NESTING} levels"
            )));
        }
        Ok(())
    }

    fn expr(&mut self) -> CalyxResult<Expr> {
        Ok(self.comparison()?.0)
    }

    /// An expression and its height. A comparison does not chain.
    fn comparison(&mut self) -> CalyxResult<(Expr, usize)> {
        let lhs = self.level(0)?;
        let (e, height) = match self.op(COMPARISONS) {
            Some(op) => {
                let rhs = self.level(0)?;
                self.binop(op, lhs, rhs)?
            }
            None => lhs,
        };
        self.fits(height)?;
        Ok((e, height))
    }

    /// A left-associative chain of the operators of `LEVELS[i]` over the
    /// tighter levels, and its height.
    fn level(&mut self, i: usize) -> CalyxResult<(Expr, usize)> {
        let Some(ops) = LEVELS.get(i) else {
            return self.primary();
        };
        let mut lhs = self.level(i + 1)?;
        while let Some(op) = self.op(ops) {
            let rhs = self.level(i + 1)?;
            lhs = self.binop(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    /// Consume the next token if it is one of `ops`, returning its operator.
    fn op(&mut self, ops: &[(Tok, BinOp)]) -> Option<BinOp> {
        let op = ops.iter().find(|(t, _)| t == self.peek())?.1;
        self.next();
        Some(op)
    }

    fn binop(
        &self,
        op: BinOp,
        (lhs, l): (Expr, usize),
        (rhs, r): (Expr, usize),
    ) -> CalyxResult<(Expr, usize)> {
        let height = l.max(r) + 1;
        self.fits(height)?;
        Ok((Expr::binop(op, lhs, rhs), height))
    }

    fn primary(&mut self) -> CalyxResult<(Expr, usize)> {
        match self.peek().clone() {
            Tok::Num(n) => {
                self.next();
                Ok((Expr::Num(n), 1))
            }
            Tok::LParen => {
                self.next();
                let e = self.nested(Self::comparison)?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Ident(s) if s == "sqrt" => {
                self.next();
                self.expect(Tok::LParen, "`(`")?;
                let (e, height) = self.nested(Self::comparison)?;
                self.expect(Tok::RParen, "`)`")?;
                Ok((Expr::Sqrt(Box::new(e)), height + 1))
            }
            Tok::Ident(_) => {
                let name = self.ident("expression")?;
                let (indices, height) = self.indices()?;
                if indices.is_empty() {
                    Ok((Expr::Var(name), 1))
                } else {
                    let read = Expr::ReadMem {
                        mem: name,
                        bank: None,
                        indices,
                    };
                    Ok((read, height + 1))
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    /// `("[" expr "]")*`, and the height of the tallest index.
    fn indices(&mut self) -> CalyxResult<(Vec<Expr>, usize)> {
        let (mut indices, mut height) = (Vec::new(), 0);
        while self.eat(Tok::LBracket) {
            let (i, h) = self.nested(Self::comparison)?;
            indices.push(i);
            height = height.max(h);
            self.expect(Tok::RBracket, "`]`")?;
        }
        Ok((indices, height))
    }
}

/// Parse a Dahlia program.
///
/// # Errors
///
/// Returns [`Error::Parse`] with line information on malformed input.
pub fn parse(src: &str) -> CalyxResult<Program> {
    let toks = Lexer::lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut decls = Vec::new();
    while p.at_kw("decl") {
        decls.push(p.decl()?);
    }
    let block = p.block()?;
    if *p.peek() != Tok::Eof {
        return Err(p.err("trailing tokens after program body"));
    }
    let body = match block.len() {
        1 => block.into_iter().next().expect("length checked"),
        _ => Stmt::Seq(block),
    };
    Ok(Program { decls, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_declarations() {
        let p = parse("decl a: ubit<32>[8 bank 2][4]; let x: ubit<32> = 0;").unwrap();
        assert_eq!(p.decls.len(), 1);
        assert_eq!(p.decls[0].width, 32);
        assert_eq!(p.decls[0].dims, vec![(8, 2), (4, 1)]);
    }

    #[test]
    fn composition_operators() {
        // `;` composes unordered; `---` composes ordered.
        let p = parse(
            "let x: ubit<8> = 0;
             let y: ubit<8> = 1;
             ---
             x := y;",
        )
        .unwrap();
        match p.body {
            Stmt::Seq(chunks) => {
                assert_eq!(chunks.len(), 2);
                assert!(matches!(chunks[0], Stmt::Par(_)));
                assert!(matches!(chunks[1], Stmt::AssignVar { .. }));
            }
            other => panic!("expected seq of chunks, got {other:?}"),
        }
    }

    #[test]
    fn parses_loops_and_conditionals() {
        let p = parse(
            "decl a: ubit<32>[8];
             for (let i: ubit<4> = 0..8) unroll 2 {
               if (a[i] > 3) { a[i] := 0; } else { a[i] := 1; }
             }
             ---
             while (a[0] < 10) { a[0] := a[0] + 1; }",
        )
        .unwrap();
        match p.body {
            Stmt::Seq(chunks) => {
                assert!(matches!(
                    chunks[0],
                    Stmt::For {
                        unroll: 2,
                        lo: 0,
                        hi: 8,
                        ..
                    }
                ));
                assert!(matches!(chunks[1], Stmt::While { .. }));
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let p = parse("let x: ubit<32> = 1 + 2 * 3;").unwrap();
        match p.body {
            Stmt::Let { init, .. } => match init {
                Expr::Binop {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(*rhs, Expr::Binop { op: BinOp::Mul, .. }));
                }
                other => panic!("expected add at root, got {other:?}"),
            },
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn parses_sqrt_and_memory_ops() {
        let p = parse(
            "decl m: ubit<32>[4][4];
             m[1][2] := sqrt(m[0][0]) + 1;",
        )
        .unwrap();
        match p.body {
            Stmt::Store { indices, rhs, .. } => {
                assert_eq!(indices.len(), 2);
                assert_eq!(rhs.sequential_ops(), 1);
            }
            other => panic!("expected store, got {other:?}"),
        }
    }

    /// A width the primitives cannot build is a positioned parse error,
    /// not a panic or a truncated width.
    #[test]
    fn widths_outside_1_to_64_are_parse_errors() {
        for w in ["0", "65", "4294967297"] {
            let err = parse(&format!("decl a: ubit<8>[4];\nlet x: ubit<{w}> = 1;")).unwrap_err();
            assert!(
                matches!(&err, Error::Parse { line: 2, msg, .. }
                    if *msg == format!("width {w} is outside 1..=64")),
                "{err}"
            );
        }
        for w in [1, 64] {
            let p = parse(&format!("decl a: ubit<{w}>[4];")).unwrap();
            assert_eq!(p.decls[0].width, w);
        }
    }

    /// `terms` copies of `x` joined by `+`: `terms` levels deep.
    fn chain(terms: usize) -> String {
        format!(
            "let x: ubit<8> = 0;\n---\nx := x{};",
            " + x".repeat(terms - 1)
        )
    }

    /// Blocks and expressions nest at most [`MAX_NESTING`] levels deep, a
    /// chain of operators counting one level per operator; past that is a
    /// parse error on the line where it goes too deep.
    #[test]
    fn nesting_past_the_cap_is_a_positioned_error() {
        let too_deep = format!("blocks and expressions nest deeper than {MAX_NESTING} levels");
        let deep = |src: String, line: usize| {
            let err = parse(&src).map(|_| ()).unwrap_err();
            assert!(
                matches!(&err, Error::Parse { line: l, msg, .. } if *l == line && *msg == too_deep),
                "{err}"
            );
        };
        assert!(parse(&chain(MAX_NESTING)).is_ok());
        deep(chain(MAX_NESTING + 1), 3);

        let parens = |n| format!("let x: ubit<8> = {}1{};", "(".repeat(n), ")".repeat(n));
        assert!(parse(&parens(MAX_NESTING - 1)).is_ok());
        deep(parens(MAX_NESTING), 1);

        // The innermost `x < 1` is two levels deep.
        let ifs = |n| format!("{}x := 1;{}", "if (x < 1) {\n".repeat(n), "}".repeat(n));
        assert!(parse(&ifs(MAX_NESTING - 1)).is_ok());
        deep(ifs(MAX_NESTING), MAX_NESTING);
    }

    #[test]
    fn reports_errors_with_lines() {
        let err = parse("let x: ubit<8> = ;").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }));
        let err = parse("decl a ubit<8>[4];").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }
}
