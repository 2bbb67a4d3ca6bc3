//! A minimal JSON reader/writer for the service protocol.
//!
//! The workspace is offline (no serde), and the protocol only needs a
//! small, predictable subset of JSON: one object per line, string and
//! integer scalars, one level of nesting for `fopts`/`pipeline`. This
//! module parses a full JSON value into [`Json`] — tracking the 1-based
//! byte column of every object key so unknown-field diagnostics can
//! point at the offending key — and renders values back out through the
//! lint sink's string encoder ([`escape`]).

use std::fmt;

/// Encode a string as a JSON string literal (quotes included): the
/// encoder `futil check --format json` uses, under this module's name.
pub use calyx_core::lint::json_string as escape;

/// A parsed JSON value.
///
/// Object members keep their textual order (and each key's source
/// column) rather than collapsing into a map, so diagnostics and golden
/// tests see exactly what was written.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; the protocol only uses non-negative integers.
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<Member>),
}

/// One `"key": value` member of a JSON object.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    /// The (unescaped) key.
    pub key: String,
    /// 1-based byte column of the key's opening quote, for diagnostics.
    pub col: usize,
    /// The member's value.
    pub value: Json,
}

/// A parse failure: what went wrong and the 1-based byte column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Explanation of what went wrong.
    pub msg: String,
    /// 1-based byte column of the offending character.
    pub col: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "column {}: {}", self.col, self.msg)
    }
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with no
    /// fractional part (the only numbers the protocol uses).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[Member]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Look up a key in an object (last occurrence wins, mirroring
    /// `FrontendOpts`); `None` for non-objects and absent keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .rev()
            .find(|m| m.key == key)
            .map(|m| &m.value)
    }

    /// Render the value as compact JSON (keys in stored order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, m) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&escape(&m.key));
                    out.push_str(": ");
                    m.value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parse one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] with the 1-based byte column of the first
/// offending character.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl fmt::Display) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            col: self.pos + 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let col = self.pos + 1;
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push(Member { key, col, value });
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        other => {
                            self.pos -= 1;
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)));
                        }
                    }
                }
                Some(_) => {
                    // Copy one whole UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn objects_keep_order_and_key_columns() {
        let v = parse(r#"{"b": 1, "a": {"x": [1, 2]}}"#).unwrap();
        let members = v.as_obj().unwrap();
        assert_eq!(members[0].key, "b");
        assert_eq!(members[0].col, 2);
        assert_eq!(members[1].key, "a");
        assert_eq!(members[1].col, 10);
        assert_eq!(v.get("b").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("a")
                .unwrap()
                .get("x")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn string_escapes_decode() {
        let v = parse(r#""a\n\t\"\\\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\A\u{1F600}"));
    }

    #[test]
    fn errors_carry_columns() {
        let e = parse(r#"{"a": }"#).unwrap_err();
        assert_eq!(e.col, 7);
        assert!(e.msg.contains("unexpected character"), "{e}");

        let e = parse(r#"{"a": 1} x"#).unwrap_err();
        assert_eq!(e.col, 10);
        assert!(e.msg.contains("trailing"), "{e}");

        let e = parse("").unwrap_err();
        assert!(e.msg.contains("end of input"), "{e}");
    }

    #[test]
    fn render_round_trips() {
        let src = r#"{"a": 1, "b": [true, "x\ny"], "c": null}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.render(), src);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn escape_matches_lint_sink_rules() {
        assert_eq!(escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }
}
