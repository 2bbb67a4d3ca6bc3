//! JSON: the one value type, reader and writer of the workspace.
//!
//! The workspace is offline (no serde), and every machine-readable output
//! — the `futil check --format json` report, the `area` report, the
//! batch summary, the JSON-lines responses and listings of `futil serve`
//! — is a [`Json`] value built by its owner and rendered here, so the
//! syntax, the string escaping and the layout are known to this module
//! alone. There are two layouts:
//!
//! - [`Json::render`]: compact, one line, with `", "` between items and
//!   `": "` after keys (`{"id": 0, "items": [1, 2]}`);
//! - [`Json::render_block`]: a top-level object's members one per line at
//!   two spaces, and a member's non-empty array one element per line at
//!   four spaces; everything deeper is compact.
//!
//! [`parse`] reads a full JSON value, tracking the 1-based byte column of
//! every object key so unknown-field diagnostics can point at the key.
//! Nesting is bounded by [`MAX_DEPTH`], so hostile input is a positioned
//! [`JsonError`], never a stack overflow.
//!
//! ```
//! use calyx_core::json::{parse, Json};
//!
//! let v = Json::obj([("file", "a.futil".into()), ("codes", Json::Arr(vec!["C0101".into()]))]);
//! assert_eq!(v.render(), r#"{"file": "a.futil", "codes": ["C0101"]}"#);
//! assert_eq!(v.render_block(), "{\n  \"file\": \"a.futil\",\n  \"codes\": [\n    \"C0101\"\n  ]\n}");
//! assert_eq!(parse(&v.render_block()).unwrap().render(), v.render());
//! ```

use std::fmt;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// service protocol needs two levels and the benchmark's result files
/// about five.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Object members keep their order (and, when parsed, each key's source
/// column) rather than collapsing into a map, so diagnostics and golden
/// tests see exactly what was written.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. A non-finite one renders as `null`.
    Num(f64),
    /// A string, unescaped.
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
    /// 1-based byte column of the key's opening quote, for diagnostics
    /// (0 for a member that was built, not parsed).
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

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! json_num_from {
    ($($t:ty),+) => {
        $(impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        })+
    };
}

json_num_from!(u64, u128, usize, f64);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An object of `(key, value)` members, in the given order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(key, value)| Member {
                    key: key.to_string(),
                    col: 0,
                    value,
                })
                .collect(),
        )
    }

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

    /// The value as compact JSON on one line (keys in stored order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// The value in the block layout (see the [module docs](self)); a
    /// value that is not an object renders compact.
    pub fn render_block(&self) -> String {
        let mut out = String::new();
        match self {
            Json::Obj(members) => list(&mut out, ('{', '}'), members, Some(1), |out, m| {
                m.write_key(out);
                match &m.value {
                    Json::Arr(items) => {
                        list(out, ('[', ']'), items, Some(2), |out, v| v.write(out))
                    }
                    v => v.write(out),
                }
            }),
            v => v.write(&mut out),
        }
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                out.push_str(&(*n as i64).to_string());
            }
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => list(out, ('[', ']'), items, None, |out, v| v.write(out)),
            Json::Obj(members) => list(out, ('{', '}'), members, None, |out, m| {
                m.write_key(out);
                m.value.write(out);
            }),
        }
    }
}

impl Member {
    fn write_key(&self, out: &mut String) {
        write_string(out, &self.key);
        out.push_str(": ");
    }
}

/// `open`, the items, `close`: on one line separated by `", "` when
/// `level` is `None`, else one item per line, indented two spaces per
/// level.
fn list<T>(
    out: &mut String,
    (open, close): (char, char),
    items: &[T],
    level: Option<usize>,
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, it) in items.iter().enumerate() {
        match level {
            None if i > 0 => out.push_str(", "),
            None => {}
            Some(level) => {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(level));
            }
        }
        item(out, it);
    }
    if let (Some(level), false) = (level, items.is_empty()) {
        out.push('\n');
        out.push_str(&"  ".repeat(level - 1));
    }
    out.push(close);
}

/// A string literal, quotes included: `"`, `\` and control characters
/// escaped, everything else verbatim.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] with the 1-based byte column of the first
/// offending character, including the bracket that nests deeper than
/// [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(value)
}

/// The reader's cursor. `pos` only ever steps over ASCII bytes or whole
/// runs of string content, so it is always a char boundary of `src`.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
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
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
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
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run ends on a char boundary.
            let end = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.src[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
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
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

        let e = parse(r#""\u12"#).unwrap_err();
        assert!(e.msg.contains("truncated"), "{e}");
    }

    /// Nesting stops at [`MAX_DEPTH`] with the column of the bracket that
    /// goes one deeper, however deep the input goes.
    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let e = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.col, MAX_DEPTH + 1);
        assert!(e.msg.contains("nesting deeper than 128"), "{e}");
        let e = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(e.col, MAX_DEPTH + 1, "{e}");
        let e = parse(&"{\"a\": ".repeat(200_000)).unwrap_err();
        assert_eq!(e.col, MAX_DEPTH * 6 + 1, "{e}");
    }

    #[test]
    fn render_round_trips() {
        let src = r#"{"a": 1, "b": [true, "x\ny"], "c": null}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.render(), src);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn string_escapes_encode() {
        assert_eq!(Json::from("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(n).render(), "null");
        }
        assert_eq!(Json::Num(-0.0).render(), "0");
        assert_eq!(Json::Num(2.5).render(), "2.5");
    }

    #[test]
    fn block_layout_breaks_two_levels() {
        let v = Json::obj([
            ("n", 1u64.into()),
            ("empty", Json::Arr(vec![])),
            (
                "rows",
                Json::Arr(vec![Json::obj([("a", Json::Arr(vec![1u64.into()]))])]),
            ),
            ("nested", Json::obj([("b", Json::Null)])),
        ]);
        assert_eq!(
            v.render_block(),
            "{\n  \"n\": 1,\n  \"empty\": [],\n  \"rows\": [\n    {\"a\": [1]}\n  ],\n  \"nested\": {\"b\": null}\n}"
        );
        assert_eq!(Json::obj([]).render_block(), "{}");
        assert_eq!(Json::Arr(vec![Json::Null]).render_block(), "[null]");
    }

    /// Strings from every control character, quotes, backslashes, BMP
    /// and non-BMP characters.
    fn text() -> impl Strategy<Value = String> {
        let c = prop_oneof![
            '\u{0}'..'\u{20}',
            Just('"'),
            Just('\\'),
            Just('/'),
            ' '..'\u{7f}',
            '\u{80}'..'\u{10000}',
            '\u{10000}'..'\u{10ffff}',
        ];
        prop::collection::vec(c, 0..8).prop_map(|cs| cs.into_iter().collect())
    }

    fn value() -> impl Strategy<Value = Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            (0..2u8).prop_map(|b| Json::Bool(b == 1)),
            (-1_000_000i64..1_000_000).prop_map(|n| Json::Num(n as f64)),
            (-1e6..1e6f64).prop_map(Json::Num),
            (0..4u8).prop_map(|e| Json::Num(10f64.powi(15 + i32::from(e)) + 1.0)),
            text().prop_map(Json::Str),
        ];
        leaf.prop_recursive(4, 64, 5, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Arr),
                prop::collection::vec((text(), inner), 0..5).prop_map(|members| {
                    Json::Obj(
                        members
                            .into_iter()
                            .map(|(key, value)| Member { key, col: 0, value })
                            .collect(),
                    )
                }),
            ]
        })
    }

    proptest! {
        /// What the writer renders, the reader reads back to a value that
        /// renders the same, in both layouts. Rendered text is compared,
        /// not values: a parsed member carries its key's column.
        #[test]
        fn every_rendered_value_parses_back(v in value()) {
            for text in [v.render(), v.render_block()] {
                let back = parse(&text).map_err(|e| TestCaseError::fail(format!("{e} in {text}")))?;
                prop_assert_eq!(back.render(), v.render());
                prop_assert_eq!(back.render_block(), v.render_block());
            }
        }
    }
}
