//! A minimal hand-rolled JSON value tree and serializer.
//!
//! The build is fully offline, so the exporters cannot lean on serde.
//! This module provides exactly what they need: a value tree, correct
//! string escaping, and deterministic rendering (object keys keep
//! insertion order; callers that need stable output insert in a stable
//! order).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered without a decimal point.
    U64(u64),
    /// A signed integer, rendered without a decimal point.
    I64(i64),
    /// A float. Non-finite values render as `null` (JSON has no NaN).
    F64(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parses a JSON document (the inverse of [`Json::render`]).
    ///
    /// Integers without fraction/exponent parse as [`Json::U64`] /
    /// [`Json::I64`]; everything else numeric parses as [`Json::F64`].
    /// Trailing non-whitespace after the value is an error, and so is
    /// nesting deeper than [`MAX_DEPTH`]. This is the reader half of
    /// the offline (serde-free) JSON support and exists for tools like
    /// `mmm-inspect` that load run exports back.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object (None for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly where possible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's key/value pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Rust's shortest-roundtrip Display is valid JSON
                    // for finite floats.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// Compact JSON, as [`Json::render`] writes it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Appends `s` as a quoted, escaped JSON string.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Escapes a string for embedding in JSON (including the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// The deepest array/object nesting [`Json::parse`] accepts, far
/// above the writers' deepest (under ten levels).
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent JSON reader over the raw bytes.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Parses a container one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash
                    // straight from the input: both are ASCII, so the
                    // run ends on a char boundary.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(self.text.get(self.pos..end).ok_or("invalid utf-8")?);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid number")?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape_specials() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(escape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escape("ctrl\u{01}"), "\"ctrl\\u0001\"");
        // Unicode passes through unescaped (JSON strings are UTF-8).
        assert_eq!(escape("héllo"), "\"héllo\"");
    }

    #[test]
    fn display_renders() {
        let v = Json::obj([("a", Json::Arr(vec![Json::U64(1), Json::str("x")]))]);
        assert_eq!(v.to_string(), v.render());
    }

    #[test]
    fn containers_render_in_order() {
        let v = Json::obj([
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Null, Json::str("x")])),
        ]);
        assert_eq!(v.render(), "{\"b\":1,\"a\":[null,\"x\"]}");
    }

    #[test]
    fn parse_round_trips_render() {
        let v = Json::obj([
            ("b", Json::U64(1)),
            ("neg", Json::I64(-7)),
            ("f", Json::F64(1.25)),
            ("s", Json::str("a\"b\\c\nd")),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("obj", Json::obj([("k", Json::str("héllo"))])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).expect("round trip"), v);
    }

    #[test]
    fn parse_handles_whitespace_and_types() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 , -3 ] , \"b\" : null } ").expect("parses");
        let arr = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2], Json::I64(-3));
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::parse("1e3").expect("exp"), Json::F64(1000.0));
        assert_eq!(
            Json::parse("\"\\u0041\"").expect("unicode escape"),
            Json::str("A")
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_handles_escaped_strings() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\/d\ne\tf\rg\bh\fi""#).expect("escapes"),
            Json::str("a\"b\\c/d\ne\tf\rg\u{8}h\u{c}i")
        );
        // \u escapes decode BMP scalars; raw UTF-8 passes through.
        assert_eq!(Json::parse(r#""\u00e9A""#).expect("bmp"), Json::str("éA"));
        assert_eq!(Json::parse("\"é😀\"").expect("raw utf-8"), Json::str("é😀"));
        // Our writer never emits surrogate pairs, so the parser maps
        // every surrogate escape — paired or lone — to U+FFFD.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).expect("surrogate pair"),
            Json::str("\u{fffd}\u{fffd}")
        );
        assert_eq!(
            Json::parse(r#""\ud800""#).expect("lone surrogate"),
            Json::str("\u{fffd}")
        );
        // Escapes survive inside object keys and values.
        let v = Json::parse(r#"{"ke\ny":"va\"lue"}"#).expect("escaped members");
        assert_eq!(v.get("ke\ny").and_then(Json::as_str), Some("va\"lue"));
        // Malformed escapes are rejected, not silently dropped.
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
        assert!(Json::parse(r#""\u12""#).is_err(), "truncated \\u escape");
        assert!(Json::parse(r#""\u12zz""#).is_err(), "non-hex \\u escape");
    }

    #[test]
    fn parse_handles_nested_containers() {
        let text = r#"{"a":[[1,[2,[3]]],{"b":{"c":[{"d":null}]}}],"e":{}}"#;
        let v = Json::parse(text).expect("nested");
        let a = v.get("a").and_then(Json::as_arr).expect("outer array");
        let inner = a[0].as_arr().expect("inner array");
        assert_eq!(inner[0].as_u64(), Some(1));
        assert_eq!(
            a[1].get("b")
                .and_then(|b| b.get("c"))
                .and_then(Json::as_arr)
                .and_then(|c| c.first())
                .and_then(|d| d.get("d")),
            Some(&Json::Null)
        );
        assert_eq!(v.get("e").and_then(Json::as_obj).map(|o| o.len()), Some(0));
        assert_eq!(Json::parse("[]").expect("empty array"), Json::Arr(vec![]));
        // Round trip preserves deep structure exactly.
        assert_eq!(Json::parse(&v.render()).expect("round trip"), v);
    }

    #[test]
    fn long_and_non_ascii_strings_round_trip() {
        let long: String = "héllo 😀 \"quoted\" \\ wörld\n".repeat(20_000);
        let v = Json::obj([("k€y", Json::str(long.clone())), ("a", Json::str("ß"))]);
        assert_eq!(Json::parse(&v.render()).expect("round trip"), v);
        assert_eq!(
            Json::parse(&escape(&long)).expect("long string"),
            Json::Str(long)
        );
        assert_eq!(
            Json::parse("\"日本\\u0041語\"").unwrap(),
            Json::str("日本A語")
        );
    }

    #[test]
    fn parse_refuses_nesting_past_the_cap() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // Far past the cap, as a corrupted file might be: an error,
        // not a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn parse_handles_exponent_numbers() {
        assert_eq!(Json::parse("1.5e-3").expect("neg exp"), Json::F64(0.0015));
        assert_eq!(Json::parse("2E+8").expect("upper exp"), Json::F64(2e8));
        assert_eq!(
            Json::parse("-1.25e2").expect("signed mantissa"),
            Json::F64(-125.0)
        );
        assert_eq!(Json::parse("0.5e0").expect("zero exp"), Json::F64(0.5));
        // Integers without fraction or exponent stay integral.
        assert_eq!(
            Json::parse("9007199254740993").expect("big int"),
            Json::U64(9007199254740993)
        );
        assert!(Json::parse("1e").is_err(), "exponent needs digits");
        assert!(Json::parse("1e+").is_err(), "signed exponent needs digits");
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        for text in [
            "{\"a\":1}}",
            "[1,2]]",
            "null null",
            "42 7",
            "\"s\"\"t\"",
            "true,",
        ] {
            let err = Json::parse(text).expect_err("trailing garbage rejected");
            assert!(
                err.contains("trailing data"),
                "{text:?}: unexpected error {err:?}"
            );
        }
        // Trailing whitespace alone is fine.
        assert_eq!(Json::parse("17 \n ").expect("ws"), Json::U64(17));
    }
}
