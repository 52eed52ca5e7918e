//! Minimal JSON tree, writer, and parser.
//!
//! The workspace serializes experiment configs and cluster SLO metrics as
//! JSON but builds in a sandbox without registry access, so `serde` /
//! `serde_json` are unavailable. This module provides the small piece
//! actually needed: an order-preserving [`Value`] tree, a deterministic
//! pretty printer (objects serialize in insertion order, so equal trees
//! produce byte-identical text), and a strict recursive-descent parser.

use std::fmt;

/// A JSON value. Object keys keep insertion order so serialization is
/// deterministic — required by the fleet-metrics determinism tests.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (covers i64 and u64 ranges).
    Int(i128),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Creates an empty object.
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        match self {
            Value::Object(fields) => {
                let value = value.into();
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            other => panic!("Value::set on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`Value::set`].
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a u64, if it is an in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an f64 (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Compact one-line serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_close, colon) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * (depth + 1)),
                " ".repeat(w * depth),
                ": ",
            ),
            None => ("", String::new(), String::new(), ":"),
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => out.push_str(&format_float(*f)),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(colon);
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }
}

/// Formats a float so it round-trips and always reads back as Float
/// (a `.0` suffix is kept for integral values).
fn format_float(f: f64) -> String {
    if !f.is_finite() {
        // JSON has no Inf/NaN; metrics code must not emit them, but a
        // readable sentinel beats invalid output if one slips through.
        return "null".to_string();
    }
    let s = format!("{f}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i128)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i128)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i128)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v as i128)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_pretty())
    }
}

/// A parse error with byte offset context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the limit keeps hostile input (a million `[`)
/// from overflowing the stack; configs and traces nest a few levels.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed).
/// Linear in the input length; nesting deeper than 128 arrays and
/// objects is an error, not a stack overflow.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread character; always on a char
    /// boundary, since it only ever steps over whole scalars.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    /// The unread input.
    fn rest(&self) -> &'a str {
        self.src.get(self.pos..).unwrap_or_default()
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.rest().starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, within [`MAX_DEPTH`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Parses a string literal, decoding one scalar at a time.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let mut chars = self.rest().chars();
            match chars.next() {
                None => return Err(self.err("unterminated string")),
                Some('"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.pos += 1;
                    let esc = chars
                        .next()
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += esc.len_utf8();
                    out.push(match esc {
                        '"' => '"',
                        '\\' => '\\',
                        '/' => '/',
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => self.unicode_escape()?,
                        _ => return Err(self.err("unknown escape")),
                    });
                }
                Some(c) => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the four hex digits of a `\u` escape.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hex = self
            .rest()
            .get(..4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        // Surrogate pairs are not needed by our configs.
        char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Every byte stepped over is ASCII, so the span is a valid slice.
        let text = self.src.get(start..self.pos).unwrap_or_default();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compound() {
        let v = Value::object()
            .with("name", "fleet")
            .with("hosts", 8u64)
            .with("p99_ms", 12.5)
            .with("modes", vec!["warm", "snapshot"])
            .with("shed", 0u64)
            .with(
                "nested",
                Value::object().with("ok", true).with("none", Value::Null),
            );
        let text = v.to_string_pretty();
        assert_eq!(parse(&text).unwrap(), v);
        let compact = v.to_string_compact();
        assert_eq!(parse(&compact).unwrap(), v);
        assert!(!compact.contains('\n'));
    }

    #[test]
    fn preserves_insertion_order_and_determinism() {
        let build = || {
            Value::object()
                .with("z", 1u64)
                .with("a", 2u64)
                .with("m", 3u64)
                .to_string_pretty()
        };
        let s = build();
        assert_eq!(s, build());
        let zi = s.find("\"z\"").unwrap();
        let ai = s.find("\"a\"").unwrap();
        assert!(zi < ai, "insertion order preserved, not sorted");
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parses_escapes() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn float_formatting_round_trips() {
        for f in [0.0, 1.0, 12.5, 1e-9, 123456.789] {
            let text = Value::Float(f).to_string_compact();
            match parse(&text).unwrap() {
                Value::Float(back) => assert_eq!(back, f),
                other => panic!("float reparsed as {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("{\"a\":1} x").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        // MAX_DEPTH - 2 arrays around an object holding an array.
        let at_limit =
            format!("{}{}", "[".repeat(MAX_DEPTH - 2), "{\"a\":[]}") + &"]".repeat(MAX_DEPTH - 2);
        assert!(parse(&at_limit).is_ok());
        assert!(parse(&format!("[{at_limit}]")).is_err());
        assert!(parse(&format!("{{\"k\":{at_limit}}}")).is_err());
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // A megabyte string of mixed-width characters: parsing must stay
        // linear in the document size to finish quickly.
        let body = "aé✓😀".repeat(100_000);
        let v = parse(&Value::Str(body.clone()).to_string_compact()).unwrap();
        assert_eq!(v.as_str(), Some(body.as_str()));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u00e9\u0041""#).unwrap().as_str(), Some("éA"));
        for bad in [r#""\u+0FF""#, r#""\u12""#, r#""\u12é""#, r#""\uD800""#] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": [1, 2], "b": "x", "c": 1.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(1.5));
        assert!(v.get("missing").is_none());
    }
}
