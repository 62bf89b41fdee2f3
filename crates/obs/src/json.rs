//! A minimal, offline JSON layer shared by the campaign report reader,
//! the serve request/response protocol and the trace reader
//! ([`crate::parse_trace_line`]).
//!
//! The build is offline (no serde), so this module carries a small
//! self-contained JSON parser — full JSON syntax, numbers kept as raw
//! text so `u64` seeds survive without a round-trip through `f64` — plus
//! a deterministic compact renderer for single-line protocol messages.
//!
//! Strings are where the bytes are (a serve request embeds a whole
//! `.bench` netlist in one), so the string scanner finds the next `"` or
//! `\` a machine word at a time ([`find_byte`] is the same search for one
//! byte), copies each run between them as a slice of the input `&str`,
//! and decodes `\uXXXX` from exactly four hex digits.
//!
//! Hardening carried over from the campaign reader (which feeds
//! user-supplied `--resume` files, possibly half-written checkpoints,
//! straight into this parser):
//!
//! * a recursion-depth cap ([`MAX_DEPTH`]) so adversarially nested input
//!   returns a clean `Err` instead of overflowing the stack;
//! * duplicate object keys are rejected — a message carrying
//!   `{"seed": 1, "seed": 2}` is ambiguous, and silently picking one
//!   spelling would make the two protocol endpoints drift;
//! * malformed input of any shape (torn writes, bit flips, binary
//!   garbage) yields `Err`, never a panic — pinned by mutation proptests
//!   in `crates/campaign/tests/proptest_reader.rs` and
//!   `crates/obs/tests/proptest_trace.rs`.

use std::fmt::Write as _;

/// Why a JSON document failed to parse or a value had the wrong shape.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Human-readable description, with a byte offset where applicable.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.into(),
    })
}

// ---------------------------------------------------------------------
// A minimal JSON value tree.
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw text so integer widths
/// beyond `f64`'s 53-bit mantissa (e.g. `u64` seeds) are preserved.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (and [`Json::render`]
    /// emits fields in that order, so message layout is deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Field lookup on an object; `None` on non-objects or missing keys.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Field lookup that errors (with `context`) when the key is absent.
    pub fn expect<'a>(&'a self, key: &str, context: &str) -> Result<&'a Json, JsonError> {
        self.get(key)
            .map_or_else(|| err(format!("{context}: missing field \"{key}\"")), Ok)
    }

    /// Removes field `key` from an object and returns its value, or an
    /// error (with `context`) when it is absent — the owning twin of
    /// [`Json::expect`], for payloads too large to copy.
    pub fn take(&mut self, key: &str, context: &str) -> Result<Json, JsonError> {
        let at = match self {
            Json::Obj(fields) => fields.iter().position(|(k, _)| k == key),
            _ => None,
        };
        match (self, at) {
            (Json::Obj(fields), Some(at)) => Ok(fields.remove(at).1),
            _ => err(format!("{context}: missing field \"{key}\"")),
        }
    }

    /// The string payload, or a typed error mentioning `context`.
    pub fn as_str(&self, context: &str) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!(
                "{context}: expected string, got {}",
                other.type_name()
            )),
        }
    }

    /// Moves the string payload out, or a typed error mentioning
    /// `context` (the owning twin of [`Json::as_str`]).
    pub fn into_string(self, context: &str) -> Result<String, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!(
                "{context}: expected string, got {}",
                other.type_name()
            )),
        }
    }

    /// The bool payload, or a typed error mentioning `context`.
    pub fn as_bool(&self, context: &str) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!(
                "{context}: expected bool, got {}",
                other.type_name()
            )),
        }
    }

    /// The array items, or a typed error mentioning `context`.
    pub fn as_arr(&self, context: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!(
                "{context}: expected array, got {}",
                other.type_name()
            )),
        }
    }

    /// The number as `u64` (exact — no `f64` round-trip).
    pub fn as_u64(&self, context: &str) -> Result<u64, JsonError> {
        match self {
            Json::Num(raw) => raw.parse().map_err(|_| JsonError {
                message: format!("{context}: `{raw}` is not a u64"),
            }),
            other => err(format!(
                "{context}: expected number, got {}",
                other.type_name()
            )),
        }
    }

    /// The number as `usize`.
    pub fn as_usize(&self, context: &str) -> Result<usize, JsonError> {
        usize::try_from(self.as_u64(context)?).map_err(|_| JsonError {
            message: format!("{context}: value does not fit usize"),
        })
    }

    /// The number as `f64`; `null` decodes as NaN (the emitters write
    /// non-finite values as `null`).
    pub fn as_f64(&self, context: &str) -> Result<f64, JsonError> {
        match self {
            Json::Num(raw) => raw.parse().map_err(|_| JsonError {
                message: format!("{context}: `{raw}` is not a number"),
            }),
            Json::Null => Ok(f64::NAN),
            other => err(format!(
                "{context}: expected number, got {}",
                other.type_name()
            )),
        }
    }

    /// `null` → `None`, number → `Some` — the optional-limit convention.
    pub fn as_opt_u64(&self, context: &str) -> Result<Option<u64>, JsonError> {
        match self {
            Json::Null => Ok(None),
            other => other.as_u64(context).map(Some),
        }
    }

    /// Renders the value as compact single-line JSON, `": "` after keys
    /// and `", "` between items (the same layout the campaign emitter
    /// uses), object fields in insertion order. Deterministic: equal
    /// trees render to equal bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => out.push_str(&escape_str(s)),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&escape_str(key));
                    out.push_str(": ");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars),
/// quotes included — the same convention as the campaign emitter.
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// The parser: recursive descent over bytes.
// ---------------------------------------------------------------------

/// Maximum container nesting the parser accepts. Campaign reports and
/// serve messages are a handful of levels deep; the cap exists so
/// adversarially nested input (ten thousand `[`s in a corrupted file)
/// returns a clean `Err` instead of overflowing the stack of the
/// recursive descent.
pub const MAX_DEPTH: usize = 64;

/// Eight copies of one byte: `splat(b'"')` is `0x2222_2222_2222_2222`.
const fn splat(byte: u8) -> u64 {
    u64::from_ne_bytes([byte; 8])
}

/// Marks the bytes of `word` equal to the byte `needles` repeats: the
/// high bit of the lowest marked byte is set exactly when that byte is
/// the first match, which is all a scan reads. (Bytes above the first
/// match may be marked spuriously by the borrow; they are never read.)
fn marks(word: u64, needles: u64) -> u64 {
    let x = word ^ needles;
    x.wrapping_sub(splat(1)) & !x & splat(0x80)
}

/// Index of the first byte of `haystack[from..]` that is one of
/// `needles`, eight bytes per step (SWAR over little-endian `u64`
/// words, so the lowest mark is the earliest byte).
#[inline(always)]
fn find_any<const N: usize>(haystack: &[u8], from: usize, needles: [u8; N]) -> Option<usize> {
    let rest = haystack.get(from..)?;
    let mut words = rest.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        let hits = needles
            .iter()
            .fold(0, |hits, &needle| hits | marks(word, splat(needle)));
        if hits != 0 {
            return Some(from + 8 * i + (hits.trailing_zeros() / 8) as usize);
        }
    }
    let tail = rest.len() - words.remainder().len();
    words
        .remainder()
        .iter()
        .position(|b| needles.contains(b))
        .map(|i| from + tail + i)
}

/// Index of the first `needle` in `haystack`, a machine word at a time:
/// the scanner behind the JSON string runs, shared with the serve
/// transport's line framing.
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    find_any(haystack, 0, [needle])
}

/// The value of four ASCII hex digits — exactly four, so a sign or a
/// short escape (`\u+041`, `\u41"`) is not a number.
fn hex4(digits: &[u8]) -> Option<u32> {
    digits.iter().try_fold(0, |code, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            _ => return None,
        };
        Some(code << 4 | u32::from(digit))
    })
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error<T>(&self, message: &str) -> Result<T, JsonError> {
        err(format!("JSON parse error at byte {}: {message}", self.at))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, token: &str, what: &str) -> Result<(), JsonError> {
        if self.bytes[self.at..].starts_with(token.as_bytes()) {
            self.at += token.len();
            Ok(())
        } else {
            self.error(&format!("expected {what}"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat("null", "null").map(|()| Json::Null),
            Some(b't') => self.eat("true", "true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false", "false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => self.error(&format!("unexpected byte 0x{other:02x}")),
            None => self.error("unexpected end of input"),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let digits_start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.at == digits_start {
            return self.error("digits expected");
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            let frac_start = self.at;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
            if self.at == frac_start {
                return self.error("digits expected after decimal point");
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.at += 1;
            }
            let exp_start = self.at;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
            if self.at == exp_start {
                return self.error("digits expected in exponent");
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .expect("number bytes are ASCII")
            .to_string();
        Ok(Json::Num(text))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.at += 1;
        let mut out = String::new();
        loop {
            // Each run up to the next quote or backslash is copied as one
            // slice of the input. Both of its ends sit next to an ASCII
            // byte (the opening quote, an escape, the stop byte), so they
            // are char boundaries and the run needs no UTF-8 re-check.
            let Some(stop) = find_any(self.bytes, self.at, [b'"', b'\\']) else {
                self.at = self.bytes.len();
                return self.error("unterminated string");
            };
            let Some(run) = self.text.get(self.at..stop) else {
                return self.error("string run splits a character");
            };
            out.push_str(run);
            self.at = stop + 1;
            if self.bytes[stop] == b'"' {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let Some(code) = self.bytes.get(self.at + 1..self.at + 5).and_then(hex4) else {
                        return self.error("bad \\u escape");
                    };
                    // Surrogate pairs are not produced by the emitters
                    // (they only escape control chars); reject rather
                    // than mis-decode.
                    let Some(c) = char::from_u32(code) else {
                        return self.error("\\u escape is not a scalar value");
                    };
                    self.at += 4;
                    c
                }
                _ => return self.error("bad escape"),
            };
            out.push(c);
            self.at += 1;
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.error("nesting too deep");
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        debug_assert_eq!(self.peek(), Some(b'['));
        self.enter()?;
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.error("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        debug_assert_eq!(self.peek(), Some(b'{'));
        self.enter()?;
        self.at += 1;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.error("expected object key");
            }
            let key = self.string()?;
            // A document carrying the same key twice in one object is
            // ambiguous (which spelling wins depends on the reader);
            // reject rather than silently pick one. None of our emitters
            // ever writes duplicate keys.
            if fields.iter().any(|(k, _)| *k == key) {
                return self.error(&format!("duplicate object key \"{key}\""));
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return self.error("expected `:`");
            }
            self.at += 1;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.error("expected `,` or `}`"),
            }
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace content is
/// an error.
///
/// # Errors
///
/// Returns a [`JsonError`] (never panics) for malformed syntax, nesting
/// beyond [`MAX_DEPTH`], duplicate object keys, a `\u` escape that is
/// not four hex digits, or trailing content.
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        at: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.at != parser.bytes.len() {
        return parser.error("trailing content after the document");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        parse_json(text).expect("valid JSON")
    }

    #[test]
    fn scalar_values_parse() {
        assert_eq!(parse("null"), Json::Null);
        assert_eq!(parse("true"), Json::Bool(true));
        assert_eq!(parse("false"), Json::Bool(false));
        assert_eq!(parse("42"), Json::Num("42".into()));
        assert_eq!(parse("-3.25e2"), Json::Num("-3.25e2".into()));
        assert_eq!(parse("\"hi\""), Json::Str("hi".into()));
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let big = u64::MAX.to_string();
        assert_eq!(parse(&big).as_u64("seed").unwrap(), u64::MAX);
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            parse("\"a\\\"b\\\\c\\n\\u000a\""),
            Json::Str("a\"b\\c\n\n".into())
        );
        assert_eq!(
            parse("\"\\u00E9\\u20ac\\/\\b\\f\\r\\té€\""),
            Json::Str("é€/\u{8}\u{c}\r\té€".into())
        );
    }

    #[test]
    fn nested_containers_parse() {
        let v = parse(r#"{"a": [1, 2], "b": {"c": null}}"#);
        assert_eq!(v.get("a").unwrap().as_arr("a").unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn malformed_documents_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "truthy",
            "1 2",
            "\"open",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u41\"",
            "\"\\u00g1\"",
            "\"\\ud800\"",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_object_keys_are_rejected() {
        let e = parse_json(r#"{"seed": 1, "seed": 2}"#).expect_err("dup key accepted");
        assert!(e.message.contains("duplicate object key"), "{e}");
        // Same key at different depths is fine.
        assert!(parse_json(r#"{"a": {"a": 1}}"#).is_ok());
    }

    #[test]
    fn nesting_depth_is_capped() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let e = parse_json(&deep).expect_err("over-deep input accepted");
        assert!(e.message.contains("nesting too deep"), "{e}");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn render_round_trips() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": null, "d": "x\"y\\z"}, "e": true}"#;
        let v = parse(doc);
        assert_eq!(v.render(), doc);
        assert_eq!(parse(&v.render()), v);
    }

    #[test]
    fn render_escapes_control_chars() {
        assert_eq!(Json::Str("x\ny".into()).render(), "\"x\\u000ay\"");
        assert_eq!(escape_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
