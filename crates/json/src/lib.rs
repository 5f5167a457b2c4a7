//! A minimal, dependency-free JSON subsystem for the ACT workspace.
//!
//! The reproduction's model is closed-form arithmetic over the paper's
//! tables; nothing in it needs a general serialization framework. What it
//! does need is (a) rendering experiment results and bench records as JSON
//! and (b) reading a handful of JSON documents back (Table-1 configs, the
//! bench-trajectory file). This crate supplies exactly that with **zero
//! external dependencies**, so the tier-1 build works with no registry
//! access at all — the hermetic-build contract documented in DESIGN.md.
//!
//! * [`JsonValue`] — an ordered JSON document model (objects preserve
//!   insertion order, so rendered output is deterministic).
//! * Writers — [`JsonValue::render_compact`] and
//!   [`JsonValue::render_pretty`] (2-space indent). Non-finite floats render
//!   as `null`; integral floats keep a trailing `.0` so quantities stay
//!   visibly floating-point across round-trips.
//! * A tolerant recursive-descent parser — [`JsonValue::parse`] — with byte
//!   offsets in its errors and a recursion-depth guard.
//! * [`ToJson`] / [`FromJson`] traits plus the [`impl_to_json!`],
//!   [`impl_from_json!`] and [`impl_json_enum!`] macros that replace the
//!   former `serde` derives, and the [`obj!`] literal macro that replaces
//!   `serde_json::json!`.
//!
//! # Examples
//!
//! ```
//! use act_json::{obj, JsonValue, ToJson};
//!
//! let doc = obj! { "points": 3, "mean": 0.5, "label": "sweep" };
//! let text = doc.render_compact();
//! assert_eq!(text, r#"{"points":3,"mean":0.5,"label":"sweep"}"#);
//! let back = JsonValue::parse(&text).unwrap();
//! assert_eq!(back["points"].as_u64(), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::fmt;

/// Maximum nesting depth the parser accepts before reporting an error
/// instead of risking stack exhaustion on adversarial input.
const MAX_PARSE_DEPTH: usize = 128;

/// Default maximum document size accepted by [`JsonValue::parse`] (8 MiB).
/// Documents in this workspace are a few KiB; anything near this limit is
/// hostile or a bug, and rejecting it up front bounds parser memory.
const MAX_PARSE_BYTES: usize = 8 * 1024 * 1024;

/// Default maximum length of a single number token. JSON numbers that a
/// finite `f64` can represent fit in well under 64 bytes; a kilobyte-long
/// digit string is an attack on the float parser, not data.
const MAX_NUMBER_LEN: usize = 512;

/// Resource limits for [`JsonValue::parse_with_limits`] — the knobs a
/// service exposed to untrusted input tightens, with [`Default`] values
/// matching what [`JsonValue::parse`] has always enforced (plus the size
/// guards introduced alongside `act-server`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum container nesting depth (arrays/objects).
    pub max_depth: usize,
    /// Maximum input length in bytes; longer documents are rejected before
    /// a single byte is parsed.
    pub max_bytes: usize,
    /// Maximum byte length of one number token.
    pub max_number_len: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        Self {
            max_depth: MAX_PARSE_DEPTH,
            max_bytes: MAX_PARSE_BYTES,
            max_number_len: MAX_NUMBER_LEN,
        }
    }
}

/// The shared `null` returned by out-of-range [`JsonValue`] indexing.
static NULL: JsonValue = JsonValue::Null;

/// An ordered JSON object: key/value pairs in insertion order.
///
/// Rendering deterministically matters more than lookup speed here —
/// objects in this workspace hold a handful of entries — so the backing
/// store is a plain vector. [`insert`](Self::insert) replaces an existing
/// key in place, keeping its original position.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `value` under `key`, replacing (in place) any existing entry.
    pub fn insert(&mut self, key: impl Into<String>, value: JsonValue) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Builder-style [`insert`](Self::insert) for literal construction.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: JsonValue) -> Self {
        self.insert(key, value);
        self
    }

    /// The value under `key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `true` when `key` has an entry.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the object has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &JsonValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The keys, in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

/// A JSON document: the full value grammar with integers kept distinct
/// from floats so counts render as `3`, not `3.0`.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (no decimal point or exponent in the source text).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(JsonObject),
}

impl JsonValue {
    /// `true` for [`JsonValue::Null`].
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Self::Null)
    }

    /// `true` for [`JsonValue::Object`].
    #[must_use]
    pub fn is_object(&self) -> bool {
        matches!(self, Self::Object(_))
    }

    /// `true` for [`JsonValue::Array`].
    #[must_use]
    pub fn is_array(&self) -> bool {
        matches!(self, Self::Array(_))
    }

    /// `true` for either numeric variant.
    #[must_use]
    pub fn is_number(&self) -> bool {
        matches!(self, Self::Int(_) | Self::Float(_))
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload widened to `f64` (integers convert losslessly
    /// up to 2^53, the JSON interoperability limit).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Float(v) => Some(*v),
            #[allow(clippy::cast_precision_loss)]
            Self::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Self::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The element vector, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&JsonObject> {
        match self {
            Self::Object(obj) => Some(obj),
            _ => None,
        }
    }

    /// Member lookup: `Some` only for an object that has `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|obj| obj.get(key))
    }

    /// Renders without whitespace: `{"a":1,"b":[2,3]}`.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Renders with 2-space indentation and one entry per line.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(v) => {
                let mut buf = itoa_buffer();
                let _ = fmt::Write::write_fmt(&mut buf, format_args!("{v}"));
                out.push_str(&buf);
            }
            Self::Float(v) => out.push_str(&format_float(*v)),
            Self::String(s) => write_escaped(out, s),
            Self::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Self::Object(obj) => {
                out.push('{');
                for (i, (key, value)) in obj.entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Self::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Self::Object(obj) if !obj.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in obj.entries.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                    if i + 1 < obj.entries.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// Parses a JSON document. Tolerant of surrounding whitespace, strict
    /// about everything else (the trailing content after the value must be
    /// blank).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] carrying the byte offset of the first
    /// malformed construct.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::parse_with_limits(text, &ParseLimits::default())
    }

    /// [`parse`](Self::parse) under explicit [`ParseLimits`] — the entry
    /// point for documents from untrusted peers (e.g. `act-server` request
    /// bodies), where depth and size ceilings are part of the service's
    /// robustness contract.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] whose [`kind`](JsonError::kind) is
    /// [`JsonErrorKind::TooLarge`] / [`TooDeep`](JsonErrorKind::TooDeep) /
    /// [`NumberTooLong`](JsonErrorKind::NumberTooLong) when a limit is hit,
    /// and [`Syntax`](JsonErrorKind::Syntax) for malformed input.
    pub fn parse_with_limits(text: &str, limits: &ParseLimits) -> Result<Self, JsonError> {
        if text.len() > limits.max_bytes {
            return Err(JsonError::limit(
                JsonErrorKind::TooLarge,
                format!(
                    "document is {} bytes, over the {}-byte limit",
                    text.len(),
                    limits.max_bytes
                ),
                0,
            ));
        }
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0, limits: *limits };
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if parser.pos < parser.bytes.len() {
            return Err(JsonError::at("trailing characters after JSON value", parser.pos));
        }
        Ok(value)
    }
}

/// A short inline string buffer for integer formatting.
fn itoa_buffer() -> String {
    String::with_capacity(20)
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_compact())
    }
}

impl std::ops::Index<&str> for JsonValue {
    type Output = JsonValue;

    /// Member access that returns `null` (rather than panicking) for
    /// missing keys or non-objects, mirroring `serde_json`'s ergonomics.
    fn index(&self, key: &str) -> &Self::Output {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for JsonValue {
    type Output = JsonValue;

    /// Element access that returns `null` for out-of-range indexes or
    /// non-arrays.
    fn index(&self, index: usize) -> &Self::Output {
        self.as_array().and_then(|items| items.get(index)).unwrap_or(&NULL)
    }
}

impl PartialEq<str> for JsonValue {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for JsonValue {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<i64> for JsonValue {
    fn eq(&self, other: &i64) -> bool {
        self.as_i64() == Some(*other)
    }
}

impl PartialEq<f64> for JsonValue {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Self::Float(v) if v == other)
    }
}

impl PartialEq<bool> for JsonValue {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

/// Formats a float for JSON output.
///
/// Non-finite values have no JSON representation and render as `null`.
/// Integral values below 10^15 keep one decimal (`820.0`) so a quantity
/// never silently reads as an integer; everything else uses Rust's
/// shortest round-trip formatting.
#[must_use]
pub fn format_float(value: f64) -> String {
    if !value.is_finite() {
        return "null".to_owned();
    }
    if value == value.trunc() && value.abs() < 1.0e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Error produced by [`JsonValue::parse`] and the [`FromJson`]
/// conversions: a message plus, for parse errors, the byte offset of the
/// offending construct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    offset: Option<usize>,
    kind: JsonErrorKind,
}

/// Classifies a [`JsonError`] so callers can tell resource-limit rejections
/// (which a service maps to "request too large"-style responses) from plain
/// syntax errors and from [`FromJson`] shape mismatches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum JsonErrorKind {
    /// Malformed JSON text.
    Syntax,
    /// The document nests deeper than [`ParseLimits::max_depth`].
    TooDeep,
    /// The document is longer than [`ParseLimits::max_bytes`].
    TooLarge,
    /// A number token is longer than [`ParseLimits::max_number_len`].
    NumberTooLong,
    /// A number token parsed to an infinite value (e.g. `1e999`), which no
    /// JSON document can faithfully represent.
    NumberOutOfRange,
    /// A [`FromJson`] conversion mismatch (wrong type, missing field).
    Conversion,
}

impl JsonError {
    /// A conversion error (no source offset).
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into(), offset: None, kind: JsonErrorKind::Conversion }
    }

    /// A parse error at byte `offset`.
    #[must_use]
    pub fn at(message: impl Into<String>, offset: usize) -> Self {
        Self { message: message.into(), offset: Some(offset), kind: JsonErrorKind::Syntax }
    }

    /// A resource-limit rejection at byte `offset`.
    #[must_use]
    pub fn limit(kind: JsonErrorKind, message: impl Into<String>, offset: usize) -> Self {
        Self { message: message.into(), offset: Some(offset), kind }
    }

    /// What class of failure this is.
    #[must_use]
    pub fn kind(&self) -> JsonErrorKind {
        self.kind
    }

    /// A [`FromJson`] mismatch: `expected` names the JSON type wanted.
    #[must_use]
    pub fn type_mismatch(expected: &str, got: &JsonValue) -> Self {
        let kind = match got {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "a bool",
            JsonValue::Int(_) => "an integer",
            JsonValue::Float(_) => "a float",
            JsonValue::String(_) => "a string",
            JsonValue::Array(_) => "an array",
            JsonValue::Object(_) => "an object",
        };
        Self::new(format!("expected {expected}, got {kind}"))
    }

    /// A [`FromJson`] error for an object missing a required key.
    #[must_use]
    pub fn missing_field(field: &str) -> Self {
        Self::new(format!("missing field `{field}`"))
    }

    /// The byte offset of a parse error (`None` for conversion errors).
    #[must_use]
    pub fn offset(&self) -> Option<usize> {
        self.offset
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} at byte {offset}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// The recursive-descent parser state.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    limits: ParseLimits,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected `{}`", char::from(byte)), self.pos))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > self.limits.max_depth {
            return Err(JsonError::limit(
                JsonErrorKind::TooDeep,
                "document nested too deeply",
                self.pos,
            ));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(JsonError::at("unexpected character", self.pos)),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    fn parse_keyword(
        &mut self,
        keyword: &str,
        value: JsonValue,
    ) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(JsonError::at(format!("expected `{keyword}`"), self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let mut has_fraction = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    has_fraction = true;
                    self.pos += 1;
                }
                _ => break,
            }
            if self.pos - start > self.limits.max_number_len {
                return Err(JsonError::limit(
                    JsonErrorKind::NumberTooLong,
                    format!("number longer than {} bytes", self.limits.max_number_len),
                    start,
                ));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at("malformed number", start))?;
        if !has_fraction {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        let parsed = text
            .parse::<f64>()
            .map_err(|_| JsonError::at(format!("malformed number `{text}`"), start))?;
        // `1e999` parses to +inf without an error; a document that cannot
        // round-trip through any finite float is hostile input, not data
        // (`format_float` would silently re-render it as `null`). Guard on
        // *any* non-finite parse so no literal can smuggle inf or NaN in.
        if !parsed.is_finite() {
            return Err(JsonError::limit(
                JsonErrorKind::NumberOutOfRange,
                format!("number `{text}` overflows f64"),
                start,
            ));
        }
        Ok(JsonValue::Float(parsed))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(JsonError::at("unterminated string", self.pos));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(escape) = self.peek() else {
                        return Err(JsonError::at("unterminated escape", self.pos));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.parse_unicode_escape()?),
                        _ => return Err(JsonError::at("unknown escape", self.pos - 1)),
                    }
                }
                // Unescaped control characters (including NUL) are invalid
                // inside JSON strings; accepting them would let hostile
                // frames smuggle raw terminal/log-injection bytes through.
                0x00..=0x1F => {
                    return Err(JsonError::at(
                        "unescaped control character in string",
                        self.pos,
                    ));
                }
                _ => {
                    // Consume one UTF-8 code point (the input slice came
                    // from a &str, so boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| JsonError::at("malformed UTF-8", self.pos))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let code = self.parse_hex4()?;
        // Surrogate pairs: a leading surrogate must be followed by
        // `\uDC00..\uDFFF`; tolerate lone surrogates as U+FFFD.
        if (0xD800..=0xDBFF).contains(&code) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.parse_hex4()?;
                if (0xDC00..=0xDFFF).contains(&low) {
                    let combined = 0x10000
                        + ((u32::from(code) - 0xD800) << 10)
                        + (u32::from(low) - 0xDC00);
                    return Ok(char::from_u32(combined).unwrap_or('\u{FFFD}'));
                }
                return Err(JsonError::at("invalid low surrogate", at));
            }
            return Ok('\u{FFFD}');
        }
        Ok(char::from_u32(u32::from(code)).unwrap_or('\u{FFFD}'))
    }

    fn parse_hex4(&mut self) -> Result<u16, JsonError> {
        let at = self.pos;
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|chunk| std::str::from_utf8(chunk).ok())
            .ok_or_else(|| JsonError::at("truncated \\u escape", at))?;
        self.pos += 4;
        u16::from_str_radix(hex, 16).map_err(|_| JsonError::at("malformed \\u escape", at))
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.consume(b'{')?;
        let mut obj = JsonObject::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(obj));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.consume(b':')?;
            let value = self.parse_value(depth + 1)?;
            obj.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(obj));
                }
                _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
            }
        }
    }
}

/// Length in bytes of the UTF-8 sequence starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Conversion into a [`JsonValue`] — the replacement for `serde::Serialize`
/// across the workspace. Implement it by hand for enums with payloads, or
/// with [`impl_to_json!`] / [`impl_json_enum!`] for structs and unit enums.
pub trait ToJson {
    /// The JSON rendering of `self`.
    fn to_json(&self) -> JsonValue;
}

/// Conversion out of a [`JsonValue`] — the replacement for
/// `serde::Deserialize` where the workspace actually reads JSON back
/// (Table-1 configs, validated newtypes, the bench trajectory).
pub trait FromJson: Sized {
    /// Reconstructs `Self`, reporting the first mismatch.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the missing field or mismatched type.
    fn from_json(value: &JsonValue) -> Result<Self, JsonError>;
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl FromJson for JsonValue {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> JsonValue {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value.as_bool().ok_or_else(|| JsonError::type_mismatch("a bool", value))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value.as_f64().ok_or_else(|| JsonError::type_mismatch("a number", value))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(f64::from(*self))
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> JsonValue {
                    JsonValue::Int(i64::from(*self))
                }
            }

            impl FromJson for $ty {
                fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
                    let raw = value
                        .as_i64()
                        .ok_or_else(|| JsonError::type_mismatch("an integer", value))?;
                    Self::try_from(raw).map_err(|_| {
                        JsonError::new(format!(
                            "integer {raw} out of range for {}",
                            stringify!($ty)
                        ))
                    })
                }
            }
        )+
    };
}

impl_json_int!(i8, i16, i32, i64, u8, u16, u32);

impl ToJson for u64 {
    fn to_json(&self) -> JsonValue {
        match i64::try_from(*self) {
            Ok(v) => JsonValue::Int(v),
            // Beyond i64: degrade to the closest float (values this large
            // only arise from synthetic inputs).
            #[allow(clippy::cast_precision_loss)]
            Err(_) => JsonValue::Float(*self as f64),
        }
    }
}

impl FromJson for u64 {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value.as_u64().ok_or_else(|| JsonError::type_mismatch("a non-negative integer", value))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> JsonValue {
        (*self as u64).to_json()
    }
}

impl FromJson for usize {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let raw = u64::from_json(value)?;
        Self::try_from(raw)
            .map_err(|_| JsonError::new(format!("integer {raw} out of range for usize")))
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::String(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::type_mismatch("a string", value))
    }
}

impl ToJson for Cow<'_, str> {
    fn to_json(&self) -> JsonValue {
        JsonValue::String(self.clone().into_owned())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(value) => value.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_json(value).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        self.as_slice().to_json()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> JsonValue {
        self.as_slice().to_json()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let items =
            value.as_array().ok_or_else(|| JsonError::type_mismatch("an array", value))?;
        if items.len() != N {
            return Err(JsonError::new(format!(
                "expected an array of {N} elements, got {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items.iter().map(T::from_json).collect::<Result<_, _>>()?;
        // Length was checked above, so the conversion cannot fail.
        Ok(parsed.try_into().unwrap_or_else(|_| unreachable!()))
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::type_mismatch("an array", value))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let items =
            value.as_array().ok_or_else(|| JsonError::type_mismatch("a pair", value))?;
        match items {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => {
                Err(JsonError::new(format!("expected a 2-element array, got {}", items.len())))
            }
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

/// Implements [`ToJson`] for a struct as an object with one entry per
/// listed field, in listed order (mirroring what `#[derive(Serialize)]`
/// produced).
///
/// # Examples
///
/// ```
/// struct Point {
///     x: f64,
///     label: String,
/// }
/// act_json::impl_to_json!(Point { x, label });
///
/// use act_json::ToJson;
/// let p = Point { x: 1.5, label: "origin-ish".into() };
/// assert_eq!(p.to_json().render_compact(), r#"{"x":1.5,"label":"origin-ish"}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::JsonValue {
                let mut object = $crate::JsonObject::new();
                $(object.insert(stringify!($field), $crate::ToJson::to_json(&self.$field));)+
                $crate::JsonValue::Object(object)
            }
        }
    };
}

/// Implements [`FromJson`] for a struct with all-required named fields.
#[macro_export]
macro_rules! impl_from_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::JsonValue) -> Result<Self, $crate::JsonError> {
                let object = value
                    .as_object()
                    .ok_or_else(|| $crate::JsonError::type_mismatch("an object", value))?;
                Ok(Self {
                    $($field: $crate::FromJson::from_json(
                        object
                            .get(stringify!($field))
                            .ok_or_else(|| $crate::JsonError::missing_field(stringify!($field)))?,
                    )?,)+
                })
            }
        }
    };
}

/// Implements [`ToJson`] **and** [`FromJson`] for a unit-variant enum,
/// rendering each variant as its name string — the same externally-tagged
/// shape `serde` used.
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::JsonValue {
                let name = match self {
                    $(Self::$variant => stringify!($variant),)+
                };
                $crate::JsonValue::String(name.to_owned())
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::JsonValue) -> Result<Self, $crate::JsonError> {
                let name = value
                    .as_str()
                    .ok_or_else(|| $crate::JsonError::type_mismatch("a variant name", value))?;
                match name {
                    $(stringify!($variant) => Ok(Self::$variant),)+
                    _ => Err($crate::JsonError::new(format!(
                        "unknown {} variant `{name}`",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

/// Builds a [`JsonValue::Object`] literal: `obj! { "key": value, ... }`.
/// Values are anything implementing [`ToJson`] (including nested `obj!`
/// results). The replacement for `serde_json::json!` object literals.
#[macro_export]
macro_rules! obj {
    ( $( $key:literal : $value:expr ),* $(,)? ) => {{
        #[allow(unused_mut)]
        let mut object = $crate::JsonObject::new();
        $( object.insert($key, $crate::ToJson::to_json(&$value)); )*
        $crate::JsonValue::Object(object)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_like_serde_json_did() {
        assert_eq!(JsonValue::Null.render_compact(), "null");
        assert_eq!(JsonValue::Bool(true).render_compact(), "true");
        assert_eq!(JsonValue::Int(42).render_compact(), "42");
        assert_eq!(JsonValue::Float(42.5).render_compact(), "42.5");
        assert_eq!(JsonValue::Float(820.0).render_compact(), "820.0");
        assert_eq!(JsonValue::Float(f64::NAN).render_compact(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).render_compact(), "null");
        assert_eq!(JsonValue::String("a\"b\n".into()).render_compact(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn float_formatting_keeps_round_trip_precision() {
        for v in [0.1, 1.0 / 3.0, 1e-7, 6.02e23, -0.0, 123_456_789.125] {
            let text = format_float(v);
            let back: f64 = text.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
        }
    }

    #[test]
    fn pretty_rendering_indents_by_two() {
        let doc = obj! { "a": 1, "b": vec![1.5, 2.5] };
        assert_eq!(
            doc.render_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    1.5,\n    2.5\n  ]\n}"
        );
        assert_eq!(obj! {}.render_pretty(), "{}");
        assert_eq!(JsonValue::Array(Vec::new()).render_pretty(), "[]");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let doc = obj! {
            "label": "trajectory",
            "count": 3,
            "speedup": 2.5,
            "flags": vec![true, false],
            "nested": obj! { "x": JsonValue::Null },
        };
        for text in [doc.render_compact(), doc.render_pretty()] {
            assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = JsonValue::parse(r#""a\"b\\cé€ dA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\u{e9}\u{20ac} dA"));
        let pair = JsonValue::parse(r#""😀""#).unwrap();
        assert_eq!(pair.as_str(), Some("\u{1F600}"));
        let raw = JsonValue::parse("\"caf\u{e9}\"").unwrap();
        assert_eq!(raw.as_str(), Some("caf\u{e9}"));
    }

    #[test]
    fn parser_distinguishes_ints_from_floats() {
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(JsonValue::parse("42.0").unwrap(), JsonValue::Float(42.0));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Float(1000.0));
        // Integers beyond i64 fall back to floats instead of failing.
        assert!(matches!(
            JsonValue::parse("99999999999999999999").unwrap(),
            JsonValue::Float(_)
        ));
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = JsonValue::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset(), Some(6));
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("[1, 2,]").is_err());
        assert!(JsonValue::parse("{\"a\": 1} trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let mut text = String::new();
        for _ in 0..(MAX_PARSE_DEPTH + 8) {
            text.push('[');
        }
        let err = JsonValue::parse(&text).unwrap_err();
        assert!(err.to_string().contains("deeply"));
        assert_eq!(err.kind(), JsonErrorKind::TooDeep);
    }

    #[test]
    fn parse_limits_are_tunable() {
        let tight = ParseLimits { max_depth: 2, max_bytes: 16, max_number_len: 4 };
        assert!(JsonValue::parse_with_limits("[[1]]", &tight).is_ok());
        assert_eq!(
            JsonValue::parse_with_limits("[[[1]]]", &tight).unwrap_err().kind(),
            JsonErrorKind::TooDeep
        );
        assert_eq!(
            JsonValue::parse_with_limits("[1,2,3,4,5,6,7,8]", &tight).unwrap_err().kind(),
            JsonErrorKind::TooLarge
        );
        assert_eq!(
            JsonValue::parse_with_limits("123456", &tight).unwrap_err().kind(),
            JsonErrorKind::NumberTooLong
        );
    }

    #[test]
    fn error_kinds_classify_failures() {
        assert_eq!(JsonValue::parse("{oops").unwrap_err().kind(), JsonErrorKind::Syntax);
        assert_eq!(
            JsonValue::parse("1e999").unwrap_err().kind(),
            JsonErrorKind::NumberOutOfRange
        );
        assert_eq!(
            bool::from_json(&JsonValue::Int(1)).unwrap_err().kind(),
            JsonErrorKind::Conversion
        );
    }

    #[test]
    fn indexing_misses_return_null() {
        let doc = obj! { "a": vec![1, 2] };
        assert_eq!(doc["a"][0], 1i64);
        assert!(doc["missing"].is_null());
        assert!(doc["a"][99].is_null());
        assert!(doc[0].is_null());
    }

    #[test]
    fn object_insert_replaces_in_place() {
        let mut obj = JsonObject::new();
        obj.insert("a", JsonValue::Int(1));
        obj.insert("b", JsonValue::Int(2));
        obj.insert("a", JsonValue::Int(3));
        assert_eq!(obj.len(), 2);
        assert_eq!(obj.keys().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(obj.get("a"), Some(&JsonValue::Int(3)));
    }

    #[test]
    fn tuples_render_as_arrays() {
        let pair = ("Lpddr4".to_owned(), 8.0);
        assert_eq!(pair.to_json().render_compact(), r#"["Lpddr4",8.0]"#);
        let back: (String, f64) = FromJson::from_json(&pair.to_json()).unwrap();
        assert_eq!(back, pair);
    }

    #[test]
    fn struct_macros_round_trip() {
        #[derive(Debug, PartialEq)]
        struct Sample {
            name: String,
            count: u32,
            scale: f64,
            tags: Vec<String>,
        }
        impl_to_json!(Sample { name, count, scale, tags });
        impl_from_json!(Sample { name, count, scale, tags });

        let sample = Sample {
            name: "s".into(),
            count: 7,
            scale: 0.5,
            tags: vec!["a".into(), "b".into()],
        };
        let rendered = sample.to_json().render_pretty();
        let back = Sample::from_json(&JsonValue::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, sample);

        let missing = obj! { "name": "s" };
        let err = Sample::from_json(&missing).unwrap_err();
        assert!(err.to_string().contains("count"));
    }

    #[test]
    fn enum_macro_round_trips() {
        #[derive(Debug, PartialEq)]
        enum Node {
            N7,
            N10,
        }
        impl_json_enum!(Node { N7, N10 });
        assert_eq!(Node::N7.to_json(), JsonValue::String("N7".into()));
        assert_eq!(Node::from_json(&JsonValue::String("N10".into())).unwrap(), Node::N10);
        let err = Node::from_json(&JsonValue::String("N3".into())).unwrap_err();
        assert!(err.to_string().contains("N3"));
    }

    #[test]
    fn option_and_int_conversions_validate() {
        assert_eq!(Option::<u32>::from_json(&JsonValue::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_json(&JsonValue::Int(5)).unwrap(), Some(5));
        assert!(u32::from_json(&JsonValue::Int(-1)).is_err());
        assert!(u64::from_json(&JsonValue::Int(-1)).is_err());
        assert_eq!(f64::from_json(&JsonValue::Int(3)).unwrap(), 3.0);
        assert!(bool::from_json(&JsonValue::Int(1)).is_err());
    }

    #[test]
    fn u64_beyond_i64_degrades_to_float() {
        let v = u64::MAX.to_json();
        assert!(matches!(v, JsonValue::Float(_)));
        assert_eq!(usize::MIN.to_json(), JsonValue::Int(0));
    }
}
