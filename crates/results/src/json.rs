//! A dependency-free JSON value model, writer, and parser.
//!
//! The workspace derives `Serialize`/`Deserialize` (via the vendored
//! marker-only serde) on its config and result structs; this module is
//! what makes those derives *mean* something without registry access:
//! [`ToJson`]/[`FromJson`] are the working serializer behind them, and
//! [`crate::model`] implements both for every derived type.
//!
//! Design constraints, in order:
//!
//! 1. **Lossless round trips.** `u64` seeds don't fit in an `f64`, so
//!    numbers keep their integer/float identity ([`Json::Int`] holds an
//!    `i128`, wide enough for any `u64`/`usize`). Floats are written in
//!    Rust's shortest round-trip form, so
//!    `parse(write(x)) == x` bit-for-bit — the property the run store's
//!    byte-for-byte `fp report` guarantee rests on.
//! 2. **Canonical bytes.** Object members preserve insertion order and
//!    [`Json::to_compact`] emits no whitespace, so equal values produce
//!    equal bytes — which is what the store's FNV run ids hash.
//! 3. **No dependencies.** Only `core`/`std`.

use std::fmt::Write as _;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent. Wide enough for
    /// any `u64`/`i64`/`usize` the workspace serializes.
    Int(i128),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; member order is preserved (canonical output).
    Object(Vec<(String, Json)>),
}

/// Serialize `self` into a [`Json`] value (the realization of the
/// workspace's `#[derive(Serialize)]` markers).
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

/// Rebuild `Self` from a [`Json`] value (the realization of the
/// workspace's `#[derive(Deserialize)]` markers).
pub trait FromJson: Sized {
    /// Parse from JSON; errors are human-readable and name the field.
    fn from_json(v: &Json) -> Result<Self, String>;
}

impl Json {
    /// Shorthand for building an object from `(key, value)` pairs.
    pub fn object(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup (first match), `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required-member lookup with a field-naming error.
    pub fn expect(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    /// The value as `i128` if it is an integer.
    pub fn as_i128(&self) -> Option<i128> {
        match *self {
            Json::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The value as `u64` (integer in range).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|i| u64::try_from(i).ok())
    }

    /// The value as `usize` (integer in range).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i128().and_then(|i| usize::try_from(i).ok())
    }

    /// The value as `f64` (floats, and integers exactly representable).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(f) => Some(f),
            Json::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Canonical single-line form: no whitespace, members in insertion
    /// order. Equal values ⇒ equal bytes (hashable).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Human-readable form: 2-space indent, one member per line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => out.push_str(&fmt_f64(*f)),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i, d| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }

    /// Parse a JSON document (must consume the full input).
    ///
    /// Arrays and objects may nest at most [`MAX_NESTING`] deep; a
    /// deeper document is an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

/// Shortest round-trip float syntax that is still unambiguously a
/// float: Rust's `{}` (exact re-parse guaranteed) plus a forced `.0`
/// when the result would read as an integer. Non-finite values have no
/// JSON syntax and become `null`.
fn fmt_f64(f: f64) -> String {
    if !f.is_finite() {
        return "null".to_string();
    }
    let s = format!("{f}");
    if s.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
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
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        item(out, i, depth + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
    out.push(close);
}

/// The deepest array/object nesting [`Json::parse`] accepts. Nothing
/// the protocol, the run store or a trace dump writes nests more than a
/// handful of levels; the cap keeps the recursive parser from
/// exhausting a reader thread's stack on hostile input, where one frame
/// of `[[[[…` would abort the whole process.
pub const MAX_NESTING: usize = 128;

/// A parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn eat(&mut self, token: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {token:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object, refusing to open it past
    /// [`MAX_NESTING`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.eat("\\u")?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one go, multi-byte UTF-8 unchanged. Both bytes are
                    // ASCII, so the run ends on a char boundary, and
                    // each byte is decoded once: a long string costs
                    // linear, not quadratic, time.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err(format!("invalid number {text:?}")))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err(format!("integer out of range: {text}")))
        }
    }
}

// Blanket-adjacent conveniences for the model impls.
impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i128)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i128)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_compact()).expect("compact form parses")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(u64::MAX as i128),
            Json::Float(0.25),
            Json::Float(1.0),
            Json::Float(f64::MIN_POSITIVE),
            Json::Str("hé\"llo\n\\ \u{1F600}".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn floats_stay_floats_and_ints_stay_ints() {
        // 1.0 must not collapse to the integer 1 on the way through.
        assert_eq!(Json::Float(1.0).to_compact(), "1.0");
        assert_eq!(roundtrip(&Json::Float(1.0)), Json::Float(1.0));
        assert_eq!(Json::Int(1).to_compact(), "1");
        assert_eq!(roundtrip(&Json::Int(1)), Json::Int(1));
    }

    #[test]
    fn shortest_float_form_reparses_exactly() {
        // Bit-exact round trips for awkward values.
        for f in [0.1, 2.0 / 3.0, 1e-300, 12345.6789e300, f64::EPSILON] {
            let Json::Float(back) = roundtrip(&Json::Float(f)) else {
                panic!("float came back as non-float");
            };
            assert_eq!(back.to_bits(), f.to_bits(), "{f}");
        }
    }

    #[test]
    fn u64_seed_survives() {
        let seed = 0xF115_7E5F_FFFF_FFFFu64;
        let v = Json::Int(seed as i128);
        assert_eq!(roundtrip(&v).as_u64(), Some(seed));
    }

    #[test]
    fn containers_roundtrip_and_preserve_order() {
        let v = Json::object([
            ("zebra", Json::Int(1)),
            ("alpha", Json::Array(vec![Json::Null, Json::Bool(true)])),
            ("nested", Json::object([("k", Json::Float(0.5))])),
        ]);
        assert_eq!(roundtrip(&v), v);
        // Canonical bytes: zebra stays first.
        assert!(v.to_compact().starts_with("{\"zebra\":1,\"alpha\""));
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::object([
            (
                "series",
                Json::Array(vec![Json::object([("points", Json::Array(vec![]))])]),
            ),
            ("empty", Json::object([])),
        ]);
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n  \"series\""), "{pretty}");
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":1,}x",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "nullx",
            "[1] trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = Json::parse(&nest(MAX_NESTING)).unwrap();
        assert_eq!(roundtrip(&deepest), deepest);
        let mixed = format!(
            "{}{}",
            "{\"a\":[".repeat(MAX_NESTING / 2),
            "]}".repeat(MAX_NESTING / 2)
        );
        assert!(Json::parse(&mixed).is_ok());

        let err = Json::parse(&nest(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(
            err.offset, MAX_NESTING,
            "fails at the first bracket past the cap"
        );
        assert!(err.message.contains("nesting"), "{err}");
        // A hostile frame's worth of brackets: an error, not an abort.
        let err = Json::parse(&"[".repeat(500_000)).unwrap_err();
        assert_eq!(err.offset, MAX_NESTING);
        let err = Json::parse(&"{\"a\":".repeat(500_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A megabyte-long string of one- to four-byte chars and escapes,
        // as one frame may carry. Re-validating the rest of the
        // document at every char would take minutes here.
        let text = "ab\u{e9}\"\u{1F600}\\\n".repeat(1 << 17);
        let doc = Json::Str(text.clone()).to_compact();
        assert!(doc.len() > 1 << 20);
        let started = std::time::Instant::now();
        assert_eq!(Json::parse(&doc).unwrap(), Json::Str(text));
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(10), "{took:?}");
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\ud83d\\ude00\" ] } ").unwrap();
        assert_eq!(
            v,
            Json::object([(
                "a",
                Json::Array(vec![
                    Json::Int(1),
                    Json::Float(25.0),
                    Json::Str("A\u{1F600}".into())
                ])
            )])
        );
    }

    #[test]
    fn accessors() {
        let v = Json::object([("n", Json::Int(3)), ("f", Json::Float(0.5))]);
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(0.5));
        assert!(v.get("missing").is_none());
        assert!(v.expect("missing").is_err());
        assert_eq!(Json::Int(7).as_f64(), Some(7.0));
        assert!(Json::Str("x".into()).as_u64().is_none());
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        assert_eq!(Json::Float(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_compact(), "null");
    }
}
