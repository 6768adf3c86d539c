//! The workspace's one JSON codec, without external serialization crates.
//!
//! * [`Json`] — an owned JSON tree. `u64`/`i64`/`f64` are kept distinct so
//!   integers survive round trips bit-exactly; objects keep key order
//!   (the writer's order is part of the on-disk format).
//! * [`Json::encode`] — the single writer. Every artifact the workspace
//!   persists or serves goes through it: experiment rows, telemetry
//!   events, journal and memo-store lines, wire documents and bench
//!   summaries. Floats use Rust's shortest round-trip formatting and keep
//!   a `.0` when integral, so they read back as floats, bit-exactly; NaN
//!   and infinities encode as `null`.
//! * [`Json::parse`] — a recursive-descent parser with byte-offset
//!   [`ParseError`]s ("byte 41: expected ':' after object key") and a
//!   [`MAX_DEPTH`] nesting limit. `Json::parse(doc)?.encode() == doc` for
//!   every document the writer produces.
//! * [`Json::parse_flat`] — the same parser restricted to one-level
//!   objects, for JSON-lines records: a torn or nested line is `None`,
//!   which journal decoders skip and prune classifiers treat as garbage.
//!
//! Every experiment row type implements [`Record`]: an ordered list of
//! `(field, Value)` pairs, where [`Value`] is the same type as [`Json`].
//! The [`impl_record!`](crate::impl_record) macro derives the
//! implementation from a field list.

use std::fmt::{self, Write as _};

/// Maximum nesting depth [`Json::parse`] accepts. Deep enough for every
/// wire document in the workspace, shallow enough that a hostile request
/// cannot overflow the parser's stack.
pub const MAX_DEPTH: usize = 64;

/// An owned JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also how non-finite floats and absent options encode).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no `.`, exponent, or sign).
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// A float literal (contains `.` or an exponent).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

/// A record field's value: the same type as [`Json`], named for the
/// `(field, Value)` pairs of [`Record`].
pub type Value = Json;

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// A [`ParseError`] carrying the byte offset of the first problem and
    /// what the parser expected there.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let doc = p.value(0)?;
        p.skip_ws();
        if p.i != p.bytes.len() {
            return Err(p.err("end of document"));
        }
        Ok(doc)
    }

    /// Parses one JSON-lines record: an object whose values are all
    /// scalars. `None` on anything else — a torn or malformed line, a
    /// non-object, or a nested object or array value — so a decoder skips
    /// the line and a prune classifier treats it as garbage rather than
    /// as a foreign record to keep.
    pub fn parse_flat(line: &str) -> Option<Json> {
        let doc = Json::parse(line.trim()).ok()?;
        let flat = doc
            .as_obj()?
            .iter()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        flat.then_some(doc)
    }

    /// Encodes the tree as compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
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
            Json::F64(v) if !v.is_finite() => out.push_str("null"),
            // Rust's shortest round-trip formatting; integral floats keep
            // a ".0" so the value reads back as a float.
            Json::F64(v) if v.fract() == 0.0 && v.abs() < 1e15 => {
                let _ = write!(out, "{v:.1}");
            }
            Json::F64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(fields) => write_object(fields, out),
        }
    }

    /// A short name for this node's type, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::U64(_) | Json::I64(_) | Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Object-field lookup by key (`None` when absent or not an object;
    /// the first of duplicate keys wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Escapes and quotes `s` per JSON.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_object<K: AsRef<str>>(fields: &[(K, Json)], out: &mut String) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(key.as_ref(), out);
        out.push(':');
        value.write(out);
    }
    out.push('}');
}

/// One JSON object from borrowed `(key, value)` pairs, in order — the
/// shape of every JSON-lines record the workspace appends.
pub fn json_kv<K: AsRef<str>>(pairs: &[(K, Json)]) -> String {
    let mut out = String::with_capacity(64);
    write_object(pairs, &mut out);
    out
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::I64(v as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

/// A named, ordered bag of fields — one experiment row.
pub trait Record {
    /// The fields, in declaration order.
    fn fields(&self) -> Vec<(&'static str, Value)>;

    /// The row as one JSON object string.
    fn to_json(&self) -> String {
        json_kv(&self.fields())
    }

    /// The row as a [`Json`] object, for embedding in a larger document.
    fn to_object(&self) -> Json {
        Json::Obj(
            self.fields()
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        )
    }
}

/// Encodes a slice of records as a pretty-printed JSON array (one object
/// per line), matching what the bench harness persists.
pub fn records_to_json<R: Record>(rows: &[R]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.to_json());
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Derives [`Record`] for a struct from its field list:
///
/// ```ignore
/// impl_record!(Fig8Row { distance_m, power_dbm, rate });
/// ```
///
/// Fields must be `Clone` and convertible via `Value::from`.
#[macro_export]
macro_rules! impl_record {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::report::Record for $ty {
            fn fields(&self) -> Vec<(&'static str, $crate::report::Value)> {
                vec![$(
                    (stringify!($field), $crate::report::Value::from(self.$field.clone())),
                )+]
            }
        }
    };
}

/// A parse failure: where, and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What the parser expected at that offset.
    pub expected: String,
    /// What it found instead (a short excerpt, or "end of input").
    pub found: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "byte {}: expected {}, found {}",
            self.offset, self.expected, self.found
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &str) -> ParseError {
        self.err_at(self.i, expected)
    }

    fn err_at(&self, offset: usize, expected: &str) -> ParseError {
        let found = if offset >= self.bytes.len() {
            "end of input".to_string()
        } else {
            let end = (offset + 12).min(self.bytes.len());
            let excerpt = String::from_utf8_lossy(&self.bytes[offset..end]);
            format!("{excerpt:?}")
        };
        ParseError {
            offset,
            expected: expected.to_string(),
            found,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("shallower nesting (depth limit reached)"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{');
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("'\"' starting an object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("':' after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            return Err(self.err("',' or '}' in object"));
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            return Err(self.err("',' or ']' in array"));
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        let end = self.i + word.len();
        if self.bytes.get(self.i..end) == Some(word.as_bytes()) {
            self.i = end;
            Ok(value)
        } else {
            Err(self.err(&format!("'{word}'")))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next quote or backslash at
            // once. Both delimiters are ASCII, so the run ends on a char
            // boundary and is valid UTF-8 on its own.
            let rest = &self.bytes[self.i..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let text = std::str::from_utf8(&rest[..run]).map_err(|_| self.err("valid UTF-8"))?;
            out.push_str(text);
            self.i += run;
            match self.peek() {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => {
                    self.i += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
            }
        }
    }

    /// One escape sequence, with `self.i` just past its backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => return self.unicode_escape(),
            _ => return Err(self.err("a valid escape character")),
        };
        self.i += 1;
        Ok(c)
    }

    /// A `\uXXXX` escape, with `self.i` on its `u`. A high surrogate
    /// followed by a `\u` low surrogate combines into one char (the
    /// UTF-16 pair other encoders write for non-BMP characters); a lone
    /// surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let start = self.i;
        let high = self.hex4()?;
        let code =
            if (0xD800..0xDC00).contains(&high) && self.eat(b'\\') && self.peek() == Some(b'u') {
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.err_at(start, "a valid unicode scalar"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            } else {
                high
            };
        char::from_u32(code).ok_or_else(|| self.err_at(start, "a valid unicode scalar"))
    }

    /// The four hex digits after the `u` at `self.i`; leaves `self.i`
    /// past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .bytes
            .get(self.i + 1..self.i + 5)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("four hex digits after '\\u'"))?;
        let code = digits.iter().fold(0, |acc, &d| {
            acc * 16 + char::from(d).to_digit(16).unwrap_or(0)
        });
        self.i += 5;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.i += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.i]).expect("ASCII span");
        let parsed = if is_float {
            text.parse().ok().map(Json::F64)
        } else if text.starts_with('-') {
            text.parse().ok().map(Json::I64)
        } else {
            text.parse().ok().map(Json::U64)
        };
        parsed.ok_or_else(|| {
            self.i = start;
            self.err("a number")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        name: String,
        n: u64,
        x: f64,
        ok: bool,
        opt: Option<f64>,
    }
    impl_record!(Row {
        name,
        n,
        x,
        ok,
        opt
    });

    #[test]
    fn record_encodes_json() {
        let r = Row {
            name: "a\"b".to_string(),
            n: 3,
            x: 0.5,
            ok: true,
            opt: None,
        };
        assert_eq!(
            r.to_json(),
            r#"{"name":"a\"b","n":3,"x":0.5,"ok":true,"opt":null}"#
        );
        assert_eq!(r.to_object().encode(), r.to_json());
    }

    #[test]
    fn floats_round_trip_and_nan_is_null() {
        assert_eq!(Value::F64(2.0).encode(), "2.0");
        assert_eq!(Value::F64(f64::NAN).encode(), "null");
        // Rust's Display never uses exponent notation; the decimal
        // expansion still round-trips exactly.
        let s = Value::F64(1e-7).encode();
        assert_eq!(s, "0.0000001");
        assert_eq!(s.parse::<f64>().unwrap(), 1e-7);
    }

    #[test]
    fn array_layout_is_one_object_per_line() {
        let rows = vec![
            Row {
                name: "x".into(),
                n: 1,
                x: 1.5,
                ok: false,
                opt: Some(2.5),
            },
            Row {
                name: "y".into(),
                n: 2,
                x: 2.5,
                ok: true,
                opt: None,
            },
        ];
        let json = records_to_json(&rows);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with(']'));
        assert_eq!(json.lines().count(), 4);
        assert!(json.contains(r#""opt":2.5"#));
    }

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(r#"{"a": [1, -2, 3.5, null], "b": {"c": "x", "d": true}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(
            doc.get("b").unwrap().get("d").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[1], Json::I64(-2));
    }

    #[test]
    fn encode_round_trips_bit_exactly() {
        let doc = Json::Obj(vec![
            ("u".into(), Json::U64(u64::MAX)),
            ("i".into(), Json::I64(-42)),
            ("f".into(), Json::F64(0.1 + 0.2)),
            ("g".into(), Json::F64(2.0)),
            ("s".into(), Json::Str("a\"b\\c\nd".into())),
            (
                "arr".into(),
                Json::Arr(vec![Json::Null, Json::Bool(false), Json::F64(3.1e-7)]),
            ),
            ("obj".into(), Json::Obj(vec![("k".into(), Json::U64(1))])),
        ]);
        let text = doc.encode();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.encode(), text, "encode→decode→encode is identity");
    }

    #[test]
    fn long_multibyte_strings_with_inner_escapes_round_trip() {
        let cjk = "検証済みの逆行チェックポイント".repeat(40);
        let emoji = "⚡🔋📡🛡️".repeat(60);
        let s = format!("{cjk}\"{emoji}\\\n\t{cjk}\u{1}{emoji}/末尾");
        let doc = Json::Obj(vec![
            (format!("{emoji}\"key"), Json::Str(s.clone())),
            ("arr".into(), Json::Arr(vec![Json::Str(cjk.clone())])),
        ]);
        let text = doc.encode();
        assert!(text.len() > 4096, "long enough to expose per-char rescans");
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.encode(), text);
        assert_eq!(
            Json::parse(r#""前é後\n中""#).unwrap(),
            Json::Str("前é後\n中".into())
        );
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\u4E2D""#).unwrap(),
            Json::Str("Aé中".into())
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
            r#""\u""#,
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.expected.contains("four hex digits"), "{bad}: {e}");
            assert_eq!(e.offset, 2, "{bad}: points at the 'u'");
        }
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_rejected() {
        // How encoders that escape everything outside the BMP write 😀.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".into())
        );
        assert_eq!(
            Json::parse(r#""a\uD834\uDD1Eb""#).unwrap(),
            Json::Str("a𝄞b".into())
        );
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let e = Json::parse(lone).unwrap_err();
            assert!(e.expected.contains("unicode scalar"), "{lone}: {e}");
        }
        let e = Json::parse(r#""\ud83d\n""#).unwrap_err();
        assert!(e.expected.contains("unicode scalar"), "{e}");
        let e = Json::parse(r#""\ud83d\u+e00""#).unwrap_err();
        assert!(e.expected.contains("four hex digits"), "{e}");
    }

    #[test]
    fn errors_carry_offset_and_expectation() {
        let e = Json::parse(r#"{"a" 1}"#).unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(e.expected.contains("':'"), "{e}");
        let e = Json::parse(r#"{"a": 1"#).unwrap_err();
        assert!(e.found.contains("end of input"), "{e}");
        let e = Json::parse("[1, 2,]").unwrap_err();
        assert!(e.to_string().starts_with("byte 6"), "{e}");
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nope").is_err());
        let e = Json::parse(r#""unterminated"#).unwrap_err();
        assert_eq!(e.offset, 13);
        assert!(e.expected.contains("closing"), "{e}");
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.expected.contains("depth"), "{e}");
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn number_taxonomy_matches_the_encoder() {
        assert_eq!(Json::parse("7").unwrap(), Json::U64(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::F64(7.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        // The encoder writes non-finite floats as null; parsing never
        // produces a non-finite number.
        assert_eq!(Json::F64(f64::NAN).encode(), "null");
    }

    #[test]
    fn parse_flat_accepts_only_one_level_objects() {
        // Torn, nested and trailing-garbage lines are covered next to
        // the journal decoders that rely on them.
        let line = r#"{"s":"x","n":1,"f":2.0,"z":null}"#;
        let rec = Json::parse_flat(&format!("  {line}\n")).expect("surrounding whitespace is fine");
        assert_eq!(rec.encode(), line);
        assert!(Json::parse_flat("[1]").is_none(), "not an object");
        assert!(Json::parse_flat("7").is_none(), "not an object");
    }
}
