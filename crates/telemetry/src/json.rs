//! A small hand-written JSON value, serializer, and parser.
//!
//! `serde` is unavailable offline, and every JSON document the
//! workspace writes (bench artifacts, serve responses, lint reports,
//! [`crate::chrome`] traces) needs a *byte-stable* format: the same sweep
//! must serialize to identical bytes whether it ran on one worker or
//! eight, today or next year. The rules that buy that stability:
//!
//! * **Objects preserve insertion order** (they are association lists,
//!   not hash maps), so writers control field order deterministically.
//! * **Integers and floats are distinct.** Integers are kept as `i128`
//!   (covering the full `u64` counter range exactly); floats always
//!   serialize with a `.` or exponent (`{:?}`), so the parser can tell
//!   them apart and round-trip both losslessly — Rust guarantees
//!   shortest-round-trip float formatting.
//! * **Non-finite floats are rejected** at serialization time (JSON has
//!   no NaN/Infinity), rather than silently emitted as `null`.
//!
//! The grammar parsed is standard JSON (RFC 8259) minus one liberty the
//! serializer never takes: duplicate object keys are accepted by the
//! parser (last wins on lookup, all preserved in order).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional or exponent part.
    Int(i128),
    /// A number with a fractional or exponent part (always finite).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Errors from [`Json::render`] or [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// A NaN or infinite float reached the serializer.
    NonFiniteFloat,
    /// Parse error with a byte offset and message.
    Parse {
        /// Byte offset of the error in the input.
        at: usize,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::NonFiniteFloat => write!(f, "non-finite float cannot be serialized"),
            JsonError::Parse { at, msg } => write!(f, "JSON parse error at byte {at}: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from pairs (convenience constructor).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// An integer from a `u64` counter.
    pub fn u64(v: u64) -> Json {
        Json::Int(v as i128)
    }

    /// Member lookup on objects (last duplicate wins); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Any number as `f64` (integers convert; floats pass through).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str` for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements for arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value's pairs for objects.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the exact bytes written to result files.
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFiniteFloat`] if any float is NaN or infinite.
    pub fn render(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, 0)?;
        out.push('\n');
        Ok(out)
    }

    /// Serializes to one line with no indentation and no trailing
    /// newline — the wire format for line-delimited protocols (newlines
    /// inside strings are escaped, so the line framing always holds).
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFiniteFloat`] if any float is NaN or infinite.
    pub fn render_compact(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write_compact(&mut out)?;
        Ok(out)
    }

    fn write_compact(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out)?;
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_compact(out)?;
                }
                out.push('}');
            }
            leaf => leaf.write(out, 0)?,
        }
        Ok(())
    }

    fn write(&self, out: &mut String, indent: usize) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(v) => {
                if !v.is_finite() {
                    return Err(JsonError::NonFiniteFloat);
                }
                // `{:?}` always includes `.` or an exponent, keeping
                // floats distinguishable from ints on re-parse.
                out.push_str(&format!("{v:?}"));
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return Ok(());
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1)?;
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return Ok(());
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1)?;
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
        Ok(())
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// [`JsonError::Parse`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Nesting ceiling for the recursive-descent parser: artifacts nest a
/// handful of levels; a corrupted or hostile file with thousands of
/// `[`s must fail with a parse error, not a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::Parse {
            at: self.pos,
            msg: msg.to_string(),
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and we only stopped on ASCII
                // boundaries, so this slice is valid UTF-8.
                s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8"));
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            s.push(c);
                            continue; // unicode_escape advanced pos itself
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (and, for surrogate pairs, the
    /// following `\uXXXX`); leaves `pos` after the last consumed digit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a low surrogate escape next.
            if self.peek() != Some(b'\\') {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 1;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(self.err("unpaired low surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[start + (self.bytes[start] == b'-') as usize] == b'0' {
            return Err(self.err("leading zero in number"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| self.err("malformed float literal"))?;
            if !v.is_finite() {
                return Err(self.err("float literal overflows f64"));
            }
            Ok(Json::Float(v))
        } else {
            let v: i128 = text
                .parse()
                .map_err(|_| self.err("integer literal overflows i128"))?;
            Ok(Json::Int(v))
        }
    }

    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digits"));
        }
        Ok(self.pos - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        parse(&v.render().unwrap()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-7),
            Json::Int(u64::MAX as i128),
            Json::Float(0.5),
            Json::Float(-1.25e-9),
            Json::Float(1e300),
            Json::Str("hi \"there\"\n\t\\ \u{1F600} \u{0007}".into()),
        ] {
            assert_eq!(round_trip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn floats_keep_their_type_through_the_round_trip() {
        // 1.0 must not come back as Int(1).
        assert_eq!(round_trip(&Json::Float(1.0)), Json::Float(1.0));
        assert_eq!(round_trip(&Json::Int(1)), Json::Int(1));
    }

    #[test]
    fn nested_structures_round_trip_and_preserve_order() {
        let v = Json::obj(vec![
            ("zeta", Json::Arr(vec![Json::Int(1), Json::Null])),
            ("alpha", Json::obj(vec![("k", Json::Float(2.5))])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = v.render().unwrap();
        assert_eq!(parse(&text).unwrap(), v);
        // Insertion order survives: zeta serializes before alpha.
        assert!(text.find("zeta").unwrap() < text.find("alpha").unwrap());
    }

    #[test]
    fn rendering_is_byte_stable() {
        let v = Json::obj(vec![
            ("a", Json::Int(1)),
            ("b", Json::Arr(vec![Json::Str("x".into())])),
        ]);
        assert_eq!(v.render().unwrap(), v.render().unwrap());
        assert_eq!(
            v.render().unwrap(),
            "{\n  \"a\": 1,\n  \"b\": [\n    \"x\"\n  ]\n}\n"
        );
    }

    #[test]
    fn compact_rendering_is_one_reparsable_line() {
        let v = Json::obj(vec![
            ("a", Json::Int(1)),
            (
                "b",
                Json::Arr(vec![Json::Str("x\ny".into()), Json::Obj(vec![])]),
            ),
            ("c", Json::obj(vec![("n", Json::Null)])),
        ]);
        let line = v.render_compact().unwrap();
        assert_eq!(
            line,
            "{\"a\": 1, \"b\": [\"x\\ny\", {}], \"c\": {\"n\": null}}"
        );
        assert!(!line.contains('\n'), "framing: one physical line");
        assert_eq!(parse(&line).unwrap(), v);
        assert_eq!(
            Json::Float(f64::NAN).render_compact(),
            Err(JsonError::NonFiniteFloat)
        );
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(bad).render(), Err(JsonError::NonFiniteFloat));
            // ... even deep inside a structure.
            let nested = Json::obj(vec![("x", Json::Arr(vec![Json::Float(bad)]))]);
            assert_eq!(nested.render(), Err(JsonError::NonFiniteFloat));
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "\"",
            "nul",
            "[1] x",
            "+1",
            "--1",
            "\u{0007}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parser_accepts_interchange_details() {
        assert_eq!(parse(" null ").unwrap(), Json::Null);
        assert_eq!(parse("-0").unwrap(), Json::Int(0));
        assert_eq!(parse("2e3").unwrap(), Json::Float(2000.0));
        assert_eq!(
            parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("Aé😀".into())
        );
        // Duplicate keys: preserved, last wins on lookup.
        let v = parse("{\"k\": 1, \"k\": 2}").unwrap();
        assert_eq!(v.get("k"), Some(&Json::Int(2)));
    }

    #[test]
    fn pathological_nesting_is_a_parse_error_not_a_stack_overflow() {
        // 100k unclosed brackets: must return an error gracefully.
        let bomb = "[".repeat(100_000);
        let err = parse(&bomb).unwrap_err();
        assert!(matches!(err, JsonError::Parse { .. }), "{err}");
        let obj_bomb = "{\"k\":".repeat(100_000);
        assert!(parse(&obj_bomb).is_err());
        // ...while reasonable nesting (within 128 levels) still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accessors_pick_the_right_variants() {
        let v = Json::obj(vec![
            ("i", Json::u64(u64::MAX)),
            ("f", Json::Float(1.5)),
            ("s", Json::str("x")),
            ("b", Json::Bool(true)),
        ]);
        assert_eq!(v.get("i").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("i").unwrap().as_i64(), None, "out of i64 range");
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.as_obj().is_some());
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("k").is_none());
    }
}
