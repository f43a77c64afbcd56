//! Hand-rolled JSON reader for the wire protocol.
//!
//! The workspace is offline — no serde — so the service parses request
//! bodies with this small recursive-descent reader and renders responses
//! through [`pipedepth_telemetry::json`]'s escaping/number helpers (the
//! same ones the manifest writer uses). Objects keep their fields as an
//! ordered pair list, which makes unknown-field tolerance trivial: the
//! wire decoder looks up the fields it knows and ignores the rest.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as an `f64`.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as its fields in source order. Duplicate keys keep the
    /// first occurrence on lookup.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up an object field by name; `None` for missing fields and
    /// non-objects.
    pub fn get(&self, field: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == field).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in
    /// `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Why a body failed to parse, with a byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What was expected or found.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document, rejecting trailing non-whitespace.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first offending byte.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

/// Nesting bound: the service's wire types are at most a few levels deep,
/// so anything deeper is a malformed (or adversarial) body, rejected
/// before it can exhaust the stack.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
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

    fn eat(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected \"{word}\"")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
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
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|b| std::str::from_utf8(b).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates and other invalid scalars degrade to
                            // the replacement character; the wire types never
                            // round-trip them.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(self.err(format!("invalid escape {:?}", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Decode the one scalar at `pos` from its own bytes:
                    // the input is a `&str` and `pos` sits on a character
                    // boundary, so this reads at most four bytes.
                    let ch = self
                        .input
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    if ch.is_control() {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| ParseError {
            offset: start,
            message: format!("invalid number {text:?}"),
        })?;
        if !n.is_finite() {
            return Err(ParseError {
                offset: start,
                message: format!("number {text:?} out of range"),
            });
        }
        Ok(Json::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Number(-250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::String("a\nb".into()));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::String("A".into()));
    }

    #[test]
    fn parses_nested_structures_and_lookup() {
        let doc = parse(r#"{"a": [1, 2, {"b": "c"}], "d": null, "a": 9}"#).unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[2].get("b").and_then(Json::as_str), Some("c"));
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap().len(),
            3,
            "duplicate keys keep the first occurrence"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":}",
            "nan",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn decodes_multi_byte_characters() {
        for text in [
            "spécint-00",
            "ß",
            "日本語",
            "🦀 pipes",
            "a\u{7FF}\u{800}\u{FFFF}\u{10000}z",
        ] {
            let doc = parse(&format!("{{\"w\": \"{text}\"}}")).unwrap();
            assert_eq!(doc.get("w").and_then(Json::as_str), Some(text));
        }
    }

    #[test]
    fn decodes_escapes_next_to_multi_byte_characters() {
        let doc = parse(r#"["é\n", "\"ü\"", "\u00e9é", "日\t本\\", "🦀\u0041\/"]"#).unwrap();
        let got: Vec<&str> = doc
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(got, ["é\n", "\"ü\"", "éé", "日\t本\\", "🦀A/"]);
    }

    #[test]
    fn rejects_unescaped_control_characters() {
        // The offset is the control character's byte, after any
        // multi-byte characters before it.
        for (body, offset) in [
            ("\"a\u{1}b\"", 2),
            ("\"é\nx\"", 3),
            ("[\"日\", \"\u{1F}\"]", 9),
        ] {
            let err = parse(body).unwrap_err();
            assert_eq!(
                err,
                ParseError {
                    offset,
                    message: "unescaped control character".into(),
                },
                "{body:?}"
            );
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn round_trips_through_the_telemetry_writer() {
        let escaped = pipedepth_telemetry::json::escape("say \"hi\"\n");
        let doc = parse(&format!("{{\"msg\": \"{escaped}\"}}")).unwrap();
        assert_eq!(doc.get("msg").and_then(Json::as_str), Some("say \"hi\"\n"));
    }
}
