//! A minimal JSON reader for the benchmark artifacts.
//!
//! The workspace vendors no JSON library, yet the bench crate must *read*
//! JSON back: the warehouse ingester loads perf reports and sweep
//! documents, and the schema tests parse the emitted artifacts to prove
//! they are well-formed. This module is a small recursive-descent parser
//! covering exactly the JSON the workspace writes (objects, arrays, strings
//! with the escapes [`rnuca_types::json::json_string`] produces, numbers,
//! booleans, null). Emission stays hand-rolled at the call sites so field
//! order remains deterministic.
//!
//! Because ingested files can be stale, hand-edited, or truncated by a
//! broken CI upload, the parser is strict and every failure is a
//! [`JsonError`] carrying the line, column, and byte offset of the problem:
//! duplicate object keys are rejected (silently keeping one of two
//! conflicting `refs_per_sec` fields would ingest a number the run never
//! reported), nesting is capped so garbage like a megabyte of `[` cannot
//! overflow the stack, and numbers that overflow `f64` (`1e999`) are errors
//! rather than infinities leaking into rate math.

use std::fmt;

/// How deep objects/arrays may nest. The artifacts use at most five
/// levels; the cap exists so malformed input fails cleanly instead of
/// overflowing the parser's recursion.
pub const MAX_JSON_DEPTH: usize = 128;

/// A JSON syntax error, positioned in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (in characters) within that line.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at line {}, column {} (byte {})",
            self.message, self.line, self.column, self.offset
        )
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers every value the
    /// benchmark artifacts emit).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, with its fields in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document, rejecting trailing garbage,
    /// duplicate object keys, nesting beyond [`MAX_JSON_DEPTH`], and
    /// numbers that overflow `f64`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first problem by line, column,
    /// and byte offset.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err_at(p.pos, "trailing data after the document"));
        }
        Ok(value)
    }

    /// Looks up a field of an object (`None` for missing fields or non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field names of an object, in document order (empty otherwise).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => write!(f, "{n}"),
            JsonValue::String(s) => write!(f, "{s:?}"),
            JsonValue::Array(items) => write!(f, "[..{} items..]", items.len()),
            JsonValue::Object(fields) => write!(f, "{{..{} fields..}}", fields.len()),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// An error at byte `offset`, with the line/column computed from the
    /// source (errors are rare, so the scan only happens on failure).
    fn err_at(&self, offset: usize, message: impl Into<String>) -> JsonError {
        let offset = offset.min(self.bytes.len());
        let before = &self.bytes[..offset];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        // Columns count characters; continuation bytes don't advance.
        let column = 1 + before[line_start..]
            .iter()
            .filter(|&&b| (b & 0xC0) != 0x80)
            .count();
        JsonError {
            offset,
            line,
            column,
            message: message.into(),
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        self.err_at(self.pos, message)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else if self.pos == self.bytes.len() {
            Err(self.err(format!("expected '{}', found end of input", b as char)))
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err(format!(
                "structure nests deeper than {MAX_JSON_DEPTH} levels"
            )));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            None => Err(self.err("expected a value, found end of input")),
            Some(c) => Err(self.err(format!("expected a value, found '{}'", c as char))),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        let n = text
            .parse::<f64>()
            .map_err(|_| self.err_at(start, format!("invalid number '{text}'")))?;
        if !n.is_finite() {
            // `1e999` parses to infinity; letting it through would poison
            // every downstream rate computation, so it is a syntax error.
            return Err(self.err_at(start, format!("number '{text}' overflows f64")));
        }
        Ok(JsonValue::Number(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err_at(start, "unterminated string")),
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err(format!("invalid \\u escape '{hex}'")))?;
                            // The emitters only escape control characters, all
                            // of which sit in the Basic Multilingual Plane.
                            out.push(char::from_u32(code).ok_or_else(|| {
                                self.err(format!("invalid code point {code:#x}"))
                            })?);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // boundaries are valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                None => return Err(self.err("expected ',' or ']', found end of input")),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                // Keeping either copy would silently drop data (or worse,
                // let a second `refs_per_sec` shadow the first), so a
                // duplicate key is an error at the repeated key.
                return Err(self.err_at(key_offset, format!("duplicate object key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                None => return Err(self.err("expected ',' or '}', found end of input")),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuca_types::json::json_string;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(
            JsonValue::parse("-3.5e2").unwrap(),
            JsonValue::Number(-350.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\\"b\\u000a\"").unwrap(),
            JsonValue::String("a\"b\n".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, 2, {"b": "x"}], "c": {"d": null}}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.keys(), vec!["a", "c"]);
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = JsonValue::parse("{\"n\": 1}").unwrap();
        assert_eq!(v.get("n").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_f64(), None);
        assert!(JsonValue::Null.keys().is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "1 2",
            "\"open",
            "nul",
            "{\"a\":}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn truncated_documents_fail_at_every_cut() {
        // A realistic artifact fragment cut anywhere before the end must
        // error (never panic, never "succeed" on half a document).
        let doc = r#"{"schema": 5, "rows": [{"w": "apache", "r": 0.5}], "ok": true}"#;
        assert!(JsonValue::parse(doc).is_ok());
        for cut in 0..doc.len() {
            let prefix = &doc[..cut];
            assert!(
                JsonValue::parse(prefix).is_err(),
                "truncated doc {prefix:?} parsed successfully"
            );
        }
    }

    #[test]
    fn duplicate_keys_are_rejected_with_position() {
        let doc = "{\"a\": 1,\n \"a\": 2}";
        let err = JsonValue::parse(doc).expect_err("duplicate key");
        assert_eq!(err.message, "duplicate object key \"a\"");
        assert_eq!((err.line, err.column), (2, 2), "{err}");
        // Same key at different nesting levels is fine.
        assert!(JsonValue::parse("{\"a\": {\"a\": 1}}").is_ok());
        // Duplicates deeper in the tree are still caught.
        assert!(JsonValue::parse("{\"x\": [{\"b\": 1, \"b\": 2}]}").is_err());
    }

    #[test]
    fn pathological_nesting_is_capped_not_a_stack_overflow() {
        let deep_ok = format!(
            "{}1{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(JsonValue::parse(&deep_ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        let err = JsonValue::parse(&too_deep).expect_err("over the cap");
        assert!(err.message.contains("nests deeper"), "{err}");
        // Way past the cap (would smash the stack without the check).
        let absurd = "[".repeat(1_000_000);
        assert!(JsonValue::parse(&absurd).is_err());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in ["1e999", "-1e999", "[1, 2, 1e999]"] {
            let err = JsonValue::parse(bad).expect_err("overflow must not parse");
            assert!(err.message.contains("overflows f64"), "{bad}: {err}");
        }
        // Values near the edge still parse.
        assert!(JsonValue::parse("1.7e308").is_ok());
    }

    #[test]
    fn errors_carry_line_and_column() {
        let doc = "{\n  \"a\": 1,\n  \"b\": nope\n}";
        let err = JsonValue::parse(doc).expect_err("bad literal");
        assert_eq!((err.line, err.column), (3, 8), "{err}");
        assert_eq!(err.offset, 19);
        assert!(err.to_string().contains("line 3, column 8"));
    }

    #[test]
    fn roundtrips_the_sweep_emitter_escapes() {
        // The hand-rolled emitters escape quotes, backslashes, and control
        // characters; everything else passes through verbatim.
        let doc = "{\"s\": \"x\\u000ay \\\\ \\\" z\"}";
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny \\ \" z"));
    }

    #[test]
    fn json_string_escapes_and_roundtrips_through_the_parser() {
        // Whatever the workspace's one escaper writes parses back verbatim.
        for original in ["plain", "mixed \"quotes\" \\ and\ncontrol\tchars", "\u{1}€"] {
            let parsed = JsonValue::parse(&json_string(original)).unwrap();
            assert_eq!(parsed.as_str(), Some(original));
        }
    }
}
