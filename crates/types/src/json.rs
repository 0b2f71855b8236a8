//! The workspace's one JSON codec: a writer ([`escape`], [`number`]) and
//! a small real parser ([`parse`]) for the wire formats serscale speaks —
//! the run journal, the telemetry streams, campaign specs and platform
//! files.
//!
//! The parser implements enough of RFC 8259 for documents the program
//! itself writes, and it is safe on hostile ones: every failure is an
//! `Err` carrying a byte offset and reason, and nesting deeper than
//! [`MAX_DEPTH`] is refused before the recursion could exhaust a
//! thread's stack.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec::EXACT_INT_MAX;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// documents serscale writes nest at most 5 levels; the limit only has
/// to stop hostile input from recursing the parser off its stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order discarded; duplicate keys keep the last).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object's field, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one in
    /// `[0, 2^53]` — the range a JSON double carries exactly.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| n.fract() == 0.0 && (0.0..=EXACT_INT_MAX).contains(n))
            .map(|n| n as u64)
    }

    /// The boolean payload, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's type as an error message names it ("a number", …).
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "a boolean",
            JsonValue::Number(_) => "a number",
            JsonValue::String(_) => "a string",
            JsonValue::Array(_) => "an array",
            JsonValue::Object(_) => "an object",
        }
    }
}

/// Escapes a string into a JSON string literal, quotes included.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a valid JSON number: the shortest representation
/// that parses back to the same bits (the run journal's resume contract
/// leans on that), with a `.0` kept on integral values so the token stays
/// float-typed downstream.
pub fn number(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no Inf/NaN; telemetry values that overflow render null.
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// Parses one JSON document. Errors carry a byte offset and reason;
/// nesting deeper than [`MAX_DEPTH`] is an error like any other.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing garbage at byte {}", parser.pos));
    }
    Ok(value)
}

/// Parses a JSONL stream: one document per non-empty line.
pub fn parse_lines(input: &str) -> Result<Vec<JsonValue>, String> {
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte '{}' at {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one array or object, refusing to open more than
    /// [`MAX_DEPTH`] of them at once.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ASCII \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex}"))?;
                            self.pos += 4;
                            // Surrogates (paired or lone) are out of scope
                            // for the telemetry schema; reject them.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape '\\{}'", char::from(other)));
                        }
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unharmed: the
                    // input is &str, so byte-wise copy of non-ASCII is safe
                    // as long as we only split at ASCII delimiters.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 run".to_string())?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
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
            .map_err(|_| "invalid number bytes".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_event_objects() {
        let v = parse(r#"{"event":"edac","t_s":12.5,"domain":"PMD","ok":true,"x":null}"#)
            .expect("parse");
        assert_eq!(v.get("event").and_then(JsonValue::as_str), Some("edac"));
        assert_eq!(v.get("t_s").and_then(JsonValue::as_f64), Some(12.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("x"), Some(&JsonValue::Null));
    }

    #[test]
    fn parses_nesting_and_arrays() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).expect("parse");
        match v.get("a") {
            Some(JsonValue::Array(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("b").and_then(JsonValue::as_str), Some("c"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t unit\u{1} π";
        let doc = format!("{{\"k\":{}}}", escape(nasty));
        let v = parse(&doc).expect("parse");
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn number_formatting_round_trips() {
        for x in [0.0, 1.0, -3.5, 1.5e-9, 6.022e23, 1e15, 123456.789] {
            let doc = format!("{{\"x\":{}}}", number(x));
            let v = parse(&doc).expect("parse");
            assert_eq!(v.get("x").and_then(JsonValue::as_f64), Some(x), "{x}");
        }
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "{\"s\":\"\\q\"}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn escape_uses_short_forms_and_unicode_for_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn integer_accessor_is_exact_or_absent() {
        let v = parse(r#"[0,42,9007199254740992,1.5,-1,1e300,"7",true,[1]]"#).expect("parse");
        let items = v.as_array().expect("array");
        let ints: Vec<Option<u64>> = items.iter().map(JsonValue::as_u64).collect();
        assert_eq!(
            ints,
            [
                Some(0),
                Some(42),
                Some(1 << 53),
                None,
                None,
                None,
                None,
                None,
                None
            ]
        );
        assert_eq!(items[7].as_bool(), Some(true));
        assert_eq!(items[6].as_bool(), None);
        assert_eq!(items[8].as_array().map(<[JsonValue]>::len), Some(1));
        assert_eq!(items[0].as_array(), None);
        assert_eq!(items[6].kind(), "a string");
    }

    #[test]
    fn nesting_is_bounded_not_recursed_off_the_stack() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
        for deep in [
            format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1)),
            "[".repeat(60_000),
            "{\"a\":".repeat(60_000),
        ] {
            let err = parse(&deep).expect_err("too deep");
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn parse_lines_reports_the_failing_line() {
        let good = "{\"a\":1}\n\n{\"b\":2}\n";
        assert_eq!(parse_lines(good).expect("jsonl").len(), 2);
        let bad = "{\"a\":1}\nnot json\n";
        let err = parse_lines(bad).expect_err("must fail");
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
