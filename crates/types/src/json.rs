//! The workspace's one JSON codec, for the wire formats serscale speaks —
//! the run journal, the telemetry streams, campaign specs and platform
//! files.
//!
//! Reading has one grammar, implemented once, by the pull [`Reader`]: it
//! yields [`Token`]s straight from a `&str` and builds nothing, and an
//! escape-free string comes back borrowed from the input. Everything
//! else reads through it:
//!
//! - [`validate`] / [`validate_lines`] drain the reader to check a
//!   document without allocating;
//! - [`members`] hands a flat object's members to a callback, for decoders
//!   that read a few known fields (spans and events);
//! - [`parse`] / [`parse_lines`] build a [`JsonValue`] tree on top of the
//!   reader, for the small documents that want one (specs, platform files,
//!   HTTP bodies).
//!
//! The grammar covers enough of RFC 8259 for documents the program itself
//! writes, and it is safe on hostile ones: every failure is an `Err`
//! carrying a byte offset and reason, and nesting deeper than
//! [`MAX_DEPTH`] is refused before it could exhaust a thread's stack.
//!
//! Writing is [`write_escaped`] and [`write_number`], which append to a
//! caller's buffer, and their allocating forms [`escape`] and [`number`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec::EXACT_INT_MAX;

/// The deepest nesting of arrays and objects the reader accepts. The
/// documents serscale writes nest at most 5 levels; the limit only has
/// to stop hostile input from recursing a consumer off its stack.
pub const MAX_DEPTH: usize = 64;

// The reader records which open containers are objects in one u64.
const _: () = assert!(MAX_DEPTH <= 64);

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
    /// `[0, 2^53]` — see [`exact_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
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

/// A JSON number as an unsigned integer, if it is one in `[0, 2^53]` —
/// the range a JSON double carries exactly.
pub fn exact_u64(n: f64) -> Option<u64> {
    (n.fract() == 0.0 && (0.0..=EXACT_INT_MAX).contains(&n)).then_some(n as u64)
}

/// Escapes a string into a JSON string literal, quotes included.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal, quotes included: the
/// in-place form of [`escape`].
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `i` is an ASCII byte, so both slices end on char boundaries.
        out.push_str(&s[copied..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

/// Formats an `f64` as a valid JSON number: the shortest representation
/// that parses back to the same bits (the run journal's resume contract
/// leans on that), with a `.0` kept on integral values so the token stays
/// float-typed downstream.
pub fn number(x: f64) -> String {
    let mut out = String::new();
    write_number(&mut out, x);
    out
}

/// Appends `x` to `out` as [`number`] formats it.
pub fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; telemetry values that overflow render null.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{x:.1}");
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Parses one JSON document into a tree. Errors carry a byte offset and
/// reason; nesting deeper than [`MAX_DEPTH`] is an error like any other.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    /// A container under construction, with the key its next member
    /// goes under.
    enum Open {
        Array(Vec<JsonValue>),
        Object(BTreeMap<String, JsonValue>, String),
    }
    let mut reader = Reader::new(input);
    let mut open = Vec::new();
    while let Some(token) = reader.next_token()? {
        let value = match token {
            Token::BeginObject => {
                open.push(Open::Object(BTreeMap::new(), String::new()));
                continue;
            }
            Token::BeginArray => {
                open.push(Open::Array(Vec::new()));
                continue;
            }
            Token::Key(key) => {
                if let Some(Open::Object(_, next)) = open.last_mut() {
                    *next = key.get().into_owned();
                }
                continue;
            }
            Token::EndObject | Token::EndArray => match open.pop() {
                Some(Open::Object(map, _)) => JsonValue::Object(map),
                Some(Open::Array(items)) => JsonValue::Array(items),
                None => break,
            },
            Token::Str(s) => JsonValue::String(s.get().into_owned()),
            Token::Number(n) => JsonValue::Number(n),
            Token::Bool(b) => JsonValue::Bool(b),
            Token::Null => JsonValue::Null,
        };
        match open.last_mut() {
            Some(Open::Array(items)) => items.push(value),
            Some(Open::Object(map, key)) => {
                map.insert(std::mem::take(key), value);
            }
            None => {
                reader.finish()?;
                return Ok(value);
            }
        }
    }
    // The reader fails before a document can end with containers open.
    Err("unexpected end of input".to_string())
}

/// Checks that `input` is one JSON document, with the same verdict and
/// error as [`parse`], without building or allocating anything.
pub fn validate(input: &str) -> Result<(), String> {
    let mut reader = Reader::new(input);
    while reader.next_token()?.is_some() {}
    Ok(())
}

/// The documents of a JSONL stream: every line that is not blank, with
/// its 1-based line number.
pub fn lines(input: &str) -> impl Iterator<Item = (usize, &str)> {
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| (i + 1, line))
}

/// Parses a JSONL stream: one document per non-blank line.
pub fn parse_lines(input: &str) -> Result<Vec<JsonValue>, String> {
    lines(input)
        .map(|(n, line)| parse(line).map_err(|e| format!("line {n}: {e}")))
        .collect()
}

/// Checks a JSONL stream line by line, with the same verdict and error as
/// [`parse_lines`], without allocating.
pub fn validate_lines(input: &str) -> Result<(), String> {
    lines(input).try_for_each(|(n, line)| validate(line).map_err(|e| format!("line {n}: {e}")))
}

/// Reads `input` as one document and, when it is an object, hands each
/// member to `each` as `(key, first token of the value, the value's
/// source text)`, in document order. Container values are checked and
/// skipped by the reader, so a decoder that wants one descends into its
/// text with a fresh [`Reader`]. Returns whether the document was an
/// object; any syntax error in the whole document is an `Err`.
pub fn members<'a>(
    input: &'a str,
    mut each: impl FnMut(Str<'a>, Token<'a>, &'a str),
) -> Result<bool, String> {
    let mut reader = Reader::new(input);
    let first = reader.next_value()?;
    let object = first == Token::BeginObject;
    if object {
        while let Some((key, value)) = reader.member()? {
            let text = reader.skip(value)?;
            each(key, value, text);
        }
    } else {
        reader.skip(first)?;
    }
    reader.finish()?;
    Ok(object)
}

/// One token of a JSON document, as [`Reader::next_token`] yields it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// `{`.
    BeginObject,
    /// `}`.
    EndObject,
    /// `[`.
    BeginArray,
    /// `]`.
    EndArray,
    /// An object member's key; its `:` is already consumed.
    Key(Str<'a>),
    /// A string value.
    Str(Str<'a>),
    /// A number.
    Number(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A string the [`Reader`] has checked: its source text between the
/// quotes, decoded on demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Str<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> Str<'a> {
    /// The decoded string, borrowed from the input when it has no escapes.
    pub fn get(self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.raw);
        }
        let bytes = self.raw.as_bytes();
        let mut out = String::with_capacity(self.raw.len());
        let mut pos = 0;
        while let Some(offset) = self.raw[pos..].find('\\') {
            out.push_str(&self.raw[pos..pos + offset]);
            pos += offset + 1;
            out.push(unescape(bytes, &mut pos).expect("the reader checked every escape"));
        }
        out.push_str(&self.raw[pos..]);
        Cow::Owned(out)
    }
}

/// Where the reader is in the document's grammar.
#[derive(Debug, Clone, Copy)]
enum State {
    /// A value comes next: at the start, after a key, after an array's `,`.
    Value,
    /// Just inside `[`: a value or `]`.
    FirstItem,
    /// Just inside `{`: a key or `}`.
    FirstKey,
    /// After a value inside a container: `,` or the container's close.
    AfterValue,
    /// The top-level value is complete; only whitespace may follow.
    Done,
    /// An earlier call failed.
    Failed,
}

/// A pull reader over one JSON document: [`next_token`](Self::next_token)
/// yields the document's tokens in order and `None` once it is complete.
///
/// The reader owns the grammar — whitespace, `,` and `:`, nesting, the
/// number rule, string escapes and [`MAX_DEPTH`] — so a consumer only
/// sees well-formed token sequences. Errors name a byte offset and
/// reason; after one, every later call fails too.
///
/// The pull methods and the token path are `#[inline(always)]`, so they
/// inline into each consumer's loop across crates: through calls, reading
/// a journal took two to three times as long (2-vCPU x86-64 host).
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Where the most recent token began.
    start: usize,
    /// Containers currently open.
    depth: usize,
    /// Bit `i` is set when the container open at depth `i` is an object.
    objects: u64,
    state: State,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            start: 0,
            depth: 0,
            objects: 0,
            state: State::Value,
        }
    }

    /// The next token, or `None` when the document is complete and only
    /// whitespace follows it.
    #[inline(always)]
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>, String> {
        let token = self.step();
        if token.is_err() {
            self.state = State::Failed;
        }
        token
    }

    /// The first token of the next value — where a value must come next
    /// (at the start, or after a [`Token::Key`]).
    #[inline(always)]
    pub fn next_value(&mut self) -> Result<Token<'a>, String> {
        self.next_token()?
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    /// Inside an object, after its `{` or a member's whole value: the next
    /// member's key and the first token of its value, or `None` once the
    /// object closes.
    #[inline(always)]
    pub fn member(&mut self) -> Result<Option<(Str<'a>, Token<'a>)>, String> {
        let Some(Token::Key(key)) = self.next_token()? else {
            return Ok(None);
        };
        Ok(Some((key, self.next_value()?)))
    }

    /// Inside an array, after its `[` or an item's whole value: the next
    /// item's first token, or `None` once the array closes.
    #[inline(always)]
    pub fn item(&mut self) -> Result<Option<Token<'a>>, String> {
        Ok(self.next_token()?.filter(|token| *token != Token::EndArray))
    }

    /// Finishes the value `first` began — nothing to do for a scalar,
    /// everything up to the matching close for `{` or `[` — and returns
    /// the value's source text.
    #[inline(always)]
    pub fn skip(&mut self, first: Token<'a>) -> Result<&'a str, String> {
        let start = self.start;
        if matches!(first, Token::BeginObject | Token::BeginArray) {
            let outer = self.depth.saturating_sub(1);
            while self.depth > outer {
                self.next_token()?;
            }
        }
        Ok(&self.src[start..self.pos])
    }

    /// Requires the document to be complete: only whitespace may remain.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.next_token()? {
            None => Ok(()),
            Some(_) => Err(format!("document continues at byte {}", self.start)),
        }
    }

    #[inline(always)]
    fn step(&mut self) -> Result<Option<Token<'a>>, String> {
        self.skip_ws();
        self.start = self.pos;
        let token = match self.state {
            State::Value => self.value()?,
            State::FirstItem if self.peek() == Some(b']') => self.close(Token::EndArray),
            State::FirstItem => self.value()?,
            State::FirstKey if self.peek() == Some(b'}') => self.close(Token::EndObject),
            State::FirstKey => self.key()?,
            State::AfterValue => {
                let object = (self.objects >> (self.depth - 1)) & 1 == 1;
                match (self.peek(), object) {
                    (Some(b','), _) => {
                        self.pos += 1;
                        self.skip_ws();
                        self.start = self.pos;
                        if object {
                            self.key()?
                        } else {
                            self.value()?
                        }
                    }
                    (Some(b'}'), true) => self.close(Token::EndObject),
                    (Some(b']'), false) => self.close(Token::EndArray),
                    (_, true) => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    (_, false) => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
            State::Done if self.pos == self.src.len() => return Ok(None),
            State::Done => return Err(format!("trailing garbage at byte {}", self.pos)),
            State::Failed => {
                return Err(format!("read past an error (byte {})", self.pos));
            }
        };
        Ok(Some(token))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    /// The state after a complete value at the current depth.
    fn completed(&mut self) {
        self.state = if self.depth == 0 {
            State::Done
        } else {
            State::AfterValue
        };
    }

    #[inline(always)]
    fn value(&mut self) -> Result<Token<'a>, String> {
        let token = match self.peek() {
            Some(b'{') => return self.open(true),
            Some(b'[') => return self.open(false),
            Some(b'"') => Token::Str(self.string()?),
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b'-' | b'0'..=b'9') => Token::Number(self.number()?),
            Some(other) => {
                return Err(format!(
                    "unexpected byte '{}' at {}",
                    char::from(other),
                    self.pos
                ))
            }
            None => return Err("unexpected end of input".to_string()),
        };
        self.completed();
        Ok(token)
    }

    /// Opens an object or array, refusing to hold more than
    /// [`MAX_DEPTH`] of them open at once.
    fn open(&mut self, object: bool) -> Result<Token<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        let bit = 1u64 << self.depth;
        self.objects = if object {
            self.objects | bit
        } else {
            self.objects & !bit
        };
        self.depth += 1;
        self.pos += 1;
        if object {
            self.state = State::FirstKey;
            Ok(Token::BeginObject)
        } else {
            self.state = State::FirstItem;
            Ok(Token::BeginArray)
        }
    }

    fn close(&mut self, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth -= 1;
        self.completed();
        token
    }

    #[inline(always)]
    fn key(&mut self) -> Result<Token<'a>, String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.state = State::Value;
        Ok(Token::Key(key))
    }

    fn literal(&mut self, text: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.src.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(token)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    #[inline(always)]
    fn string(&mut self) -> Result<Str<'a>, String> {
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut escaped = false;
        loop {
            // Multi-byte UTF-8 passes through: the input is a `str`, and the
            // string only ever ends at an ASCII quote.
            let Some(run) = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err("unterminated string".to_string());
            };
            self.pos += run;
            if bytes[self.pos] == b'"' {
                break;
            }
            self.pos += 1;
            unescape(bytes, &mut self.pos)?;
            escaped = true;
        }
        let raw = self
            .src
            .get(start..self.pos)
            .ok_or_else(|| "invalid UTF-8 run".to_string())?;
        self.pos += 1;
        Ok(Str { raw, escaped })
    }

    #[inline(always)]
    fn number(&mut self) -> Result<f64, String> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let negative = bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut int = 0u64;
        while let Some(&d @ b'0'..=b'9') = bytes.get(self.pos) {
            int = int.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        // A bare integer of at most 15 digits is below 2^53, so its exact
        // value is what `f64::from_str` returns for the same text.
        let bare = !matches!(bytes.get(self.pos), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if bare && (1..=15).contains(&(self.pos - digits)) {
            let n = int as f64;
            return Ok(if negative { -n } else { n });
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

/// Decodes the escape whose backslash sits just before `bytes[*pos]`,
/// advancing `pos` past it.
fn unescape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let escaped = *bytes
        .get(*pos)
        .ok_or_else(|| "unterminated escape".to_string())?;
    *pos += 1;
    Ok(match escaped {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'b' => '\u{8}',
        b'f' => '\u{c}',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'u' => {
            let hex = bytes
                .get(*pos..*pos + 4)
                .ok_or_else(|| "truncated \\u escape".to_string())?;
            let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape".to_string())?;
            let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex}"))?;
            *pos += 4;
            // Surrogates (paired or lone) are out of scope for the
            // telemetry schema; reject them.
            char::from_u32(code).ok_or_else(|| format!("invalid codepoint \\u{hex}"))?
        }
        other => return Err(format!("unknown escape '\\{}'", char::from(other))),
    })
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
            assert_eq!(validate(bad), parse(bad).map(|_| ()), "{bad:?}");
        }
    }

    #[test]
    fn errors_name_the_byte_and_reason() {
        for (bad, want) in [
            ("", "unexpected end of input"),
            ("{\"a\":1,}", "expected '\"' at byte 7"),
            ("[1,]", "unexpected byte ']' at 3"),
            ("[1 2]", "expected ',' or ']' at byte 3"),
            ("{\"a\":1 \"b\"}", "expected ',' or '}' at byte 7"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("nul", "bad literal at byte 0"),
            ("[1.2.3]", "bad number '1.2.3' at byte 1"),
            ("{} x", "trailing garbage at byte 3"),
            ("\"\\u12xy\"", "bad \\u escape 12xy"),
            ("\"\\u12", "truncated \\u escape"),
            ("\"\\ud800\"", "invalid codepoint \\ud800"),
            ("\"\\x\"", "unknown escape '\\x'"),
            ("\"abc", "unterminated string"),
        ] {
            assert_eq!(parse(bad), Err(want.to_string()), "{bad:?}");
            assert_eq!(validate(bad), Err(want.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn escape_uses_short_forms_and_unicode_for_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("π\u{1f}x"), "\"π\\u001fx\"");
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
        assert!(validate(&at_limit).is_ok());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
        for deep in [
            format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1)),
            "[".repeat(60_000),
            "{\"a\":".repeat(60_000),
        ] {
            let err = parse(&deep).expect_err("too deep");
            assert!(err.contains("nesting deeper than"), "{err}");
            assert_eq!(validate(&deep), Err(err));
        }
    }

    #[test]
    fn parse_lines_reports_the_failing_line() {
        let good = "{\"a\":1}\n\n{\"b\":2}\n";
        assert_eq!(parse_lines(good).expect("jsonl").len(), 2);
        assert_eq!(validate_lines(good), Ok(()));
        let bad = "{\"a\":1}\nnot json\n";
        let err = parse_lines(bad).expect_err("must fail");
        assert!(err.starts_with("line 2:"), "{err}");
        assert_eq!(validate_lines(bad), Err(err));
    }

    #[test]
    fn reader_yields_tokens_and_borrows_plain_strings() {
        let doc = r#" {"k":[1,"a\nb",true,null],"o":{}} "#;
        let mut reader = Reader::new(doc);
        let mut tokens = Vec::new();
        while let Some(token) = reader.next_token().expect("valid") {
            tokens.push(token);
        }
        assert_eq!(tokens.len(), 12);
        assert_eq!(tokens[0], Token::BeginObject);
        let Token::Key(key) = tokens[1] else {
            panic!("{:?}", tokens[1])
        };
        assert!(matches!(key.get(), Cow::Borrowed("k")));
        assert_eq!(tokens[3], Token::Number(1.0));
        let Token::Str(escaped) = tokens[4] else {
            panic!("{:?}", tokens[4])
        };
        assert!(matches!(escaped.get(), Cow::Owned(s) if s == "a\nb"));
        assert_eq!(tokens[11], Token::EndObject);
        assert_eq!(reader.next_token(), Ok(None), "stays complete");
    }

    #[test]
    fn reader_fails_for_good_after_an_error() {
        let mut reader = Reader::new("[1,]");
        assert!(reader.next_token().is_ok());
        assert!(reader.next_token().is_ok());
        assert!(reader.next_token().is_err());
        assert!(reader.next_token().is_err());
    }

    #[test]
    fn members_hand_over_values_and_container_text() {
        let doc = r#"{"a":1,"b":[ [2,"x"] ],"a":"last","c":{"d":null}}"#;
        let mut seen = Vec::new();
        let object = members(doc, |key, value, text| {
            seen.push((key.get().into_owned(), value, text));
        })
        .expect("valid");
        assert!(object);
        let keys: Vec<&str> = seen.iter().map(|(k, _, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "a", "c"]);
        assert_eq!(seen[1].1, Token::BeginArray);
        assert_eq!(seen[1].2, r#"[ [2,"x"] ]"#);
        assert_eq!(seen[3].2, r#"{"d":null}"#);
        assert_eq!(
            members("[1,{}]", |_, _, _| panic!("not an object")),
            Ok(false)
        );
        assert!(members(r#"{"a":1} x"#, |_, _, _| {}).is_err());
        assert!(members(r#"{"a":[1,}"#, |_, _, _| {}).is_err());
    }
}
