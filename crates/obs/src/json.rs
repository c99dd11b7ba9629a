//! The workspace's one JSON reader, and [`escape`], the one string escaper
//! every JSON writer in the workspace uses.
//!
//! [`Cursor`] is a pull lexer. A reader that knows its grammar walks it and
//! builds no tree (the `/v1/infer` decoder in `tssa-net`); [`parse`] builds a
//! [`JsonValue`] tree on it for everything else. Numbers follow the JSON
//! grammar (`01`, `1.`, `.5`, `+1`, `inf` are refused), `\uXXXX` surrogate
//! halves decode as replacement characters, and nesting is capped by the
//! caller (128 levels in [`parse`]), so no input can exhaust the stack.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Key order is not kept; a repeated key keeps its last value.
    Obj(HashMap<String, JsonValue>),
}

impl JsonValue {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Lets `?` carry a lexer error out of a reader whose errors are strings.
impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts.
const MAX_DEPTH: usize = 128;

/// Escape `s` for inclusion in a JSON string literal: quote, backslash and
/// every control character, the common ones by their short escape.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut c = Cursor::new(text);
    let value = tree(&mut c, MAX_DEPTH)?;
    c.end().map(|()| value)
}

/// One value and everything under it, opening at most `depth` more levels.
fn tree(c: &mut Cursor<'_>, depth: usize) -> Result<JsonValue, JsonError> {
    match c.peek() {
        Some(b'{' | b'[') if depth == 0 => {
            Err(c.error(format!("nesting exceeds {MAX_DEPTH} levels")))
        }
        Some(b'{') => {
            let (mut map, mut more) = (HashMap::new(), c.open(b'{', b'}')?);
            while more {
                let key = c.key()?.into_owned();
                map.insert(key, tree(c, depth - 1)?);
                more = c.more(b'}')?;
            }
            Ok(JsonValue::Obj(map))
        }
        Some(b'[') => {
            let (mut items, mut more) = (Vec::new(), c.open(b'[', b']')?);
            while more {
                items.push(tree(c, depth - 1)?);
                more = c.more(b']')?;
            }
            Ok(JsonValue::Arr(items))
        }
        Some(b'"') => Ok(JsonValue::Str(c.string()?.into_owned())),
        Some(b't' | b'f') => c.bool().map(JsonValue::Bool),
        _ if c.literal("null") => Ok(JsonValue::Null),
        _ => c.parsed("a number").map(JsonValue::Num),
    }
}

/// A pull cursor over one JSON text. Each method consumes one production
/// and returns it typed; whitespace before a token is skipped. `Copy`, so a
/// reader can keep a position and come back to it.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `src`.
    #[inline]
    pub fn new(src: &'a str) -> Cursor<'a> {
        Cursor { src, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.src.len() - self.pos
    }

    #[inline]
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    /// The next byte after any whitespace, not consumed.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Consume `byte` if it comes next.
    #[inline]
    pub fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume `byte`, which must come next.
    #[inline]
    pub fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        let hit = self.eat(byte).then_some(());
        hit.ok_or_else(|| self.error(format!("expected `{}`", byte as char)))
    }

    /// Consume the bare word `word` (`true`, `false`, `null`) if it comes next.
    #[inline]
    pub fn literal(&mut self, word: &str) -> bool {
        self.peek();
        let hit = self.src.as_bytes()[self.pos..].starts_with(word.as_bytes());
        self.pos += if hit { word.len() } else { 0 };
        hit
    }

    /// Enter an array or object; `false` when it is empty (and now closed).
    #[inline]
    pub fn open(&mut self, open: u8, close: u8) -> Result<bool, JsonError> {
        self.expect(open)?;
        Ok(!self.eat(close))
    }

    /// After an item: `true` past a comma, `false` past the `close`.
    /// Inlined with [`Cursor::number`] into a per-element loop: as calls,
    /// each would hand its `Result` back through memory.
    #[inline(always)]
    pub fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        let more = self.eat(b',');
        let closed = more || self.eat(close);
        closed
            .then_some(more)
            .ok_or_else(|| self.error(format!("expected `,` or `{}`", close as char)))
    }

    /// An object key and its `:`.
    #[inline]
    pub fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let key = self.string()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// Validate and step over one value of any type, opening at most `cap`
    /// levels of arrays and objects.
    #[inline]
    pub fn skip(&mut self, cap: u32) -> Result<(), JsonError> {
        let (open, close) = match self.peek() {
            Some(b'{' | b'[') if cap == 0 => return Err(self.error("nesting exceeds the cap")),
            Some(b'{') => (b'{', b'}'),
            Some(b'[') => (b'[', b']'),
            Some(b'"') => return self.string().map(drop),
            _ if self.literal("true") || self.literal("false") || self.literal("null") => {
                return Ok(())
            }
            _ => return self.number().map(drop),
        };
        let mut more = self.open(open, close)?;
        while more {
            if open == b'{' {
                self.key()?;
            }
            self.skip(cap - 1)?;
            more = self.more(close)?;
        }
        Ok(())
    }

    /// A string, borrowed from the text unless it holds an escape.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        let mut out = Cow::Borrowed("");
        // Start of the run of unescaped bytes not yet copied into `out`.
        let mut run = self.pos;
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.error("expected closing `\"`")),
                Some(b'"') => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match out {
                        Cow::Borrowed(_) => Cow::Borrowed(tail),
                        Cow::Owned(s) => Cow::Owned(s + tail),
                    });
                }
                Some(b'\\') => {
                    out.to_mut().push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    let c = match bytes.get(self.pos) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => c as char,
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let code = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| {
                                    self.error("expected four hex digits after `\\u`")
                                })?;
                            self.pos += 4;
                            // Surrogate halves decode as replacement characters.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.error("expected an escape character")),
                    };
                    out.to_mut().push(c);
                    self.pos += 1;
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// One number token, checked against the JSON grammar before anything
    /// parses it: `str::parse` alone would also take `inf`, `nan`, `+1`,
    /// `.5`, `01` and `1.`.
    #[inline(always)]
    pub fn number(&mut self) -> Result<&'a str, JsonError> {
        self.peek();
        let bytes = self.src.as_bytes();
        let digits = |at: &mut usize| {
            let from = *at;
            while matches!(bytes.get(*at), Some(b'0'..=b'9')) {
                *at += 1;
            }
            *at - from
        };
        let mut at = self.pos + usize::from(bytes.get(self.pos) == Some(&b'-'));
        let leading_zero = bytes.get(at) == Some(&b'0');
        let mut ok = matches!(digits(&mut at), n if n == 1 || (n > 1 && !leading_zero));
        if bytes.get(at) == Some(&b'.') {
            at += 1;
            ok &= digits(&mut at) > 0;
        }
        if matches!(bytes.get(at), Some(b'e' | b'E')) {
            at += 1 + usize::from(matches!(bytes.get(at + 1), Some(b'+' | b'-')));
            ok &= digits(&mut at) > 0;
        }
        if !ok {
            return Err(self.error("expected a number"));
        }
        let token = &self.src[self.pos..at];
        self.pos = at;
        Ok(token)
    }

    /// A number of type `T`, named `kind` in the error. An integer `T` is
    /// exact: it never goes through `f64`, so a fraction, an exponent or a
    /// magnitude outside `T` is an error, not a rounding.
    #[inline]
    pub fn parsed<T: FromStr>(&mut self, kind: &str) -> Result<T, JsonError> {
        let token = self.number()?;
        let value = token.parse();
        value.map_err(|_| self.error(format!("`{token}` is not {kind}")))
    }

    /// A float, or `null` — how the workspace's encoders spell the
    /// non-finite values JSON has no literal for — decoded as `nan`.
    #[inline]
    pub fn float<F: FromStr>(&mut self, nan: F) -> Result<F, JsonError> {
        if self.literal("null") {
            return Ok(nan);
        }
        self.parsed("a number")
    }

    /// `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        let hit = self.literal("true");
        let known = hit || self.literal("false");
        known
            .then_some(hit)
            .ok_or_else(|| self.error("expected `true` or `false`"))
    }

    /// Nothing but whitespace is left.
    #[inline]
    pub fn end(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters after the document")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_control_characters_parse_back() {
        let raw: String = (0u8..0x20)
            .map(char::from)
            .chain(['"', '\\', '/', 'é', '\u{7f}'])
            .collect();
        let text = format!("\"{}\"", escape(&raw));
        assert_eq!(parse(&text), Ok(JsonValue::Str(raw)), "{text}");
    }

    #[test]
    fn parses_nested_document() {
        let doc = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y"}, "d": null, "e": true}"#)
            .expect("parses");
        assert_eq!(
            doc.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(
            doc.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_str),
            Some("x\"y")
        );
        assert_eq!(doc.get("d"), Some(&JsonValue::Null));
        assert_eq!(doc.get("e"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{}x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past_cap).unwrap_err().message.contains("nesting"));
        for bomb in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            assert!(parse(&bomb).unwrap_err().message.contains("nesting"));
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse("\"\\u0041\\n\"").unwrap().as_str(), Some("A\n"));
    }
}
