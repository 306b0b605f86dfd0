//! A minimal JSON reader/writer for the workspace's own artifacts.
//!
//! This is not a general-purpose JSON library: it exists so the JSONL
//! event log and the serve endpoints (`/statz`, `/readyz`, `/driftz`) can
//! be parsed back strictly in tests and tooling without an external
//! dependency. It accepts exactly RFC 8259 JSON (no comments, no
//! trailing commas, no NaN literals) and preserves object key order.

use std::fmt::Write as _;

/// A parsed JSON value. Numbers are `f64` (integers up to 2^53 survive
/// exactly); object entries keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number
    Num(f64),
    /// A string
    Str(String),
    /// An array
    Arr(Vec<Json>),
    /// An object, in source key order
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact nonnegative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos.saturating_sub(1)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|s| std::str::from_utf8(s).ok())
            .unwrap_or("");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        // Surrogate pair handling: a high surrogate must be
                        // followed by \uXXXX with a low surrogate.
                        if (0xD800..0xDC00).contains(&code) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err("lone high surrogate".to_string());
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".to_string());
                            }
                            let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                        } else {
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos)),
                },
                Some(b) if b < 0x20 => return Err("raw control char in string".to_string()),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(first) => {
                    // Re-decode the UTF-8 sequence starting at `first`.
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err("invalid UTF-8 in string".to_string()),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| "invalid UTF-8 in string".to_string())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.bump().and_then(|b| (b as char).to_digit(16));
            match d {
                Some(d) => code = code * 16 + d,
                None => return Err("bad \\u escape".to_string()),
            }
        }
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(entries)),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes `s` for inclusion inside a JSON string literal (no quotes
/// added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::float_cmp, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".to_string()));
        let doc = Json::parse(r#"{"k":[1,2,{"x":"y"}],"z":null}"#).unwrap();
        assert_eq!(doc.get("k").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("z"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\"", "{\"a\" 1}", "nan"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_and_surrogates_round_trip() {
        assert_eq!(Json::parse("\"\\u00e9\"").unwrap(), Json::Str("é".to_string()));
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".to_string()));
        assert_eq!(Json::parse("\"π≈3\"").unwrap(), Json::Str("π≈3".to_string()));
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone surrogate");
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let round = Json::parse(&format!("\"{}\"", escape("x\t\"\\\u{2}y"))).unwrap();
        assert_eq!(round, Json::Str("x\t\"\\\u{2}y".to_string()));
    }

    #[test]
    fn u64_extraction_is_exact_for_integers() {
        assert_eq!(Json::parse("12345").unwrap().as_u64(), Some(12345));
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
    }
}
