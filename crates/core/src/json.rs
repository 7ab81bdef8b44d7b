//! A minimal, dependency-free JSON value: parser and writer.
//!
//! The build environment has no crates.io access (see `DESIGN.md` §Offline
//! builds), so the scenario files and run-report artifacts are handled by
//! this ~300-line module instead of serde. It supports the full JSON data
//! model except exotic number forms (`NaN`/`Infinity` are rejected on
//! write); object key order is preserved, which keeps artifacts diffable.

use fncc_obs::trace::write_escaped;
use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; integers below 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field by key (objects only).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64 (numbers only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as u64: non-negative integral numbers below 2^53, or the
    /// decimal string form [`num_u64`] emits for values JSON's f64 number
    /// model cannot hold exactly. A number at or above 2^53 reads as `None`:
    /// it may already have been rounded to a neighbouring integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < EXACT_INT_LIMIT as f64 => {
                Some(*x as u64)
            }
            Json::Str(s) if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) => {
                s.parse().ok()
            }
            _ => None,
        }
    }

    /// The value as &str (strings only).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as bool (booleans only).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice (arrays only).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * d));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                assert!(x.is_finite(), "non-finite number in JSON output");
                if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                pad(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Errors carry a byte offset and a description.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// 2^53: every integer below it is an exact f64, but 2^53 + 1 parses as
/// 2^53, so a JSON number from here on may not be the integer written.
pub(crate) const EXACT_INT_LIMIT: u64 = 1 << 53;

/// A u64 as a lossless JSON value. Values below 2^53 are exact f64s and
/// emit as plain numbers; larger ones (total wire bytes at fleet scale)
/// would silently corrupt a round-trip through the f64 number model, so
/// they emit as decimal strings instead — [`Json::as_u64`] reads both
/// forms back, and no value aborts the run.
pub fn num_u64(x: u64) -> Json {
    if x < EXACT_INT_LIMIT {
        Json::Num(x as f64)
    } else {
        Json::Str(x.to_string())
    }
}

/// Convenience: build an object from pairs.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our
                            // artifacts; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_value_kinds() {
        let v = obj([
            ("null", Json::Null),
            ("flag", Json::Bool(true)),
            ("int", Json::Num(42.0)),
            ("neg", Json::Num(-7.5)),
            ("text", Json::Str("a \"quoted\"\nline".into())),
            (
                "arr",
                Json::Arr(vec![Json::Num(1.0), Json::Bool(false), Json::Null]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v, "roundtrip of {text}");
        }
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = Json::parse(" { \"a\" : [ { \"b\" : [ 1 , 2 ] } ] } ").unwrap();
        let inner = &v.get("a").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            inner.get("b").unwrap().as_arr().unwrap(),
            &[Json::Num(1.0), Json::Num(2.0)]
        );
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(1e15).to_string_compact(), "1000000000000000");
        assert_eq!(Json::Num(0.25).to_string_compact(), "0.25");
    }

    #[test]
    fn as_u64_guards() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(-3.0).as_u64(), None);
        assert_eq!(Json::Num(3.5).as_u64(), None);
        // 2^53 + 1 parses as 2^53: no number from 2^53 on is trusted.
        let edge = EXACT_INT_LIMIT as f64;
        assert_eq!(Json::Num(edge - 1.0).as_u64(), Some(EXACT_INT_LIMIT - 1));
        assert_eq!(Json::parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(Json::Num(edge).as_u64(), None);
        assert_eq!(Json::Str("3".into()).as_u64(), Some(3));
        assert_eq!(Json::Str("".into()).as_u64(), None);
        assert_eq!(Json::Str("-3".into()).as_u64(), None);
        assert_eq!(Json::Str("3.5".into()).as_u64(), None);
        assert_eq!(Json::Str("not a number".into()).as_u64(), None);
    }

    #[test]
    fn num_u64_is_lossless_at_any_magnitude() {
        // Exact f64 range: plain numbers.
        let below = EXACT_INT_LIMIT - 1;
        assert_eq!(num_u64(below), Json::Num(below as f64));
        assert_eq!(num_u64(below).as_u64(), Some(below));
        assert_eq!(num_u64(0).to_string_compact(), "0");
        // From 2^53 on (fleet-scale wire-byte totals): decimal strings,
        // round-tripping exactly instead of aborting the run.
        for big in [EXACT_INT_LIMIT, EXACT_INT_LIMIT + 1] {
            assert_eq!(num_u64(big), Json::Str(big.to_string()));
            assert_eq!(num_u64(big).as_u64(), Some(big));
        }
        assert_eq!(num_u64(u64::MAX).as_u64(), Some(u64::MAX));
        let reparsed = Json::parse(&num_u64(u64::MAX).to_string_compact()).unwrap();
        assert_eq!(reparsed.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "\"unterminated",
            "truu",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn preserves_key_order() {
        let v = Json::parse("{\"z\":1,\"a\":2,\"m\":3}").unwrap();
        match v {
            Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, vec!["z", "a", "m"]);
            }
            _ => panic!("not an object"),
        }
    }
}
