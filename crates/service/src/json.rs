//! Self-contained JSON reader and writer.
//!
//! The workspace's serde shim is deliberately a no-op (the build environment
//! has no crates.io access), so the service speaks JSON through this module
//! instead: a small value tree ([`Json`]), a full-grammar parser
//! ([`parse`]) and a **deterministic** writer ([`Json::render`]).
//!
//! Determinism matters more here than in most JSON emitters: the result
//! cache stores rendered bodies and promises byte-identical replays, so the
//! writer must be a pure function of the value tree. Object members keep
//! their insertion order, numbers are rendered with Rust's shortest-round-trip
//! `f64` formatting, and no whitespace is emitted.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed or constructed JSON value.
///
/// Objects preserve member insertion order (unlike a `BTreeMap`-backed
/// value), which is what makes rendered responses reproducible
/// field-for-field — the foundation of the byte-identical cache contract.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which every payload here fits).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in member insertion order. Duplicate keys are rejected at
    /// parse time and must not be constructed.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Builds a number value from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Number(n.into())
    }

    /// Builds a number value from a `u64` count.
    ///
    /// Counts above 2⁵³ cannot be represented exactly in a JSON number; the
    /// payloads here (trial counts, state-space sizes, cache statistics)
    /// stay far below that.
    pub fn count(n: u64) -> Json {
        Json::Number(n as f64)
    }

    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn object(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks a key up in an object (first match; parse rejects duplicates).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the object members, or an error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(members) => Ok(members),
            other => Err(format!("{what}: expected object, got {}", other.kind())),
        }
    }

    /// Returns the array items, or an error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!("{what}: expected array, got {}", other.kind())),
        }
    }

    /// Returns the string content, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {}", other.kind())),
        }
    }

    /// Returns the number, or an error naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Number(n) => Ok(*n),
            other => Err(format!("{what}: expected number, got {}", other.kind())),
        }
    }

    /// Returns the number as a non-negative integer, or an error naming
    /// `what`. The bound is exclusive: `u64::MAX as f64` rounds up to 2⁶⁴,
    /// which no `u64` holds, so the largest accepted value is 2⁶⁴ − 2048.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        let n = self.as_f64(what)?;
        if n.fract() != 0.0 || !(0.0..u64::MAX as f64).contains(&n) {
            return Err(format!("{what}: expected a non-negative integer, got {n}"));
        }
        Ok(n as u64)
    }

    /// Returns the boolean, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {}", other.kind())),
        }
    }

    /// A short name of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Renders the value as compact JSON.
    ///
    /// The output is a pure function of the value: insertion-ordered
    /// members, shortest-round-trip number formatting, no whitespace.
    /// Non-finite numbers (which JSON cannot represent) render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Number(_) => out.push_str("null"),
            Json::String(s) => render_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable message naming the byte offset of the problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

/// Maximum nesting depth the parser accepts; requests deeper than this are
/// hostile or broken, and a recursion limit keeps them from overflowing the
/// connection thread's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members: Vec<(String, Json)> = Vec::new();
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(members));
        }
        loop {
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(format!("duplicate object key `{key}`"));
            }
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(members));
                }
                other => return Err(format!("expected `,` or `}}`, got `{}`", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected `,` or `]`, got `{}`", other as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let byte = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let escape = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let unit = self.utf16_unit()?;
                            let code = if (0xD800..0xDC00).contains(&unit) {
                                // A high surrogate must pair with a low one
                                // (RFC 8259 strings carry UTF-16 escapes).
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err("unpaired \\u surrogate".to_string());
                                }
                                self.pos += 2;
                                let low = self.utf16_unit()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low \\u surrogate".to_string());
                                }
                                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                unit
                            };
                            out.push(char::from_u32(code).ok_or("invalid \\u escape codepoint")?);
                        }
                        other => return Err(format!("invalid escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let start = self.pos - 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    /// Reads the 4 hex digits of a `\u` escape as one UTF-16 code unit.
    fn utf16_unit(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let unit = u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_renders_round_trip() {
        let text = r#"{"b":1,"a":[true,null,"x\ny",2.5],"c":{"nested":-3e2}}"#;
        let value = parse(text).unwrap();
        // Insertion order survives: `b` stays before `a`.
        assert_eq!(
            value.render(),
            r#"{"b":1,"a":[true,null,"x\ny",2.5],"c":{"nested":-300}}"#
        );
        let again = parse(&value.render()).unwrap();
        assert_eq!(value, again);
    }

    #[test]
    fn rendering_is_deterministic() {
        let value = Json::object([
            ("z", Json::count(3)),
            ("a", Json::str("hello")),
            ("list", Json::Array(vec![Json::num(0.1), Json::Bool(false)])),
        ]);
        assert_eq!(value.render(), r#"{"z":3,"a":"hello","list":[0.1,false]}"#);
        assert_eq!(value.render(), value.clone().render());
    }

    #[test]
    fn shortest_float_formatting_round_trips() {
        for n in [0.1f64, 1.0, 1e-9, 123456.789, 2f64.powi(60)] {
            let rendered = Json::num(n).render();
            assert_eq!(rendered.parse::<f64>().unwrap(), n, "{rendered}");
        }
        // Integral floats render without a decimal point.
        assert_eq!(Json::num(4.0).render(), "4");
        // Non-finite numbers degrade to null instead of emitting invalid JSON.
        assert_eq!(Json::num(f64::NAN).render(), "null");
    }

    #[test]
    fn typed_accessors_name_the_field() {
        let value = parse(r#"{"n":3.5,"s":"x","flag":true,"list":[1]}"#).unwrap();
        assert_eq!(value.get("s").unwrap().as_str("s").unwrap(), "x");
        assert_eq!(value.get("n").unwrap().as_f64("n").unwrap(), 3.5);
        assert!(value
            .get("n")
            .unwrap()
            .as_u64("n")
            .unwrap_err()
            .contains("n"));
        assert!(value
            .get("s")
            .unwrap()
            .as_f64("s")
            .unwrap_err()
            .contains("string"));
        assert!(value.get("flag").unwrap().as_bool("flag").unwrap());
        assert_eq!(
            value.get("list").unwrap().as_array("list").unwrap().len(),
            1
        );
        assert!(value.get("missing").is_none());
    }

    #[test]
    fn as_u64_refuses_two_to_the_sixty_four() {
        // 2⁶⁴ is `u64::MAX as f64`; it used to saturate to u64::MAX.
        for text in ["18446744073709551616", "18446744073709551615", "1e20"] {
            let err = parse(text).unwrap().as_u64("cap").unwrap_err();
            assert!(err.starts_with("cap: "), "{text}: {err}");
        }
        // The largest f64 below 2⁶⁴ is still a u64.
        let largest = parse("18446744073709549568").unwrap();
        assert_eq!(largest.as_u64("cap").unwrap(), 18_446_744_073_709_549_568);
        assert_eq!(parse("0").unwrap().as_u64("cap").unwrap(), 0);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "tru",
            "\"unterminated",
            "01x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_code_point() {
        // 😀 escaped the way ASCII-only serialisers emit it.
        let value = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(value, Json::str("\u{1F600}"));
        // The raw UTF-8 form decodes to the same value.
        assert_eq!(parse("\"\u{1F600}\"").unwrap(), value);
        // Lone or malformed surrogates are rejected, not mangled.
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83dx""#).is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn escapes_control_characters() {
        let value = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(value.render(), r#""a\"b\\c\nd\u0001""#);
        assert_eq!(parse(&value.render()).unwrap(), value);
    }
}
