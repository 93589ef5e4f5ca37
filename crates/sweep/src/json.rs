//! Minimal hand-rolled JSON: a writer for `BENCH_sweep.json`, a syntax
//! validator for smoke checks, and a value-constructing [`parse`] used by
//! the sweep's `--compare` trajectory diff — the container is offline, so
//! no serde.
//!
//! The writer is deliberately deterministic: object keys render in
//! insertion order, floats use Rust's shortest round-trip `Display` (never
//! scientific notation, so any JSON parser accepts them), and non-finite
//! floats — which the sweep never produces from healthy runs — render as
//! `null` rather than corrupting the document.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer, rendered without a decimal point.
    Int(i64),
    /// An unsigned integer (seeds are full-range u64; `as i64` would wrap
    /// them negative).
    UInt(u64),
    /// A float, rendered with shortest round-trip `Display`; non-finite
    /// values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object members.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int`, `UInt` and `Num` all read as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Unsigned view of non-negative integers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the tree as a compact JSON document plus newline-free
    /// pretty indentation (2 spaces), stable across runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the limit keeps hostile input from overflowing the
/// stack; the documents this crate writes nest 8 deep.
pub const MAX_DEPTH: usize = 128;

/// Validates that `text` is one syntactically well-formed JSON document
/// (RFC 8259 grammar) nesting at most [`MAX_DEPTH`] deep. Returns the byte
/// offset and reason of the first error.
pub fn validate(text: &str) -> Result<(), String> {
    parse(text).map(|_| ())
}

/// Parses `text` into a [`Json`] value tree (RFC 8259 grammar). Numbers
/// without a fraction or exponent that fit an integer parse as
/// [`Json::UInt`] / [`Json::Int`]; everything else numeric becomes
/// [`Json::Num`]. Arrays and objects nested deeper than [`MAX_DEPTH`] are
/// an error. Returns the byte offset and reason of the first error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        b: text.as_bytes(),
        at: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != text.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    b: &'a [u8],
    at: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object a level deeper, up to [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => {
                            s.push(c as char);
                            self.at += 1;
                        }
                        Some(b'b') => {
                            s.push('\u{8}');
                            self.at += 1;
                        }
                        Some(b'f') => {
                            s.push('\u{c}');
                            self.at += 1;
                        }
                        Some(b'n') => {
                            s.push('\n');
                            self.at += 1;
                        }
                        Some(b'r') => {
                            s.push('\r');
                            self.at += 1;
                        }
                        Some(b't') => {
                            s.push('\t');
                            self.at += 1;
                        }
                        Some(b'u') => {
                            self.at += 1;
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // surrogate pair: a low surrogate must follow
                                self.literal("\\u")
                                    .map_err(|_| self.err("lone high surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // copy the whole run up to the next quote, escape or
                    // control byte: all three are ASCII, so the run ends on
                    // a char boundary of the (valid UTF-8) input
                    let start = self.at;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.at += 1;
                    }
                    s.push_str(&self.text[start..self.at]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            match self.peek() {
                Some(c) if c.is_ascii_hexdigit() => {
                    v = v * 16 + (c as char).to_digit(16).unwrap();
                    self.at += 1;
                }
                _ => return Err(self.err("bad \\u escape")),
            }
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.at += 1;
        }
        let digits = |p: &mut Self| -> Result<(), String> {
            let start = p.at;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.at += 1;
            }
            if p.at == start {
                Err(p.err("expected digits"))
            } else {
                Ok(())
            }
        };
        // integer part: 0 alone or non-zero leading
        match self.peek() {
            Some(b'0') => self.at += 1,
            Some(c) if c.is_ascii_digit() => digits(self)?,
            _ => return Err(self.err("expected a number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.at += 1;
            digits(self)?;
            integral = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            digits(self)?;
            integral = false;
        }
        let text = std::str::from_utf8(&self.b[start..self.at]).unwrap();
        if integral {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_validates_round_trip() {
        let doc = Json::obj(vec![
            ("schema", Json::Str("dvs-sweep/v1".into())),
            ("count", Json::Int(2)),
            ("big", Json::UInt(u64::MAX)),
            ("pi", Json::Num(3.25)),
            ("tiny", Json::Num(1.5e-7)),
            ("nan", Json::Num(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![
                    Json::Int(-1),
                    Json::Str("a\"b\\c\nd".into()),
                    Json::Arr(vec![]),
                ]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = doc.render();
        validate(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(text.contains("\"schema\": \"dvs-sweep/v1\""));
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains("\"big\": 18446744073709551615"));
        // floats never render in scientific notation
        assert!(text.contains("\"tiny\": 0.00000015"));
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::obj(vec![
            ("schema", Json::Str("dvs-sweep/v2".into())),
            ("count", Json::Int(-2)),
            ("big", Json::UInt(u64::MAX)),
            ("pi", Json::Num(3.25)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::UInt(1), Json::Str("a\"b\\c\nd".into())]),
            ),
        ]);
        let back = parse(&doc.render()).expect("rendered documents parse");
        assert_eq!(back, doc);
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("dvs-sweep/v2")
        );
        assert_eq!(back.get("big").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(back.get("pi").and_then(Json::as_f64), Some(3.25));
        assert_eq!(back.get("count").and_then(Json::as_f64), Some(-2.0));
        assert_eq!(
            back.get("items")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(back.get("missing"), None);

        // escapes decode, including surrogate pairs
        assert_eq!(
            parse("\"\\u00e9\\n\\u0041\\ud83d\\ude00\"").unwrap(),
            Json::Str("é\nA😀".into())
        );
        // integer classification: fraction/exponent forces Num
        assert_eq!(parse("1e2").unwrap(), Json::Num(100.0));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert!(parse("\"\\ud83d x\"").is_err(), "lone surrogate accepted");
    }

    #[test]
    fn strings_of_every_utf8_width_round_trip() {
        // 1-, 2-, 3- and 4-byte scalars, runs broken by escapes and control
        // characters, and escapes at both ends of the string
        for text in [
            "",
            "plain ascii",
            "é",
            "€ and ✓",
            "😀",
            "a\u{e9}b\u{20ac}c\u{1f600}d",
            "\"😀\"",
            "\\é\n€\t😀\u{1}",
            "mixed: x=é,y=€;z=😀/\u{7f}\u{8}\u{c}\r",
        ] {
            let doc = Json::Arr(vec![Json::Str(text.into())]);
            let rendered = doc.render();
            assert_eq!(parse(&rendered).as_ref(), Ok(&doc), "{rendered}");
            validate(&rendered).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        }
        // raw (unescaped) multi-byte input parses to the same scalars
        assert_eq!(
            parse("\"é€😀\"").unwrap(),
            Json::Str("\u{e9}\u{20ac}\u{1f600}".into())
        );
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "{} extra",
            "[\"\u{1}\"]",
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn nesting_is_limited_without_overflowing_the_stack() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
        for deep in [arrays(200_000), objects(200_000), arrays(MAX_DEPTH + 1)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
            assert!(validate(&deep).is_err());
        }
        assert!(validate(&objects(MAX_DEPTH + 1)).is_err());
        let mut v = parse(&arrays(MAX_DEPTH)).unwrap();
        for _ in 1..MAX_DEPTH {
            v = v.as_array().unwrap()[0].clone();
        }
        assert_eq!(v, Json::Arr(Vec::new()));
        validate(&objects(MAX_DEPTH)).unwrap();
    }

    #[test]
    fn validator_accepts_standard_documents() {
        for good in [
            "null",
            "-0.5e+10",
            "[]",
            "{}",
            "[1, 2.5, \"x\", {\"k\": [true, false, null]}]",
            "\"\\u00e9\\n\"",
        ] {
            validate(good).unwrap_or_else(|e| panic!("{good:?}: {e}"));
        }
    }
}
