//! Offline stand-in for `serde_json` over the in-tree `serde` shim.
//!
//! Provides the call-surface the hvx workspace uses — [`to_string`],
//! [`to_string_pretty`], [`to_value`], [`from_str`], and [`Value`] with
//! indexing sugar — backed by a deterministic writer (insertion-ordered
//! object keys, stable float formatting) and a strict recursive-descent
//! parser. Determinism matters here: `hvx-repro --jobs N` asserts that
//! parallel artifact JSON is byte-identical to serial output.

pub use serde::{Error, Value};

/// Serializes `value` to the shim's [`Value`] tree.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.serialize())
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize>(value: T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize(), None, 0);
    Ok(out)
}

/// Serializes `value` to a 2-space-indented JSON string (the
/// `serde_json::to_string_pretty` layout).
pub fn to_string_pretty<T: serde::Serialize>(value: T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text and deserializes it into `T`.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::deserialize(&value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        // JSON has no NaN/Infinity; serde_json errors, we degrade to null
        // (no finite simulator quantity produces these).
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e16 {
        // Match serde_json: integral floats keep a trailing `.0`.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U128(n) => out.push_str(&n.to_string()),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (depth + 1)));
                }
                write_value(out, item, indent, depth + 1);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (depth + 1)));
                }
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting the parser accepts. The parser
/// recurses once per level, so without a bound a few kilobytes of
/// `[[[…` exhaust a thread's stack and abort the process; the
/// workspace's own documents nest at most a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

/// Parses a complete JSON document into a [`Value`].
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error::custom(format!("unexpected byte at {}", self.pos))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = std::str::from_utf8(
                                self.bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or_else(|| Error::custom("bad \\u escape"))?,
                            )
                            .map_err(|_| Error::custom("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::custom("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::custom("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s =
                        std::str::from_utf8(rest).map_err(|_| Error::custom("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::custom("invalid number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error::custom("invalid integer"))
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Value::U64(n))
        } else {
            // SIMD register values are wider than 64 bits.
            text.parse::<u128>()
                .map(Value::U128)
                .map_err(|_| Error::custom("invalid integer"))
        }
    }

    /// Parses one array or object a level deeper, refusing documents
    /// nested past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "JSON nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::custom("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let v = Value::Object(vec![
            ("a".into(), Value::U64(1)),
            ("b".into(), Value::Array(vec![Value::F64(1.5), Value::Null])),
            ("c".into(), Value::Str("x\"y".into())),
        ]);
        let s = to_string(&v).unwrap();
        assert_eq!(s, r#"{"a":1,"b":[1.5,null],"c":"x\"y"}"#);
        let back = parse_value(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_matches_serde_json_layout() {
        let v = Value::Object(vec![("k".into(), Value::Array(vec![Value::U64(1)]))]);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"k\": [\n    1\n  ]\n}"
        );
    }

    #[test]
    fn integral_floats_keep_decimal_point() {
        let mut s = String::new();
        write_f64(&mut s, 2.0);
        assert_eq!(s, "2.0");
        let mut s = String::new();
        write_f64(&mut s, 0.1);
        assert_eq!(s, "0.1");
    }

    #[test]
    fn negative_and_float_numbers_parse() {
        assert_eq!(parse_value("-3").unwrap(), Value::I64(-3));
        assert_eq!(parse_value("2.5e1").unwrap(), Value::F64(25.0));
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}0{}", r#"{"a":"#.repeat(n), "}".repeat(n));
        assert!(parse_value(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse_value(&objects(MAX_DEPTH)).is_ok());
        assert!(parse_value(&arrays(MAX_DEPTH + 1)).is_err());
        // Deep enough to overflow any thread's stack without the cap;
        // an unterminated prefix must fail the same way.
        for doc in [arrays(100_000), objects(100_000), "[".repeat(100_000)] {
            let err = parse_value(&doc).unwrap_err();
            assert!(err.to_string().contains("nested deeper"), "{err}");
        }
    }
}
