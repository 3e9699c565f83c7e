//! A minimal, dependency-free JSON parser for telemetry JSON-lines files.
//!
//! The workspace vendors no serde, so the `pdn report` subsystem parses the
//! sink format itself. The parser accepts full JSON (nested objects,
//! arrays, escapes, scientific numbers), not just the flat records the
//! telemetry writer emits today, so the reader side never has to chase the
//! writer's schema.

use pdn_core::telemetry::write_json_str;
use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; telemetry stays well inside the
    /// 2^53 integer-exact range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved; telemetry records never
    /// repeat keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.get(key)
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number representing
    /// one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
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

impl std::fmt::Display for Json {
    /// Compact JSON serialization (inverse of [`parse`] up to number
    /// formatting and key order). Non-finite numbers render as `null`,
    /// matching the telemetry writer.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_json_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_json_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses one complete JSON value from `text` (surrounding whitespace
/// allowed, trailing garbage rejected).
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Parses a JSON-lines document: one value per non-empty line.
///
/// # Errors
///
/// Reports the first malformed line with its 1-based line number.
pub fn parse_lines(text: &str) -> Result<Vec<Json>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Maximum container-nesting depth. Real telemetry records nest two or
/// three levels; the cap exists so adversarial input like a megabyte of
/// `[[[[…` is rejected with an error instead of overflowing the stack
/// through the recursive-descent parser.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
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
            Some(other) => Err(format!("unexpected `{}` at byte {}", other as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{text}`: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
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
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            // Surrogate pairs don't occur in telemetry output
                            // (it escapes only control characters); map lone
                            // surrogates to U+FFFD rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
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
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_telemetry_record() {
        let v = parse(
            r#"{"ts_us":12,"kind":"span","name":"cli.simulate","parent":null,"ok":true,"x":-1.5e-3}"#,
        )
        .unwrap();
        assert_eq!(v.get("ts_us").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("span"));
        assert_eq!(v.get("parent"), Some(&Json::Null));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(-1.5e-3));
    }

    #[test]
    fn parses_nested_values_and_escapes() {
        let v = parse(r#"{"a":[1,2,{"b":"q\"\\\nA"}],"c":{}}"#).unwrap();
        let arr = match v.get("a").unwrap() {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        };
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("q\"\\\nA"));
        assert!(v.get("c").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn parse_lines_reports_line_numbers() {
        let ok = parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(ok.len(), 2);
        let err = parse_lines("{\"a\":1}\n{bad}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn truncated_unicode_escapes_rejected() {
        // Every torn prefix of a \u escape must be a clean parse error.
        for text in [r#""\u"#, r#""\u0"#, r#""\u00"#, r#""\u004"#, r#""A"#] {
            assert!(parse(text).is_err(), "{text:?}");
        }
        // And non-hex digits inside the escape.
        assert!(parse(r#""\u00zz""#).is_err());
        // The complete, terminated escape still works.
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn unterminated_strings_and_escapes_rejected() {
        for text in [r#"""#, r#""abc"#, r#""abc\"#, r#""abc\""#, r#"{"key"#, r#"{"a":"b"#] {
            assert!(parse(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn deep_nesting_rejected_without_stack_overflow() {
        // A megabyte of `[` would blow the stack in a naive recursive
        // parser; the depth cap must turn it into an ordinary error.
        let bomb = "[".repeat(1 << 20);
        let err = parse(&bomb).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let obj_bomb = r#"{"a":"#.repeat(100_000) + "1";
        assert!(parse(&obj_bomb).unwrap_err().contains("nesting"));
        // Moderate nesting stays accepted.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn junk_trailing_bytes_rejected() {
        for text in ["{} x", "[1] 2", "1 2", "null,", "{\"a\":1}{\"b\":2}", "true\u{0}"] {
            let err = parse(text).unwrap_err();
            assert!(err.contains("trailing"), "{text:?}: {err}");
        }
    }

    #[test]
    fn parses_writer_style_escapes() {
        // Exactly the escape repertoire pdn-core's hand-rolled writer emits.
        let v = parse(r#"{"s":"a\"b\\c\nd\te\u0001","nan":null}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd\te\u{1}"));
        assert_eq!(v.get("nan"), Some(&Json::Null));
    }
}
