//! Exporters (JSON, Prometheus text) and a small JSON parser.
//!
//! The JSON exporter rides on the workspace `serde_json` shim; the parser
//! exists because the shim is write-only — CI validates an exported
//! snapshot by parsing it back, and external tools (scripts/check.sh)
//! need the round-trip to be self-contained. [`parse_json`] is the only
//! JSON parser in the workspace: cluster metrics scrapes and flow-state
//! snapshots (`dejavu-state`) are read back through it too, so it takes
//! untrusted input and runs in time linear in its length.

use crate::snapshot::{MetricValue, MetricsSnapshot};
use serde::json::Value;

/// Serializes a snapshot to pretty-printed JSON.
pub fn to_json_string(snapshot: &MetricsSnapshot) -> String {
    serde_json::to_string_pretty(snapshot)
        .unwrap_or_else(|e| unreachable!("snapshot serialization is infallible: {e:?}"))
}

/// Serializes a snapshot to Prometheus text exposition format.
///
/// Names follow the convention used throughout the workspace — labels are
/// embedded in the metric name (`port_rx_packets{port="3"}`) — which is
/// already the Prometheus sample syntax, so emission is direct. Histograms
/// expand to cumulative `_bucket{le="…"}` series plus `_sum`/`_count`,
/// with `le` set to each log2 bucket's exclusive upper bound.
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.metrics {
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{name} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("{name} {v}\n"));
            }
            MetricValue::Histogram(h) => {
                let (base, labels) = split_labels(name);
                let mut cumulative = 0u64;
                for (i, &b) in h.buckets.iter().enumerate() {
                    cumulative += b;
                    if b == 0 && cumulative == 0 {
                        continue;
                    }
                    let le = 1u128 << (i + 1);
                    out.push_str(&format!(
                        "{base}_bucket{{{labels}le=\"{le}\"}} {cumulative}\n"
                    ));
                }
                out.push_str(&format!(
                    "{base}_bucket{{{labels}le=\"+Inf\"}} {count}\n",
                    count = h.count
                ));
                out.push_str(&format!(
                    "{base}_sum{labelled} {sum}\n",
                    labelled = original_labels(name),
                    sum = h.sum
                ));
                out.push_str(&format!(
                    "{base}_count{labelled} {count}\n",
                    labelled = original_labels(name),
                    count = h.count
                ));
            }
        }
    }
    out
}

/// Splits `name{a="b"}` into `("name", "a=\"b\",")` — the label part ready
/// to prepend inside a brace set. Plain names yield an empty label part.
fn split_labels(name: &str) -> (&str, String) {
    match name.find('{') {
        Some(i) => {
            let inner = name[i + 1..].trim_end_matches('}');
            let mut labels = inner.to_string();
            if !labels.is_empty() {
                labels.push(',');
            }
            (&name[..i], labels)
        }
        None => (name, String::new()),
    }
}

/// The `{…}` suffix of a labelled name, or empty for plain names.
fn original_labels(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[i..],
        None => "",
    }
}

/// Why [`parse_json`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
    /// What was wrong there.
    pub kind: JsonErrorKind,
}

/// The kinds of malformed input [`parse_json`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot appear here; `expected` names what could.
    Unexpected {
        /// What the grammar allows at this point.
        expected: &'static str,
        /// The byte found instead.
        found: u8,
    },
    /// A word starting like `true`, `false` or `null` that is none of them.
    InvalidLiteral,
    /// A backslash followed by something other than a JSON escape letter.
    BadEscape(u8),
    /// `\u` not followed by exactly four hex digits.
    BadUnicodeEscape,
    /// A `\uD800`–`\uDFFF` escape that is not a high surrogate directly
    /// followed by a low one.
    LoneSurrogate(u16),
    /// String contents that are not UTF-8.
    InvalidUtf8,
    /// A number that is malformed or does not fit its type.
    BadNumber(String),
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Non-whitespace after the top-level value.
    TrailingData,
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so the cap keeps hostile input from exhausting the stack; the
/// documents this workspace writes nest fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

impl std::fmt::Display for JsonErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonErrorKind::UnexpectedEnd => write!(f, "unexpected end of input"),
            JsonErrorKind::Unexpected { expected, found } => {
                write!(f, "expected {expected}, found {:?}", *found as char)
            }
            JsonErrorKind::InvalidLiteral => write!(f, "invalid literal"),
            JsonErrorKind::BadEscape(c) => write!(f, "bad escape {:?}", *c as char),
            JsonErrorKind::BadUnicodeEscape => write!(f, "\\u needs exactly four hex digits"),
            JsonErrorKind::LoneSurrogate(u) => write!(f, "lone surrogate \\u{u:04x}"),
            JsonErrorKind::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
            JsonErrorKind::BadNumber(text) => write!(f, "bad number {text:?}"),
            JsonErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
            JsonErrorKind::TrailingData => write!(f, "trailing data"),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.kind, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses JSON text into the workspace shim's [`Value`]. Supports the full
/// JSON grammar (objects, arrays, strings with escapes, numbers, booleans,
/// null); numbers without fraction/exponent parse as `Int`/`UInt`, others
/// as `Float`.
///
/// Parsing is linear in the input: string contents are copied one run of
/// plain bytes at a time, never re-scanned. `\u` escapes take exactly four
/// hex digits, and a surrogate pair decodes to one character.
pub fn parse_json(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error(JsonErrorKind::TrailingData));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn error(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            offset: self.pos,
            kind,
        }
    }

    /// The error for finding something other than `expected` here.
    fn unexpected(&self, expected: &'static str) -> JsonError {
        self.error(match self.peek() {
            Some(found) => JsonErrorKind::Unexpected { expected, found },
            None => JsonErrorKind::UnexpectedEnd,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, expected: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.unexpected("a value")),
        }
    }

    /// Runs one level of array/object recursion under the depth cap.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, JsonError>) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(JsonErrorKind::TooDeep));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(JsonErrorKind::InvalidLiteral))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{', "'{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "':'")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.unexpected("',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[', "'['")?;
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
                _ => return Err(self.unexpected("',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "'\"'")?;
        let mut s = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or
            // backslash in one step. The run ends before an ASCII byte (or
            // at the end of the input), so it never splits a character.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            let plain =
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| JsonError {
                    offset: start + e.valid_up_to(),
                    kind: JsonErrorKind::InvalidUtf8,
                })?;
            s.push_str(plain);
            match self.peek() {
                None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => s.push(self.escape()?),
            }
        }
    }

    /// Decodes one backslash escape; `pos` is at the backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1;
        let c = match self.peek() {
            None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
            Some(b'u') => return self.unicode_escape(),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(other) => return Err(self.error(JsonErrorKind::BadEscape(other))),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes `uXXXX`, or a `uXXXX\uXXXX` surrogate pair, into one
    /// character; `pos` is at the `u`.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos - 1;
        let lone = |unit| JsonError {
            offset: at,
            kind: JsonErrorKind::LoneSurrogate(unit),
        };
        self.pos += 1;
        let unit = self.hex4()?;
        let code = match unit {
            0xd800..=0xdbff => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(lone(unit));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(lone(unit));
                }
                0x1_0000 + ((u32::from(unit) - 0xd800) << 10) + (u32::from(low) - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(lone(unit)),
            _ => u32::from(unit),
        };
        char::from_u32(code).ok_or_else(|| lone(unit))
    }

    /// Reads exactly four hex digits.
    fn hex4(&mut self) -> Result<u16, JsonError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.error(JsonErrorKind::UnexpectedEnd));
        };
        let mut unit = 0u16;
        for &d in digits {
            let Some(nibble) = (d as char).to_digit(16) else {
                return Err(self.error(JsonErrorKind::BadUnicodeEscape));
            };
            unit = unit << 4 | nibble as u16;
        }
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Only ASCII digits, signs, '.' and 'e' were consumed.
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        let parsed = if is_float {
            text.parse::<f64>().ok().map(Value::Float)
        } else if text.starts_with('-') {
            text.parse::<i64>().ok().map(Value::Int)
        } else {
            text.parse::<u64>().ok().map(Value::UInt)
        };
        parsed.ok_or_else(|| JsonError {
            offset: start,
            kind: JsonErrorKind::BadNumber(text.into_owned()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::snapshot::MetricsSnapshot;

    #[test]
    fn parse_scalars_and_nesting() {
        let v = parse_json(r#"{"a": 1, "b": [-2, 3.5, "x\ny", true, null], "c": {}}"#).unwrap();
        let Value::Object(fields) = v else { panic!() };
        assert_eq!(fields[0], ("a".to_string(), Value::UInt(1)));
        let Value::Array(items) = &fields[1].1 else {
            panic!()
        };
        assert_eq!(items[0], Value::Int(-2));
        assert_eq!(items[1], Value::Float(3.5));
        assert_eq!(items[2], Value::Str("x\ny".to_string()));
        assert_eq!(items[3], Value::Bool(true));
        assert_eq!(items[4], Value::Null);
        assert_eq!(fields[2].1, Value::Object(vec![]));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    fn parse_str(text: &str) -> Result<String, JsonError> {
        match parse_json(text)? {
            Value::Str(s) => Ok(s),
            other => panic!("not a string: {other:?}"),
        }
    }

    fn kind(text: &str) -> JsonErrorKind {
        parse_json(text).unwrap_err().kind
    }

    #[test]
    fn errors_are_typed_with_offsets() {
        let e = parse_json("[1,]").unwrap_err();
        assert_eq!(
            e,
            JsonError {
                offset: 3,
                kind: JsonErrorKind::Unexpected {
                    expected: "a value",
                    found: b']',
                },
            }
        );
        assert_eq!(e.to_string(), "expected a value, found ']' at byte 3");
        assert_eq!(
            kind("{\"a\" 1}"),
            JsonErrorKind::Unexpected {
                expected: "':'",
                found: b'1',
            }
        );
        assert_eq!(kind("[1"), JsonErrorKind::UnexpectedEnd);
        assert_eq!(kind("nul"), JsonErrorKind::InvalidLiteral);
        assert_eq!(kind("-"), JsonErrorKind::BadNumber("-".into()));
        assert_eq!(kind("\"\\q\""), JsonErrorKind::BadEscape(b'q'));
        assert_eq!(kind("1 2"), JsonErrorKind::TrailingData);
    }

    #[test]
    fn plain_runs_keep_multibyte_characters_whole() {
        let text = "\"aλ→😀\\n\\\"x\"";
        assert_eq!(parse_str(text).unwrap(), "aλ→😀\n\"x");
        assert_eq!(parse_str("\"\"").unwrap(), "");
        assert_eq!(kind("\"aλ"), JsonErrorKind::UnexpectedEnd);
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse_str(r#""\u0041\u00e9\u20AC""#).unwrap(), "Aé€");
        // from_str_radix would accept a sign; JSON does not.
        assert_eq!(kind(r#""\u+041""#), JsonErrorKind::BadUnicodeEscape);
        assert_eq!(kind(r#""\u-041""#), JsonErrorKind::BadUnicodeEscape);
        assert_eq!(kind(r#""\u004""#), JsonErrorKind::BadUnicodeEscape);
        assert_eq!(kind(r#""\u 041""#), JsonErrorKind::BadUnicodeEscape);
        assert_eq!(kind(r#""\u00"#), JsonErrorKind::UnexpectedEnd);
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        assert_eq!(parse_str(r#""\ud83d\ude00""#).unwrap(), "😀");
        assert_eq!(parse_str(r#""x\uD834\uDD1Ey""#).unwrap(), "x𝄞y");
        assert_eq!(parse_str(r#""\udbff\udfff""#).unwrap(), "\u{10ffff}");
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        let lone = |text: &str, unit: u16| {
            assert_eq!(
                parse_json(text).unwrap_err(),
                JsonError {
                    offset: 1,
                    kind: JsonErrorKind::LoneSurrogate(unit),
                },
                "{text}"
            );
        };
        lone(r#""\ud83d""#, 0xd83d);
        lone(r#""\ud83dx""#, 0xd83d);
        lone(r#""\ud83d\u0041""#, 0xd83d);
        lone(r#""\ud83d\ud83d""#, 0xd83d);
        lone(r#""\ude00""#, 0xde00);
        lone(r#""\ude00\ud83d""#, 0xde00);
        assert_eq!(kind(r#""\ud83d\u12x""#), JsonErrorKind::BadUnicodeEscape);
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(kind(&nest(MAX_DEPTH + 1)), JsonErrorKind::TooDeep);
        assert_eq!(kind(&"{\"a\":".repeat(100_000)), JsonErrorKind::TooDeep);
    }

    #[test]
    fn exporters_cover_all_kinds() {
        let mut r = MetricsRegistry::enabled();
        let c = r.counter("pkts_total{pipelet=\"ingress0\"}");
        let g = r.gauge("queue_depth");
        let h = r.histogram("latency_ns{port=\"1\"}");
        r.add(c, 7);
        r.set_gauge(g, -3);
        r.observe(h, 650);
        r.observe(h, 1300);
        let s = MetricsSnapshot::capture(&r);

        let json = to_json_string(&s);
        let parsed = parse_json(&json).unwrap();
        assert!(matches!(parsed, Value::Object(_)));

        let prom = to_prometheus(&s);
        assert!(prom.contains("pkts_total{pipelet=\"ingress0\"} 7"));
        assert!(prom.contains("queue_depth -3"));
        assert!(prom.contains("latency_ns_count{port=\"1\"} 2"));
        assert!(prom.contains("latency_ns_sum{port=\"1\"} 1950"));
        assert!(prom.contains("le=\"+Inf\"} 2"));
        // 650 lands in bucket 9 → le=1024 cumulative 1.
        assert!(prom.contains("latency_ns_bucket{port=\"1\",le=\"1024\"} 1"));
    }
}
