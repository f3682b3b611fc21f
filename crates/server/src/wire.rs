//! The wire codec: a minimal JSON value type with a parser and writer.
//!
//! The serving protocol is line-delimited JSON (one request object per
//! line, one response object per line). The offline dependency roster has
//! no `serde`, so this module hand-rolls exactly the JSON subset the
//! protocol needs — which is all of JSON, minus any serde-style mapping
//! onto Rust structs: requests are inspected through accessor helpers and
//! responses are assembled as [`Json`] trees.
//!
//! Writing is deterministic: object entries are emitted in insertion
//! order, and numbers that hold integral values within `i64` range print
//! without a decimal point (so `I_MI = 4` wires as `4`, not `4.0`).
//!
//! The module also owns the *incremental* side of the codec:
//! [`LineFramer`] reassembles newline-delimited request lines from
//! arbitrary read chunks (the event loop reads whatever the socket has,
//! which can split a line — or a multi-byte UTF-8 character — anywhere).

use std::fmt;

/// Reassembles newline-delimited lines from arbitrary byte chunks.
///
/// The event loop feeds whatever each nonblocking read returned through
/// [`push`](LineFramer::push) and then drains complete lines with
/// [`next_line`](LineFramer::next_line). Lines are split on `\n` at the
/// *byte* level and converted to text per complete line, so a multi-byte
/// UTF-8 character torn across reads decodes exactly as it would have in
/// a single read (the old per-chunk lossy conversion mangled those).
///
/// A line that grows past `max_line` bytes without a newline is an
/// error; the connection feeding it must be dropped, because the framer
/// cannot resynchronize mid-line.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted once it grows).
    start: usize,
    /// Absolute index up to which `buf` has been scanned for `\n`.
    scanned: usize,
    max_line: usize,
}

/// The framing error: a single line exceeded the size cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineTooLong {
    /// The cap that was exceeded.
    pub max_line: usize,
}

impl fmt::Display for LineTooLong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request line exceeds the {}-byte cap", self.max_line)
    }
}

impl std::error::Error for LineTooLong {}

impl LineFramer {
    /// A framer enforcing `max_line` bytes per line (newline excluded).
    pub fn new(max_line: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_line,
        }
    }

    /// Appends one read's worth of bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as lines.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next complete line (without its `\n`, with a trailing `\r`
    /// stripped), or `None` when the buffered bytes hold no full line
    /// yet. Invalid UTF-8 decodes lossily, per complete line.
    pub fn next_line(&mut self) -> Result<Option<String>, LineTooLong> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let end = self.scanned + off;
                let mut line_bytes = &self.buf[self.start..end];
                if line_bytes.last() == Some(&b'\r') {
                    line_bytes = &line_bytes[..line_bytes.len() - 1];
                }
                let line = String::from_utf8_lossy(line_bytes).into_owned();
                self.start = end + 1;
                self.scanned = self.start;
                // Compact once the consumed prefix dominates, so a
                // long-lived connection does not grow the buffer forever.
                if self.start > 4096 && self.start * 2 > self.buf.len() {
                    self.buf.drain(..self.start);
                    self.scanned -= self.start;
                    self.start = 0;
                }
                Ok(Some(line))
            }
            None => {
                self.scanned = self.buf.len();
                if self.buffered() > self.max_line {
                    return Err(LineTooLong {
                        max_line: self.max_line,
                    });
                }
                Ok(None)
            }
        }
    }
}

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; entries keep insertion order (keys are unique by
    /// construction in this protocol, last write wins on parse).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(entries: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no Infinity/NaN literals; `null` keeps the
                    // output parseable (including by this crate's parser).
                    write!(f, "null")
                } else if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(entries) => {
                write!(f, "{{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
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
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue; // hex4 consumed its digits
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\`. Both are
                    // ASCII, so the run ends on a char boundary of the
                    // (valid UTF-8) input and the whole string costs one
                    // pass.
                    let start = self.pos;
                    self.pos = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| start + n);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.retain(|(k, _)| *k != key); // last write wins
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
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
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(Json::parse("\"a b\"").unwrap(), Json::str("a b"));
        assert_eq!(
            Json::parse("[1, \"x\", [true]]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::str("x"),
                Json::Arr(vec![Json::Bool(true)])
            ])
        );
        let obj = Json::parse("{\"cmd\": \"ping\", \"n\": 3}").unwrap();
        assert_eq!(obj.get("cmd").and_then(Json::as_str), Some("ping"));
        assert_eq!(obj.get("n").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn escapes_round_trip() {
        let tricky = "line1\nline2\t\"quoted\" \\ \u{1}… 🦀";
        let wired = Json::str(tricky).to_string();
        assert_eq!(Json::parse(&wired).unwrap(), Json::str(tricky));
        // Surrogate-pair escapes decode too.
        assert_eq!(Json::parse("\"\\ud83e\\udd80\"").unwrap(), Json::str("🦀"));
    }

    #[test]
    fn megabyte_strings_parse_in_linear_time() {
        // Every escape form next to multibyte text, repeated past 1 MB.
        let wired_chunk =
            "ab\u{e9}\u{2026}\u{1f980}\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\ud83e\\udd80x";
        let plain_chunk = "ab\u{e9}\u{2026}\u{1f980}\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{1f980}x";
        let reps = (1 << 20) / wired_chunk.len() + 1;
        let wired = format!("\"{}\"", wired_chunk.repeat(reps));
        let plain = plain_chunk.repeat(reps);
        assert!(wired.len() >= 1 << 20);
        assert_eq!(Json::parse(&wired).unwrap(), Json::str(plain.clone()));
        // The writer's own escaping round-trips at the same size.
        let rewired = Json::str(plain.clone()).to_string();
        assert_eq!(Json::parse(&rewired).unwrap(), Json::str(plain));
    }

    #[test]
    fn integral_numbers_print_without_point() {
        assert_eq!(Json::Num(4.0).to_string(), "4");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(-0.0).to_string(), "0");
    }

    #[test]
    fn non_finite_numbers_wire_as_null() {
        for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let wired = Json::Num(n).to_string();
            assert_eq!(wired, "null");
            assert_eq!(Json::parse(&wired).unwrap(), Json::Null);
        }
    }

    #[test]
    fn object_display_keeps_insertion_order() {
        let obj = Json::obj([("ok", Json::Bool(true)), ("value", Json::Num(7.0))]);
        assert_eq!(obj.to_string(), "{\"ok\":true,\"value\":7}");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "{\"a\":}",
            "[,]",
            "\"\\u12\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn duplicate_keys_last_write_wins() {
        let obj = Json::parse("{\"a\":1,\"a\":2}").unwrap();
        assert_eq!(obj.get("a").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn framer_reassembles_lines_across_chunk_boundaries() {
        let mut f = LineFramer::new(1024);
        f.push(b"{\"cmd\":\"pi");
        assert_eq!(f.next_line().unwrap(), None);
        f.push(b"ng\"}\n{\"a\":1}\r\n{");
        assert_eq!(
            f.next_line().unwrap().as_deref(),
            Some("{\"cmd\":\"ping\"}")
        );
        assert_eq!(f.next_line().unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(f.next_line().unwrap(), None);
        f.push(b"}\n");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("{}"));
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn framer_decodes_utf8_torn_across_chunks() {
        // The crab emoji is 4 UTF-8 bytes; split it 2+2 across pushes.
        let bytes = "\"🦀\"\n".as_bytes();
        let mut f = LineFramer::new(64);
        f.push(&bytes[..3]);
        assert_eq!(f.next_line().unwrap(), None);
        f.push(&bytes[3..]);
        assert_eq!(f.next_line().unwrap().as_deref(), Some("\"🦀\""));
    }

    #[test]
    fn framer_rejects_oversized_lines() {
        let mut f = LineFramer::new(8);
        f.push(b"123456789");
        assert!(f.next_line().is_err());
        // A line exactly at the cap is fine.
        let mut f = LineFramer::new(8);
        f.push(b"12345678\n");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("12345678"));
    }

    #[test]
    fn framer_compacts_without_losing_partial_lines() {
        let mut f = LineFramer::new(1 << 20);
        for i in 0..200 {
            f.push(format!("line-{i}-{}\n", "x".repeat(64)).as_bytes());
        }
        f.push(b"tail-without-newline");
        for i in 0..200 {
            let line = f.next_line().unwrap().unwrap();
            assert!(line.starts_with(&format!("line-{i}-")), "{line}");
        }
        assert_eq!(f.next_line().unwrap(), None);
        f.push(b"-end\n");
        assert_eq!(
            f.next_line().unwrap().as_deref(),
            Some("tail-without-newline-end")
        );
    }
}
