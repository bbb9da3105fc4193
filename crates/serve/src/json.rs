//! A small self-contained JSON value type with a parser and writer.
//!
//! The service speaks JSON-lines over stdin/stdout and the workspace
//! builds offline, so this module implements the subset of JSON the
//! protocol needs (RFC 8259 syntax; numbers are `f64`, escapes cover
//! the protocol's needs including `\uXXXX` for BMP code points) with no
//! external dependencies — the same policy the bench writers follow,
//! plus the parsing half they never needed.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// A parsed JSON value. Object keys are kept in a [`BTreeMap`] so
/// serialization is canonical (sorted keys) — stable output for tests
/// and for hashing request bodies.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integer from float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience number constructor for unsigned counters.
    ///
    /// `u64` counters above 2^53 would lose precision in an `f64`; the
    /// service's meters (messages, cache hits, nanosecond sums) stay
    /// far below that in any real session, and the writer prints
    /// integral values without a fraction so round-trips are exact.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Member lookup on an object, `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an in-range `u64` (rejects negatives,
    /// fractions and anything past 2^53 where `f64` goes lossy).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to a single line (no pretty-printing — the protocol
    /// is line-delimited).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document, requiring it to span the whole input
    /// (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::new(text, &[]).document()
    }

    /// [`Json::parse`], except that the string found by following the
    /// object keys `path` from the top is **held**: not decoded, left in
    /// the tree as `null`, and returned as the byte range of its
    /// contents (between the quotes) in `text` — to be walked with
    /// [`RawLines`]. Everything else becomes a tree as usual.
    ///
    /// Nothing is held (and the tree is exactly `Json::parse`'s) when
    /// there is no string there, when it contains an escaped quote, or
    /// when the document repeats a key — the tree keeps the last of
    /// two, and the held range must be the one the tree would hold. The
    /// held contents are **not validated** beyond having no escaped
    /// quote; [`RawLines`] does that as it walks them.
    pub fn parse_holding(
        text: &str,
        path: &[&str],
    ) -> Result<(Json, Option<Range<usize>>), JsonError> {
        let mut p = Parser::new(text, path);
        let v = p.document()?;
        if p.held.is_some() && p.repeated_key {
            return Ok((Json::parse(text)?, None));
        }
        Ok((v, p.held))
    }
}

/// Walks the undecoded contents of a JSON string line by line: the
/// lines [`str::lines`] would split the decoded string into (a trailing
/// `\r` is kept; consumers trim), each with the byte offset in the
/// undecoded contents at which it starts.
///
/// Only the escapes `\n`, `\r` and `\t` are understood — a line
/// holding any is decoded into a scratch buffer, a line holding none is
/// a slice of the input. Anything else a JSON string may not contain
/// verbatim, or any other escape, ends the walk with [`Escaped`]: the
/// caller decodes the whole string with [`Json::parse`] instead.
pub struct RawLines<'a> {
    raw: &'a str,
    pos: usize,
    scratch: String,
}

/// The string holds an escape [`RawLines`] does not read, or a raw
/// control character.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Escaped;

impl<'a> RawLines<'a> {
    /// Starts at the beginning of `raw`, which must start at a line
    /// start of the string.
    pub fn new(raw: &'a str) -> Self {
        RawLines {
            raw,
            pos: 0,
            scratch: String::new(),
        }
    }

    /// The next line and the offset it starts at, `None` after the last.
    #[allow(clippy::should_implement_trait)] // lends out its scratch buffer
    pub fn next(&mut self) -> Option<Result<(usize, &str), Escaped>> {
        let bytes = self.raw.as_bytes();
        let start = self.pos;
        if start == bytes.len() {
            return None;
        }
        self.scratch.clear();
        // `raw[copied..i]` is read but not yet in the scratch buffer.
        let (mut i, mut copied) = (start, start);
        let end = loop {
            // Stops on ASCII only, so every cut is a char boundary.
            while i < bytes.len() && bytes[i] != b'\\' && bytes[i] >= 0x20 {
                i += 1;
            }
            let decoded = match (bytes.get(i), bytes.get(i + 1)) {
                (None, _) => {
                    self.pos = i;
                    break i;
                }
                (Some(b'\\'), Some(b'n')) => {
                    self.pos = i + 2;
                    break i;
                }
                (Some(b'\\'), Some(b'r')) => '\r',
                (Some(b'\\'), Some(b't')) => '\t',
                _ => return Some(Err(Escaped)),
            };
            self.scratch.push_str(&self.raw[copied..i]);
            self.scratch.push(decoded);
            i += 2;
            copied = i;
        };
        if copied == start {
            return Some(Ok((start, &self.raw[start..end])));
        }
        self.scratch.push_str(&self.raw[copied..end]);
        Some(Ok((start, &self.scratch)))
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// A malformed JSON document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Object keys leading to the string to hold (empty: hold nothing).
    path: &'a [&'a str],
    /// Containers open around `pos`.
    depth: usize,
    /// How many leading keys of `path` the open objects have matched.
    matched: usize,
    held: Option<Range<usize>>,
    repeated_key: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, path: &'a [&'a str]) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            path,
            depth: 0,
            matched: 0,
            held: None,
            repeated_key: false,
        }
    }

    fn document(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after the document"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        // An array is a level no path key names: nothing below it is
        // on the path.
        self.depth += 1;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let on_path =
                self.matched + 1 == self.depth && self.path.get(self.matched) == Some(&&*key);
            let val = if !on_path {
                self.value()?
            } else if self.depth < self.path.len() {
                self.matched += 1;
                let val = self.value()?;
                self.matched -= 1;
                val
            } else {
                self.hold()?
            };
            self.repeated_key |= map.insert(key, val).is_some();
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// The value at the end of the path: a string with no escaped quote
    /// is skipped to its closing quote and held, anything else is read
    /// as usual.
    fn hold(&mut self) -> Result<Json, JsonError> {
        let start = self.pos + 1;
        // `str::find` is the word-at-a-time search; `start` follows an
        // ASCII quote, so it is a char boundary.
        let end = match self.peek() {
            Some(b'"') => self.text[start..].find('"').map(|at| start + at),
            _ => None,
        };
        // A quote after an odd run of backslashes is an escaped one.
        let escaped = |end: usize| {
            let backslashes = self.bytes[start..end].iter().rev();
            backslashes.take_while(|&&b| b == b'\\').count() % 2 == 1
        };
        match end {
            Some(end) if !escaped(end) => {
                self.repeated_key |= self.held.is_some();
                self.held = Some(start..end);
                self.pos = end + 1;
                Ok(Json::Null)
            }
            _ => self.value(),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The scanned span is valid UTF-8 (the input is a &str and
            // we only stop on ASCII boundaries).
            s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired:
                            // the protocol never emits astral escapes.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape"))?;
                            s.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"nested":true,"s":"hi\nthere"},"n":null}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(Json::parse(&v.dump()).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().get("s").unwrap().as_str(),
            Some("hi\nthere")
        );
    }

    #[test]
    fn keys_serialize_sorted() {
        let v = Json::obj(vec![("z", Json::num(1u32)), ("a", Json::num(2u32))]);
        assert_eq!(v.dump(), r#"{"a":2,"z":1}"#);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::num(42u32).dump(), "42");
        assert_eq!(Json::Num(2.5).dump(), "2.5");
    }

    #[test]
    fn u64_accessor_rejects_lossy_values() {
        assert_eq!(Json::Num(12.0).as_u64(), Some(12));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
    }

    #[test]
    fn control_and_unicode_escapes() {
        let v = Json::Str("tab\t nul\u{1} ünïcode".to_string());
        let parsed = Json::parse(&v.dump()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(Json::parse(r#""ü""#).unwrap().as_str(), Some("ü"));
    }

    #[test]
    fn holding_keeps_one_string_out_of_the_tree() {
        let path = ["run", "schedule"];
        let doc = r#"{"id":"a","run":{"mode":"schedule","schedule":"l1\nl2\\"},"z":[{"run":{"schedule":"deep"}}]}"#;
        let (tree, held) = Json::parse_holding(doc, &path).unwrap();
        let held = held.expect("a plain string at the path is held");
        assert_eq!(
            &doc[held], r"l1\nl2\\",
            "an escaped backslash is no escaped quote"
        );
        let run = tree.get("run").unwrap();
        assert_eq!(run.get("schedule"), Some(&Json::Null));
        assert_eq!(run.get("mode").unwrap().as_str(), Some("schedule"));
        // Put back, it is the tree `parse` builds.
        let mut whole = Json::parse(doc).unwrap();
        if let Json::Obj(top) = &mut whole {
            if let Some(Json::Obj(run)) = top.get_mut("run") {
                run.insert("schedule".to_string(), Json::Null);
            }
        }
        assert_eq!(tree, whole);

        // Nothing is held, and the tree is `parse`'s, when the path ends
        // elsewhere, in no string, below an array, in a string with an
        // escaped quote, or when a key repeats.
        for doc in [
            r#"{"run":{"mode":"model"},"schedule":"top"}"#,
            r#"{"run":{"schedule":17}}"#,
            r#"{"run":[{"schedule":"in an array"}]}"#,
            r#"[{"run":{"schedule":"in an array"}}]"#,
            r#"{"run":{"schedule":"say \"hi\""}}"#,
            r#"{"run":{"schedule":"one","schedule":"two"}}"#,
            r#"{"run":{"schedule":"one"},"run":{"mode":"model"}}"#,
            r#"{"run":{"schedule":"one"},"a":1,"a":2}"#,
        ] {
            let (tree, held) = Json::parse_holding(doc, &path).unwrap();
            assert_eq!(held, None, "{doc}");
            assert_eq!(tree, Json::parse(doc).unwrap(), "{doc}");
        }
        // Errors after a held string are `parse`'s errors.
        for doc in [r#"{"run":{"schedule":"x"}"#, r#"{"run":{"schedule":"x"#] {
            assert_eq!(
                Json::parse_holding(doc, &path).unwrap_err(),
                Json::parse(doc).unwrap_err()
            );
        }
    }

    #[test]
    fn raw_lines_are_the_lines_of_the_decoded_string() {
        for text in [
            "",
            "one",
            "one\n",
            "one\ntwo",
            "\n\nthree\n",
            "crlf\r\nlone\rcr\r\n",
            "tab\there\nand é ü\n# x",
            "ends in cr\r",
        ] {
            let dumped = Json::str(text).dump();
            let raw = &dumped[1..dumped.len() - 1];
            let mut lines = RawLines::new(raw);
            let mut got = Vec::new();
            while let Some(line) = lines.next() {
                let (offset, line) = line.unwrap();
                assert!(offset == 0 || raw[..offset].ends_with("\\n"));
                got.push(line.trim_end_matches('\r').to_string());
            }
            let want: Vec<&str> = text.lines().map(|l| l.trim_end_matches('\r')).collect();
            assert_eq!(got, want, "{text:?}");
        }
        // What it does not read, it says so about — at the line that
        // holds it, after yielding the lines before.
        for raw in [
            r#"ok\nquote \" here"#,
            r#"ok\nunicode \u000a"#,
            r#"ok\nslash \/"#,
            r#"ok\nbackslash \\"#,
            "ok\\nraw\ttab",
            r#"ok\ntruncated \"#,
        ] {
            let mut lines = RawLines::new(raw);
            assert_eq!(lines.next(), Some(Ok((0, "ok"))), "{raw:?}");
            assert_eq!(lines.next(), Some(Err(Escaped)), "{raw:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "01x",
            "{} {}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
