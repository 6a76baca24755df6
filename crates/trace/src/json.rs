//! The workspace's one JSON reader and writer.
//!
//! The build environment has no serde, so every JSON surface — `/v1/adapt`
//! answers, `/metrics`, `qca-lint --json` lines, JSONL traces, coupling-map
//! files and `BENCH_<pr>.json` reports — is read and written through the
//! [`Json`] value model here.
//!
//! The model is lossless for what the workspace exchanges: objects keep
//! their members in insertion order, and numbers written without a
//! fraction or exponent parse as exact [`Json::Int`]s, so `u64` counters
//! and `i64` gauges survive a round trip bit for bit.
//!
//! The parser is strict (RFC 8259 grammar, no trailing data, duplicate
//! keys and lone surrogates rejected) and safe on untrusted input: nesting
//! deeper than [`MAX_DEPTH`] is an error rather than unbounded recursion.
//! The writer has one mode, compact.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without a fraction or exponent.
    Int(i128),
    /// Any other number. Written with a fraction or exponent, so it parses
    /// back as `Num`; non-finite values are written as `null`.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value's members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
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

    /// The value as a float, if it is a number of either kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => i64::try_from(*n).ok(),
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

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Renders the value as compact JSON.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the value's compact rendering to `out`.
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `{:?}` is the shortest round-trip form and always carries a
            // `.` or an exponent, so the value parses back as `Num`.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as i128)
            }
        }
    )*};
}
int_from!(u64, usize, i64);

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Appends `s` to `out` as a quoted JSON string literal.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Parses `text` as a single JSON value; trailing non-whitespace is an
/// error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(format!("unexpected character at byte {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Runs `body` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    /// Parses the `,`-separated items of an array or object after its
    /// opening bracket, up to and including `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or {:?} at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut members = Vec::new();
        self.items(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            members.push((key, p.value()?));
            Ok(())
        })?;
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!(
                "duplicate key {:?} in object at byte {start}",
                pair[0]
            ));
        }
        Ok(Json::Obj(members))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go: all three are ASCII, so the run ends on a
            // char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                _ => return Err(format!("unescaped control character at byte {}", self.pos)),
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos` (recombining a
    /// following low surrogate), leaving `pos` on its last hex digit.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos + 1..].starts_with(b"\\u") {
                    return Err(format!("lone surrogate escape at byte {at}"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(format!("lone surrogate escape at byte {at}"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(format!("lone surrogate escape at byte {at}")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {at}"))
    }

    /// Reads the four hex digits after the `u` at `pos`.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(hex.iter().fold(0, |acc, &h| {
            acc * 16 + (h as char).to_digit(16).expect("hex digit")
        }))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return Err(bad()),
            n if n > 1 && self.bytes[int_start] == b'0' => return Err(bad()),
            _ => {}
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integral = false;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Json::Int(n));
            }
        }
        // Fractions, exponents and integers beyond i128 are floats.
        text.parse::<f64>().map(Json::Num).map_err(|_| bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"a":[1,2.5,-3e2,true,null],"b":{"c":"x\ny"},"z":0.125}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.to_string_compact(), text.replace("-3e2", "-300.0"));
        assert_eq!(parse(&value.to_string_compact()).unwrap(), value);
        assert_eq!(value.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(
            value.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny")
        );
    }

    #[test]
    fn objects_keep_insertion_order() {
        let text = r#"{"file":"a","line":1,"code":"QCA0001","b":null}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.to_string_compact(), text);
        let keys: Vec<&str> = value
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["file", "line", "code", "b"]);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{} x",
            r#"{"a":1,"a":2}"#,
            r#"{"a":1,"b":{},"a":2}"#,
            "[1,]",
            "{,}",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "nul",
            "[",
            "",
            r#""\x""#,
            r#""\u12""#,
            r#""\ud800""#,
            r#""\ud800A""#,
            r#""\udc00""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_are_exact() {
        for n in [
            u64::MAX as i128,
            i64::MIN as i128,
            0,
            -1,
            9_007_199_254_740_993,
        ] {
            let text = n.to_string();
            assert_eq!(parse(&text).unwrap(), Json::Int(n));
            assert_eq!(Json::Int(n).to_string_compact(), text);
        }
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            parse("-9223372036854775808").unwrap().as_i64(),
            Some(i64::MIN)
        );
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        // Integers still answer as floats.
        assert_eq!(parse("42").unwrap().as_f64(), Some(42.0));
    }

    #[test]
    fn floats_survive_round_trip() {
        for n in [
            0.0,
            1.0,
            -17.0,
            0.1,
            1e-9,
            123456789.25,
            9.0e14,
            1e300,
            -0.0,
        ] {
            let rendered = Json::Num(n).to_string_compact();
            assert_eq!(parse(&rendered).unwrap(), Json::Num(n), "{rendered}");
        }
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(0.5).to_string_compact(), "0.5");
    }

    #[test]
    fn escapes_control_characters() {
        let rendered = Json::from("a\u{1}b\"\\\n\t\u{7f}").to_string_compact();
        assert_eq!(rendered, "\"a\\u0001b\\\"\\\\\\n\\t\u{7f}\"");
        assert_eq!(
            parse(&rendered).unwrap().as_str(),
            Some("a\u{1}b\"\\\n\t\u{7f}")
        );
    }

    #[test]
    fn surrogate_pairs_recombine() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
        assert_eq!(parse(r#""\u00e9\/""#).unwrap().as_str(), Some("\u{e9}/"));
        assert_eq!(
            parse(r#""\uDBFF\uDFFF""#).unwrap().as_str(),
            Some("\u{10ffff}")
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(1_000_000);
            assert!(parse(&deep).unwrap_err().contains("nesting"));
        }
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&over).is_err());
    }

    #[test]
    fn builders_convert_rust_values() {
        let v = Json::obj([
            ("n", 3u64.into()),
            ("g", (-2i64).into()),
            ("none", Option::<u64>::None.into()),
            ("list", vec![1usize, 2].into()),
            ("s", "x".into()),
        ]);
        assert_eq!(
            v.to_string_compact(),
            r#"{"n":3,"g":-2,"none":null,"list":[1,2],"s":"x"}"#
        );
    }

    /// Characters that stress the escaper: controls, quote, backslash,
    /// multi-byte and astral-plane text.
    const CHARS: &[char] = &[
        'a',
        'z',
        ' ',
        '/',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '❄',
        '\u{ffff}',
        '😀',
        '𝄞',
        '\u{10ffff}',
    ];

    /// Random [`Json`] trees up to a fixed depth, with duplicate-free
    /// object keys and only finite floats.
    struct ArbJson {
        depth: u32,
    }

    impl Strategy for ArbJson {
        type Value = Json;
        fn new_value(&self, rng: &mut TestRng) -> Json {
            let text = |rng: &mut TestRng| -> String {
                let len = (0usize..8).new_value(rng);
                (0..len)
                    .map(|_| CHARS[(0..CHARS.len()).new_value(rng)])
                    .collect()
            };
            let kinds = if self.depth == 0 { 8 } else { 10 };
            match (0..kinds).new_value(rng) {
                0 => Json::Null,
                1 => Json::Bool(any::<bool>().new_value(rng)),
                2 => Json::Int((i64::MIN..=i64::MAX).new_value(rng) as i128),
                3 => Json::Int((0..=u64::MAX).new_value(rng) as i128),
                4 => Json::Int(
                    [u64::MAX as i128, i64::MIN as i128, 0, -1][(0usize..4).new_value(rng)],
                ),
                5 => {
                    let f = f64::from_bits(rng.next_u64());
                    Json::Num(if f.is_finite() { f } else { 0.5 })
                }
                6 => Json::Num((-1e6..1e6).new_value(rng)),
                7 => Json::Str(text(rng)),
                8 => {
                    let inner = ArbJson {
                        depth: self.depth - 1,
                    };
                    Json::Arr(collection::vec(inner, 0..4).new_value(rng))
                }
                _ => {
                    let inner = ArbJson {
                        depth: self.depth - 1,
                    };
                    let mut members: Vec<(String, Json)> = Vec::new();
                    for _ in 0..(0usize..4).new_value(rng) {
                        let key = text(rng);
                        let value = inner.new_value(rng);
                        if members.iter().all(|(k, _)| *k != key) {
                            members.push((key, value));
                        }
                    }
                    Json::Obj(members)
                }
            }
        }
    }

    /// JSON-shaped token soup: reaches far more parser states than raw
    /// bytes do.
    const TOKENS: &[&str] = &[
        "{", "}", "[", "]", "\"", ":", ",", " ", "0", "7", "-", ".", "e", "+", "\\", "\\u", "d83d",
        "de00", "00", "true", "null", "fals", "\"a\"", "\u{1}", "é", "😀",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn generated_values_round_trip_exactly(value in ArbJson { depth: 3 }) {
            let text = value.to_string_compact();
            prop_assert_eq!(parse(&text).unwrap(), value);
        }

        #[test]
        fn token_soup_never_panics(ix in collection::vec(0..TOKENS.len(), 0..48)) {
            let text: String = ix.iter().map(|&i| TOKENS[i]).collect();
            let _ = parse(&text);
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in collection::vec(0u8..=255, 0..64)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
