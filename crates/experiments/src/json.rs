//! A minimal, dependency-free JSON layer for experiment results and
//! configs.
//!
//! The workspace must build and test fully offline (no registry), so
//! `serde`/`serde_json` are off the table. Experiments only need two
//! things from JSON: *writing* flat result records (`--json` output) and
//! *reading* the declarative scenario documents. Both fit in
//! a small value tree with a hand-rolled parser and pretty-printer.
//!
//! * [`Json`] — the value tree (objects keep insertion order so output
//!   is stable across runs);
//! * [`Json::parse`] / [`Json::parse_json5`] — the repo's one
//!   recursive-descent reader, in two dialects (see below);
//! * [`ToJson`] — the serialization trait; [`impl_to_json!`] derives it
//!   for flat structs;
//! * accessor helpers (`get`, `str_field`, `u64_field`, …) used by the
//!   hand-written config deserializers.
//!
//! Every text format a user can hand the program goes through this one
//! reader: checkpoint and trace lines and result files in the strict
//! dialect, scenario documents (also `tcnsim`'s) in the JSON5 dialect. `xtask`
//! mounts this same file with `#[path]` to check its own lint output, so
//! the file must stay free of `crate::` paths outside `crate::json`.
//!
//! | | strict | JSON5 |
//! |---|---|---|
//! | `//` and `/* */` comments | no | yes |
//! | trailing comma in `[…]` / `{…}` | no | yes |
//! | unquoted `[A-Za-z_][A-Za-z0-9_]*` keys | no | yes |
//! | `'single-quoted'` strings and `\'` | no | yes |
//!
//! Both dialects reject a duplicate key in one object, a number that
//! does not fit a finite `f64`, a raw line break inside a string and
//! containers nested deeper than [`MAX_DEPTH`]; both report errors as
//! `line:col: message`.

use std::fmt::Write as _;

/// Deepest container nesting the reader accepts. The deepest document
/// the repo writes nests 5 levels; the bound turns a file of 200 000
/// `[` into an ordinary error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Numbers are `f64` (every value the experiments emit or
/// parse fits: integers up to 2^53 and measurement floats).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required string field of an object, with a path-tagged error.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?
            .as_str()
            .ok_or_else(|| format!("field `{key}` must be a string"))
    }

    /// Required integer field of an object.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?
            .as_u64()
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
    }

    /// Required integer field of an object, narrowed to `T`: a value `T`
    /// cannot hold is a field-named error, never a silent truncation.
    pub fn int_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self.u64_field(key)?;
        T::try_from(n).map_err(|_| format!("field `{key}` is out of range: {n}"))
    }

    /// Required number field of an object.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?
            .as_f64()
            .ok_or_else(|| format!("field `{key}` must be a number"))
    }

    /// The `"kind"` tag of a tagged-enum object.
    pub fn kind(&self) -> Result<&str, String> {
        self.str_field("kind")
    }

    /// Pretty-print with 2-space indentation (stable field order).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Render on one line with no whitespace (the JSONL trace format:
    /// one event per line).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a strict JSON document.
    ///
    /// # Errors
    /// A `"line:col: message"` string on malformed input.
    pub fn parse(src: &str) -> Result<Json, String> {
        Parser::new(src, false).document()
    }

    /// Parse a document in the JSON5 dialect scenario files are written
    /// in (the module docs list what it adds to strict JSON).
    ///
    /// # Errors
    /// A `"line:col: message"` string on malformed input.
    pub fn parse_json5(src: &str) -> Result<Json, String> {
        Parser::new(src, true).document()
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    json5: bool,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, json5: bool) -> Self {
        Parser { src: src.as_bytes(), pos: 0, json5, depth: 0 }
    }

    fn document(mut self) -> Result<Json, String> {
        self.skip_trivia()?;
        let value = self.value()?;
        self.skip_trivia()?;
        if self.pos < self.src.len() {
            return Err(self.err("trailing content after the document"));
        }
        Ok(value)
    }

    /// `line:col`-tagged error at the current position (columns count
    /// bytes).
    fn err(&self, msg: &str) -> String {
        let (mut line, mut col) = (1usize, 1usize);
        for &b in &self.src[..self.pos.min(self.src.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        format!("{line}:{col}: {msg}")
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    /// Skip whitespace and, in JSON5, `//` and `/* */` comments.
    fn skip_trivia(&mut self) -> Result<(), String> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => self.pos += 1,
                Some(b'/') if self.json5 => match self.src.get(self.pos + 1) {
                    Some(b'/') => {
                        while !matches!(self.peek(), None | Some(b'\n')) {
                            self.pos += 1;
                        }
                    }
                    Some(b'*') => {
                        let close = self.src[self.pos + 2..].windows(2).position(|w| w == b"*/");
                        match close {
                            Some(at) => self.pos += 2 + at + 2,
                            None => return Err(self.err("unterminated block comment")),
                        }
                    }
                    _ => return Ok(()),
                },
                _ => return Ok(()),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'\'') if self.json5 => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) if c.is_ascii_alphabetic() => match self.identifier() {
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                "null" => Ok(Json::Null),
                other => Err(self.err(&format!("unknown word `{other}`"))),
            },
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The comma-separated body of the container opening at the current
    /// position, up to `close`: `item` parses one element.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1; // the opening bracket
        let mut after_comma = false;
        loop {
            self.skip_trivia()?;
            if self.peek() == Some(close) {
                if after_comma && !self.json5 {
                    return Err(self.err("trailing comma"));
                }
                self.pos += 1;
                self.depth -= 1;
                return Ok(());
            }
            item(self)?;
            self.skip_trivia()?;
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    after_comma = true;
                }
                Some(c) if c == close => after_comma = false,
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut out = Vec::new();
        self.items(b']', |p| {
            out.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(out))
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.items(b'}', |p| {
            let key = match p.peek() {
                Some(b'"') => p.string()?,
                Some(b'\'') if p.json5 => p.string()?,
                Some(c) if p.json5 && (c.is_ascii_alphabetic() || c == b'_') => {
                    p.identifier().to_string()
                }
                _ => return Err(p.err("expected an object key")),
            };
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(p.err(&format!("duplicate key `{key}`")));
            }
            p.skip_trivia()?;
            if p.peek() != Some(b':') {
                return Err(p.err("expected `:`"));
            }
            p.pos += 1;
            p.skip_trivia()?;
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    /// A quoted string starting at the current position, unescaped.
    fn string(&mut self) -> Result<String, String> {
        let quote = self.src[self.pos];
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let c = match self.peek() {
                None | Some(b'\n') => return Err(self.err("unterminated string")),
                Some(c) => c,
            };
            self.pos += 1;
            if c == quote {
                // Only ASCII bytes were removed or inserted, so a `&str`
                // source always leaves valid UTF-8 behind.
                return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8 in string"));
            }
            if c != b'\\' {
                out.push(c);
                continue;
            }
            let unescaped = match self.peek() {
                Some(c @ (b'"' | b'\\' | b'/')) => c,
                Some(b'\'') if self.json5 => b'\'',
                Some(b'n') => b'\n',
                Some(b't') => b'\t',
                Some(b'r') => b'\r',
                Some(b'b') => 0x08,
                Some(b'f') => 0x0c,
                Some(b'u') => {
                    // Basic-plane only: a lone surrogate is an error and
                    // no document this repo reads or writes pairs them.
                    let c = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .and_then(|hex| {
                            hex.iter().try_fold(0u32, |code, &d| {
                                Some(code * 16 + (d as char).to_digit(16)?)
                            })
                        })
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.err("invalid \\u escape"))?;
                    out.extend_from_slice(c.encode_utf8(&mut [0u8; 4]).as_bytes());
                    self.pos += 5;
                    continue;
                }
                _ => return Err(self.err("invalid escape")),
            };
            out.push(unescaped);
            self.pos += 1;
        }
    }

    /// The `[A-Za-z0-9_]*` run at the current position: an unquoted key
    /// or one of `true` / `false` / `null`.
    fn identifier(&mut self) -> &'a str {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos]).unwrap_or_default()
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or_default();
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err(&format!("number `{text}` is out of range"))),
            Err(_) => Err(self.err(&format!("malformed number `{text}`"))),
        }
    }
}

/// Serialization into the [`Json`] tree (the crate's replacement for
/// `serde::Serialize`).
pub trait ToJson {
    /// Convert `self` to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

macro_rules! to_json_int {
    ($($ty:ty),*) => {
        $(impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        })*
    };
}
to_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

/// Derive [`ToJson`] for a flat struct: every listed field must itself
/// implement `ToJson`. Field order in the output follows the list.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj(vec![
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),*
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_example() {
        let src = r#"{"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5e3}}"#;
        let v = Json::parse(src).expect("parse");
        assert_eq!(v.u64_field("a").unwrap(), 1);
        assert_eq!(v.get("c").unwrap().f64_field("d").unwrap(), -2500.0);
        let pretty = v.pretty();
        let v2 = Json::parse(&pretty).expect("reparse");
        assert_eq!(v, v2);
    }

    /// What both dialects accept, and the tree they must agree on.
    #[test]
    fn strict_documents_parse_the_same_in_both_dialects() {
        let num = Json::Num;
        let cases: Vec<(&str, Json)> = vec![
            (
                r#"{"a":[1,2,{"b":"c"}],"d":true,"e":null,"f":-1.5e2}"#,
                Json::obj(vec![
                    ("a", Json::Arr(vec![num(1.0), num(2.0), Json::obj(vec![("b", "c".to_json())])])),
                    ("d", Json::Bool(true)),
                    ("e", Json::Null),
                    ("f", num(-150.0)),
                ]),
            ),
            (r#"{"a": [1, 2.5, -3], "b": {"c": "d"}}"#, {
                let b = Json::obj(vec![("c", "d".to_json())]);
                Json::obj(vec![("a", Json::Arr(vec![num(1.0), num(2.5), num(-3.0)])), ("b", b)])
            }),
            (r#""a\"b\\c\nd\u0041\/\t\r\b\f""#, "a\"b\\c\ndA/\t\r\u{8}\u{c}".to_json()),
            ("\"caf\u{e9} \u{2014} ok\"", "caf\u{e9} \u{2014} ok".to_json()),
            (" [ ] ", Json::Arr(vec![])),
            ("{}", Json::obj(vec![])),
            ("1.", num(1.0)),
        ];
        for (src, want) in cases {
            assert_eq!(Json::parse(src).as_ref(), Ok(&want), "strict: {src}");
            assert_eq!(Json::parse_json5(src).as_ref(), Ok(&want), "json5: {src}");
        }
    }

    #[test]
    fn json5_extras_parse_in_json5_and_are_errors_in_strict() {
        let src = r#"
        // a scenario header
        {
            id: "demo", /* inline note */
            tags: ["a", "b",],
            base: { hosts: 8, loss: 0.25, on: true, off: false, gap: null, },
        }
        "#;
        let v = Json::parse_json5(src).expect("parses");
        assert_eq!(v.str_field("id").unwrap(), "demo");
        assert_eq!(v.get("tags").unwrap().as_arr().unwrap().len(), 2);
        let base = v.get("base").unwrap();
        assert_eq!(base.u64_field("hosts").unwrap(), 8);
        assert_eq!(base.f64_field("loss").unwrap(), 0.25);
        assert_eq!(base.get("gap"), Some(&Json::Null));
        let v = Json::parse_json5(r#"{ s: 'it\'s', "t": "a\nb" }"#).unwrap();
        assert_eq!(v.str_field("s").unwrap(), "it's");
        assert_eq!(v.str_field("t").unwrap(), "a\nb");

        for (src, want) in [
            ("[1,]", "1:4: trailing comma"),
            ("{\"a\":1,}", "1:8: trailing comma"),
            ("{a: 1}", "1:2: expected an object key"),
            ("['x']", "1:2: unexpected `'`"),
            ("[1] // done", "1:5: trailing content"),
            ("/* c */ 1", "1:1: unexpected `/`"),
            (r#""it\'s""#, "1:5: invalid escape"),
        ] {
            assert!(Json::parse_json5(src).is_ok(), "json5 accepts {src}");
            let err = Json::parse(src).expect_err(src);
            assert!(err.starts_with(want), "{src}: {err}");
        }
    }

    /// Rejected by both dialects, with the same `line:col: message`.
    #[test]
    fn malformed_documents_are_errors_with_positions() {
        let deep = "[".repeat(200_000);
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok() && Json::parse_json5(&at_bound).is_ok());
        let cases: Vec<(&str, &str)> = vec![
            ("", "1:1: unexpected end of input"),
            ("{", "1:2: expected an object key"),
            ("[1,", "1:4: unexpected end of input"),
            ("{\"a\" 1}", "1:6: expected `:`"),
            ("{\"a\":}", "1:6: unexpected `}`"),
            ("{\n  \"a\": ?\n}", "2:8: unexpected `?`"),
            ("{\n  \"a\": ,\n}", "2:8: unexpected `,`"),
            ("{ \"a\": 1 \"b\": 2 }", "1:10: expected `,` or `}`"),
            ("[1 2]", "1:4: expected `,` or `]`"),
            ("tru", "1:4: unknown word `tru`"),
            ("1 2", "1:3: trailing content after the document"),
            ("{} {}", "1:4: trailing content after the document"),
            ("{\"a\":1} extra", "1:9: trailing content after the document"),
            ("\"unterminated", "1:14: unterminated string"),
            ("\"line\nbreak\"", "1:6: unterminated string"),
            ("\"\\x\"", "1:3: invalid escape"),
            ("\"\\u12\"", "1:3: invalid \\u escape"),
            ("\"\\ud800\"", "1:3: invalid \\u escape"),
            ("{ \"a\": 1, \"a\": 2 }", "1:14: duplicate key `a`"),
            ("-", "1:2: malformed number `-`"),
            ("1e", "1:3: malformed number `1e`"),
            ("1-2", "1:4: malformed number `1-2`"),
            ("1e400", "1:6: number `1e400` is out of range"),
            (&deep, "1:129: nested deeper than 128 levels"),
        ];
        for (src, want) in cases {
            let shown = &src[..src.len().min(40)];
            assert_eq!(Json::parse(src), Err(want.to_string()), "strict: {shown}");
            assert_eq!(Json::parse_json5(src), Err(want.to_string()), "json5: {shown}");
        }
        let err = Json::parse_json5("/* open").expect_err("unterminated comment");
        assert_eq!(err, "1:1: unterminated block comment");
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(3.0).pretty(), "3");
        assert_eq!(Json::Num(0.5).pretty(), "0.5");
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("a\"b\\c\nd\u{1}".to_string());
        let p = v.pretty();
        assert_eq!(Json::parse(&p).unwrap(), v);
    }

    struct Row {
        name: &'static str,
        value: u64,
        frac: f64,
    }
    impl_to_json!(Row { name, value, frac });

    #[test]
    fn derive_macro_serializes_structs() {
        let r = Row {
            name: "tcn",
            value: 42,
            frac: 0.25,
        };
        let j = r.to_json();
        assert_eq!(j.str_field("name").unwrap(), "tcn");
        assert_eq!(j.u64_field("value").unwrap(), 42);
        assert_eq!(j.f64_field("frac").unwrap(), 0.25);
    }
}
