//! A minimal JSON writer for the sweep sidecars.
//!
//! Every sweep writes a human-readable `<name>.json` beside its columnar
//! store (see [`crate::sweep`]). This module serializes it without
//! pulling a serde dependency into the offline workspace.
//!
//! The program never reads JSON, so the matching strict RFC 8259 parser
//! is compiled for tests only, as the writer's oracle: [`Value`] keeps
//! object member order and the exact text of numbers, so
//! `parse(v.to_json()) == v` holds for every value and serialization is
//! a fixpoint after one parse.

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// The number's text, verbatim. Large counters do not fit an `f64`
    /// losslessly, so the text is the canonical representation.
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    /// Members in document order — order is part of round-trip fidelity.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An integer number value.
    pub fn int(n: u64) -> Value {
        Value::Num(n.to_string())
    }

    /// A floating-point number value. `x` must be finite (JSON has no
    /// NaN/infinity).
    pub fn float(x: f64) -> Value {
        assert!(x.is_finite(), "JSON cannot represent {x}");
        Value::Num(format!("{x}"))
    }

    /// Serialize compactly. The output is well-formed JSON, and parsing it
    /// back yields a value equal to `self` (checked by the test oracle).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(t) => out.push_str(t),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escape a string for embedding in a JSON document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
pub(crate) use oracle::{parse, validate};

/// The reader: a strict recursive-descent RFC 8259 parser, built for
/// tests only. Errors are the byte offset of the first bad input byte.
#[cfg(test)]
mod oracle {
    use super::Value;

    /// Validate that `s` is one complete JSON value.
    pub(crate) fn validate(s: &str) -> Result<(), usize> {
        parse(s).map(|_| ())
    }

    /// Parse one complete JSON document into a [`Value`].
    pub(crate) fn parse(s: &str) -> Result<Value, usize> {
        let b = s.as_bytes();
        let mut p = Parser { b, i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i == b.len() {
            Ok(v)
        } else {
            Err(p.i)
        }
    }

    impl Value {
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(t) => t.parse().ok(),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(t) => t.parse().ok(),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Object member lookup (first match, linear scan).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), usize> {
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(self.i)
            }
        }

        fn lit(&mut self, word: &str) -> Result<(), usize> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(())
            } else {
                Err(self.i)
            }
        }

        fn value(&mut self) -> Result<Value, usize> {
            match self.b.get(self.i) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(Value::Str),
                Some(b't') => self.lit("true").map(|()| Value::Bool(true)),
                Some(b'f') => self.lit("false").map(|()| Value::Bool(false)),
                Some(b'n') => self.lit("null").map(|()| Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.i),
            }
        }

        fn object(&mut self) -> Result<Value, usize> {
            self.eat(b'{')?;
            self.ws();
            let mut members = Vec::new();
            if self.b.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                self.ws();
                let key = self.string()?;
                self.ws();
                self.eat(b':')?;
                self.ws();
                members.push((key, self.value()?));
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(self.i),
                }
            }
        }

        fn array(&mut self) -> Result<Value, usize> {
            self.eat(b'[')?;
            self.ws();
            let mut xs = Vec::new();
            if self.b.get(self.i) == Some(&b']') {
                self.i += 1;
                return Ok(Value::Arr(xs));
            }
            loop {
                self.ws();
                xs.push(self.value()?);
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Value::Arr(xs));
                    }
                    _ => return Err(self.i),
                }
            }
        }

        /// Four hex digits of a `\u` escape.
        fn hex4(&mut self) -> Result<u32, usize> {
            let mut code = 0u32;
            for _ in 0..4 {
                let d = match self.b.get(self.i) {
                    Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                    Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                    Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                    _ => return Err(self.i),
                };
                code = code * 16 + d;
                self.i += 1;
            }
            Ok(code)
        }

        fn string(&mut self) -> Result<String, usize> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.b.get(self.i) {
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        let esc_at = self.i;
                        self.i += 1;
                        match self.b.get(self.i) {
                            Some(b'"') => {
                                out.push('"');
                                self.i += 1;
                            }
                            Some(b'\\') => {
                                out.push('\\');
                                self.i += 1;
                            }
                            Some(b'/') => {
                                out.push('/');
                                self.i += 1;
                            }
                            Some(b'b') => {
                                out.push('\u{8}');
                                self.i += 1;
                            }
                            Some(b'f') => {
                                out.push('\u{c}');
                                self.i += 1;
                            }
                            Some(b'n') => {
                                out.push('\n');
                                self.i += 1;
                            }
                            Some(b'r') => {
                                out.push('\r');
                                self.i += 1;
                            }
                            Some(b't') => {
                                out.push('\t');
                                self.i += 1;
                            }
                            Some(b'u') => {
                                self.i += 1;
                                let hi = self.hex4()?;
                                let ch = if (0xD800..0xDC00).contains(&hi) {
                                    // High surrogate: must pair with \uDC00–DFFF.
                                    if self.lit("\\u").is_err() {
                                        return Err(esc_at);
                                    }
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(esc_at);
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    hi
                                };
                                out.push(char::from_u32(ch).ok_or(esc_at)?);
                            }
                            _ => return Err(self.i),
                        }
                    }
                    Some(c) if *c >= 0x20 => {
                        // Step over one whole UTF-8 scalar (input is &str, so
                        // the byte stream is valid UTF-8 by construction).
                        let len = match c {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let s = std::str::from_utf8(&self.b[self.i..self.i + len])
                            .expect("input is a &str");
                        out.push_str(s);
                        self.i += len;
                    }
                    _ => return Err(self.i),
                }
            }
        }

        fn digits(&mut self) -> Result<(), usize> {
            let start = self.i;
            while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
                self.i += 1;
            }
            if self.i == start {
                Err(self.i)
            } else {
                Ok(())
            }
        }

        fn number(&mut self) -> Result<Value, usize> {
            let start = self.i;
            if self.b.get(self.i) == Some(&b'-') {
                self.i += 1;
            }
            match self.b.get(self.i) {
                Some(b'0') => self.i += 1,
                Some(b'1'..=b'9') => self.digits()?,
                _ => return Err(self.i),
            }
            if self.b.get(self.i) == Some(&b'.') {
                self.i += 1;
                self.digits()?;
            }
            if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
                self.i += 1;
                if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                    self.i += 1;
                }
                self.digits()?;
            }
            let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii number");
            Ok(Value::Num(text.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e+3",
            r#""a \"quoted\" string\n""#,
            r#"{"cases": [{"name": "fft", "min_ns": 12, "ratio": 0.5}], "n": 2}"#,
            " [1, 2, [3, {\"k\": true}], false] ",
        ] {
            assert_eq!(validate(ok), Ok(()), "rejected: {ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"k\": }",
            "{\"k\" 1}",
            "01",
            "1.e5",
            "\"unterminated",
            "nulll",
            "[1] trailing",
            "{'single': 1}",
            r#""lone surrogate \ud800""#,
            r#""bad pair \ud800A""#,
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn escape_round_trips_through_validate() {
        let s = escape("a \"b\"\n\tc\\");
        assert_eq!(validate(&format!("\"{s}\"")), Ok(()));
    }

    #[test]
    fn parse_builds_the_expected_tree() {
        let v = parse(r#"{"a": [1, -2.5e3, "x"], "b": {"c": null}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Arr(vec![
                Value::Num("1".into()),
                Value::Num("-2.5e3".into()),
                Value::Str("x".into()),
            ])
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Value::Str("Aé".into()));
        // Surrogate pair → one astral scalar.
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("\u{1F600}".into()));
        // Raw multi-byte UTF-8 passes through unharmed.
        assert_eq!(parse("\"héllo…\"").unwrap(), Value::Str("héllo…".into()));
    }

    #[test]
    fn numbers_keep_source_text_and_precision() {
        // 2^63 + 1 is not representable in f64; the text survives.
        let v = parse("9223372036854775809").unwrap();
        assert_eq!(v, Value::Num("9223372036854775809".into()));
        assert_eq!(v.to_json(), "9223372036854775809");
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Value::int(17).as_u64(), Some(17));
    }

    /// serialize → validate → parse == original, on a value shaped like
    /// one `simbench` report line: booleans, big counters, floats and
    /// nested objects.
    #[test]
    fn bench_sim_value_round_trips() {
        let metric = |value: Value, unit: &str| {
            Value::Obj(vec![
                ("value".into(), value),
                ("unit".into(), Value::Str(unit.into())),
            ])
        };
        let doc = Value::Obj(vec![
            ("correct".into(), Value::Bool(true)),
            ("attempted".into(), Value::int(4)),
            ("failed".into(), Value::int(0)),
            (
                "metrics".into(),
                Value::Obj(vec![
                    (
                        "accesses_per_s".into(),
                        metric(Value::float(5_512_345.25), "1/s"),
                    ),
                    ("setup_s".into(), metric(Value::float(0.0125), "s")),
                    (
                        "workloads.records".into(),
                        metric(Value::int(u64::MAX), "count"),
                    ),
                ]),
            ),
        ]);
        let text = doc.to_json();
        assert_eq!(validate(&text), Ok(()), "serializer emitted invalid JSON");
        assert_eq!(parse(&text).unwrap(), doc, "round trip changed the value");
    }

    /// Serialization is a fixpoint: parse → to_json → parse → to_json is
    /// stable, including on awkward strings and number spellings.
    #[test]
    fn serialize_parse_fixpoint() {
        let src =
            r#"{"s": "q\"\\\n\t …", "n": [0, -0.5, 1E+2], "e": {}, "t": [true, false, null]}"#;
        let v1 = parse(src).unwrap();
        let t1 = v1.to_json();
        let v2 = parse(&t1).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(v2.to_json(), t1);
    }
}
