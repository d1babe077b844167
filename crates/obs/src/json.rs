//! A tiny JSON emitter and parser — just enough for `obs dump -format
//! json`, the bench harness, and the CI request-budget gate, with correct
//! string escaping and no dependencies.

/// Escapes `s` into a quoted JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Builds a JSON object field by field.
#[derive(Default)]
pub struct Object {
    parts: Vec<String>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Adds a field whose value is already-serialized JSON.
    pub fn field_raw(&mut self, key: &str, raw_json: &str) -> &mut Self {
        self.parts.push(format!("{}:{}", string(key), raw_json));
        self
    }

    /// Adds a string field.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        let v = string(value);
        self.field_raw(key, &v)
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.field_raw(key, &value.to_string())
    }

    /// Adds a float field (finite values; NaN/inf become null).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.field_raw(key, &v)
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.field_raw(key, if value { "true" } else { "false" })
    }

    /// Adds counters by their dotted `obs` names, with `prefix` dropped
    /// where a name starts with it and nested on every remaining `.`:
    /// `a.b` and `a.c` become `"a":{"b":..,"c":..}`.
    pub fn counters<'a>(
        &mut self,
        prefix: &str,
        pairs: impl IntoIterator<Item = (&'a str, u64)>,
    ) -> &mut Self {
        let mut rest: Vec<(&str, u64)> = pairs
            .into_iter()
            .map(|(n, v)| (n.strip_prefix(prefix).unwrap_or(n), v))
            .collect();
        while let Some(&(name, v)) = rest.first() {
            let Some((head, _)) = name.split_once('.') else {
                self.field_u64(name, v);
                rest.remove(0);
                continue;
            };
            let key = format!("{head}.");
            let (group, others) = rest.into_iter().partition(|(n, _)| n.starts_with(&key));
            let mut inner = Object::new();
            inner.counters(&key, group);
            self.field_raw(head, &inner.build());
            rest = others;
        }
        self
    }

    /// Serializes the object.
    pub fn build(&self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// Builds a JSON array element by element.
#[derive(Default)]
pub struct Array {
    parts: Vec<String>,
}

impl Array {
    /// An empty array.
    pub fn new() -> Array {
        Array::default()
    }

    /// Appends already-serialized JSON.
    pub fn push_raw(&mut self, raw_json: &str) -> &mut Self {
        self.parts.push(raw_json.to_string());
        self
    }

    /// Serializes the array.
    pub fn build(&self) -> String {
        format!("[{}]", self.parts.join(","))
    }
}

/// A parsed JSON value. Numbers keep their source text so exact integer
/// budgets survive the round trip without float loss.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(String),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields in source order, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses a complete JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are trustworthy).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if text.is_empty() || text == "-" {
            return Err(format!("bad number at byte {start}"));
        }
        Ok(Value::Number(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(string("a\"b"), r#""a\"b""#);
        assert_eq!(string("a\\b"), r#""a\\b""#);
        assert_eq!(string("a\nb"), r#""a\nb""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn object_and_array_compose() {
        let mut inner = Array::new();
        inner.push_raw("1").push_raw(&string("two"));
        let mut o = Object::new();
        o.field_str("name", "x")
            .field_u64("n", 7)
            .field_bool("on", true)
            .field_raw("list", &inner.build());
        let j = o.build();
        assert_eq!(j, r#"{"name":"x","n":7,"on":true,"list":[1,"two"]}"#);
        assert!(parse(&j).is_ok());
    }

    #[test]
    fn parser_round_trips_emitter_output() {
        let mut inner = Array::new();
        inner.push_raw("1").push_raw(&string("two"));
        let mut o = Object::new();
        o.field_str("name", "x\n\"y\"")
            .field_u64("n", 18446744073709551615)
            .field_bool("on", true)
            .field_raw("list", &inner.build())
            .field_raw("none", "null");
        let v = parse(&o.build()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("on"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let list = v.get("list").unwrap().as_array().unwrap();
        assert_eq!(list[0].as_u64(), Some(1));
        assert_eq!(list[1].as_str(), Some("two"));
    }

    #[test]
    fn parser_handles_whitespace_nesting_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : \"c\\u0041\" } , -2.5e1 ] } ").unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("cA"));
        assert_eq!(arr[2], Value::Number("-2.5e1".into()));
        assert_eq!(v.as_object().unwrap().len(), 1);
        assert_eq!(
            parse("{\"a\":\"}\"}").unwrap().get("a").unwrap().as_str(),
            Some("}")
        );
    }

    #[test]
    fn validator_rejects_imbalance() {
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("{]}").is_err());
        assert!(parse("plain text").is_err());
        assert!(parse("{\"a\":\"}\"}").is_ok());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("{]}").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nope").is_err());
    }
}
