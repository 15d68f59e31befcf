//! The workspace's one JSON layer.
//!
//! No serde in the offline build, so every emitter and reader in the
//! workspace (telemetry JSONL, metrics reports, `/health`, the wire
//! frames, fault plans) goes through this
//! module: the [`Json`] value and its recursive-descent parser,
//! [`json_escape`], a writer that pushes into one `String` ([`object`],
//! [`array`], [`ObjectWriter`]) and the [`ToJson`] / [`FromJson`] pair for
//! the scalar and container types frames are made of — `f64`'s is the one
//! finite-or-`null` number formatter. A record that travels as an object
//! declares its member list once, with [`wire_struct!`](crate::wire_struct),
//! and that list both writes and reads it. A format bug has one place to
//! live.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so without a cap one small document of
/// brackets overflows the stack of the thread that reads it; the deepest
/// document the workspace writes is about five levels.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value (`None` for `null` and non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // `"1e999".parse::<f64>()` is `Ok(inf)`: the writer spells a
        // non-finite float `null`, so the reader takes none either.
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied whole
            // (both are ASCII, so the run ends on a character boundary).
            let run = self.pos;
            self.pos += self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - run);
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: the run stopped at one of the two.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

impl Json {
    /// Decode the member `name` of an object. An absent member is an
    /// error unless `T` has a value for it ([`FromJson::absent`]: `None`
    /// for an `Option`); a member of the wrong shape is an error naming
    /// the member.
    pub fn field<T: FromJson>(&self, name: &str) -> Result<T, String> {
        match self.get(name) {
            Some(v) => T::from_json(v).map_err(|e| format!("invalid '{name}': {e}")),
            None => T::absent().ok_or_else(|| format!("missing '{name}'")),
        }
    }

    /// Decode the member `name`, reading an absent or `null` member as
    /// `default` — the rule for members added after the first release and
    /// for floats an emitter may have written as `null`.
    pub fn field_or<T: FromJson>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None | Some(Json::Null) => Ok(default),
            Some(v) => T::from_json(v).map_err(|e| format!("invalid '{name}': {e}")),
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    // Everything escaped is ASCII, so the stretches between escapes are
    // copied whole (member names never need one).
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[copied..i]);
        copied = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[copied..]);
}

/// Escape a string for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters). The workspace's only escaper:
/// [`ToJson`] for strings is built on the same code, and the emitters
/// still assembled with `format!` (the runtime's Chrome trace) call it
/// for the names they embed.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// A value that can append itself to a JSON document.
pub trait ToJson {
    /// Append this value's JSON form to `out`.
    fn write_json(&self, out: &mut String);
}

/// A value that can be read back from a parsed [`Json`].
pub trait FromJson: Sized {
    /// Decode `v`, or say what was expected instead.
    fn from_json(v: &Json) -> Result<Self, String>;

    /// What an object member of this type decodes to when it is absent
    /// (`None`: the member is required).
    fn absent() -> Option<Self> {
        None
    }
}

macro_rules! unsigned {
    ($($int:ty),*) => {$(
        impl ToJson for $int {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }

        /// Finite, non-negative, integral and in range — anything else
        /// would be truncated or saturated by an `as` cast.
        impl FromJson for $int {
            fn from_json(v: &Json) -> Result<Self, String> {
                match v {
                    Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= <$int>::MAX as f64 => {
                        Ok(*x as $int)
                    }
                    other => Err(format!("expected a non-negative integer, got {other:?}")),
                }
            }
        }
    )*};
}
unsigned!(u32, u64, usize);

/// Rust's shortest round-trip form, or `null` when the float is not
/// finite (JSON has no spelling for NaN and the infinities).
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| format!("expected a number, got {v:?}"))
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| format!("expected true or false, got {v:?}"))
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str().map(str::to_string).ok_or_else(|| format!("expected a string, got {v:?}"))
    }
}

/// `None` is `null`, and `null` or an absent member is `None`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        array(out, self, |out, item| item.write_json(out));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        let items = v.as_arr().ok_or_else(|| format!("expected an array, got {v:?}"))?;
        items.iter().map(T::from_json).collect()
    }
}

/// A pair travels as a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(format!("expected a two-element array, got {v:?}")),
        }
    }
}

/// Append `[…]` with one element per item, `item` writing each.
pub fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Append `{…}` with the members `members` writes.
pub fn object(out: &mut String, members: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    members(&mut ObjectWriter::bare(out));
    out.push('}');
}

/// Writes the members of one JSON object, in call order, placing the
/// commas between them.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// A writer whose members land in `out` with no enclosing braces
    /// (for callers that splice them into a larger object).
    pub fn bare(out: &'a mut String) -> Self {
        ObjectWriter { out, first: true }
    }

    /// Start the member `name` and hand back the document so the caller
    /// can append its value (exactly one JSON value must follow).
    pub fn key(&mut self, name: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        name.write_json(self.out);
        self.out.push(':');
        self.out
    }

    /// Write the member `name` with `value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, name: &str, value: &T) -> &mut Self {
        value.write_json(self.key(name));
        self
    }
}

/// A struct that travels as the members of a JSON object, in declared
/// order — implemented by [`wire_struct!`](crate::wire_struct), which also
/// derives the struct's [`ToJson`] / [`FromJson`] from the same list.
pub trait WireFields: Sized {
    /// Write the members, with no enclosing braces.
    fn write_members(&self, o: &mut ObjectWriter<'_>);
    /// Read the members of the object `v`.
    fn read_members(v: &Json) -> Result<Self, String>;
}

/// `wire_struct!(Type { member, member = default, member as Adapter,
/// "name" { sub: field, … }, … })` — the one list of a record's members,
/// in the order they are written. A member is named after the Rust field
/// that holds it and decodes through that field's [`FromJson`]: required,
/// except that an `Option` reads an absent or `null` member as `None`.
/// `= default` is what an absent or `null` member decodes to instead
/// (members added after the first release, floats an emitter may have
/// written as `null`); `as Adapter` travels as the newtype `Adapter`'s
/// spelling of the field; the `"name" { … }` form is a nested object of
/// counters that read 0 when absent. Generates [`WireFields`], plus
/// `ToJson`/`FromJson` as a braced object so the struct can be a member
/// of another record.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $(
        $( $group:literal { $( $sub:ident : $subfield:ident ),* } )?
        $( $field:ident $( as $adapter:ident )? $( = $default:expr )? )?
    ),* }) => {
        impl $crate::json::WireFields for $ty {
            fn write_members(&self, o: &mut $crate::json::ObjectWriter<'_>) {
                $(
                    $( o.field(stringify!($field), $crate::wire_struct!(@out self.$field $(, $adapter)?)); )?
                    $( $crate::json::object(o.key($group), |g| {
                        $( g.field(stringify!($sub), &self.$subfield); )*
                    }); )?
                )*
            }

            fn read_members(v: &$crate::json::Json) -> Result<Self, String> {
                Ok($ty { $(
                    $( $field: $crate::wire_struct!(@in v, $field $( as $adapter )? $( = $default )?), )?
                    $( $( $subfield: v.get($group).unwrap_or(&$crate::json::Json::Null)
                        .field_or(stringify!($sub), 0)?, )* )?
                )* })
            }
        }

        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                $crate::json::object(out, |o| $crate::json::WireFields::write_members(self, o));
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                <Self as $crate::json::WireFields>::read_members(v)
            }
        }
    };
    (@out $value:expr) => { &$value };
    (@out $value:expr, $adapter:ident) => { &$adapter($value) };
    (@in $v:ident, $field:ident) => { $v.field(stringify!($field))? };
    (@in $v:ident, $field:ident = $default:expr) => {
        $v.field_or(stringify!($field), $default)?
    };
    (@in $v:ident, $field:ident as $adapter:ident) => {
        $v.field::<$adapter>(stringify!($field))?.0
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_strings_and_nesting() {
        let v = Json::parse(r#"{"a":1.5,"b":[true,null,"x\"y\\z"],"c":{"d":-2e3}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.5));
        let b = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_str(), Some("x\"y\\z"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2000.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""café""#).unwrap();
        assert_eq!(v.as_str(), Some("café"));
    }
}
