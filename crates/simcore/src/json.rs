//! Minimal JSON value model, writer, and parser.
//!
//! The workspace keeps its dependency set to the approved list, so the
//! structured-results layer (`BENCH_*.json` artifacts, round-trippable
//! sweep exports) is built on this hand-rolled module instead of serde.
//! It supports exactly what the benchmark artifacts need:
//!
//! * a [`Json`] tree with order-preserving objects and a packed node
//!   for long `[time_ns, value]` series ([`Json::Pairs`]),
//! * a compact and a pretty writer,
//! * a strict recursive-descent parser ([`Json::parse`]),
//! * typed accessors that make `from_json` implementations short.
//!
//! Integers are kept distinct from floats ([`Json::Int`] vs
//! [`Json::Num`]) so `u64` quantities (nanosecond timestamps, byte
//! counts, seeds) round-trip exactly.

use std::fmt;
use std::sync::Arc;

use crate::stats::Sample;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer written without a decimal point. `i128` covers the
    /// full `u64` and `i64` ranges losslessly.
    Int(i128),
    /// A non-integer number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
    /// An array of `[time_ns, value]` pairs held in one shared
    /// allocation: the packed form of a series of samples, which
    /// `TimeSeries::to_json` builds without copying them.
    ///
    /// * The compact and pretty writers write it byte for byte as the
    ///   equivalent [`Json::Arr`] of two-item `Arr`s of a [`Json::Int`]
    ///   and a [`Json::Num`]: a time as that integer, a finite value as
    ///   that float, a non-finite value as `null`, and an empty node as
    ///   `[]`.
    /// * [`Json::parse`] never builds it: the text reads as that `Arr`.
    /// * [`Json::as_arr`] does not look inside it, and the derived
    ///   equality is structural, so a `Pairs` node never equals an `Arr`.
    Pairs(Arc<Vec<Sample>>),
}

impl Json {
    /// Object member by key (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object member by key, with a descriptive error for `from_json`
    /// implementations.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing JSON field '{key}'"))
    }

    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value as `f64` (accepts both `Int` and `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an in-range `u64` (must be an `Int`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an in-range `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Typed field accessors that fail with the field name, for
    /// `from_json` implementations.
    pub fn field_u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| format!("field '{key}' is not a u64"))
    }

    /// `u32` field.
    pub fn field_u32(&self, key: &str) -> Result<u32, String> {
        self.req(key)?
            .as_u32()
            .ok_or_else(|| format!("field '{key}' is not a u32"))
    }

    /// `usize` field.
    pub fn field_usize(&self, key: &str) -> Result<usize, String> {
        self.req(key)?
            .as_usize()
            .ok_or_else(|| format!("field '{key}' is not a usize"))
    }

    /// `f64` field (integers accepted).
    pub fn field_f64(&self, key: &str) -> Result<f64, String> {
        self.req(key)?
            .as_f64()
            .ok_or_else(|| format!("field '{key}' is not a number"))
    }

    /// `f64` field where `null` means "not a number".
    ///
    /// JSON has no NaN/Infinity literals, so the writer serializes any
    /// non-finite [`Json::Num`] as `null`. Fields that can legitimately
    /// hold a non-finite value (e.g. a failed sweep cell's time) must be
    /// read back through this accessor, which maps `null` to `f64::NAN`,
    /// making the write/parse cycle lossy only in the *kind* of
    /// non-finiteness (every non-finite value comes back as NaN).
    pub fn field_f64_or_nan(&self, key: &str) -> Result<f64, String> {
        match self.req(key)? {
            Json::Null => Ok(f64::NAN),
            v => v
                .as_f64()
                .ok_or_else(|| format!("field '{key}' is not a number or null")),
        }
    }

    /// `bool` field.
    pub fn field_bool(&self, key: &str) -> Result<bool, String> {
        self.req(key)?
            .as_bool()
            .ok_or_else(|| format!("field '{key}' is not a bool"))
    }

    /// `&str` field.
    pub fn field_str<'a>(&'a self, key: &str) -> Result<&'a str, String> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| format!("field '{key}' is not a string"))
    }

    /// Array field.
    pub fn field_arr<'a>(&'a self, key: &str) -> Result<&'a [Json], String> {
        self.req(key)?
            .as_arr()
            .ok_or_else(|| format!("field '{key}' is not an array"))
    }

    /// Optional field: `None` when absent or `null`, else `read`'s
    /// value, failing with the field name when `read` rejects it.
    pub fn opt_field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => read(v)
                .map(Some)
                .ok_or_else(|| format!("field '{key}' is malformed")),
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        emit::<false>(self, &mut out, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing
    /// newline, for files humans read.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        emit::<true>(self, &mut out, 0);
        out.push('\n');
        out
    }

    /// Parse a JSON document. The whole input must be one value plus
    /// optional surrounding whitespace, in the RFC 8259 grammar: numbers
    /// are `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, strings hold
    /// no raw control byte and `\u` takes exactly four hex digits. A
    /// number without fraction or exponent is an [`Json::Int`] and must
    /// fit `i128`. Nesting deeper than [`MAX_PARSE_DEPTH`] is rejected
    /// with an error rather than risking a stack overflow on hostile or
    /// corrupt input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }
}

/// Spaces per nesting level in [`Json::to_pretty`].
const INDENT_STEP: usize = 2;

/// A comma and line break followed by the run of spaces every
/// indentation is copied from; a deeper line takes the run in several
/// chunks.
const BREAK: &str = ",\n                                                                ";

/// `"00"`, `"01"`, …, `"99"`: integers are written two digits a step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// How the writer escapes each control byte: the three with short
/// forms use them, the rest `\u00xx` in lowercase hex.
const CONTROL_ESCAPES: [&str; 32] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
    "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
    "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// The one writer behind [`Json::to_compact`] (`PRETTY = false`) and
/// [`Json::to_pretty`] (`PRETTY = true`, without the final newline).
fn emit<const PRETTY: bool>(value: &Json, out: &mut String, depth: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(i) => write_int(out, *i),
        Json::Num(n) => write_num(out, *n),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) if items.is_empty() => out.push_str("[]"),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                item_break::<PRETTY>(out, i, depth + 1);
                emit::<PRETTY>(item, out, depth + 1);
            }
            item_break::<PRETTY>(out, 0, depth);
            out.push(']');
        }
        Json::Obj(members) if members.is_empty() => out.push_str("{}"),
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                item_break::<PRETTY>(out, i, depth + 1);
                write_escaped(out, key);
                out.push_str(if PRETTY { ": " } else { ":" });
                emit::<PRETTY>(member, out, depth + 1);
            }
            item_break::<PRETTY>(out, 0, depth);
            out.push('}');
        }
        Json::Pairs(pairs) if pairs.is_empty() => out.push_str("[]"),
        Json::Pairs(pairs) => {
            // What the `Arr` of two-item `Arr`s writes around each pair,
            // built once: the break before a pair and its opening
            // bracket (the first pair skips the comma), the break
            // between its items, and the break before its closing one.
            let mut open = String::new();
            item_break::<PRETTY>(&mut open, 1, depth + 1);
            open.push('[');
            item_break::<PRETTY>(&mut open, 0, depth + 2);
            let mut mid = String::new();
            item_break::<PRETTY>(&mut mid, 1, depth + 2);
            let mut close = String::new();
            item_break::<PRETTY>(&mut close, 0, depth + 1);
            close.push(']');
            out.push('[');
            let mut lead = &open[1..];
            for sample in pairs.iter() {
                out.push_str(lead);
                write_u64(out, sample.time.as_nanos());
                out.push_str(&mid);
                write_num(out, sample.value);
                out.push_str(&close);
                lead = &open;
            }
            item_break::<PRETTY>(out, 0, depth);
            out.push(']');
        }
    }
}

/// The separator before item `index` of a container whose items sit at
/// `depth`: a comma unless it is the first, then in pretty form a line
/// break indented `depth` levels. Before a closing bracket it is called
/// with index 0 and the container's own depth.
fn item_break<const PRETTY: bool>(out: &mut String, index: usize, depth: usize) {
    if !PRETTY {
        if index > 0 {
            out.push(',');
        }
        return;
    }
    let chunk = BREAK.len() - 2;
    let mut spaces = depth * INDENT_STEP;
    let first = spaces.min(chunk);
    out.push_str(&BREAK[usize::from(index == 0)..2 + first]);
    spaces -= first;
    while spaces > 0 {
        let n = spaces.min(chunk);
        out.push_str(&BREAK[2..2 + n]);
        spaces -= n;
    }
}

/// Integers in the `i64`/`u64` range go through a digit loop; only the
/// rest of `i128` takes `Display`.
fn write_int(out: &mut String, i: i128) {
    if let Ok(u) = u64::try_from(i) {
        write_u64(out, u);
    } else if let Ok(n) = i64::try_from(i) {
        out.push('-');
        write_u64(out, n.unsigned_abs());
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
    }
}

/// A [`Json::Num`]: finite values through [`write_float`], the rest as
/// `null`.
fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        write_float(out, n);
    } else {
        out.push_str("null");
    }
}

/// Integral floats below 2^53 in magnitude go through the digit loop:
/// every one is an integer `{}` writes in full, and −0.0 keeps its
/// sign as `-0`. Every other float takes `{}` on `f64`, the shortest
/// representation that parses back to the same bits, so floats
/// round-trip.
fn write_float(out: &mut String, n: f64) {
    const EXACT: f64 = (1u64 << 53) as f64;
    if n.abs() < EXACT && n.trunc() == n {
        if n.is_sign_negative() {
            out.push('-');
        }
        write_u64(out, n.abs() as u64);
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

fn write_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 10 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    // The pairs leave one digit still to write, or none (0 itself
    // still writes its digit).
    if v > 0 || at == buf.len() {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("digits are ASCII"));
}

/// A string without `"`, `\\` or control bytes is copied in one
/// `push_str`; otherwise the runs between escapes are.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            0..=0x1f => CONTROL_ESCAPES[usize::from(b)],
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` lies on char boundaries.
        out.push_str(&s[run..i]);
        out.push_str(escape);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Maximum container nesting depth [`Json::parse`] accepts. Real
/// artifacts nest a handful of levels; anything deeper is corrupt or
/// adversarial, and the recursive-descent parser must refuse it before
/// the call stack does.
pub const MAX_PARSE_DEPTH: usize = 512;

/// The scanner behind [`Json::parse`]: one pass over the text, with
/// one number routine and one string routine, and one depth count against
/// [`MAX_PARSE_DEPTH`]. After an error the reader is spent.
///
/// `pos` is a byte offset; the reader only ever slices `text` at ASCII
/// bytes, so every slice is on a char boundary.
#[derive(Debug)]
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Nesting depth of the next value: 0 for the document itself.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Reads the next value as a tree.
    fn value(&mut self) -> Result<Json, String> {
        self.check_depth()?;
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.members(|r, key| {
                    members.push((key, r.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(_) => self.number(),
        }
    }

    /// Ends the document: only whitespace may follow the value read.
    fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    fn check_depth(&self) -> Result<(), String> {
        if self.depth > MAX_PARSE_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_PARSE_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    /// The items of the container whose opening bracket is at `pos`, up
    /// to its `close` byte; `item` reads each one a level deeper.
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
        self.depth += 1;
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        char::from(close),
                        self.pos
                    ))
                }
            }
        }
    }

    /// The members of the object whose `{` is at `pos`.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.items(b'}', |r| {
            r.skip_ws();
            let key = r.string()?;
            r.skip_ws();
            if r.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", r.pos));
            }
            r.pos += 1;
            member(r, key)
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace; runs of spaces (pretty indentation) go eight
    /// bytes at a time.
    fn skip_ws(&mut self) {
        const SPACES: u64 = u64::from_le_bytes(*b"        ");
        let bytes = self.text.as_bytes();
        loop {
            if let Some(chunk) = bytes.get(self.pos..).and_then(<[u8]>::first_chunk::<8>) {
                // The lowest non-zero byte of `other` is the first one
                // that is not a space.
                let other = u64::from_le_bytes(*chunk) ^ SPACES;
                if other == 0 {
                    self.pos += 8;
                    continue;
                }
                self.pos += (other.trailing_zeros() / 8) as usize;
            }
            match bytes.get(self.pos) {
                Some(b' ' | b'\t' | b'\n' | b'\r') => self.pos += 1,
                _ => return,
            }
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    /// A string without escapes is one slice copy; otherwise the runs
    /// between escapes are. Runs of plain bytes are scanned eight at a
    /// time.
    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let bytes = self.text.as_bytes();
        let mut run = self.pos;
        let mut out = String::new();
        loop {
            if let Some(chunk) = bytes.get(self.pos..).and_then(<[u8]>::first_chunk::<8>) {
                let stops = string_stops(u64::from_le_bytes(*chunk));
                if stops == 0 {
                    self.pos += 8;
                    continue;
                }
                self.pos += (stops.trailing_zeros() / 8) as usize;
            }
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    // Every escape pushes a char, so an empty `out` means
                    // the string had none.
                    if out.is_empty() {
                        return Ok(tail.to_owned());
                    }
                    out.push_str(tail);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => {
                    return Err(format!("raw control byte in string at byte {}", self.pos))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The escape whose letter is at `pos`; leaves `pos` past it.
    fn escape(&mut self) -> Result<char, String> {
        let bytes = self.text.as_bytes();
        let c = match bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = bytes
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or("truncated \\u escape")?;
                let mut code = 0;
                for &h in hex {
                    let digit = char::from(h)
                        .to_digit(16)
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    code = code * 16 + digit;
                }
                self.pos += 4;
                // Surrogate pairs are not needed by our writers; reject
                // them rather than mis-decode.
                char::from_u32(code).ok_or("invalid \\u escape")?
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The number literal at `pos`, in the grammar
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. An integer of
    /// at most 19 digits is taken from their running value (10^19 <
    /// 2^64); every other literal is parsed from its text, a fraction or
    /// exponent correctly rounded as `f64`.
    fn number(&mut self) -> Result<Json, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let expected = |what| format!("expected {what} at byte {start}");
        let negative = bytes.get(start) == Some(&b'-');
        let first = start + usize::from(negative);
        let mut magnitude = 0;
        let mut at = match bytes.get(first) {
            Some(b'0') => first + 1,
            Some(b'1'..=b'9') => digit_run(bytes, first, &mut magnitude),
            _ => return Err(expected("number")),
        };
        let digits = at - first;
        let mut float = false;
        if bytes.get(at) == Some(&b'.') {
            let end = digit_run(bytes, at + 1, &mut 0);
            if end == at + 1 {
                return Err(expected("digit in number"));
            }
            (at, float) = (end, true);
        }
        if matches!(bytes.get(at), Some(b'e' | b'E')) {
            at += 1;
            if matches!(bytes.get(at), Some(b'+' | b'-')) {
                at += 1;
            }
            let end = digit_run(bytes, at, &mut 0);
            if end == at {
                return Err(expected("digit in number"));
            }
            (at, float) = (end, true);
        }
        self.pos = at;
        let text = &self.text[start..at];
        if float {
            return text
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number '{text}': {e}"));
        }
        if digits <= 19 {
            let magnitude = i128::from(magnitude);
            return Ok(Json::Int(if negative { -magnitude } else { magnitude }));
        }
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|e| format!("bad integer '{text}': {e}"))
    }
}

/// Accumulates the digits from `at` into `value`, wrapping modulo 2^64,
/// and returns the offset of the first byte that is not one.
fn digit_run(bytes: &[u8], mut at: usize, value: &mut u64) -> usize {
    while let Some(&digit @ b'0'..=b'9') = bytes.get(at) {
        *value = value.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
        at += 1;
    }
    at
}

/// The bytes of a little-endian word that end a plain run in a string
/// (`"`, `\` and control bytes), each marked by its high bit. Only the
/// lowest mark is exact: a borrow out of a marked byte may mark the one
/// above it, which the caller never reads past.
fn string_stops(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & HIGH;
    zero_bytes(word ^ (ONES * u64::from(b'"')))
        | zero_bytes(word ^ (ONES * u64::from(b'\\')))
        | word.wrapping_sub(ONES * 0x20) & !word & HIGH
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i128::from(v))
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(i128::from(v))
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(i128::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Build a [`Json::Obj`] with literal keys:
/// `jobj! { "a": 1u64, "b": "x" }`. Values go through `Json::from`.
#[macro_export]
macro_rules! jobj {
    ($($k:literal : $v:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![
            $(($k.to_string(), $crate::json::Json::from($v))),*
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optional_fields_read_absent_and_null_as_none() {
        let v = Json::parse(r#"{"n": 3, "z": null, "s": "x"}"#).unwrap();
        assert_eq!(v.opt_field("n", Json::as_u64), Ok(Some(3)));
        assert_eq!(v.opt_field("z", Json::as_u64), Ok(None));
        assert_eq!(v.opt_field("missing", Json::as_u64), Ok(None));
        assert_eq!(v.opt_field("s", Json::as_str), Ok(Some("x")));
        let err = v.opt_field("s", Json::as_u64).unwrap_err();
        assert!(err.contains("'s'"), "{err}");
    }

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "123456789012345678901"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_compact(), text);
        }
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("-2e3").unwrap(), Json::Num(-2000.0));
    }

    #[test]
    fn u64_extremes_round_trip_exactly() {
        let j = Json::from(u64::MAX);
        let back = Json::parse(&j.to_compact()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, -1e-300, 111.8251] {
            let text = Json::Num(x).to_compact();
            match Json::parse(&text).unwrap() {
                Json::Num(y) => assert_eq!(x.to_bits(), y.to_bits(), "{text}"),
                Json::Int(i) => assert_eq!(x, i as f64),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn non_finite_floats_round_trip_as_nan_via_null() {
        // Policy: non-finite floats serialize as `null`; readers of
        // fields that may be non-finite use `field_f64_or_nan`, which
        // maps `null` back to NaN (the distinction between NaN and the
        // infinities is not preserved — all come back as NaN).
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = jobj! { "t": x };
            assert_eq!(doc.to_compact(), r#"{"t":null}"#);
            let back = Json::parse(&doc.to_compact()).unwrap();
            assert!(back.field_f64_or_nan("t").unwrap().is_nan());
            // The strict accessor still rejects null.
            assert!(back.field_f64("t").is_err());
        }
        // Finite values pass through the lenient accessor unchanged.
        let doc = Json::parse(r#"{"t": 1.25, "n": 3}"#).unwrap();
        assert_eq!(doc.field_f64_or_nan("t"), Ok(1.25));
        assert_eq!(doc.field_f64_or_nan("n"), Ok(3.0));
        assert!(doc.field_f64_or_nan("missing").is_err());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a \"quoted\" \\ line\nwith\ttabs and unicode: åß∂";
        let j = Json::Str(s.to_owned());
        assert_eq!(Json::parse(&j.to_compact()).unwrap().as_str(), Some(s));
        assert_eq!(
            Json::parse("\"\\u0041\\u00e5\"").unwrap().as_str(),
            Some("Aå")
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = jobj! {
            "name": "fig2",
            "ok": true,
            "cells": Json::Arr(vec![
                jobj! { "t": 1u64, "x": 1.25 },
                jobj! { "t": 2u64, "x": Json::Null },
            ]),
        };
        let compact = Json::parse(&v.to_compact()).unwrap();
        let pretty = Json::parse(&v.to_pretty()).unwrap();
        assert_eq!(compact, v);
        assert_eq!(pretty, v);
        assert_eq!(v.get("name").unwrap().as_str(), Some("fig2"));
        assert_eq!(v.field_bool("ok"), Ok(true));
        let cells = v.field_arr("cells").unwrap();
        assert_eq!(cells[0].field_u64("t"), Ok(1));
        assert!(v.field_u64("missing").is_err());
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let v = Json::parse(text).unwrap();
        match &v {
            Json::Obj(members) => {
                let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a", "m"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{1: 2}").is_err());
        assert!(Json::parse("nulL").is_err());
    }

    #[test]
    fn grammar_is_rfc_8259_strict() {
        let accepted = [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("10", Json::Int(10)),
            (
                "-1234567890123456789",
                Json::Int(-1_234_567_890_123_456_789),
            ),
            (
                "-12345678901234567890",
                Json::Int(-12_345_678_901_234_567_890),
            ),
            ("0.5", Json::Num(0.5)),
            ("-0.5", Json::Num(-0.5)),
            ("1e5", Json::Num(1e5)),
            ("1E+5", Json::Num(1e5)),
            ("2.5e-3", Json::Num(2.5e-3)),
            ("0e0", Json::Num(0.0)),
            (r#""a\/b""#, Json::Str("a/b".into())),
            (r#""\b\fåå""#, Json::Str("\u{8}\u{c}åå".into())),
            ("\"\u{7f}é\"", Json::Str("\u{7f}é".into())),
            (
                " \t\r\n[ 1 ,\t2 ]\r\n",
                Json::Arr(vec![Json::Int(1), Json::Int(2)]),
            ),
        ];
        for (text, want) in accepted {
            assert_eq!(Json::parse(text), Ok(want), "{text:?}");
        }
        assert_eq!(
            Json::parse("-0.0").map(|v| v.as_f64().map(f64::to_bits)),
            Ok(Some((-0.0f64).to_bits()))
        );
        let rejected = [
            "+1",
            ".5",
            "1.",
            "-.5",
            "01",
            "-01",
            "00",
            "-",
            "--1",
            "1e",
            "1e+",
            "1.e5",
            "0x10",
            "1.5.5",
            "1e5e5",
            "[01]",
            r#"{"a": +1}"#,
            "\"a\u{1}b\"",
            "\"tab\there\"",
            "\"nl\n\"",
            r#""\u+041""#,
            r#""\u00g1""#,
            r#""\u00""#,
            r#""\x""#,
            r#""\ud800""#,
        ];
        for text in rejected {
            assert!(Json::parse(text).is_err(), "{text:?} must be rejected");
        }
    }

    #[test]
    fn depth_limit_rejects_instead_of_overflowing() {
        // One level under the limit parses; past it is a clean Err.
        let ok = format!(
            "{}0{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(MAX_PARSE_DEPTH + 10);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        let deep_obj = "{\"k\":".repeat(MAX_PARSE_DEPTH + 10);
        assert!(Json::parse(&deep_obj).is_err());
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let v = Json::parse(r#"{"n": -1, "s": "x"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None, "negative is not u64");
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("nope"), None);
    }
}
