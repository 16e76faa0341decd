//! A minimal JSON value type, serializer, and parser.
//!
//! The offline build environment cannot fetch `serde`/`serde_json`, so
//! the trace and bench crates emit JSON through this hand-rolled tree:
//! insertion-ordered objects and one encoder, [`Json::write_to`], behind
//! `Display`, `to_string()` and the two-space [`Json::pretty`] form (the
//! same walk with an indent). [`Json::parse`] is the matching
//! recursive-descent reader, and [`Json::load`] with the typed accessors
//! ([`Json::u64_at`], [`Json::opt_str_at`], [`Json::arr_at`], ...) is
//! how every loader reads a file back: a dotted path in, a value or an
//! error naming that path out.
//!
//! The tree is for documents that are built once and are small: reports,
//! case files, baselines. The per-event exporters do not go through it.
//! `write_jsonl` and `write_chrome` format each line straight into a
//! reused buffer with this module's [`Escaper`] and [`write_uint`], and
//! `parse_jsonl` drives the [`Parser`] over a line's fields without
//! building a value; a tree per event cost about ten allocations per
//! 70-byte line (802 ns per event written, against 0.5 µs to simulate it).
//!
//! Strings are escaped a run at a time (the longest stretch with nothing
//! to escape is copied whole, as the parser reads them) and integers go
//! through a stack digit buffer, not `fmt::Formatter`.
//!
//! The reader keeps the usual token on a short path, the rest out of
//! line: a string with no escapes is borrowed from the input, a number of
//! up to 18 digits is accumulated as it is scanned ([`Parser::uint`],
//! which `parse_jsonl` calls for its ids, so no value is built per
//! number), and an object starts with room for as many fields as its
//! sibling had (`SHAPE_CAP`). What is left of a tree read is its
//! allocations: a `String` per key, a `Vec` per container.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::path::Path;

/// A JSON document node. Object keys keep insertion order so exported
/// records are stable across runs (a determinism requirement for the
/// byte-identical-trace checks).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any integer (serialized without a decimal point).
    Int(i64),
    /// An unsigned integer wider than `i64` allows.
    UInt(u64),
    /// A float; non-finite values serialize as `null`.
    Float(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Appends a field to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Parses a JSON document, rejecting trailing garbage and containers
    /// nested deeper than 128.
    ///
    /// Numbers parse as [`Json::Int`] when they fit an `i64`, as
    /// [`Json::UInt`] for larger non-negative integers, and as
    /// [`Json::Float`] otherwise — the same split the writers use, so
    /// `parse(x.to_string()) == x` for every tree this module emits. A
    /// number with no finite `f64` (`1e400`) is an error: it would be
    /// written back as `null`. Known and harmless leniencies, pinned by a
    /// test: leading zeros (`01`), a bare point (`1.`, `-.5`), and raw
    /// control characters, a newline included, inside a string.
    ///
    /// ```
    /// use trace::Json;
    /// let v = Json::parse(r#"{"kind":"switch","t_us":123}"#).unwrap();
    /// assert_eq!(v.get("kind").and_then(Json::as_str), Some("switch"));
    /// assert_eq!(v.get("t_us").and_then(Json::as_u64), Some(123));
    /// ```
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let v = p.value()?;
        p.finish()?;
        Ok(v)
    }

    /// Looks up a field of an object (`None` for other node types).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The node as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(n) if n >= 0 => Some(n as u64),
            Json::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// The node as a float (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::UInt(n) => Some(n as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The node as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The node as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The node's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Reads the file at `path` as one document and hands it to `read`,
    /// the loader for its schema. Every error starts with the path,
    /// whether the file cannot be read, is not JSON, or `read` refuses
    /// it: the one way a report, case or baseline comes back from disk.
    pub fn load<T>(
        path: impl AsRef<Path>,
        read: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<T, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text)
            .and_then(|doc| read(&doc))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The node at `path`, a dotted list of keys (`"latency_us.p99"`) in
    /// which a segment of digits indexes an array and `""` names `self`.
    /// `None` if a field on the way is absent or `null`; an error naming
    /// the node's path if a node on the way is neither object nor array.
    /// The typed accessors below read through it, and all but [`Json::at`]
    /// take a `null` field for an absent one.
    #[inline]
    pub fn opt_at(&self, path: &str) -> Result<Option<&Json>, String> {
        let mut node = self;
        let mut rest = path;
        while !rest.is_empty() {
            let (seg, tail) = match rest.bytes().position(|b| b == b'.') {
                Some(dot) => (&rest[..dot], &rest[dot + 1..]),
                None => (rest, ""),
            };
            let child = match node {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == seg).map(|(_, v)| v),
                Json::Arr(items) if seg.bytes().all(|b| b.is_ascii_digit()) => {
                    seg.parse().ok().and_then(|i: usize| items.get(i))
                }
                Json::Null => None,
                other => {
                    let parent = &path[..(path.len() - rest.len()).max(1) - 1];
                    let found = format!("expected an object, found {}", other.kind());
                    return Err(field_error(parent, &found));
                }
            };
            let Some(child) = child else { return Ok(None) };
            node = child;
            rest = tail;
        }
        Ok(Some(node))
    }

    /// As [`Json::opt_at`], with an absent field an error.
    #[inline]
    pub fn at(&self, path: &str) -> Result<&Json, String> {
        required(path, self.opt_at(path))
    }

    /// The unsigned integer at `path`; absent, or of another type, is an
    /// error naming `path`.
    #[inline]
    pub fn u64_at(&self, path: &str) -> Result<u64, String> {
        required(path, self.opt_u64_at(path))
    }

    /// As [`Json::u64_at`], but `None` for an absent field.
    #[inline]
    pub fn opt_u64_at(&self, path: &str) -> Result<Option<u64>, String> {
        self.opt_typed_at(path, "an unsigned integer", Json::as_u64)
    }

    /// The unsigned integer at `path`, which must also fit a `u32`.
    #[inline]
    pub fn u32_at(&self, path: &str) -> Result<u32, String> {
        required(path, self.opt_u32_at(path))
    }

    /// As [`Json::u32_at`], but `None` for an absent field.
    #[inline]
    pub fn opt_u32_at(&self, path: &str) -> Result<Option<u32>, String> {
        let as_u32 = |v: &Json| v.as_u64().and_then(|n| u32::try_from(n).ok());
        self.opt_typed_at(path, "an unsigned 32-bit integer", as_u32)
    }

    /// The number at `path` (integers convert).
    #[inline]
    pub fn f64_at(&self, path: &str) -> Result<f64, String> {
        required(path, self.opt_typed_at(path, "a number", Json::as_f64))
    }

    /// The string at `path`.
    #[inline]
    pub fn str_at(&self, path: &str) -> Result<&str, String> {
        required(path, self.opt_str_at(path))
    }

    /// As [`Json::str_at`], but `None` for an absent field.
    #[inline]
    pub fn opt_str_at(&self, path: &str) -> Result<Option<&str>, String> {
        self.opt_typed_at(path, "a string", Json::as_str)
    }

    /// The array at `path`, each element read by `read`; an element's
    /// error is restated under its own path (`decisions.2.site: ...`).
    pub fn arr_at<'a, T>(
        &'a self,
        path: &str,
        read: impl FnMut(&'a Json) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        required(path, self.opt_arr_at(path, read))
    }

    /// As [`Json::arr_at`], but `None` for an absent field.
    pub fn opt_arr_at<'a, T>(
        &'a self,
        path: &str,
        mut read: impl FnMut(&'a Json) -> Result<T, String>,
    ) -> Result<Option<Vec<T>>, String> {
        let items = self.opt_typed_at(path, "an array", Json::as_array)?;
        let item = |(i, item)| read(item).map_err(|e| restate(&format!("{path}.{i}"), &e));
        items
            .map(|items| items.iter().enumerate().map(item).collect())
            .transpose()
    }

    /// The object at `path` read whole by `read`, whose errors are
    /// restated under `path`; `None` for an absent field.
    pub fn opt_obj_at<'a, T>(
        &'a self,
        path: &str,
        read: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let obj = |v: &'a Json| matches!(v, Json::Obj(_)).then_some(v);
        match self.opt_typed_at(path, "an object", obj)? {
            Some(v) => read(v).map(Some).map_err(|e| restate(path, &e)),
            None => Ok(None),
        }
    }

    /// The node at `path` as `conv` reads it: `None` if it is absent or
    /// `null`, an error naming `path` and `want` if `conv` refuses it.
    fn opt_typed_at<'a, T>(
        &'a self,
        path: &str,
        want: &str,
        conv: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.opt_at(path)? {
            None | Some(Json::Null) => Ok(None),
            Some(node) => conv(node).map(Some).ok_or_else(|| {
                field_error(path, &format!("expected {want}, found {}", node.kind()))
            }),
        }
    }

    /// What a node is, for an error message: a number shows itself.
    fn kind(&self) -> String {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
            number => return number.to_string(),
        }
        .to_string()
    }

    /// Renders with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.encode(&mut out, Some(0))
            .expect("a String accepts every write");
        out
    }

    /// Writes compact (single-line) JSON: what `Display` and
    /// `to_string()` produce.
    pub fn write_to<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        self.encode(w, None)
    }

    /// The one encoder. `indent` is `None` for the compact form, or the
    /// current depth (in two-space steps) for the pretty one.
    fn encode<W: fmt::Write>(&self, w: &mut W, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => w.write_str("null"),
            Json::Bool(b) => w.write_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                if *n < 0 {
                    w.write_char('-')?;
                }
                write_uint(w, n.unsigned_abs())
            }
            Json::UInt(n) => write_uint(w, *n),
            Json::Float(x) if x.is_finite() => write!(w, "{x}"),
            Json::Float(_) => w.write_str("null"),
            Json::Str(s) => write_str(w, s),
            Json::Arr(items) => encode_items(w, indent, ['[', ']'], items, Json::encode),
            Json::Obj(fields) => encode_items(w, indent, ['{', '}'], fields, |(k, v), w, inner| {
                write_str(w, k)?;
                w.write_str(if inner.is_some() { ": " } else { ":" })?;
                v.encode(w, inner)
            }),
        }
    }
}

/// A required field's value: `None` is an error naming `path`.
fn required<T>(path: &str, value: Result<Option<T>, String>) -> Result<T, String> {
    value?.ok_or_else(|| field_error(path, "missing field"))
}

/// An accessor's error: `path: what`, or just `what` for the document
/// itself.
fn field_error(path: &str, what: &str) -> String {
    if path.is_empty() {
        what.to_string()
    } else {
        format!("{path}: {what}")
    }
}

/// An error from reading the node at `path`, restated from the
/// document: one that starts with a relative field path (`site: ...`)
/// gets `path.` before it, any other `path: `.
fn restate(path: &str, e: &str) -> String {
    let relative = e.split_once(": ").is_some_and(|(p, _)| {
        !p.is_empty()
            && p.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.".contains(&b))
    });
    format!("{path}{}{e}", if relative { "." } else { ": " })
}

/// A container: in the pretty form each child starts a line, one indent
/// deeper, and a non-empty container closes on a line of its own.
fn encode_items<W: fmt::Write, T>(
    w: &mut W,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    each: impl Fn(&T, &mut W, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    let inner = indent.map(|depth| depth + 1);
    w.write_char(open)?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            w.write_char(',')?;
        }
        break_line(w, inner)?;
        each(item, w, inner)?;
    }
    if !items.is_empty() {
        break_line(w, indent)?;
    }
    w.write_char(close)
}

/// In the pretty form, a newline and `depth` two-space indents; nothing
/// in the compact form.
fn break_line<W: fmt::Write>(w: &mut W, depth: Option<usize>) -> fmt::Result {
    const PAD: &str = "                                ";
    let Some(depth) = depth else { return Ok(()) };
    w.write_char('\n')?;
    let mut spaces = depth * 2;
    while spaces > 0 {
        let n = spaces.min(PAD.len());
        w.write_str(&PAD[..n])?;
        spaces -= n;
    }
    Ok(())
}

/// Writes `n` in decimal from a stack digit buffer.
pub(crate) fn write_uint<W: fmt::Write>(w: &mut W, mut n: u64) -> fmt::Result {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits.
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    w.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

/// Writes `s` as a JSON string: quoted and escaped. Every key and nearly
/// every value has nothing to escape, which one scan finds.
fn write_str<W: fmt::Write>(w: &mut W, s: &str) -> fmt::Result {
    w.write_char('"')?;
    if s.bytes().all(is_plain) {
        w.write_str(s)?;
    } else {
        Escaper(&mut *w).write_str(s)?;
    }
    w.write_char('"')
}

/// True for a byte that stands for itself inside a JSON string.
fn is_plain(b: u8) -> bool {
    b >= 0x20 && b != b'"' && b != b'\\'
}

/// A writer that escapes what passes through it for the inside of a JSON
/// string, so text can be formatted in place between two quotes. The
/// longest run with nothing to escape is copied whole; `"`, `\` and the
/// control bytes below 0x20 are all ASCII, so a run never splits a
/// multi-byte character.
pub(crate) struct Escaper<'a, W: fmt::Write>(pub(crate) &'a mut W);

impl<W: fmt::Write> fmt::Write for Escaper<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut from = 0;
        for (i, b) in s.bytes().enumerate() {
            if is_plain(b) {
                continue;
            }
            self.0.write_str(&s[from..i])?;
            from = i + 1;
            match b {
                b'"' => self.0.write_str("\\\"")?,
                b'\\' => self.0.write_str("\\\\")?,
                b'\n' => self.0.write_str("\\n")?,
                b'\r' => self.0.write_str("\\r")?,
                b'\t' => self.0.write_str("\\t")?,
                _ => write!(self.0, "\\u{b:04x}")?,
            }
        }
        self.0.write_str(&s[from..])
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `f` is a `dyn Write`: one call with the text, not one per token.
        let mut text = String::new();
        self.write_to(&mut text)?;
        f.write_str(&text)
    }
}

/// Containers may nest this deep. No writer here goes past ten levels;
/// the cap keeps a hostile file (200 000 `[`) an error, not a stack
/// overflow: the reader recurses once per level.
const MAX_DEPTH: usize = 128;

/// Sibling objects (the events of a Chrome trace, the rows of a report,
/// the cases of a corpus) have one shape, so the reader gives each object
/// the capacity the last one at its depth filled: one exact allocation,
/// not `Vec`'s 0, 4, 8. The hint saturates, so a hostile file cannot make
/// an object reserve more than this many fields it does not have.
const SHAPE_CAP: usize = 64;

/// The recursive-descent reader behind [`Json::parse`]. `parse_jsonl`
/// drives it directly, a field at a time, so both read one grammar and
/// report one set of errors.
pub(crate) struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    depth: usize,
    /// Field count, up to [`SHAPE_CAP`], of the last object read at each
    /// of the first eight depths.
    shape: [u8; 8],
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
            shape: [0; 8],
        }
    }

    #[inline]
    pub(crate) fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            // A token, as nearly every call finds, leaves on one compare.
            if b > b' ' || !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                break;
            }
            self.at += 1;
        }
    }

    /// Rejects anything but whitespace after the document.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.at != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.at));
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    #[inline]
    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.at))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("expected '{word}' at byte {}", self.at))
        }
    }

    pub(crate) fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items([b'[', b']'], |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let depth = self.depth;
                let hint = self.shape.get(depth).copied().unwrap_or(0);
                let mut fields = Vec::with_capacity(hint.into());
                self.fields(|p, key| {
                    let v = p.value()?;
                    fields.push((key.into_owned(), v));
                    Ok(())
                })?;
                if let Some(hint) = self.shape.get_mut(depth) {
                    *hint = fields.len().min(SHAPE_CAP) as u8;
                }
                Ok(Json::Obj(fields))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected byte '{}' at {}",
                char::from(b),
                self.at
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Reads `open item , item close` with the parser handed to `each` at
    /// every item: the grammar arrays and objects share, and the one place
    /// that recurses, so the one place the nesting cap is checked.
    #[inline]
    fn items(
        &mut self,
        [open, close]: [u8; 2],
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            let at = self.at;
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
        }
        self.eat(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b) if b == close => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    let (close, at) = (char::from(close), self.at);
                    return Err(format!("expected ',' or '{close}' at byte {at}"));
                }
            }
        }
    }

    /// Reads an object, handing each key to `each` with the parser at the
    /// field's value; `each` must consume exactly that value.
    #[inline]
    pub(crate) fn fields(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.items([b'{', b'}'], |p| {
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            p.skip_ws();
            each(p, key)
        })
    }

    /// The escape-free run starting at `self.at`, up to the next `"` or
    /// `\` (both ASCII, so the cut is on a character boundary).
    #[inline]
    fn run(&mut self) -> Result<&'a str, String> {
        let start = self.at;
        while let Some(&b) = self.bytes.get(self.at) {
            if b == b'"' || b == b'\\' {
                break;
            }
            self.at += 1;
        }
        self.text
            .get(start..self.at)
            .ok_or_else(|| "invalid UTF-8 in string".to_string())
    }

    /// Reads a string: borrowed from the input when it has no escapes
    /// (every key and almost every value our writers produce).
    #[inline]
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let plain = self.run()?;
        if self.peek() == Some(b'"') {
            self.at += 1;
            return Ok(Cow::Borrowed(plain));
        }
        self.string_escaped(plain.to_string()).map(Cow::Owned)
    }

    /// The rest of a string whose first run, `out`, did not end at a `"`.
    #[cold]
    fn string_escaped(&mut self, mut out: String) -> Result<String, String> {
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.at += 1;
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape ending at byte {}", self.at)
                            })?);
                        }
                        other => {
                            return Err(format!(
                                "unknown escape '\\{}' at byte {}",
                                char::from(other),
                                self.at
                            ))
                        }
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
            out.push_str(self.run()?);
        }
    }

    /// Exactly four hex digits (`from_str_radix` would take a sign too).
    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.at + 4;
        let s = self
            .bytes
            .get(self.at..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.at))?;
        let v = s
            .chars()
            .try_fold(0, |v, c| Some(v << 4 | c.to_digit(16)?))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
        self.at = end;
        Ok(v)
    }

    /// A whole number read as it is scanned: at most 18 digits (under
    /// 10^18, so an `i64` too) that no `.`, exponent or sign follows.
    /// Anything else is `None` with the parser unmoved.
    #[inline]
    pub(crate) fn uint(&mut self) -> Option<u64> {
        let (mut n, mut at) = (0u64, self.at);
        while let Some(d) = self.bytes.get(at).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            if at - self.at == 18 {
                return None;
            }
            n = n * 10 + u64::from(d);
            at += 1;
        }
        let more = matches!(self.bytes.get(at), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if at == self.at || more {
            return None;
        }
        self.at = at;
        Some(n)
    }

    #[inline]
    fn number(&mut self) -> Result<Json, String> {
        match self.uint() {
            Some(n) => Ok(Json::Int(n as i64)),
            None => self.number_slow(),
        }
    }

    /// Every number [`Parser::uint`] leaves: signed, fractional, or wide.
    #[cold]
    fn number_slow(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        match text.parse::<f64>() {
            // A non-finite float would be written back as `null`.
            Ok(x) if x.is_finite() => Ok(Json::Float(x)),
            Ok(_) => Err(format!("number out of range at byte {start}")),
            Err(_) => Err(format!("bad number '{text}' at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Json::obj([
            ("a", Json::Int(1)),
            ("b", Json::from("x\"y")),
            ("c", Json::arr([Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(v.to_string(), r#"{"a":1,"b":"x\"y","c":[true,null]}"#);
    }

    #[test]
    fn floats_and_ints_distinct() {
        assert_eq!(Json::Float(1.5).to_string(), "1.5");
        assert_eq!(Json::Float(2.0).to_string(), "2");
        assert_eq!(Json::Int(-3).to_string(), "-3");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::UInt(u64::MAX).to_string(), u64::MAX.to_string());
    }

    #[test]
    fn escaping_control_chars() {
        let v = Json::from("line\nbreak\ttab \u{1}");
        assert_eq!(v.to_string(), "\"line\\nbreak\\ttab \\u0001\"");
    }

    #[test]
    fn pretty_indents_nested_structures() {
        let v = Json::obj([("xs", Json::arr([Json::Int(1), Json::Int(2)]))]);
        let p = v.pretty();
        assert_eq!(p, "{\n  \"xs\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn empty_containers_stay_compact_in_pretty() {
        let v = Json::obj([("a", Json::Arr(vec![])), ("b", Json::Obj(vec![]))]);
        assert_eq!(v.pretty(), "{\n  \"a\": [],\n  \"b\": {}\n}");
    }

    #[test]
    fn option_and_vec_conversions() {
        assert_eq!(Json::from(None::<u32>), Json::Null);
        assert_eq!(Json::from(Some(3u32)).to_string(), "3");
        assert_eq!(Json::from(vec![1u64, 2]).to_string(), "[1,2]");
    }

    #[test]
    fn ordered_object_keys() {
        let mut v = Json::obj([("z", Json::Int(1))]);
        v.push("a", Json::Int(2));
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj([
            ("a", Json::Int(-3)),
            ("b", Json::from("x\"y\\z\nnl \u{1} ü")),
            ("c", Json::arr([Json::Bool(true), Json::Null])),
            ("d", Json::Float(1.5)),
            ("e", Json::UInt(u64::MAX)),
            ("f", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn parse_accessors() {
        let v = Json::parse(r#"{"n":7,"s":"hi","ok":true,"xs":[1,2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn path_accessors_read_and_name_the_path_in_every_error() {
        let v = Json::parse(r#"{"a":{"n":7,"z":null},"xs":[[1,2],[3,"x"]],"big":4294967296}"#);
        let v = v.unwrap();
        assert_eq!(
            (v.u64_at("xs.0.1"), v.at(""), v.at("a.z")),
            (Ok(2), Ok(&v), Ok(&Json::Null))
        );
        // Absent and null read as None; a wrong type is still an error.
        assert_eq!(
            (v.opt_u64_at("a.z"), v.opt_u64_at("no.n")),
            (Ok(None), Ok(None))
        );
        for (got, want) in [
            (v.u64_at("a.z"), "a.z: missing field"),
            (v.u64_at("a.n.x"), "a.n: expected an object, found 7"),
            (
                v.u64_at("xs.1.1"),
                "xs.1.1: expected an unsigned integer, found a string",
            ),
            (
                v.u32_at("big").map(u64::from),
                "big: expected an unsigned 32-bit integer, found 4294967296",
            ),
            (
                v.arr_at("xs", |x| x.u64_at("")).map(|_| 0),
                "xs.0: expected an unsigned integer, found an array",
            ),
            (
                v.opt_obj_at("a", |a| a.u64_at("n.m")).map(|_| 0),
                "a.n: expected an object, found 7",
            ),
        ] {
            assert_eq!(got, Err(want.to_string()));
        }
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            Json::parse(r#""a\u00fcb\ud83d\ude00c""#).unwrap(),
            Json::from("aüb\u{1F600}c")
        );
    }

    #[test]
    fn escapes_each_ascii_byte_as_pinned() {
        let ascii: String = (0u8..0x80).map(char::from).collect();
        let expected = concat!(
            r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f"#,
            r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f"#,
            r##" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`"##,
            "abcdefghijklmnopqrstuvwxyz{|}~\u{7f}\""
        );
        assert_eq!(Json::from(ascii).to_string(), expected);
        // Multi-byte characters beside escapes, and the empty string.
        assert_eq!(Json::from("ü\n€\"😀\\").to_string(), "\"ü\\n€\\\"😀\\\\\"");
        assert_eq!(Json::from("").to_string(), "\"\"");
    }

    /// A random tree: depth at most 5, every variant, the edge numbers.
    fn random_tree(rng: &mut pcr::SplitMix64, depth: u32) -> Json {
        let text = |rng: &mut pcr::SplitMix64| -> String {
            let pool = ['a', '"', '\\', '\n', '\u{1}', 'ü', '€', '😀', ' ', '/'];
            let len = rng.next_below(6);
            (0..len)
                .map(|_| pool[rng.next_below(10) as usize])
                .collect()
        };
        let kinds = if depth == 5 { 6 } else { 8 };
        match rng.next_below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_below(2) == 0),
            2 => Json::Int([i64::MIN, -1, 0, i64::MAX][rng.next_below(4) as usize]),
            3 => Json::UInt([0, 5, u64::MAX][rng.next_below(3) as usize]),
            4 => Json::Float(match rng.next_below(4) {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                2 => 2.0,
                _ => rng.next_u64() as i64 as f64 / 1024.0,
            }),
            5 => Json::Str(text(rng)),
            6 => Json::Arr(
                (0..rng.next_below(4))
                    .map(|_| random_tree(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.next_below(4))
                    .map(|_| (text(rng), random_tree(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn random_trees_re_encode_to_the_same_text() {
        // Text equality, not tree equality: `UInt(5)` and `Float(2.0)`
        // legitimately read back as `Int`.
        let mut rng = pcr::SplitMix64::new(0x15_5EED);
        for _ in 0..500 {
            let tree = random_tree(&mut rng, 0);
            let text = tree.to_string();
            assert_eq!(Json::parse(&text).unwrap().to_string(), text);
            assert_eq!(Json::parse(&tree.pretty()).unwrap().to_string(), text);
        }
    }

    #[test]
    #[rustfmt::skip] // A table of literal inputs.
    fn numbers_read_as_the_documented_variant() {
        for (text, want) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("007", Json::Int(7)),
            ("999999999999999999", Json::Int(999_999_999_999_999_999)), // 18 digits: read as scanned.
            ("1000000000000000000", Json::Int(1_000_000_000_000_000_000)), // 19: the fallback.
            ("9223372036854775807", Json::Int(i64::MAX)),
            ("9223372036854775808", Json::UInt(1 << 63)),
            ("18446744073709551615", Json::UInt(u64::MAX)),
            ("18446744073709551616", Json::Float(18_446_744_073_709_551_616.0)),
            ("12.5", Json::Float(12.5)),
            ("1e5", Json::Float(1e5)),
            ("1E+2", Json::Float(100.0)),
            // The leniencies `Json::parse` documents.
            ("01", Json::Int(1)),
            ("1.", Json::Float(1.0)),
            ("-.5", Json::Float(-0.5)),
            ("\"a\nb\"", Json::from("a\nb")),
        ] {
            assert_eq!(Json::parse(text), Ok(want.clone()), "{text}");
            // As an array element and a field, where the number's end is
            // the next token rather than the end of the input.
            let nested = Json::arr([want.clone(), Json::obj([("n", want)])]);
            assert_eq!(Json::parse(&format!("[{text}, {{\"n\":{text}}}]")), Ok(nested), "{text}");
        }
        for (text, message) in [
            ("12x", "trailing data at byte 2"),
            ("-", "bad number '-' at byte 0"),
            ("[1e400]", "number out of range at byte 1"),
            ("-1e400", "number out of range at byte 0"),
            (r#""\u+041""#, "bad \\u escape at byte 3"),
            (r#""\u004"#, "truncated \\u escape at byte 3"),
        ] {
            assert_eq!(Json::parse(text), Err(message.to_string()), "{text}");
        }
    }

    #[test]
    fn digit_strings_read_as_str_parse_would() {
        // The rule `Parser::uint` shortcuts, written out.
        let reference = |text: &str| -> Result<Json, String> {
            let digits = text.strip_prefix('-').unwrap_or(text);
            if !digits.contains(['.', 'e', 'E', '+', '-']) {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Json::Int(n));
                }
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Json::UInt(n));
                }
            }
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number '{text}' at byte 0"))
        };
        let mut rng = pcr::SplitMix64::new(0x00D1_6175);
        for _ in 0..10_000 {
            let mut text = String::new();
            if rng.next_below(4) == 0 {
                text.push('-');
            }
            for _ in 0..1 + rng.next_below(20) {
                text.push(char::from(b'0' + rng.next_below(10) as u8));
            }
            text.push_str(["", "", ".5", "e3", "-"][rng.next_below(5) as usize]);
            assert_eq!(Json::parse(&text), reference(&text), "{text}");
        }
    }

    fn capacity(obj: &Json) -> (usize, usize) {
        match obj {
            Json::Obj(fields) => (fields.len(), fields.capacity()),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn an_object_is_sized_by_its_sibling() {
        let row = r#"{"a":1,"b":{"x":1,"y":2,"z":3},"c":3,"d":4,"e":5}"#;
        let doc = Json::parse(&format!("[{row},{row},{row}]")).unwrap();
        // (`tests/export_bytes.rs` holds a whole Chrome trace to this.)
        for sibling in &doc.as_array().unwrap()[1..] {
            assert_eq!(capacity(sibling), (5, 5));
            assert_eq!(capacity(sibling.get("b").unwrap()), (3, 3));
        }
        // The hint saturates: a hostile file cannot make it reserve more.
        let wide: Vec<String> = (0..300).map(|i| format!("\"k{i}\":{i}")).collect();
        let doc = Json::parse(&format!("[{{{}}},{{\"a\":1}}]", wide.join(","))).unwrap();
        let [wide, narrow] = doc.as_array().unwrap() else {
            panic!("two objects")
        };
        assert_eq!(capacity(wide).0, 300);
        assert_eq!(capacity(narrow), (1, SHAPE_CAP));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(200_000)).unwrap_err();
            let at = open.len() * MAX_DEPTH;
            assert_eq!(err, format!("nesting deeper than 128 at byte {at}"));
        }
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\"}",
            "1 2",
            "{}x",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
