//! The workspace's wire format: one JSON encoder and one JSON parser.
//!
//! Every component that speaks JSON — the `blob-serve` HTTP service, the
//! `gpu-blob --json` sweep output, and `blob-check`'s machine-readable
//! findings — goes through this module, so there is exactly one string
//! escaper and one parser in the workspace. Both are hand-rolled and
//! dependency-free, in the same spirit as the rest of the toolchain:
//!
//! - [`Json`] is an ordered document model (object fields keep insertion
//!   order, so output is deterministic and diffable).
//! - [`Json::parse`] is a recursive-descent parser with a depth limit,
//!   full escape handling (including `\uXXXX` surrogate pairs), and
//!   offset-carrying errors — built to safely consume untrusted request
//!   bodies.
//! - [`Json::encode`] / [`Json::encode_pretty`] render compact or
//!   indented text; [`escape`] is the single string escaper.
//!
//! The bottom of the module provides the *domain* encodings shared by the
//! server and the CLI: [`advice_json`], [`sweep_json`], [`call_json`] and
//! the small key vocabularies ([`precision_key`], [`offload_key`], …), so
//! a sweep serialised by `gpu-blob --json` reads identically to one served
//! by `blob-serve`.

use crate::advisor::Advice;
use crate::problem::Problem;
use crate::runner::Sweep;
use blob_sim::{BlasCall, Kernel, Offload, Precision};
use std::fmt::Write as _;

/// Maximum nesting depth [`Json::parse`] accepts before rejecting the
/// document — a guard against stack exhaustion from adversarial input.
pub const MAX_DEPTH: usize = 128;

/// A JSON document. Object fields preserve insertion order so encoded
/// output is deterministic.
#[derive(Debug, Clone, PartialEq)]
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
    /// An object, as ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Escapes a string for embedding in JSON output (without the surrounding
/// quotes). The only escaper in the workspace.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; encode as null rather than emit garbage.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

impl Json {
    /// Starts an object builder (see [`ObjBuilder`]).
    pub fn obj() -> ObjBuilder {
        ObjBuilder { fields: Vec::new() }
    }

    /// Compact encoding (no insignificant whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\":");
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Indented encoding (two spaces per level) for human-facing output
    /// such as `blob-check --json` findings and timing reports.
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.encode_pretty_into(&mut out, 0);
        out
    }

    fn encode_pretty_into(&self, out: &mut String, level: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=level {
                        out.push_str(INDENT);
                    }
                    item.encode_pretty_into(out, level + 1);
                }
                out.push('\n');
                for _ in 0..level {
                    out.push_str(INDENT);
                }
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=level {
                        out.push_str(INDENT);
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\": ");
                    v.encode_pretty_into(out, level + 1);
                }
                out.push('\n');
                for _ in 0..level {
                    out.push_str(INDENT);
                }
                out.push('}');
            }
            other => other.encode_into(out),
        }
    }

    /// Parses a complete JSON document. Trailing non-whitespace input is an
    /// error, as is nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            text,
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Parses a byte slice (e.g. an HTTP request body): must be UTF-8.
    pub fn parse_bytes(body: &[u8]) -> Result<Json, ParseError> {
        match std::str::from_utf8(body) {
            Ok(text) => Json::parse(text),
            Err(e) => Err(ParseError {
                offset: e.valid_up_to(),
                message: "body is not valid UTF-8".to_string(),
            }),
        }
    }

    /// Looks up a field of an object; `None` for other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.trunc() == *n && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Self {
        Json::Num(n as f64)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Num(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Arr(items)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

/// Fluent object construction with stable field order:
///
/// ```
/// use blob_core::wire::Json;
/// let j = Json::obj().field("ok", true).field("n", 3usize).build();
/// assert_eq!(j.encode(), r#"{"ok":true,"n":3}"#);
/// ```
#[derive(Debug, Default)]
pub struct ObjBuilder {
    fields: Vec<(String, Json)>,
}

impl ObjBuilder {
    /// Appends one field.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

// ---------------------------------------------------------------------------
// recursive-descent parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]` in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}` in object"));
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // consume opening quote
        let mut out = String::new();
        let mut run_start = self.pos;
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    out.push_str(&self.text[run_start..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(&self.text[run_start..self.pos]);
                    self.pos += 1;
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // high surrogate: a low surrogate must follow
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            match char::from_u32(c) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u code point")),
                            }
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                    run_start = self.pos;
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                _ => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.eat(b'-') {}
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(ParseError {
                offset: start,
                message: format!("invalid number `{text}`"),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// domain encodings shared by blob-serve and the CLI
// ---------------------------------------------------------------------------

/// The wire spelling of a precision: `"f32"` / `"f64"` / `"bf16"` /
/// `"f16"` / `"f64-emul{k}"`. Stable strings — used as JSON values and
/// object keys across `/v1`.
pub fn precision_key(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "f32",
        Precision::F64 => "f64",
        Precision::Bf16 => "bf16",
        Precision::F16 => "f16",
        Precision::F64Emul(_) => match p.emul_slices() {
            Some(2) => "f64-emul2",
            Some(4) => "f64-emul4",
            _ => "f64-emul3",
        },
    }
}

/// Parses the wire spelling of a precision (also accepts `s`/`d` and
/// `single`/`double`, like the CLI). Bare `"f64-emul"` means the default
/// 3-slice Ozaki decomposition.
pub fn parse_precision(s: &str) -> Option<Precision> {
    match s.to_ascii_lowercase().as_str() {
        "f32" | "s" | "single" | "fp32" => Some(Precision::F32),
        "f64" | "d" | "double" | "fp64" => Some(Precision::F64),
        "bf16" | "b" | "bfloat16" => Some(Precision::Bf16),
        "f16" | "h" | "half" | "fp16" => Some(Precision::F16),
        "f64-emul" | "emul" | "f64-emul3" => Some(Precision::F64Emul(3)),
        "f64-emul2" => Some(Precision::F64Emul(2)),
        "f64-emul4" => Some(Precision::F64Emul(4)),
        _ => None,
    }
}

/// The wire spelling of an offload strategy: `"once"` / `"always"` /
/// `"usm"` / `"first-touch"` — used as object keys, so lower-case and
/// stable.
pub fn offload_key(o: Offload) -> &'static str {
    match o {
        Offload::TransferOnce => "once",
        Offload::TransferAlways => "always",
        Offload::Unified => "usm",
        Offload::FirstTouch => "first-touch",
    }
}

/// Finds a problem type by its [`Problem::id`] wire spelling.
pub fn parse_problem_id(id: &str) -> Option<Problem> {
    Problem::all().into_iter().find(|p| p.id() == id)
}

/// Encodes a kernel as `{"op","m","n"[,"k"]}`.
pub fn kernel_json(k: &Kernel) -> Json {
    match *k {
        Kernel::Gemm { m, n, k } => Json::obj()
            .field("op", "gemm")
            .field("m", m)
            .field("n", n)
            .field("k", k)
            .build(),
        Kernel::Gemv { m, n } => Json::obj()
            .field("op", "gemv")
            .field("m", m)
            .field("n", n)
            .build(),
    }
}

/// Encodes a full BLAS call (kernel + precision + scalars).
pub fn call_json(c: &BlasCall) -> Json {
    let Json::Obj(mut fields) = kernel_json(&c.kernel) else {
        return Json::Null; // kernel_json always returns an object
    };
    fields.push(("precision".to_string(), precision_key(c.precision).into()));
    fields.push(("alpha".to_string(), c.alpha.into()));
    fields.push(("beta".to_string(), c.beta.into()));
    Json::Obj(fields)
}

/// Encodes an advisor verdict + evidence, the `/advise` response body.
pub fn advice_json(a: &Advice) -> Json {
    Json::obj()
        .field("call", call_json(&a.call))
        .field("iterations", a.iterations)
        .field("offload", offload_key(a.offload))
        .field("cpu_seconds", a.cpu_seconds)
        .field("gpu_seconds", a.gpu_seconds)
        .field("speedup", a.speedup)
        .field("verdict", a.verdict.id())
        .field("summary", a.summary())
        .build()
}

/// Encodes one sweep, including per-size records and the offload-threshold
/// table — the document `gpu-blob --json` emits per (problem family,
/// precision, iteration count).
pub fn sweep_json(s: &Sweep) -> Json {
    Json::obj()
        .field("system", s.system.as_str())
        .field("problem", s.problem.id())
        .field("label", s.problem.label())
        .field("precision", precision_key(s.precision))
        .field("iterations", s.iterations)
        .field("thresholds", thresholds_json(&s.records))
        .field("records", records_json(&s.records))
        .build()
}

/// The per-offload threshold table of a sweep's records:
/// `{"once": {"param",...dims} | null, …}` over whichever offload
/// strategies the records actually measured — the `thresholds` field of
/// [`sweep_json`] and of the `/v1/threshold` body.
pub fn thresholds_json(records: &[crate::runner::SizeRecord]) -> Json {
    let offloads: Vec<Offload> = records
        .first()
        .map(|r| r.gpu.iter().map(|g| g.offload).collect())
        .unwrap_or_default();
    let mut thresholds = Json::obj();
    for &o in &offloads {
        let value = match crate::runner::threshold_record(records, o) {
            Some(r) => {
                let Json::Obj(mut fields) = kernel_json(&r.kernel) else {
                    return Json::Null; // kernel_json always returns an object
                };
                fields.insert(0, ("param".to_string(), r.param.into()));
                Json::Obj(fields)
            }
            None => Json::Null,
        };
        thresholds = thresholds.field(offload_key(o), value);
    }
    thresholds.build()
}

/// One JSON object per measured size, with a nested object per offload.
fn records_json(records: &[crate::runner::SizeRecord]) -> Json {
    let records: Vec<Json> = records
        .iter()
        .map(|r| {
            let mut gpu = Json::obj();
            for g in &r.gpu {
                gpu = gpu.field(
                    offload_key(g.offload),
                    Json::obj()
                        .field("seconds", g.seconds)
                        .field("gflops", g.gflops)
                        .build(),
                );
            }
            Json::obj()
                .field("param", r.param)
                .field("kernel", kernel_json(&r.kernel))
                .field("cpu_seconds", r.cpu_seconds)
                .field("cpu_gflops", r.cpu_gflops)
                .field("gpu", gpu.build())
                .build()
        })
        .collect();
    Json::Arr(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{advise, Verdict};
    use crate::problem::GemmProblem;
    use crate::runner::{run_sweep, SweepConfig};
    use blob_sim::presets;

    // --- escaping (the satellite's required cases) -----------------------

    #[test]
    fn escape_control_chars() {
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("\u{0001}\u{001f}"), "\\u0001\\u001f");
        assert_eq!(escape("\u{0008}\u{000C}"), "\\u0008\\u000c");
    }

    #[test]
    fn escape_quotes_and_backslashes() {
        assert_eq!(escape(r#"say "hi" \ bye"#), r#"say \"hi\" \\ bye"#);
    }

    #[test]
    fn escape_passes_non_ascii_through() {
        // non-ASCII is valid JSON as-is; no \u escaping needed
        assert_eq!(escape("héllo 世界 🚀"), "héllo 世界 🚀");
    }

    #[test]
    fn escaped_strings_reparse_to_the_original() {
        for s in [
            "plain",
            "quote\" slash\\ control\n\t\r",
            "\u{0000}\u{001F}",
            "héllo 世界 🚀",
        ] {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(Json::parse(&doc).unwrap(), Json::Str(s.to_string()));
        }
    }

    // --- encoding ---------------------------------------------------------

    #[test]
    fn encode_scalars() {
        assert_eq!(Json::Null.encode(), "null");
        assert_eq!(Json::Bool(true).encode(), "true");
        assert_eq!(Json::Num(3.0).encode(), "3");
        assert_eq!(Json::Num(0.25).encode(), "0.25");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
        assert_eq!(Json::Str("a\"b".into()).encode(), r#""a\"b""#);
    }

    #[test]
    fn encode_compound_preserves_field_order() {
        let j = Json::obj()
            .field("z", 1usize)
            .field("a", Json::Arr(vec![Json::Null, true.into()]))
            .build();
        assert_eq!(j.encode(), r#"{"z":1,"a":[null,true]}"#);
    }

    #[test]
    fn pretty_encoding_is_reparseable() {
        let j = Json::obj()
            .field("xs", Json::Arr(vec![1usize.into(), 2usize.into()]))
            .field("s", "line1\nline2")
            .build();
        let pretty = j.encode_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), j);
        assert_eq!(Json::Arr(vec![]).encode_pretty(), "[]");
    }

    // --- parsing ----------------------------------------------------------

    #[test]
    fn parse_round_trips_compound_documents() {
        let text = r#"{"a":[1,2.5,-3e2,null,true,false],"b":{"c":"d"},"e":[]}"#;
        let j = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&j.encode()).unwrap(), j);
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 6);
        assert_eq!(
            j.get("b").unwrap().get("c").and_then(Json::as_str),
            Some("d")
        );
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\u4e16""#).unwrap(),
            Json::Str("Aé世".into())
        );
        // surrogate pair: 🚀
        assert_eq!(
            Json::parse(r#""\ud83d\ude80""#).unwrap(),
            Json::Str("🚀".into())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\ude80""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "tru",
            "01x",
            "\"",
            "\"\\q\"",
            "[1] garbage",
            "{'a':1}",
            "+1",
            "1.2.3",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_reports_offsets() {
        let e = Json::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn parse_depth_limit() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(16).to_string() + &"]".repeat(16);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn parse_bytes_rejects_non_utf8() {
        assert!(Json::parse_bytes(b"{\"a\":1}").is_ok());
        assert!(Json::parse_bytes(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn integer_accessors() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }

    // --- domain encodings -------------------------------------------------

    #[test]
    fn vocabulary_round_trips() {
        for p in Precision::EXTENDED {
            assert_eq!(parse_precision(precision_key(p)), Some(p));
        }
        // every supported emulation depth round-trips too
        for k in 2..=4u8 {
            let p = Precision::F64Emul(k);
            assert_eq!(parse_precision(precision_key(p)), Some(p));
        }
        for o in Offload::WITH_FIRST_TOUCH {
            assert_eq!(offload_key(o).parse::<Offload>().ok(), Some(o));
        }
        for prob in Problem::all() {
            assert_eq!(parse_problem_id(prob.id()), Some(prob));
        }
        assert_eq!(parse_problem_id("nope"), None);
        // f16 is a real precision now; genuinely unknown spellings are not
        assert_eq!(parse_precision("f16"), Some(Precision::F16));
        assert_eq!(parse_precision("bf16"), Some(Precision::Bf16));
        assert_eq!(parse_precision("f64-emul"), Some(Precision::F64Emul(3)));
        assert_eq!(parse_precision("f128"), None);
        assert_eq!(parse_precision("f64-emul5"), None);
    }

    #[test]
    fn advice_json_shape() {
        let sys = presets::isambard_ai();
        let call = BlasCall::gemm(Precision::F32, 2048, 2048, 2048);
        let a = advise(&sys, &call, 32, Offload::TransferOnce);
        assert_eq!(a.verdict, Verdict::Offload);
        let j = advice_json(&a);
        assert_eq!(j.get("verdict").and_then(Json::as_str), Some("offload"));
        assert_eq!(j.get("offload").and_then(Json::as_str), Some("once"));
        assert!(j.get("speedup").and_then(Json::as_f64).unwrap() > 2.0);
        assert_eq!(
            j.get("call")
                .and_then(|c| c.get("op"))
                .and_then(Json::as_str),
            Some("gemm")
        );
        // the encoding is parseable JSON
        assert_eq!(Json::parse(&j.encode()).unwrap(), j);
    }

    #[test]
    fn no_gpu_advice_encodes_nulls() {
        let sys = presets::isambard_ai_armpl();
        let call = BlasCall::gemv(Precision::F64, 64, 64);
        let a = advise(&sys, &call, 1, Offload::Unified);
        let j = advice_json(&a);
        assert!(j.get("gpu_seconds").unwrap().is_null());
        assert!(j.get("speedup").unwrap().is_null());
        assert_eq!(j.get("verdict").and_then(Json::as_str), Some("no-gpu"));
    }

    #[test]
    fn sweep_json_shape() {
        let sys = presets::dawn();
        let cfg = SweepConfig::new(1, 48, 4);
        let sweep = run_sweep(
            &sys,
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &cfg,
        );
        let j = sweep_json(&sweep);
        assert_eq!(j.get("system").and_then(Json::as_str), Some("DAWN"));
        assert_eq!(j.get("problem").and_then(Json::as_str), Some("gemm_square"));
        assert_eq!(j.get("records").and_then(Json::as_arr).unwrap().len(), 48);
        let th = j.get("thresholds").unwrap();
        for key in ["once", "always", "usm"] {
            assert!(th.get(key).is_some(), "missing thresholds.{key}");
        }
        assert_eq!(Json::parse(&j.encode()).unwrap(), j);
    }

    #[test]
    fn cpu_only_sweep_json_has_empty_thresholds() {
        let sys = presets::isambard_ai_armpl();
        let cfg = SweepConfig::new(1, 8, 1);
        let sweep = run_sweep(
            &sys,
            Problem::Gemm(GemmProblem::Square),
            Precision::F64,
            &cfg,
        );
        let j = sweep_json(&sweep);
        assert_eq!(j.get("thresholds").and_then(Json::as_obj).unwrap().len(), 0);
    }
}
