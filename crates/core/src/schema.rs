//! The versioned (v1) request/response schema, defined exactly once.
//!
//! Every shape that crosses the wire has two halves: a `parse_*`
//! validator (request side) and a `*_json` encoder (response side).
//! The encoders have always lived in [`crate::wire`]; the validators
//! used to be private helpers inside `blob-serve`'s `api.rs`, which
//! meant the v1 request shapes were defined twice — once as parsing
//! code, once as encoding code, with nothing keeping them aligned.
//! This module is the single home for both: the validators live here
//! and the encoders are re-exported, so `blob-serve` (and any future
//! client) imports one module for the whole schema.
//!
//! Validation failures carry a stable machine-readable `code` (the
//! README documents the vocabulary) plus a human-readable message;
//! `blob-serve` maps them onto its uniform error envelope
//! `{"error":{"code","message","trace_id"}}`.

use crate::wire::Json;
use blob_sim::BlasCall;

// The response-side encoders (and the scalar enum parsers), re-exported
// so request and response shapes are imported from the same module.
pub use crate::wire::{
    advice_json, call_json, kernel_json, offload_key, parse_precision, parse_problem_id,
    precision_key, sweep_json, thresholds_json,
};

/// A request-validation failure: a stable machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// Stable error code (`invalid_json`, `missing_field`, …); part of
    /// the v1 wire contract, documented in the README.
    pub code: &'static str,
    /// Human-readable detail for this particular failure.
    pub message: String,
}

impl SchemaError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for SchemaError {}

/// The stable error-code vocabulary of the v1 wire surface.
pub mod codes {
    /// The request body was not syntactically valid JSON, or not an object.
    pub const INVALID_JSON: &str = "invalid_json";
    /// A required field was absent (or had the wrong type).
    pub const MISSING_FIELD: &str = "missing_field";
    /// A present field failed validation (range, type, enum membership).
    pub const INVALID_FIELD: &str = "invalid_field";
    /// The `precision` field named a precision this server does not
    /// support (the supported set: `f32`, `f64`, `bf16`, `f16`,
    /// `f64-emul`/`f64-emul2..4`).
    pub const UNSUPPORTED_PRECISION: &str = "unsupported_precision";
}

/// Decodes the optional `precision` field of a request document. Absent
/// means [`blob_sim::Precision::F64`] — the pre-precision-plane wire
/// behaviour, so every existing client body parses identically. A present
/// but unrecognised value is [`codes::UNSUPPORTED_PRECISION`].
pub fn parse_precision_field(doc: &Json) -> Result<blob_sim::Precision, SchemaError> {
    match doc.get("precision") {
        None => Ok(blob_sim::Precision::F64),
        Some(v) => v.as_str().and_then(parse_precision).ok_or_else(|| {
            SchemaError::new(
                codes::UNSUPPORTED_PRECISION,
                "precision must be one of f32, f64, bf16, f16, f64-emul[2-4]",
            )
        }),
    }
}

/// Parses a request body into a JSON object document.
pub fn parse_body(body: &[u8]) -> Result<Json, SchemaError> {
    if body.is_empty() {
        return Err(SchemaError::new(
            codes::INVALID_JSON,
            "request body must be a JSON object",
        ));
    }
    let doc = Json::parse_bytes(body)
        .map_err(|e| SchemaError::new(codes::INVALID_JSON, format!("invalid JSON: {e}")))?;
    match doc {
        Json::Obj(_) => Ok(doc),
        _ => Err(SchemaError::new(
            codes::INVALID_JSON,
            "request body must be a JSON object",
        )),
    }
}

/// Requires a string field.
pub fn require_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, SchemaError> {
    doc.get(key).and_then(Json::as_str).ok_or_else(|| {
        SchemaError::new(
            codes::MISSING_FIELD,
            format!("missing string field `{key}`"),
        )
    })
}

/// Reads an optional `u32` field, defaulting when absent.
pub fn optional_u32(doc: &Json, key: &str, default: u32) -> Result<u32, SchemaError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| {
                SchemaError::new(
                    codes::INVALID_FIELD,
                    format!("`{key}` must be a non-negative integer"),
                )
            }),
    }
}

/// Reads an optional `usize` field, defaulting when absent.
pub fn optional_usize(doc: &Json, key: &str, default: usize) -> Result<usize, SchemaError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| {
                SchemaError::new(
                    codes::INVALID_FIELD,
                    format!("`{key}` must be a non-negative integer"),
                )
            }),
    }
}

/// Decodes a BLAS call from a request document: `op` (`gemm`/`gemv`),
/// dimensions, optional `precision` (defaults to `f64`, the historical
/// implicit precision — see [`parse_precision_field`]), and optional
/// `alpha`/`beta`. Dimensions are bounded by `max_dim`; the final shape
/// is validated by [`BlasCall::builder`], so an invalid call is
/// unrepresentable here.
pub fn parse_call(doc: &Json, max_dim: usize) -> Result<BlasCall, SchemaError> {
    let op = require_str(doc, "op")?;
    let precision = parse_precision_field(doc)?;
    let dim = |key: &'static str| -> Result<usize, SchemaError> {
        let n = doc.get(key).and_then(Json::as_u64).ok_or_else(|| {
            SchemaError::new(codes::MISSING_FIELD, format!("missing dimension `{key}`"))
        })?;
        let n = usize::try_from(n).map_err(|_| {
            SchemaError::new(
                codes::INVALID_FIELD,
                format!("dimension `{key}` is too large"),
            )
        })?;
        if n == 0 || n > max_dim {
            return Err(SchemaError::new(
                codes::INVALID_FIELD,
                format!("dimension `{key}` must be in 1..={max_dim}"),
            ));
        }
        Ok(n)
    };
    let mut builder = BlasCall::builder().precision(precision);
    builder = match op {
        "gemm" => builder.gemm(dim("m")?, dim("n")?, dim("k")?),
        "gemv" => builder.gemv(dim("m")?, dim("n")?),
        other => {
            return Err(SchemaError::new(
                codes::INVALID_FIELD,
                format!("op must be gemm or gemv, got `{other}`"),
            ))
        }
    };
    if let Some(alpha) = doc.get("alpha") {
        builder = builder.alpha(
            alpha
                .as_f64()
                .ok_or_else(|| SchemaError::new(codes::INVALID_FIELD, "alpha must be a number"))?,
        );
    }
    if let Some(beta) = doc.get("beta") {
        builder = builder.beta(
            beta.as_f64()
                .ok_or_else(|| SchemaError::new(codes::INVALID_FIELD, "beta must be a number"))?,
        );
    }
    builder
        .build()
        .map_err(|e| SchemaError::new(codes::INVALID_FIELD, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blob_sim::{Kernel, Precision};

    #[test]
    fn parse_body_accepts_objects_only() {
        assert_eq!(parse_body(b"").unwrap_err().code, codes::INVALID_JSON);
        assert_eq!(
            parse_body(b"{not json").unwrap_err().code,
            codes::INVALID_JSON
        );
        assert_eq!(parse_body(b"[1,2]").unwrap_err().code, codes::INVALID_JSON);
        assert!(parse_body(br#"{"a":1}"#).is_ok());
    }

    #[test]
    fn field_helpers_report_stable_codes() {
        let doc = parse_body(br#"{"name":"x","n":"not a number"}"#).unwrap();
        assert_eq!(require_str(&doc, "name").unwrap(), "x");
        assert_eq!(
            require_str(&doc, "absent").unwrap_err().code,
            codes::MISSING_FIELD
        );
        assert_eq!(optional_u32(&doc, "absent", 7).unwrap(), 7);
        assert_eq!(
            optional_u32(&doc, "n", 7).unwrap_err().code,
            codes::INVALID_FIELD
        );
        assert_eq!(
            optional_usize(&doc, "n", 7).unwrap_err().code,
            codes::INVALID_FIELD
        );
    }

    #[test]
    fn parse_call_round_trips_through_the_builder() {
        let doc = parse_body(
            br#"{"op":"gemm","m":8,"n":16,"k":32,"precision":"f32","alpha":2.0,"beta":1.0}"#,
        )
        .unwrap();
        let call = parse_call(&doc, 4096).unwrap();
        assert_eq!(call.kernel, Kernel::Gemm { m: 8, n: 16, k: 32 });
        assert_eq!(call.precision, Precision::F32);
        assert_eq!(call.alpha.to_bits(), 2.0f64.to_bits());
        assert_eq!(call.beta.to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn parse_call_rejections_carry_codes() {
        let cases: [(&[u8], &str); 5] = [
            (br#"{"m":1,"n":1,"precision":"f32"}"#, codes::MISSING_FIELD),
            (
                br#"{"op":"axpy","m":1,"n":1,"precision":"f32"}"#,
                codes::INVALID_FIELD,
            ),
            (
                br#"{"op":"gemm","m":1,"n":1,"k":1,"precision":"f128"}"#,
                codes::UNSUPPORTED_PRECISION,
            ),
            (
                br#"{"op":"gemm","m":0,"n":1,"k":1,"precision":"f32"}"#,
                codes::INVALID_FIELD,
            ),
            (
                br#"{"op":"gemv","m":1,"n":1,"precision":"f64","alpha":"x"}"#,
                codes::INVALID_FIELD,
            ),
        ];
        for (body, want) in cases {
            let doc = parse_body(body).unwrap();
            assert_eq!(parse_call(&doc, 64).unwrap_err().code, want, "{body:?}");
        }
        // over the caller's dimension ceiling
        let doc = parse_body(br#"{"op":"gemv","m":65,"n":1,"precision":"f64"}"#).unwrap();
        assert_eq!(parse_call(&doc, 64).unwrap_err().code, codes::INVALID_FIELD);
        // non-string precision is unsupported, not invalid_field
        let doc = parse_body(br#"{"op":"gemm","m":1,"n":1,"k":1,"precision":16}"#).unwrap();
        assert_eq!(
            parse_call(&doc, 64).unwrap_err().code,
            codes::UNSUPPORTED_PRECISION
        );
    }

    #[test]
    fn omitted_precision_defaults_to_f64() {
        // the zero-break guarantee: a pre-precision-plane body parses
        // identically to one that spells out f64
        let doc = parse_body(br#"{"op":"gemm","m":8,"n":8,"k":8}"#).unwrap();
        let call = parse_call(&doc, 4096).unwrap();
        assert_eq!(call.precision, Precision::F64);
        let doc2 = parse_body(br#"{"op":"gemm","m":8,"n":8,"k":8,"precision":"f64"}"#).unwrap();
        assert_eq!(call, parse_call(&doc2, 4096).unwrap());
    }

    #[test]
    fn extended_precisions_parse_on_the_wire() {
        for (spelling, want) in [
            ("bf16", Precision::Bf16),
            ("f16", Precision::F16),
            ("f64-emul", Precision::F64Emul(3)),
            ("f64-emul2", Precision::F64Emul(2)),
            ("f64-emul4", Precision::F64Emul(4)),
        ] {
            let body = format!(r#"{{"op":"gemv","m":4,"n":4,"precision":"{spelling}"}}"#);
            let doc = parse_body(body.as_bytes()).unwrap();
            assert_eq!(parse_call(&doc, 64).unwrap().precision, want, "{spelling}");
        }
    }
}
