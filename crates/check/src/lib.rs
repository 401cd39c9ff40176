//! # blob-check — from-scratch static analysis for this workspace
//!
//! A dependency-free checker that walks the workspace's own Rust sources
//! and enforces the project's safety and API-hygiene rules — no `syn`,
//! no network, no compiler plumbing. The engine is layered:
//!
//! 1. a hand-rolled lexer ([`lexer`]),
//! 2. a forgiving recursive-descent parser producing a lightweight AST
//!    ([`parse`], [`ast`]),
//! 3. per-function control-flow graphs ([`cfg`]) and a generic worklist
//!    fixpoint dataflow solver ([`dataflow`]),
//! 4. the rules: lexical ones straight off the tokens, semantic ones
//!    ([`analyses`]) on the CFGs, all emitting one [`rules::Finding`]
//!    shape so suppressions and `--json` compose.
//!
//! ## Rules
//!
//! The catalogue is [`explain::DOCS`], the one rule table:
//! `cargo run -p blob-check -- --list-rules` prints its names and
//! `--explain <rule>` its scope, pattern and rationale. The 17 rules are `no-unsafe`, `no-unwrap-in-lib`,
//! `no-unwrap-in-serve`, `no-float-eq`, `pub-item-docs`,
//! `contract-guard`, `no-adhoc-scope`, `no-raw-error-body`,
//! `atomics-ordering`, `lock-discipline`, `balance`, `drop-on-path`,
//! `no-direct-kernel-in-dispatch`, `no-unchecked-simd`,
//! `no-unbounded-queue`, `no-untagged-precision` and `suppression`.
//!
//! An intentional violation carries an inline suppression **with a
//! mandatory reason**:
//!
//! ```text
//! // blob-check: allow(no-float-eq): beta is a configured sentinel, not a computed value
//! ```
//!
//! A suppression without a reason (or naming an unknown rule) is itself a
//! finding.
//!
//! Checking is file-parallel on [`blob_blas::pool`] — the same persistent
//! thread pool the kernels dispatch on, so the checker inherits its
//! zero-spawn hot path.

pub mod analyses;
pub mod ast;
pub mod cfg;
pub mod dataflow;
pub mod explain;
pub mod lexer;
pub mod parse;
pub mod rules;

use blob_core::wire::Json;
use rules::{FileUnit, Finding};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Recursively collects every `.rs` file under `root`, skipping
/// `target/`, `.git/`, and hidden directories. Paths come back
/// repo-relative with `/` separators, sorted for deterministic output.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                let text = std::fs::read_to_string(&path)?;
                files.push((rel, text));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Checks a set of in-memory `(repo-relative path, text)` files: the
/// one driver. Each file is lexed and parsed once into a [`FileUnit`],
/// file-parallel on the blas thread pool
/// ([`blob_blas::pool::parallel_for`]); the `contract-guard` fixpoint and
/// the symbol table are built from those units, the per-file rules fan
/// out again, and the workspace-wide passes (atomics grouping, the
/// lock-order graph) and the suppression bookkeeping run once at the end.
pub fn check_files(files: &[(String, String)]) -> Vec<Finding> {
    let units = par_map(files, |(path, text)| FileUnit::build(path, text));
    let ctx = rules::guard_context(&units);
    let syms = analyses::Symbols::build(&units);
    let mut findings: Vec<Finding> = par_map(&units, |u| rules::check_unit(u, &ctx, &syms))
        .into_iter()
        .flatten()
        .collect();
    findings.extend(analyses::atomics::check(&units, &syms));
    findings.extend(analyses::locks::check(&units, &syms));
    rules::finalize(&units, findings)
}

/// `items.iter().map(f)`, one item per task on the blas thread pool,
/// returned in input order.
fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let out: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));
    let threads = blob_blas::pool::available_threads();
    blob_blas::pool::parallel_for(threads, 0..items.len(), 1, |range| {
        let local: Vec<(usize, U)> = range.map(|i| (i, f(&items[i]))).collect();
        out.lock().unwrap_or_else(|e| e.into_inner()).extend(local);
    });
    let mut out = out.into_inner().unwrap_or_else(|e| e.into_inner());
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, u)| u).collect()
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Renders findings as a JSON array through the workspace's shared wire
/// encoder ([`blob_core::wire`]), so escaping behaviour is identical to
/// every other JSON the project emits.
pub fn to_json(findings: &[Finding]) -> String {
    let items: Vec<Json> = findings
        .iter()
        .map(|f| {
            Json::obj()
                .field("rule", f.rule)
                .field("path", f.path.as_str())
                .field("line", f.line as u64)
                .field("message", f.message.as_str())
                .build()
        })
        .collect();
    Json::Arr(items).encode_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: usize, message: &str) -> Finding {
        Finding::new(rule, path, line, message)
    }

    #[test]
    fn empty_findings_serialise_to_empty_array() {
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn json_output_escapes_like_the_shared_wire_layer() {
        // control characters, quotes, backslashes, and non-ASCII all
        // survive the encode → parse round trip byte-for-byte
        let nasty = "tab\there \"quoted\" back\\slash ctrl\u{1} nul\u{0} grüße 日本語";
        let json = to_json(&[finding("no-unsafe", "päth/ünïcode.rs", 7, nasty)]);
        // the raw control bytes must not appear in the serialised form
        assert!(!json.contains('\u{1}'));
        assert!(!json.contains('\u{0}'));
        assert!(json.contains("\\u0001"));
        assert!(json.contains("\\u0000"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("back\\\\slash"));
        // non-ASCII passes through unescaped (UTF-8 output)
        assert!(json.contains("grüße 日本語"));
        let Ok(Json::Arr(items)) = Json::parse(&json) else {
            panic!("to_json emits an array: {json}");
        };
        assert_eq!(items.len(), 1);
        assert_eq!(
            items[0].get("path").and_then(Json::as_str),
            Some("päth/ünïcode.rs")
        );
        assert_eq!(items[0].get("message").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn check_files_is_deterministic_across_parallel_runs() {
        let files: Vec<(String, String)> = (0..8)
            .map(|i| {
                (
                    format!("crates/blas/src/f{i}.rs"),
                    "fn f(x: f64) -> bool { x == 0.0 }\nfn g() { std::thread::scope(|s| {}); }\n"
                        .to_string(),
                )
            })
            .collect();
        let a = check_files(&files);
        let b = check_files(&files);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16, "{a:?}");
        // sorted by (path, line, rule, message)
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
    }
}
