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
//!    shape so suppressions, baselines, and `--json` compose.
//!
//! Run it as a normal workspace member:
//!
//! ```text
//! cargo run -p blob-check            # human output, exit 1 on findings
//! cargo run -p blob-check -- --json  # machine output
//! cargo run -p blob-check -- --explain balance
//! ```
//!
//! ## Rules
//!
//! | rule | scope | fires on |
//! |------|-------|----------|
//! | `no-unsafe` | everywhere | any `unsafe` token |
//! | `no-unwrap-in-lib` | library code, tests excluded | `.unwrap()`, `.expect(…)`, `panic!` |
//! | `no-unwrap-in-serve` | serve/cli binaries | `.unwrap()`, `.expect(…)`, `panic!` |
//! | `no-float-eq` | `blob-blas`/`blob-sim` libraries | `==`/`!=` against a float literal |
//! | `pub-item-docs` | `blob-blas`/`blob-sim`/`blob-core` | public item/field without a doc comment |
//! | `contract-guard` | the four GEMM/GEMV entry-point files | `pub fn` indexing a slice before contract validation |
//! | `no-adhoc-scope` | `blob-blas` outside `pool.rs` | `std::thread::scope(` outside the pool |
//! | `no-raw-error-body` | `crates/serve/src/` outside `envelope.rs`/`http.rs` | `Response::json`/`text` with a literal status ≥ 400 |
//! | `atomics-ordering` | library code, per atomic | `Relaxed` mixed with release/acquire, unpaired `Release`/`Acquire` |
//! | `lock-discipline` | library code, workspace graph | self-deadlock, lock-order cycles, guards held across pool dispatch |
//! | `balance` | library code, per-function CFG | `trace::begin`/`arena::take` unbalanced on some path (incl. `?`/panic edges) |
//! | `drop-on-path` | library code, per-function CFG | a workspace `Result` unused on some path, or discarded at statement position |
//! | `suppression` | everywhere | a suppression without a reason or naming an unknown rule |
//!
//! `--explain <rule>` prints the full scope/pattern/rationale for any of
//! these (one source-of-truth table, [`explain::DOCS`]).
//!
//! Violations that are intentional carry an inline suppression **with a
//! mandatory reason**:
//!
//! ```text
//! // blob-check: allow(no-float-eq): beta is a configured sentinel, not a computed value
//! ```
//!
//! A suppression without a reason (or naming an unknown rule) is itself a
//! finding. Legacy debt can be parked in a baseline file
//! (`--write-baseline`/`--baseline`) so new violations still fail while
//! old ones are burned down deliberately — this repository's baseline is
//! empty by design. Baselines key findings on `(rule, path, hash of the
//! offending line)` so pure line drift never resurfaces parked debt;
//! `--migrate-baseline` upgrades a message-keyed baseline in place.
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
use rules::{build_context, FileUnit, Finding};
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

/// Checks a set of in-memory files, file-parallel on the blas thread
/// pool: parsing into [`FileUnit`]s and the per-file rules fan out with
/// [`blob_blas::pool::parallel_for`]; the workspace-wide passes and the
/// suppression/hash bookkeeping run once at the end.
pub fn check_files(files: &[(String, String)]) -> Vec<Finding> {
    let ctx = build_context(files);
    let threads = blob_blas::pool::available_threads();

    let parsed: Mutex<Vec<(usize, FileUnit)>> = Mutex::new(Vec::with_capacity(files.len()));
    blob_blas::pool::parallel_for(threads, 0..files.len(), 1, |range| {
        let mut local = Vec::with_capacity(range.len());
        for i in range {
            let (path, text) = &files[i];
            local.push((i, FileUnit::build(path, text)));
        }
        parsed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(local);
    });
    let mut indexed = parsed.into_inner().unwrap_or_else(|e| e.into_inner());
    indexed.sort_by_key(|&(i, _)| i);
    let units: Vec<FileUnit> = indexed.into_iter().map(|(_, u)| u).collect();

    let syms = analyses::Symbols::build(&units);
    let acc: Mutex<Vec<Finding>> = Mutex::new(Vec::new());
    blob_blas::pool::parallel_for(threads, 0..units.len(), 1, |range| {
        let mut local = Vec::new();
        for i in range {
            local.extend(rules::check_unit_local(&units[i], &ctx, &syms));
        }
        acc.lock().unwrap_or_else(|e| e.into_inner()).extend(local);
    });
    let mut findings = acc.into_inner().unwrap_or_else(|e| e.into_inner());
    findings.extend(rules::check_workspace_wide(&units, &syms));
    rules::finalize(&units, findings)
}

/// Checks every source file under `root` and returns `(findings, files)`.
pub fn check_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = collect_sources(root)?;
    Ok((check_files(&files), files.len()))
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
/// every other JSON the project emits. The `hash` field is the
/// offending line's content hash — the stable baseline key.
pub fn to_json(findings: &[Finding]) -> String {
    let items: Vec<Json> = findings
        .iter()
        .map(|f| {
            Json::obj()
                .field("rule", f.rule)
                .field("path", f.path.as_str())
                .field("line", f.line as u64)
                .field("hash", f.line_hash.as_str())
                .field("message", f.message.as_str())
                .build()
        })
        .collect();
    Json::Arr(items).encode_pretty()
}

/// One parked finding from a baseline file. `hash` is the content hash
/// of the offending line when the baseline was written (v2 baselines);
/// legacy baselines carry only the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule identifier.
    pub rule: String,
    /// Repo-relative path.
    pub path: String,
    /// Finding message (the legacy matching key).
    pub message: String,
    /// Offending-line content hash, absent in legacy baselines.
    pub hash: Option<String>,
}

/// Parses a baseline (either generation) into [`BaselineEntry`]s with the
/// shared wire parser. Objects missing a required field are skipped;
/// unparseable text yields no entries (so a corrupt baseline fails loud —
/// every finding resurfaces). An empty `hash` is treated as absent.
pub fn parse_baseline_entries(text: &str) -> Vec<BaselineEntry> {
    let Ok(Json::Arr(items)) = Json::parse(text) else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|obj| {
            let field = |name: &str| obj.get(name).and_then(Json::as_str).map(str::to_string);
            Some(BaselineEntry {
                rule: field("rule")?,
                path: field("path")?,
                message: field("message")?,
                hash: field("hash").filter(|h| !h.is_empty()),
            })
        })
        .collect()
}

/// Drops findings parked in the baseline. Hash-keyed entries match on
/// `(rule, path, line content hash)` — stable across pure line drift and
/// across message rewording; legacy entries fall back to `(rule, path,
/// message)`. Line numbers never participate.
pub fn apply_baseline_entries(findings: Vec<Finding>, baseline: &[BaselineEntry]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            !baseline.iter().any(|b| {
                b.rule == f.rule
                    && b.path == f.path
                    && match &b.hash {
                        Some(h) => *h == f.line_hash,
                        None => b.message == f.message,
                    }
            })
        })
        .collect()
}

/// Parses a baseline into legacy `(rule, path, message)` keys. Retained
/// for message-keyed workflows; new code wants
/// [`parse_baseline_entries`].
pub fn parse_baseline(text: &str) -> Vec<(String, String, String)> {
    parse_baseline_entries(text)
        .into_iter()
        .map(|b| (b.rule, b.path, b.message))
        .collect()
}

/// Drops findings present in the baseline, matching on the legacy
/// message key. Matching ignores line numbers so unrelated edits above a
/// parked violation don't resurface it.
pub fn apply_baseline(
    findings: Vec<Finding>,
    baseline: &[(String, String, String)],
) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            !baseline
                .iter()
                .any(|(r, p, m)| r == f.rule && p == &f.path && m == &f.message)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: usize, message: &str) -> Finding {
        Finding::new(rule, path, line, message)
    }

    #[test]
    fn json_round_trips_through_baseline_parser() {
        let fs = vec![
            finding("no-unsafe", "a/b.rs", 3, "msg with \"quotes\" and \\slash"),
            finding("no-float-eq", "c.rs", 9, "line1\nline2"),
        ];
        let json = to_json(&fs);
        let keys = parse_baseline(&json);
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].0, "no-unsafe");
        assert_eq!(keys[0].2, "msg with \"quotes\" and \\slash");
        assert_eq!(keys[1].2, "line1\nline2");
        // baseline suppresses exactly those findings, line-insensitively
        let mut shifted = fs.clone();
        shifted[0].line = 99;
        assert!(apply_baseline(shifted, &keys).is_empty());
        let fresh = vec![finding("no-unsafe", "a/b.rs", 1, "different message")];
        assert_eq!(apply_baseline(fresh, &keys).len(), 1);
    }

    #[test]
    fn hash_keyed_baseline_survives_line_drift_but_not_content_change() {
        let mut parked = finding("no-unsafe", "a.rs", 10, "`unsafe` is forbidden");
        parked.line_hash = rules::line_hash("unsafe { x() }");
        let json = to_json(&[parked.clone()]);
        let entries = parse_baseline_entries(&json);
        assert_eq!(entries.len(), 1);
        assert!(entries[0].hash.is_some());
        // same line content at a different line number: still parked
        let mut drifted = parked.clone();
        drifted.line = 42;
        assert!(apply_baseline_entries(vec![drifted], &entries).is_empty());
        // different line content (hash changes): resurfaces, even though
        // rule/path/message all still match
        let mut changed = parked.clone();
        changed.line_hash = rules::line_hash("unsafe { y() }");
        assert_eq!(apply_baseline_entries(vec![changed], &entries).len(), 1);
    }

    #[test]
    fn legacy_baseline_without_hash_matches_by_message() {
        let legacy = r#"[{"rule":"no-unsafe","path":"a.rs","message":"m"}]"#;
        let entries = parse_baseline_entries(legacy);
        assert_eq!(entries.len(), 1);
        assert!(entries[0].hash.is_none());
        let mut f = finding("no-unsafe", "a.rs", 5, "m");
        f.line_hash = rules::line_hash("whatever the line is");
        assert!(apply_baseline_entries(vec![f], &entries).is_empty());
        let other = finding("no-unsafe", "a.rs", 5, "different");
        assert_eq!(apply_baseline_entries(vec![other], &entries).len(), 1);
    }

    #[test]
    fn empty_findings_serialise_to_empty_array() {
        assert_eq!(to_json(&[]), "[]");
        assert!(parse_baseline("[]").is_empty());
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
        let keys = parse_baseline(&json);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].1, "päth/ünïcode.rs");
        assert_eq!(keys[0].2, nasty);
    }

    #[test]
    fn corrupt_baseline_yields_no_keys() {
        assert!(parse_baseline("{not json").is_empty());
        assert!(parse_baseline("{\"rule\": \"x\"}").is_empty()); // not an array
                                                                 // array entries missing a field are skipped, valid ones kept
        let mixed = r#"[{"rule":"r","path":"p","message":"m"},{"rule":"only"}]"#;
        assert_eq!(parse_baseline(mixed).len(), 1);
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
        // sorted by (path, line, rule)
        let mut sorted = a.clone();
        sorted.sort_by(|x, y| {
            (x.path.as_str(), x.line, x.rule).cmp(&(y.path.as_str(), y.line, y.rule))
        });
        assert_eq!(a, sorted);
        // every finding carries a non-empty line hash
        assert!(a.iter().all(|f| f.line_hash.len() == 16));
    }
}
