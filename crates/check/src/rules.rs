//! The lint rules and the checking driver.
//!
//! Checking is layered. Every file is parsed once into a [`FileUnit`]
//! (token stream + AST + `#[cfg(test)]` regions); the classic lexical
//! rules run straight off the tokens, while the semantic rules
//! (`contract-guard`, `atomics-ordering`, `lock-discipline`, `balance`,
//! `drop-on-path` — see [`crate::analyses`]) consume the AST and the
//! per-function CFGs built from it. Per-file work is independent and
//! parallelizable ([`check_unit_local`]); the workspace-wide passes and
//! the suppression/baseline bookkeeping happen once at the end
//! ([`check_workspace_wide`], [`finalize`]).

use crate::analyses;
use crate::ast::File;
use crate::explain::DOCS;
use crate::lexer::{lex, Token, TokenKind};

/// A rule violation (or a problem with a suppression comment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `no-unwrap-in-lib`.
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// FNV-1a hash of the trimmed offending line's text (hex). Baselines
    /// key on this so findings survive pure line-number drift. Filled by
    /// [`finalize`]; empty until then.
    pub line_hash: String,
}

impl Finding {
    /// Builds a finding with an empty [`Finding::line_hash`] (the driver
    /// fills it from the source text).
    pub fn new(rule: &'static str, path: &str, line: usize, message: impl Into<String>) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: message.into(),
            line_hash: String::new(),
        }
    }
}

/// All rule identifiers, for `--list-rules` and suppression validation.
/// Derived from the documentation catalogue ([`crate::explain::DOCS`]) so
/// a rule cannot exist undocumented.
pub const RULES: [&str; 17] = [
    DOCS[0].name,
    DOCS[1].name,
    DOCS[2].name,
    DOCS[3].name,
    DOCS[4].name,
    DOCS[5].name,
    DOCS[6].name,
    DOCS[7].name,
    DOCS[8].name,
    DOCS[9].name,
    DOCS[10].name,
    DOCS[11].name,
    DOCS[12].name,
    DOCS[13].name,
    DOCS[14].name,
    DOCS[15].name,
    DOCS[16].name,
];

/// FNV-1a 64-bit hash of a line's trimmed text, rendered as 16 hex
/// digits. The baseline format keys findings on this.
pub fn line_hash(line_text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in line_text.trim().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// What kind of code a file holds, derived from its repo-relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate name for `crates/<name>/…` paths (`blob-<name>`), `gpu-blob`
    /// for the root package, `None` outside any crate.
    pub crate_name: Option<String>,
    /// Library code: under a `src/` that is not `src/bin/` or `src/main.rs`.
    pub is_lib: bool,
    /// Integration test, example, or bench code.
    pub is_test_like: bool,
}

/// Classifies a repo-relative path (`/`-separated).
pub fn classify(path: &str) -> FileClass {
    let parts: Vec<&str> = path.split('/').collect();
    let crate_name = match parts.as_slice() {
        ["crates", c, ..] => Some(format!("blob-{c}")),
        ["src", ..] | ["examples", ..] | ["tests", ..] | ["benches", ..] => {
            Some("gpu-blob".to_string())
        }
        _ => None,
    };
    let in_src = parts.contains(&"src");
    let is_bin = parts.contains(&"bin") || parts.last() == Some(&"main.rs");
    let is_test_like =
        parts.contains(&"tests") || parts.contains(&"benches") || parts.contains(&"examples");
    FileClass {
        crate_name,
        is_lib: in_src && !is_bin && !is_test_like,
        is_test_like,
    }
}

/// One file, parsed once and shared by every rule: the raw text (for
/// baseline hashes), the full token stream (comments included), the AST,
/// the path classification, and the `#[cfg(test)]` line regions.
#[derive(Debug)]
pub struct FileUnit {
    /// Repo-relative path.
    pub path: String,
    /// Path classification.
    pub class: FileClass,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Parsed AST (over the comment-free token stream).
    pub ast: File,
    /// Line ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// The source text.
    pub text: String,
}

impl FileUnit {
    /// Lexes, classifies, and parses one file.
    pub fn build(path: &str, text: &str) -> FileUnit {
        let tokens = lex(text);
        let test_regions = cfg_test_regions(&tokens);
        let ast = crate::parse::parse_file(&crate::parse::code_tokens(&tokens));
        FileUnit {
            path: path.to_string(),
            class: classify(path),
            ast,
            test_regions,
            tokens,
            text: text.to_string(),
        }
    }
}

/// Byte-offset-free region of lines `[start, end]` covered by a
/// `#[cfg(test)]` item (the brace-matched block following the attribute).
fn cfg_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !is_comment(t))
        .collect();
    let mut i = 0;
    while i + 1 < code.len() {
        let (_, t) = code[i];
        if t.text == "#" && code[i + 1].1.text == "[" {
            // scan the attribute tokens to its closing `]`
            let mut j = i + 2;
            let mut depth = 1;
            let mut is_cfg = false;
            let mut mentions_test = false;
            while j < code.len() && depth > 0 {
                let txt = code[j].1.text.as_str();
                match txt {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "cfg" if j == i + 2 => is_cfg = true,
                    "test" => mentions_test = true,
                    _ => {}
                }
                j += 1;
            }
            if is_cfg && mentions_test {
                // brace-match the item body that follows
                while j < code.len() && code[j].1.text != "{" {
                    // a `;`-terminated item (e.g. `#[cfg(test)] use …;`) has
                    // no body — bail out of the region search
                    if code[j].1.text == ";" {
                        break;
                    }
                    j += 1;
                }
                if j < code.len() && code[j].1.text == "{" {
                    let start_line = t.line;
                    let mut braces = 1;
                    let mut k = j + 1;
                    while k < code.len() && braces > 0 {
                        match code[k].1.text.as_str() {
                            "{" => braces += 1,
                            "}" => braces -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    let end_line = code[k.saturating_sub(1).min(code.len() - 1)].1.line;
                    regions.push((start_line, end_line));
                    i = k;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

fn in_regions(line: usize, regions: &[(usize, usize)]) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

fn is_comment(t: &Token) -> bool {
    matches!(
        t.kind,
        TokenKind::LineComment | TokenKind::BlockComment | TokenKind::DocComment
    )
}

/// A parsed suppression comment (see [`suppressions`] for the syntax).
#[derive(Debug, Clone)]
struct Suppression {
    rule: String,
    line: usize,
    has_reason: bool,
    known_rule: bool,
}

/// Extracts suppressions from comment tokens. Syntax, anywhere in a line
/// or block comment:
///
/// ```text
/// // blob-check: allow(no-float-eq): beta is a configured sentinel
/// ```
///
/// The reason after the closing `)` and `:` is mandatory; a bare
/// suppression is itself reported (rule `suppression`).
fn suppressions(tokens: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens.iter().filter(|t| is_comment(t)) {
        let Some(at) = t.text.find("blob-check:") else {
            continue;
        };
        let rest = t.text[at + "blob-check:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = args.find(')') else {
            continue;
        };
        let rule = args[..close].trim().to_string();
        let tail = args[close + 1..]
            .trim_start()
            .trim_start_matches(':')
            .trim();
        out.push(Suppression {
            known_rule: RULES.contains(&rule.as_str()),
            rule,
            line: t.line,
            has_reason: !tail.is_empty(),
        });
    }
    out
}

/// True when `lit` is a floating-point literal token text.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains('e')
        || text.contains('E')
}

/// Shared context computed once per workspace run (for `contract-guard`).
#[derive(Debug, Default, Clone)]
pub struct Context {
    /// Names of functions in the guarded kernel files that are known to
    /// validate their contract (directly or by delegation) — calling one
    /// of these counts as guarding.
    pub guarded_fns: Vec<String>,
}

/// The files whose public kernels must validate the call contract before
/// touching any slice.
pub const GUARDED_FILES: [&str; 4] = [
    "crates/blas/src/gemm.rs",
    "crates/blas/src/gemv.rs",
    "crates/blas/src/half.rs",
    "crates/blas/src/emul.rs",
];

/// Builds the [`Context`] by fixpoint over the guarded kernel files: a
/// function is *guarding* if it directly calls `contract::…`/`check_…`, or
/// if every path to its data goes through a call to another guarding
/// function (approximated as: it calls one before any slice index).
pub fn build_context(files: &[(String, String)]) -> Context {
    let mut facts = Vec::new();
    for (path, text) in files {
        if !GUARDED_FILES.contains(&path.as_str()) {
            continue;
        }
        let u = FileUnit::build(path, text);
        facts.extend(analyses::contract::fn_facts(&u));
    }
    analyses::contract::fixpoint(&facts)
}

/// Runs the per-file rules over one pre-built unit: the lexical rules,
/// `contract-guard`, and the per-function CFG analyses (`balance`,
/// `drop-on-path`). Safe to call from worker threads; suppression
/// filtering and hashing happen later in [`finalize`].
pub fn check_unit_local(u: &FileUnit, ctx: &Context, syms: &analyses::Symbols) -> Vec<Finding> {
    let mut findings = lexical_rules(u);
    if GUARDED_FILES.contains(&u.path.as_str()) {
        findings.extend(analyses::contract::check(u, ctx));
    }
    let one = std::slice::from_ref(u);
    findings.extend(analyses::balance::check(one));
    findings.extend(analyses::drop_result::check(one, syms));
    findings
}

/// The workspace-wide passes that need every file at once: atomics
/// ordering groups accesses across files, and the lock-order graph spans
/// the whole workspace.
pub fn check_workspace_wide(units: &[FileUnit], syms: &analyses::Symbols) -> Vec<Finding> {
    let mut findings = analyses::atomics::check(units, syms);
    findings.extend(analyses::locks::check(units, syms));
    findings
}

/// Suppression hygiene + filtering, line-hash fill, and the final sort
/// by `(path, line, rule)`.
pub fn finalize(units: &[FileUnit], mut findings: Vec<Finding>) -> Vec<Finding> {
    for u in units {
        let sups = suppressions(&u.tokens);
        for s in &sups {
            if !s.known_rule {
                findings.push(Finding::new(
                    "suppression",
                    &u.path,
                    s.line,
                    format!("suppression names unknown rule `{}`", s.rule),
                ));
            } else if !s.has_reason {
                findings.push(Finding::new(
                    "suppression",
                    &u.path,
                    s.line,
                    format!(
                        "suppression of `{}` must give a reason: `// blob-check: allow({}): <why>`",
                        s.rule, s.rule
                    ),
                ));
            }
        }
        findings.retain(|f| {
            f.path != u.path
                || f.rule == "suppression"
                || !sups.iter().any(|s| {
                    s.known_rule
                        && s.has_reason
                        && s.rule == f.rule
                        && (s.line == f.line || s.line + 1 == f.line)
                })
        });
        let lines: Vec<&str> = u.text.lines().collect();
        for f in findings.iter_mut().filter(|f| f.path == u.path) {
            f.line_hash = line_hash(lines.get(f.line.wrapping_sub(1)).unwrap_or(&""));
        }
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    findings.dedup();
    findings
}

/// Runs everything over a set of pre-built units, sequentially. The
/// parallel driver in [`crate::check_files`] composes the same pieces.
pub fn check_units(units: &[FileUnit], ctx: &Context) -> Vec<Finding> {
    let syms = analyses::Symbols::build(units);
    let mut findings = Vec::new();
    for u in units {
        findings.extend(check_unit_local(u, ctx, &syms));
    }
    findings.extend(check_workspace_wide(units, &syms));
    finalize(units, findings)
}

/// Runs every rule over one file and returns unsuppressed findings plus
/// findings about the suppressions themselves. Single-file convenience
/// driver: the workspace-wide passes see only this file.
pub fn check_file(path: &str, text: &str, ctx: &Context) -> Vec<Finding> {
    let units = [FileUnit::build(path, text)];
    let syms = analyses::Symbols::build(&units);
    let mut findings = check_unit_local(&units[0], ctx, &syms);
    findings.extend(check_workspace_wide(&units, &syms));
    finalize(&units, findings)
}

/// The original token-level rules (everything that needs no AST).
fn lexical_rules(u: &FileUnit) -> Vec<Finding> {
    let path = u.path.as_str();
    let class = &u.class;
    let test_regions = &u.test_regions;
    let tokens = &u.tokens;
    let mut findings = Vec::new();

    let code: Vec<&Token> = tokens.iter().filter(|t| !is_comment(t)).collect();

    // The two sanctioned homes for explicit-SIMD code. `no-unsafe` skips
    // them (the micro-kernels are intrinsics behind runtime feature
    // detection); `no-unchecked-simd` polices them instead.
    const SIMD_HOMES: [&str; 2] = ["crates/blas/src/microkernel.rs", "crates/blas/src/pack.rs"];
    let simd_home = SIMD_HOMES.contains(&path);

    // --- no-unsafe: applies everywhere else, tests included --------------
    if !simd_home {
        for t in &code {
            if t.kind == TokenKind::Ident && t.text == "unsafe" {
                findings.push(Finding::new(
                    "no-unsafe",
                    path,
                    t.line,
                    "`unsafe` is forbidden in this workspace",
                ));
            }
        }
    }

    // --- no-unchecked-simd: intrinsics stay behind the dispatch gate -----
    // Outside the sanctioned files, any explicit-SIMD surface — a
    // `core::arch`/`std::arch` path, a `target_feature` attribute, or a
    // raw `_mm…`/`__m…` intrinsic identifier — dodges the runtime
    // feature-detection dispatch the micro-kernel module owns and can
    // execute an illegal instruction on older hosts. Inside them, every
    // `unsafe fn` must carry a `# Safety` doc section stating the contract
    // the dispatch layer upholds.
    if simd_home {
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "unsafe" {
                continue;
            }
            // only `unsafe fn` declarations, not unsafe blocks
            let mut j = i + 1;
            while j < tokens.len() && is_comment(&tokens[j]) {
                j += 1;
            }
            if tokens.get(j).map(|t| t.text != "fn").unwrap_or(true) {
                continue;
            }
            // hop over visibility qualifiers (`pub`, `pub(crate)`, …) to
            // the docs/attributes above
            let mut b = i;
            while b > 0 {
                let pt = &tokens[b - 1];
                let vis = (pt.kind == TokenKind::Ident
                    && matches!(pt.text.as_str(), "pub" | "crate" | "super" | "self" | "in"))
                    || pt.text == "("
                    || pt.text == ")";
                if vis {
                    b -= 1;
                } else {
                    break;
                }
            }
            // walk backwards over attributes and plain comments, scanning
            // every contiguous doc-comment line for a `# Safety` section
            let mut documented = false;
            while b > 0 {
                b -= 1;
                let bt = &tokens[b];
                match bt.kind {
                    TokenKind::DocComment => {
                        if bt.text.contains("# Safety") {
                            documented = true;
                            break;
                        }
                    }
                    TokenKind::LineComment | TokenKind::BlockComment => {}
                    _ => {
                        if bt.text == "]" {
                            // skip back over one `#[…]` attribute
                            let mut depth = 1;
                            while b > 0 && depth > 0 {
                                b -= 1;
                                match tokens[b].text.as_str() {
                                    "]" => depth += 1,
                                    "[" => depth -= 1,
                                    _ => {}
                                }
                            }
                            if b > 0 && tokens[b - 1].text == "#" {
                                b -= 1;
                                continue;
                            }
                        }
                        break;
                    }
                }
            }
            let name = tokens
                .get(j + 1)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            if !documented {
                findings.push(Finding::new(
                    "no-unchecked-simd",
                    path,
                    t.line,
                    format!(
                        "`unsafe fn {name}` in a sanctioned SIMD file has no `# Safety` \
                         doc section — state the contract the dispatch layer upholds"
                    ),
                ));
            }
        }
    } else {
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let arch_path = t.text == "arch"
                && i >= 2
                && code[i - 1].text == "::"
                && (code[i - 2].text == "core" || code[i - 2].text == "std");
            let feature_attr = t.text == "target_feature";
            let intrinsic = t.text.starts_with("_mm") || t.text.starts_with("__m");
            if arch_path || feature_attr || intrinsic {
                findings.push(Finding::new(
                    "no-unchecked-simd",
                    path,
                    t.line,
                    format!(
                        "explicit-SIMD surface `{}` outside the sanctioned micro-kernel \
                         files — intrinsics belong behind the runtime feature-detection \
                         dispatch in `crates/blas/src/microkernel.rs`",
                        t.text
                    ),
                ));
            }
        }
    }

    // --- no-adhoc-scope: kernel code dispatches through pool.rs ----------
    // `std::thread::scope` is the one lifetime-erasure primitive the
    // workspace allows, and `blob_blas::pool` is its sole home: every other
    // call site would reintroduce per-call spawns on the hot path and dodge
    // the pool's crossover/panic/perturbation machinery. Fires on the token
    // sequence `thread :: scope (` anywhere in `crates/blas/src/` except
    // `pool.rs` itself (tests included — unit tests exercise the pool API).
    if path.starts_with("crates/blas/src/") && path != "crates/blas/src/pool.rs" {
        for (i, t) in code.iter().enumerate() {
            if t.kind == TokenKind::Ident
                && t.text == "scope"
                && i >= 2
                && code[i - 1].text == "::"
                && code[i - 2].text == "thread"
                && code.get(i + 1).map(|t| t.text == "(").unwrap_or(false)
            {
                findings.push(Finding::new(
                    "no-adhoc-scope",
                    path,
                    t.line,
                    "`std::thread::scope` outside `pool.rs` — dispatch through \
                     `blob_blas::pool` (`run_scoped`/`parallel_for`) instead",
                ));
            }
        }
    }

    // --- no-unwrap-in-lib: library code outside #[cfg(test)] -------------
    if class.is_lib {
        for (i, t) in code.iter().enumerate() {
            if in_regions(t.line, test_regions) || t.kind != TokenKind::Ident {
                continue;
            }
            let prev_dot = i > 0 && code[i - 1].text == ".";
            let next = |o: usize| code.get(i + o).map(|t| t.text.as_str());
            let hit = match t.text.as_str() {
                "unwrap" | "expect" if prev_dot && next(1) == Some("(") => Some(format!(
                    "`.{}()` in library code — return a typed error instead",
                    t.text
                )),
                "panic" if next(1) == Some("!") => {
                    Some("`panic!` in library code — return a typed error instead".to_string())
                }
                _ => None,
            };
            if let Some(message) = hit {
                findings.push(Finding::new("no-unwrap-in-lib", path, t.line, message));
            }
        }
    }

    // --- no-unwrap-in-serve: service/driver binaries must not panic ------
    // The serve and cli crates' *library* files are already policed by
    // `no-unwrap-in-lib`; this rule extends the same pattern to their
    // binary files (`main.rs`, `src/bin/…`), which that rule skips. A
    // panic there takes down the long-running advisor service or aborts a
    // sweep mid-run, so availability depends on handling the error. The
    // scopes are disjoint (`is_lib` vs not), so a site is never reported
    // by both rules.
    let serve_scope = !class.is_lib
        && !class.is_test_like
        && (path.starts_with("crates/serve/") || path.starts_with("crates/cli/"));
    if serve_scope {
        for (i, t) in code.iter().enumerate() {
            if in_regions(t.line, test_regions) || t.kind != TokenKind::Ident {
                continue;
            }
            let prev_dot = i > 0 && code[i - 1].text == ".";
            let next = |o: usize| code.get(i + o).map(|t| t.text.as_str());
            let hit = match t.text.as_str() {
                "unwrap" | "expect" if prev_dot && next(1) == Some("(") => Some(format!(
                    "`.{}()` in service/driver code — report the error and exit cleanly instead",
                    t.text
                )),
                "panic" if next(1) == Some("!") => Some(
                    "`panic!` in service/driver code — report the error and exit cleanly instead"
                        .to_string(),
                ),
                _ => None,
            };
            if let Some(message) = hit {
                findings.push(Finding::new("no-unwrap-in-serve", path, t.line, message));
            }
        }
    }

    // --- no-float-eq: kernel/model code (blas + sim libraries) -----------
    let float_eq_scope = class.is_lib
        && matches!(
            class.crate_name.as_deref(),
            Some("blob-blas") | Some("blob-sim")
        );
    if float_eq_scope {
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
                continue;
            }
            if in_regions(t.line, test_regions) {
                continue;
            }
            let neighbor_float = |o: &Option<&&Token>| {
                o.map(|t| {
                    (t.kind == TokenKind::Num && is_float_literal(&t.text))
                        || t.text == "f32"
                        || t.text == "f64"
                })
                .unwrap_or(false)
            };
            let prev = if i > 0 { code.get(i - 1) } else { None };
            if neighbor_float(&prev) || neighbor_float(&code.get(i + 1)) {
                findings.push(Finding::new(
                    "no-float-eq",
                    path,
                    t.line,
                    format!(
                        "`{}` against a float literal in kernel/model code — compare with a tolerance",
                        t.text
                    ),
                ));
            }
        }
    }

    // --- pub-item-docs: numeric core crates need doc comments ------------
    let docs_scope = class.is_lib
        && matches!(
            class.crate_name.as_deref(),
            Some("blob-blas") | Some("blob-sim") | Some("blob-core")
        );
    if docs_scope {
        const ITEM_KEYWORDS: [&str; 9] = [
            "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union",
        ];
        // indices into `tokens` (comments kept — we need to see the docs)
        for (i, t) in tokens.iter().enumerate() {
            if t.text != "pub" || t.kind != TokenKind::Ident {
                continue;
            }
            if in_regions(t.line, test_regions) {
                continue;
            }
            // `pub(crate)` and friends are not public API
            let mut j = i + 1;
            while j < tokens.len() && is_comment(&tokens[j]) {
                j += 1;
            }
            if tokens.get(j).map(|t| t.text == "(").unwrap_or(true) {
                continue;
            }
            // skip `unsafe`/`const`/`async` qualifiers to the item keyword
            let mut item = None;
            let mut probe = j;
            for _ in 0..3 {
                match tokens.get(probe).map(|t| t.text.as_str()) {
                    Some(k) if ITEM_KEYWORDS.contains(&k) => {
                        item = Some(k.to_string());
                        break;
                    }
                    Some("unsafe") | Some("const") | Some("async") | Some("extern") => probe += 1,
                    _ => break,
                }
            }
            let described = match item {
                Some(k) => {
                    // `pub mod name;` declarations carry their docs as `//!`
                    // inside the module file (rustc accepts that), which a
                    // single-file pass cannot see — skip them
                    if k == "mod"
                        && tokens
                            .get(probe + 2)
                            .map(|t| t.text == ";")
                            .unwrap_or(false)
                    {
                        continue;
                    }
                    let name = tokens
                        .get(probe + 1)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    format!("{k} `{name}`")
                }
                // `pub name: Type` struct field (skip `pub use` re-exports
                // and anything unrecognised)
                None => {
                    let is_field = tokens
                        .get(j)
                        .map(|t| t.kind == TokenKind::Ident)
                        .unwrap_or(false)
                        && tokens.get(j).map(|t| t.text != "use").unwrap_or(false)
                        && tokens.get(j + 1).map(|t| t.text == ":").unwrap_or(false);
                    if !is_field {
                        continue;
                    }
                    format!("field `{}`", tokens[j].text)
                }
            };
            // walk backwards over attributes to the nearest doc comment
            let mut b = i;
            let mut documented = false;
            while b > 0 {
                b -= 1;
                let bt = &tokens[b];
                match bt.kind {
                    TokenKind::DocComment => {
                        documented = true;
                        break;
                    }
                    TokenKind::LineComment | TokenKind::BlockComment => continue,
                    _ => {
                        if bt.text == "]" {
                            // skip back over one `#[…]` attribute
                            let mut depth = 1;
                            while b > 0 && depth > 0 {
                                b -= 1;
                                match tokens[b].text.as_str() {
                                    "]" => depth += 1,
                                    "[" => depth -= 1,
                                    _ => {}
                                }
                            }
                            if b > 0 && tokens[b - 1].text == "#" {
                                b -= 1;
                                continue;
                            }
                        }
                        break;
                    }
                }
            }
            if !documented {
                findings.push(Finding::new(
                    "pub-item-docs",
                    path,
                    t.line,
                    format!("public {described} has no doc comment"),
                ));
            }
        }
    }

    // --- no-raw-error-body: serve errors go through the envelope ---------
    // Every serve error response must carry the uniform JSON envelope
    // (`{"error":{"code","message","trace_id"}}`) and the `X-Blob-Trace`
    // header, both minted by `envelope::error_response`. A handler that
    // hand-builds an error via `Response::json(4xx…)`/`Response::text(5xx…)`
    // silently forks the wire contract. Fires on the token sequence
    // `Response :: json|text ( <int literal ≥ 400>` anywhere in
    // `crates/serve/src/` except the envelope module itself and the
    // transport layer (`http.rs`, which defines the constructors), tests
    // excluded.
    let raw_error_scope = path.starts_with("crates/serve/src/")
        && path != "crates/serve/src/envelope.rs"
        && path != "crates/serve/src/http.rs";
    if raw_error_scope {
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokenKind::Ident || (t.text != "json" && t.text != "text") {
                continue;
            }
            if in_regions(t.line, test_regions) {
                continue;
            }
            let is_ctor = i >= 2
                && code[i - 1].text == "::"
                && code[i - 2].text == "Response"
                && code.get(i + 1).map(|t| t.text == "(").unwrap_or(false);
            if !is_ctor {
                continue;
            }
            let status = code
                .get(i + 2)
                .filter(|t| t.kind == TokenKind::Num)
                .and_then(|t| t.text.parse::<u32>().ok());
            if let Some(s) = status {
                if s >= 400 {
                    findings.push(Finding::new(
                        "no-raw-error-body",
                        path,
                        t.line,
                        format!(
                            "`Response::{}({s}, …)` builds an error body outside the envelope — \
                             use `envelope::error_response` instead",
                            t.text
                        ),
                    ));
                }
            }
        }
    }

    // --- no-direct-kernel-in-dispatch: routing goes through exec.rs ------
    // The dispatch crate's contract is that every kernel invocation is a
    // *decision*: `exec.rs` is the one sanctioned home for `blob_blas`
    // calls, where the decide/complete pairing, history feedback and
    // residency accounting are guaranteed. A direct kernel call anywhere
    // else in the crate silently bypasses the dispatcher. Fires on a
    // kernel identifier (`gemm_blocked`, `gemm_blocked_with`,
    // `gemm_parallel`, `gemv_parallel`, `gemm_ref`, `gemv_ref`) followed
    // by `(` — bare or path-qualified — and on the direct-path sequence
    // `blob_blas :: gemm|gemv (`. `BlasCall::gemm(…)` shape constructors
    // don't match (different preceding path, and bare `gemm`/`gemv` are
    // not in the identifier set). Tests excluded — unit tests may drive
    // kernels directly to cross-check the executor.
    const KERNEL_FNS: [&str; 6] = [
        "gemm_blocked",
        "gemm_blocked_with",
        "gemm_parallel",
        "gemv_parallel",
        "gemm_ref",
        "gemv_ref",
    ];
    let dispatch_scope =
        path.starts_with("crates/dispatch/src/") && path != "crates/dispatch/src/exec.rs";
    if dispatch_scope {
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokenKind::Ident || in_regions(t.line, test_regions) {
                continue;
            }
            if !code.get(i + 1).map(|t| t.text == "(").unwrap_or(false) {
                continue;
            }
            let named_kernel = KERNEL_FNS.contains(&t.text.as_str());
            let blas_path = (t.text == "gemm" || t.text == "gemv")
                && i >= 2
                && code[i - 1].text == "::"
                && code[i - 2].text == "blob_blas";
            if named_kernel || blas_path {
                findings.push(Finding::new(
                    "no-direct-kernel-in-dispatch",
                    path,
                    t.line,
                    format!(
                        "direct `{}(…)` kernel call in dispatch code — route through the \
                         executor (`exec.rs`) so the decision, history and residency \
                         accounting stay consistent",
                        t.text
                    ),
                ));
            }
        }
    }

    // --- no-unbounded-queue: serve queues must carry a capacity ----------
    // Every queue in the serve path sits between a producer that can always
    // go faster (accepted connections, fabric requests) and a consumer that
    // can stall; an unbounded one turns overload into unbounded memory
    // growth instead of visible back-pressure (the accept loop's
    // `sync_channel` shed and the fabric pool's explicit cap are the
    // sanctioned shapes). Fires on the token sequences `mpsc :: channel (`
    // and `VecDeque :: new (` in `crates/serve/src/`, tests excluded.
    if path.starts_with("crates/serve/src/") {
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokenKind::Ident || in_regions(t.line, test_regions) {
                continue;
            }
            if !code.get(i + 1).map(|t| t.text == "(").unwrap_or(false) || i < 2 {
                continue;
            }
            let qualified = |head: &str| code[i - 1].text == "::" && code[i - 2].text == head;
            let hit = match t.text.as_str() {
                "channel" if qualified("mpsc") => Some(
                    "`mpsc::channel()` is unbounded — use `mpsc::sync_channel(cap)` \
                     so overload becomes back-pressure, not memory growth",
                ),
                "new" if qualified("VecDeque") => Some(
                    "`VecDeque::new()` is unbounded — use `with_capacity(cap)` and \
                     enforce the cap at the push site",
                ),
                _ => None,
            };
            if let Some(message) = hit {
                findings.push(Finding::new("no-unbounded-queue", path, t.line, message));
            }
        }
    }

    // --- no-untagged-precision: half/emulated kernels carry their tag ----
    // The precision plane's contract is that a reduced- or
    // emulated-precision kernel always says which precision it computes:
    // `bf16` vs `f16`, `f64-emul2` vs `f64-emul4` are different numerical
    // objects, and validation tolerances, dispatch history keys and the
    // wire echo are all keyed on the tag. Fires on a `pub fn` whose name
    // contains `gemm` or `gemv` in the precision-plane kernel homes
    // (crates/blas/src/half.rs, emul.rs) whose parameter list has no
    // `Precision` token. Private helpers (already behind a tagged entry
    // point) and tests are excluded.
    let precision_scope = path == "crates/blas/src/half.rs" || path == "crates/blas/src/emul.rs";
    if precision_scope {
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "fn" || in_regions(t.line, test_regions) {
                continue;
            }
            if i == 0 || code[i - 1].text != "pub" {
                continue;
            }
            let Some(name) = code.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
                continue;
            };
            if !name.text.contains("gemm") && !name.text.contains("gemv") {
                continue;
            }
            // walk to the parameter list (past any generics) and scan its
            // paren-balanced extent for a `Precision` type token
            let mut j = i + 2;
            while j < code.len() && code[j].text != "(" {
                j += 1;
            }
            let mut depth = 0usize;
            let mut tagged = false;
            while j < code.len() {
                match code[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "Precision" => tagged = true,
                    _ => {}
                }
                j += 1;
            }
            if !tagged {
                findings.push(Finding::new(
                    "no-untagged-precision",
                    path,
                    t.line,
                    format!(
                        "`pub fn {}` in the precision plane takes no `Precision` tag — \
                         half/emulated kernels must name the precision they compute so \
                         tolerances and dispatch keys stay consistent",
                        name.text
                    ),
                ));
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_lib(src: &str) -> Vec<Finding> {
        check_file("crates/blas/src/demo.rs", src, &Context::default())
    }

    #[test]
    fn classify_paths() {
        assert!(classify("crates/blas/src/gemm.rs").is_lib);
        assert!(!classify("crates/cli/src/main.rs").is_lib);
        assert!(!classify("crates/core/src/bin/tool.rs").is_lib);
        assert!(!classify("crates/blas/tests/edge.rs").is_lib);
        assert!(classify("src/lib.rs").is_lib);
        assert_eq!(
            classify("crates/sim/src/call.rs").crate_name.as_deref(),
            Some("blob-sim")
        );
        assert_eq!(
            classify("examples/x.rs").crate_name.as_deref(),
            Some("gpu-blob")
        );
    }

    #[test]
    fn unsafe_is_flagged_everywhere() {
        let f = check_file(
            "crates/blas/tests/t.rs",
            "fn f() { unsafe { } }",
            &Context::default(),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unsafe");
    }

    #[test]
    fn simd_surface_flagged_outside_sanctioned_files() {
        let f = check_file(
            "crates/sim/src/roofline.rs",
            "fn f() { let v = core::arch::x86_64::_mm256_setzero_pd(); }",
            &Context::default(),
        );
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert!(
            rules.contains(&"no-unchecked-simd"),
            "expected no-unchecked-simd, got {rules:?}"
        );
        // mentions inside strings and comments don't fire
        let clean = check_file(
            "crates/sim/src/roofline.rs",
            "// core::arch::x86_64 is discussed here\nconst S: &str = \"_mm256_setzero_pd\";",
            &Context::default(),
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn unbounded_queue_flagged_in_serve_only() {
        let f = check_file(
            "crates/serve/src/fabric/worker.rs",
            "fn f() { let (tx, rx) = mpsc::channel(); let q: VecDeque<u8> = VecDeque::new(); }",
            &Context::default(),
        );
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert_eq!(
            rules,
            vec!["no-unbounded-queue", "no-unbounded-queue"],
            "{f:?}"
        );
        // the bounded shapes are the sanctioned ones
        let bounded = check_file(
            "crates/serve/src/fabric/worker.rs",
            "fn f() { let (tx, rx) = mpsc::sync_channel(8); \
             let q: VecDeque<u8> = VecDeque::with_capacity(8); }",
            &Context::default(),
        );
        assert!(bounded.is_empty(), "{bounded:?}");
        // out of scope: other crates and serve tests
        let elsewhere = check_file(
            "crates/core/src/runner.rs",
            "fn f() { let (tx, rx) = mpsc::channel(); }",
            &Context::default(),
        );
        assert!(elsewhere.iter().all(|x| x.rule != "no-unbounded-queue"));
        let in_test = check_file(
            "crates/serve/src/metrics.rs",
            "#[cfg(test)]\nmod tests {\n    fn f() { let (tx, rx) = mpsc::channel(); }\n}",
            &Context::default(),
        );
        assert!(in_test.is_empty(), "{in_test:?}");
    }

    #[test]
    fn unsafe_fn_in_simd_home_needs_safety_section() {
        let undocumented = check_file(
            "crates/blas/src/pack.rs",
            "/// Packs a tile.\nunsafe fn pack_tile() {}",
            &Context::default(),
        );
        assert_eq!(undocumented.len(), 1, "{undocumented:?}");
        assert_eq!(undocumented[0].rule, "no-unchecked-simd");
        // `# Safety` anywhere in the contiguous doc block satisfies it,
        // and no-unsafe stays quiet in the sanctioned files
        let documented = check_file(
            "crates/blas/src/pack.rs",
            "/// Packs a tile.\n///\n/// # Safety\n///\n/// Caller checked the feature.\n\
             #[inline]\npub(crate) unsafe fn pack_tile() { unsafe { } }",
            &Context::default(),
        );
        assert!(documented.is_empty(), "{documented:?}");
    }

    #[test]
    fn unwrap_in_lib_flagged_but_not_in_tests_or_comments() {
        let src = r#"
/// Doc mentioning .unwrap() freely.
fn f(x: Option<u32>) -> u32 { x.unwrap() }
// comment: .unwrap()
const S: &str = ".unwrap()";
#[cfg(test)]
mod tests {
    fn g(x: Option<u32>) -> u32 { x.unwrap() }
}
"#;
        let f = check_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-unwrap-in-lib");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn expect_and_panic_flagged_in_lib_only() {
        let lib = check_lib("fn f() { x.expect(\"boom\"); panic!(\"no\"); }");
        assert_eq!(lib.len(), 2);
        let tests = check_file(
            "crates/blas/tests/t.rs",
            "fn f() { x.expect(\"fine in tests\"); }",
            &Context::default(),
        );
        assert!(tests.is_empty());
        // unwrap_or_else is a different identifier — not flagged
        assert!(check_lib("fn f() { x.unwrap_or_else(|| 3); }").is_empty());
    }

    #[test]
    fn unwrap_in_serve_driver_binaries_flagged_once() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        // cli binary: the new rule fires, the lib rule does not
        let f = check_file("crates/cli/src/main.rs", src, &Context::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-unwrap-in-serve");
        // serve *library* file: only the lib rule fires — never both
        let f = check_file("crates/serve/src/api.rs", src, &Context::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-unwrap-in-lib");
        // serve/cli tests are exempt, like everywhere else
        let f = check_file("crates/serve/tests/chaos.rs", src, &Context::default());
        assert!(f.is_empty(), "{f:?}");
        // binaries of other crates are out of scope for this rule
        let f = check_file(
            "crates/bench/src/bin/experiments.rs",
            src,
            &Context::default(),
        );
        assert!(f.iter().all(|f| f.rule != "no-unwrap-in-serve"), "{f:?}");
        // panic! and .expect() in a driver binary are the same violation
        let f = check_file(
            "crates/cli/src/main.rs",
            "fn f() { x.expect(\"boom\"); panic!(\"no\"); }",
            &Context::default(),
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "no-unwrap-in-serve"));
    }

    #[test]
    fn unwrap_in_serve_suppressible_with_reason() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // blob-check: allow(no-unwrap-in-serve): startup precondition\n    x.unwrap()\n}";
        let f = check_file("crates/cli/src/main.rs", src, &Context::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_eq_flagged_in_kernel_code() {
        let f = check_lib("fn f(x: f64) -> bool { x == 0.0 }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-float-eq");
        // integer comparison is fine
        assert!(check_lib("fn f(x: usize) -> bool { x == 0 }").is_empty());
        // out of scope: core crate is not kernel/model code
        let core = check_file(
            "crates/core/src/x.rs",
            "fn f(x: f64) -> bool { x == 0.0 }",
            &Context::default(),
        );
        assert!(core.iter().all(|f| f.rule != "no-float-eq"));
    }

    #[test]
    fn float_eq_suppression_needs_reason() {
        let with_reason = check_lib(
            "fn f(b: f64) -> bool {\n    // blob-check: allow(no-float-eq): beta is a sentinel\n    b == 0.0\n}",
        );
        assert!(with_reason.is_empty(), "{with_reason:?}");
        let without = check_lib(
            "fn f(b: f64) -> bool {\n    // blob-check: allow(no-float-eq)\n    b == 0.0\n}",
        );
        // the violation stays AND the bare suppression is reported
        assert_eq!(without.len(), 2, "{without:?}");
        assert!(without.iter().any(|f| f.rule == "suppression"));
        assert!(without.iter().any(|f| f.rule == "no-float-eq"));
    }

    #[test]
    fn unknown_rule_suppression_reported() {
        let f = check_lib("// blob-check: allow(no-such-rule): whatever\nfn f() {}");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unknown rule"));
    }

    #[test]
    fn pub_docs_required_in_core_crates() {
        let src = "pub fn undocumented() {}\n/// Documented.\npub fn documented() {}\n";
        let f = check_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "pub-item-docs");
        assert!(f[0].message.contains("undocumented"));
        // attributes between doc and item are fine
        let attr =
            "/// Doc.\n#[derive(Debug)]\npub struct S {\n    /// Field doc.\n    pub x: u32,\n}\n";
        assert!(check_lib(attr).is_empty());
        // field without doc is flagged; pub(crate) and pub use are not
        let field =
            "/// Doc.\npub struct S { pub x: u32 }\npub(crate) fn h() {}\npub use std::mem;\n";
        let f = check_lib(field);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("field `x`"));
    }

    fn guard_findings(path: &str, src: &str, ctx: &Context) -> Vec<Finding> {
        check_file(path, src, ctx)
            .into_iter()
            .filter(|f| f.rule == "contract-guard")
            .collect()
    }

    #[test]
    fn contract_guard_detects_unvalidated_indexing() {
        let path = "crates/blas/src/gemm.rs";
        let bad = "pub fn kernel(a: &[f64]) -> f64 { a[0] }";
        let ctx = Context::default();
        assert_eq!(guard_findings(path, bad, &ctx).len(), 1);
        let good = "pub fn kernel(a: &[f64]) -> Result<f64, ContractError> {\n    contract::check_vector(\"a\", a.len(), 1, 1)?;\n    Ok(a[0])\n}";
        assert!(guard_findings(path, good, &ctx).is_empty());
        let late = "pub fn kernel(a: &[f64]) -> Result<f64, ContractError> {\n    let v = a[0];\n    contract::check_vector(\"a\", a.len(), 1, 1)?;\n    Ok(v)\n}";
        assert!(guard_findings(path, late, &ctx)
            .iter()
            .any(|f| f.message.contains("before validating")));
        // not a guarded file: same code passes
        assert!(guard_findings("crates/sim/src/cpu.rs", bad, &ctx).is_empty());
    }

    #[test]
    fn contract_guard_accepts_delegation() {
        let files = vec![(
            "crates/blas/src/gemm.rs".to_string(),
            "pub fn inner(a: &[f64]) -> Result<f64, ContractError> {\n    contract::check_vector(\"a\", a.len(), 1, 1)?;\n    Ok(a[0])\n}\npub fn outer(a: &[f64]) -> Result<f64, ContractError> {\n    inner(a)\n}\npub fn outer2(a: &[f64]) -> Result<f64, ContractError> {\n    outer(a)\n}\n"
                .to_string(),
        )];
        let ctx = build_context(&files);
        assert!(ctx.guarded_fns.contains(&"inner".to_string()));
        assert!(ctx.guarded_fns.contains(&"outer".to_string()));
        assert!(ctx.guarded_fns.contains(&"outer2".to_string()));
        let f = guard_findings(&files[0].0, &files[0].1, &ctx);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn adhoc_scope_flagged_in_blas_outside_pool() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        let f = check_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-adhoc-scope");
        // pool.rs is the one sanctioned home for the primitive
        let pool = check_file("crates/blas/src/pool.rs", src, &Context::default());
        assert!(pool.iter().all(|f| f.rule != "no-adhoc-scope"), "{pool:?}");
        // other crates are out of scope for this rule
        let core = check_file("crates/core/src/runner.rs", src, &Context::default());
        assert!(core.iter().all(|f| f.rule != "no-adhoc-scope"), "{core:?}");
        // a different `scope` identifier (no `thread ::` prefix) is fine
        assert!(check_lib("fn f(s: Scope) { s.scope(|x| x); }").is_empty());
        // `use`-imported `thread::scope(` still carries the prefix tokens
        let imported = check_lib("use std::thread;\nfn f() { thread::scope(|s| {}); }");
        assert_eq!(imported.len(), 1, "{imported:?}");
    }

    #[test]
    fn adhoc_scope_suppressible_with_reason() {
        let src = "fn f() {\n    // blob-check: allow(no-adhoc-scope): bootstrap before pool exists\n    std::thread::scope(|s| { s.spawn(|| {}); });\n}";
        let f = check_lib(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn raw_error_body_flagged_in_serve_handlers() {
        let bad = "fn f() -> Response { Response::json(400, doc) }";
        let f = check_file("crates/serve/src/api.rs", bad, &Context::default());
        assert!(f.iter().any(|f| f.rule == "no-raw-error-body"), "{f:?}");
        let bad_text = "fn f() -> Response { Response::text(503, \"busy\".into()) }";
        let f = check_file("crates/serve/src/server.rs", bad_text, &Context::default());
        assert!(f.iter().any(|f| f.rule == "no-raw-error-body"), "{f:?}");
        // success responses are fine
        let ok = "fn f() -> Response { Response::json(200, doc) }";
        let f = check_file("crates/serve/src/api.rs", ok, &Context::default());
        assert!(f.iter().all(|f| f.rule != "no-raw-error-body"), "{f:?}");
        // a computed status is beyond a lexical rule — not flagged
        let dynamic = "fn f(s: u16) -> Response { Response::json(s, doc) }";
        let f = check_file("crates/serve/src/api.rs", dynamic, &Context::default());
        assert!(f.iter().all(|f| f.rule != "no-raw-error-body"), "{f:?}");
        // the envelope module and the transport layer are the sanctioned homes
        for exempt in ["crates/serve/src/envelope.rs", "crates/serve/src/http.rs"] {
            let f = check_file(exempt, bad, &Context::default());
            assert!(f.iter().all(|f| f.rule != "no-raw-error-body"), "{f:?}");
        }
        // other crates are out of scope
        let f = check_file("crates/cli/src/main.rs", bad, &Context::default());
        assert!(f.iter().all(|f| f.rule != "no-raw-error-body"), "{f:?}");
        // serve tests may hand-roll whatever they assert on
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn f() -> Response { Response::json(404, doc) }\n}";
        let f = check_file("crates/serve/src/api.rs", in_test, &Context::default());
        assert!(f.iter().all(|f| f.rule != "no-raw-error-body"), "{f:?}");
    }

    #[test]
    fn raw_error_body_suppressible_with_reason() {
        let src = "fn f() -> Response {\n    // blob-check: allow(no-raw-error-body): pre-envelope bootstrap reply\n    Response::json(500, doc)\n}";
        let f = check_file("crates/serve/src/server.rs", src, &Context::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn direct_kernel_flagged_in_dispatch_outside_exec() {
        let bad = "fn f(a: &[f64]) { gemm_parallel(p, a, b, c, m, n, k); }";
        let f = check_file(
            "crates/dispatch/src/dispatcher.rs",
            bad,
            &Context::default(),
        );
        assert!(
            f.iter().any(|f| f.rule == "no-direct-kernel-in-dispatch"),
            "{f:?}"
        );
        // path-qualified calls are the same violation
        let qualified = "fn f() { blob_blas::gemm::gemm_blocked(a, b, c, m, n, k); }";
        let f = check_file(
            "crates/dispatch/src/front.rs",
            qualified,
            &Context::default(),
        );
        assert!(
            f.iter().any(|f| f.rule == "no-direct-kernel-in-dispatch"),
            "{f:?}"
        );
        // a direct `blob_blas::gemm(` path counts even though bare `gemm` doesn't
        let path_call = "fn f() { blob_blas::gemv(a, x, y, m, n); }";
        let f = check_file(
            "crates/dispatch/src/front.rs",
            path_call,
            &Context::default(),
        );
        assert!(
            f.iter().any(|f| f.rule == "no-direct-kernel-in-dispatch"),
            "{f:?}"
        );
        // exec.rs is the one sanctioned home for kernel invocations
        let exec = check_file("crates/dispatch/src/exec.rs", bad, &Context::default());
        assert!(
            exec.iter()
                .all(|f| f.rule != "no-direct-kernel-in-dispatch"),
            "{exec:?}"
        );
        // other crates are out of scope for this rule
        let blas = check_file("crates/blas/src/gemm.rs", bad, &Context::default());
        assert!(
            blas.iter()
                .all(|f| f.rule != "no-direct-kernel-in-dispatch"),
            "{blas:?}"
        );
        // `BlasCall::gemm(…)` builds a shape description, not a kernel call
        let ctor = "fn f() -> BlasCall { BlasCall::gemm(Precision::F64, 64, 64, 64) }";
        let f = check_file("crates/dispatch/src/mixed.rs", ctor, &Context::default());
        assert!(
            f.iter().all(|f| f.rule != "no-direct-kernel-in-dispatch"),
            "{f:?}"
        );
        // unit tests may drive kernels directly to cross-check the executor
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn g() { gemv_parallel(p, a, x, y, m, n); }\n}";
        let f = check_file(
            "crates/dispatch/src/dispatcher.rs",
            in_test,
            &Context::default(),
        );
        assert!(
            f.iter().all(|f| f.rule != "no-direct-kernel-in-dispatch"),
            "{f:?}"
        );
    }

    #[test]
    fn direct_kernel_suppressible_with_reason() {
        let src = "fn f() {\n    // blob-check: allow(no-direct-kernel-in-dispatch): calibration probe outside the decision loop\n    gemm_ref(a, b, c, m, n, k);\n}";
        let f = check_file(
            "crates/dispatch/src/dispatcher.rs",
            src,
            &Context::default(),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn untagged_precision_kernels_flagged_in_plane_homes() {
        let bad = "/// Docs.\npub fn gemm_half(m: usize, n: usize, k: usize) {}";
        let f = check_file("crates/blas/src/half.rs", bad, &Context::default());
        assert!(f.iter().any(|f| f.rule == "no-untagged-precision"), "{f:?}");
        // a `Precision` parameter anywhere in the list satisfies the rule,
        // including behind generics
        let good = "/// Docs.\npub fn gemm_emul<T: Scalar>(precision: Precision, m: usize) {}";
        let f = check_file("crates/blas/src/emul.rs", good, &Context::default());
        assert!(f.iter().all(|f| f.rule != "no-untagged-precision"), "{f:?}");
        // private helpers live behind a tagged entry point
        let private = "fn emul_core_gemm(m: usize) {}";
        let f = check_file("crates/blas/src/emul.rs", private, &Context::default());
        assert!(f.iter().all(|f| f.rule != "no-untagged-precision"), "{f:?}");
        // non-kernel functions are out of scope even when public
        let other = "/// Docs.\npub fn slice_bits(k: usize) -> u32 { 9 }";
        let f = check_file("crates/blas/src/emul.rs", other, &Context::default());
        assert!(f.iter().all(|f| f.rule != "no-untagged-precision"), "{f:?}");
        // the rule is scoped to the precision-plane homes only
        let elsewhere = check_file("crates/blas/src/gemm.rs", bad, &Context::default());
        assert!(
            elsewhere.iter().all(|f| f.rule != "no-untagged-precision"),
            "{elsewhere:?}"
        );
        // tests inside the plane homes may build untagged harness helpers
        let in_test = "#[cfg(test)]\nmod tests {\n    pub fn gemm_probe(m: usize) {}\n}";
        let f = check_file("crates/blas/src/half.rs", in_test, &Context::default());
        assert!(f.iter().all(|f| f.rule != "no-untagged-precision"), "{f:?}");
    }

    #[test]
    fn untagged_precision_suppressible_with_reason() {
        let src = "/// Docs.\n// blob-check: allow(no-untagged-precision): fixed-tag convenience wrapper\npub fn gemv_half_bf16(m: usize, n: usize) {}";
        let f = check_file("crates/blas/src/half.rs", src, &Context::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cfg_test_region_spans_the_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c(x: Option<u32>) { x.unwrap(); }\n";
        let f = check_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn line_hash_is_stable_and_whitespace_insensitive() {
        assert_eq!(line_hash("  a[0]  "), line_hash("a[0]"));
        assert_ne!(line_hash("a[0]"), line_hash("a[1]"));
        assert_eq!(line_hash("").len(), 16);
    }

    #[test]
    fn findings_carry_the_offending_line_hash() {
        let f = check_lib("fn f(x: f64) -> bool { x == 0.0 }");
        assert_eq!(f.len(), 1);
        assert_eq!(
            f[0].line_hash,
            line_hash("fn f(x: f64) -> bool { x == 0.0 }")
        );
    }
}
