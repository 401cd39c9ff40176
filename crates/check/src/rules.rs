//! The per-file rules.
//!
//! Every file is lexed and parsed once into a [`FileUnit`] (full token
//! stream, comment-free code tokens, AST, `#[cfg(test)]` regions). The
//! rules that are a token sequence inside a path scope are rows of
//! [`TOKEN_RULES`], matched in one pass over the code tokens; the checks
//! that need more than a sequence (`no-float-eq`, `no-raw-error-body`,
//! `pub-item-docs`, `no-untagged-precision`, the `# Safety` half of
//! `no-unchecked-simd`) are code below, and the semantic rules live in
//! [`crate::analyses`]. [`check_unit`] runs one file's share;
//! [`finalize`] applies suppressions once every finding is in.

use crate::analyses;
use crate::ast::File;
use crate::explain::DOCS;
use crate::lexer::{lex, Token, TokenKind};
use Tok::{Any, Is, Prefix};

/// A rule violation (or a problem with a suppression comment). Findings
/// order by `(path, line, rule, message)`, the order they are reported in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation.
    pub line: usize,
    /// Rule identifier, e.g. `no-unwrap-in-lib`.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    pub fn new(rule: &'static str, path: &str, line: usize, message: impl Into<String>) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: message.into(),
        }
    }
}

/// All rule identifiers, for suppression validation, in the order of the
/// documentation catalogue ([`crate::explain::DOCS`]) they are read from,
/// so a rule cannot exist undocumented.
pub const RULES: [&str; DOCS.len()] = {
    let mut names = [""; DOCS.len()];
    let mut i = 0;
    while i < DOCS.len() {
        names[i] = DOCS[i].name;
        i += 1;
    }
    names
};

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

/// One file, lexed and parsed once and shared by every rule.
#[derive(Debug)]
pub struct FileUnit {
    /// Repo-relative path.
    pub path: String,
    /// Path classification.
    pub class: FileClass,
    /// Full token stream, comments included (doc comments and
    /// suppressions live here).
    pub tokens: Vec<Token>,
    /// The comment-free token stream: what the parser, the token rules
    /// and the symbol table read.
    pub code: Vec<Token>,
    /// Parsed AST (over [`FileUnit::code`]).
    pub ast: File,
    /// Line ranges covered by test-only items (`#[cfg(test)]`,
    /// `#[cfg(all(test, …))]`).
    pub test_regions: Vec<(usize, usize)>,
}

impl FileUnit {
    /// Lexes, classifies, and parses one file.
    pub fn build(path: &str, text: &str) -> FileUnit {
        let tokens = lex(text);
        let code = crate::parse::code_tokens(&tokens);
        FileUnit {
            path: path.to_string(),
            class: classify(path),
            ast: crate::parse::parse_file(&code),
            test_regions: cfg_test_regions(&code),
            tokens,
            code,
        }
    }
}

/// True when a `#[…]` attribute's inner tokens make the item test-only:
/// `cfg(test)`, or `cfg(all(…))` with `test` as one of `all`'s direct
/// arguments. `cfg(not(test))` and `cfg(any(test, …))` code also builds
/// outside tests, so it is not a test region.
fn is_test_only_cfg(attr: &[Token]) -> bool {
    let texts: Vec<&str> = attr.iter().map(|t| t.text.as_str()).collect();
    match texts.as_slice() {
        ["cfg", "(", "test", ")"] => true,
        ["cfg", "(", "all", "(", args @ ..] => {
            let mut depth = 0usize;
            args.iter().any(|&t| {
                match t {
                    "(" => depth += 1,
                    ")" => depth = depth.saturating_sub(1),
                    _ => {}
                }
                depth == 0 && t == "test"
            })
        }
        _ => false,
    }
}

/// Line regions `[start, end]` of test-only items (see
/// [`is_test_only_cfg`]): from the attribute to the brace-matched end of
/// the item body that follows it.
fn cfg_test_regions(code: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if code[i].text != "#" || code[i + 1].text != "[" {
            i += 1;
            continue;
        }
        // scan the attribute tokens to its closing `]`
        let mut j = i + 2;
        let mut depth = 1;
        while j < code.len() && depth > 0 {
            match code[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if is_test_only_cfg(&code[i + 2..(j - 1).max(i + 2)]) {
            // brace-match the item body that follows; a `;`-terminated
            // item (e.g. `#[cfg(test)] use …;`) has no body
            while j < code.len() && code[j].text != "{" && code[j].text != ";" {
                j += 1;
            }
            if j < code.len() && code[j].text == "{" {
                let mut braces = 1;
                let mut k = j + 1;
                while k < code.len() && braces > 0 {
                    match code[k].text.as_str() {
                        "{" => braces += 1,
                        "}" => braces -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                regions.push((code[i].line, code[k - 1].line));
                i = k;
                continue;
            }
        }
        i = j;
    }
    regions
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
    for t in tokens.iter().filter(|t| t.is_comment()) {
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

/// Builds the [`Context`] by fixpoint over the guarded kernel files among
/// `units`: a function is *guarding* if it directly calls
/// `contract::…`/`check_…`, or if it calls another guarding function
/// before any slice index.
pub fn guard_context(units: &[FileUnit]) -> Context {
    let facts: Vec<_> = units
        .iter()
        .filter(|u| GUARDED_FILES.contains(&u.path.as_str()))
        .flat_map(analyses::contract::fn_facts)
        .collect();
    analyses::contract::fixpoint(&facts)
}

/// Runs the per-file rules over one unit: the token rules, the checks
/// below, `contract-guard`, and the per-function CFG analyses (`balance`,
/// `drop-on-path`). Safe to call from worker threads; suppressions are
/// applied later in [`finalize`].
pub fn check_unit(u: &FileUnit, ctx: &Context, syms: &analyses::Symbols) -> Vec<Finding> {
    let mut findings = Vec::new();
    token_rules(u, &mut findings);
    code_rules(u, &mut findings);
    if GUARDED_FILES.contains(&u.path.as_str()) {
        findings.extend(analyses::contract::check(u, ctx));
    }
    let one = std::slice::from_ref(u);
    findings.extend(analyses::balance::check(one));
    findings.extend(analyses::drop_result::check(one, syms));
    findings
}

/// Suppression hygiene and filtering, then the final sort with
/// duplicates removed.
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
    }
    findings.sort();
    findings.dedup();
    findings
}

/// One element of a [`TokenRule`] pattern, matched on a token's text.
enum Tok {
    /// Exactly this text.
    Is(&'static str),
    /// Any of these texts.
    Any(&'static [&'static str]),
    /// Text starting with any of these prefixes.
    Prefix(&'static [&'static str]),
}

impl Tok {
    fn matches(&self, text: &str) -> bool {
        match self {
            Is(s) => text == *s,
            Any(set) => set.contains(&text),
            Prefix(set) => set.iter().any(|p| text.starts_with(p)),
        }
    }
}

/// A rule that is a token sequence inside a path scope: it fires where
/// the code tokens match `pattern`, in a file for which `scope` holds,
/// and is reported on `pattern[at]`, which must match an identifier.
struct TokenRule {
    rule: &'static str,
    scope: fn(&FileUnit) -> bool,
    /// Skip matches inside test-only regions.
    skip_tests: bool,
    pattern: &'static [Tok],
    at: usize,
    /// The finding's message; `{}` stands for the reported identifier.
    message: &'static str,
}

/// The two sanctioned homes for explicit-SIMD code. `no-unsafe` skips
/// them (the micro-kernels are intrinsics behind runtime feature
/// detection); the `# Safety` half of `no-unchecked-simd` polices them.
const SIMD_HOMES: [&str; 2] = ["crates/blas/src/microkernel.rs", "crates/blas/src/pack.rs"];

const SIMD_SURFACE: &str = "explicit-SIMD surface `{}` outside the sanctioned micro-kernel \
                            files — intrinsics belong behind the runtime feature-detection \
                            dispatch in `crates/blas/src/microkernel.rs`";
const DIRECT_KERNEL: &str = "direct `{}(…)` kernel call in dispatch code — route through the \
                             executor (`exec.rs`) so the decision, history and residency \
                             accounting stay consistent";

/// Every token rule; see [`crate::explain::DOCS`] for each rule's
/// rationale.
const TOKEN_RULES: [TokenRule; 12] = [
    TokenRule {
        rule: "no-unsafe",
        scope: |u| !SIMD_HOMES.contains(&u.path.as_str()),
        skip_tests: false,
        pattern: &[Is("unsafe")],
        at: 0,
        message: "`unsafe` is forbidden in this workspace",
    },
    // intrinsics stay behind the runtime feature-detection dispatch the
    // micro-kernel module owns: outside it, a `core::arch`/`std::arch`
    // path, a `target_feature` attribute or an `_mm…`/`__m…` identifier
    // can execute an illegal instruction on older hosts
    TokenRule {
        rule: "no-unchecked-simd",
        scope: |u| !SIMD_HOMES.contains(&u.path.as_str()),
        skip_tests: false,
        pattern: &[Any(&["core", "std"]), Is("::"), Is("arch")],
        at: 2,
        message: SIMD_SURFACE,
    },
    TokenRule {
        rule: "no-unchecked-simd",
        scope: |u| !SIMD_HOMES.contains(&u.path.as_str()),
        skip_tests: false,
        pattern: &[Is("target_feature")],
        at: 0,
        message: SIMD_SURFACE,
    },
    TokenRule {
        rule: "no-unchecked-simd",
        scope: |u| !SIMD_HOMES.contains(&u.path.as_str()),
        skip_tests: false,
        pattern: &[Prefix(&["_mm", "__m"])],
        at: 0,
        message: SIMD_SURFACE,
    },
    // `blob_blas::pool` is the one home for scoped threads (unit tests
    // exercise the pool API, so tests are included)
    TokenRule {
        rule: "no-adhoc-scope",
        scope: |u| u.path.starts_with("crates/blas/src/") && u.path != "crates/blas/src/pool.rs",
        skip_tests: false,
        pattern: &[Is("thread"), Is("::"), Is("scope"), Is("(")],
        at: 2,
        message: "`std::thread::scope` outside `pool.rs` — dispatch through \
                  `blob_blas::pool` (`run_scoped`/`parallel_for`) instead",
    },
    TokenRule {
        rule: "no-unwrap-in-lib",
        scope: |u| u.class.is_lib,
        skip_tests: true,
        pattern: &[Is("."), Any(&["unwrap", "expect"]), Is("(")],
        at: 1,
        message: "`.{}()` in library code — return a typed error instead",
    },
    TokenRule {
        rule: "no-unwrap-in-lib",
        scope: |u| u.class.is_lib,
        skip_tests: true,
        pattern: &[Is("panic"), Is("!")],
        at: 0,
        message: "`panic!` in library code — return a typed error instead",
    },
    // the serve and cli *binaries* (`main.rs`, `src/bin/…`), which
    // `no-unwrap-in-lib` skips; the two scopes are disjoint, so a site is
    // never reported twice
    TokenRule {
        rule: "no-unwrap-in-serve",
        scope: serve_or_cli_binary,
        skip_tests: true,
        pattern: &[Is("."), Any(&["unwrap", "expect"]), Is("(")],
        at: 1,
        message: "`.{}()` in service/driver code — report the error and exit cleanly instead",
    },
    TokenRule {
        rule: "no-unwrap-in-serve",
        scope: serve_or_cli_binary,
        skip_tests: true,
        pattern: &[Is("panic"), Is("!")],
        at: 0,
        message: "`panic!` in service/driver code — report the error and exit cleanly instead",
    },
    // every kernel invocation in the dispatch crate is a decision made in
    // exec.rs; `BlasCall::gemm(…)` shape constructors do not match
    TokenRule {
        rule: "no-direct-kernel-in-dispatch",
        scope: dispatch_outside_exec,
        skip_tests: true,
        pattern: &[
            Any(&[
                "gemm_ref",
                "gemm_blocked",
                "gemm_blocked_tuned",
                "gemm_parallel",
                "gemm_half",
                "gemm_emul",
                "gemv_ref",
                "gemv_parallel",
                "gemv_emul",
            ]),
            Is("("),
        ],
        at: 0,
        message: DIRECT_KERNEL,
    },
    // the accept loop's `sync_channel` and the fabric pool's explicit cap
    // are the sanctioned shapes: overload becomes back-pressure
    TokenRule {
        rule: "no-unbounded-queue",
        scope: |u| u.path.starts_with("crates/serve/src/"),
        skip_tests: true,
        pattern: &[Is("mpsc"), Is("::"), Is("channel"), Is("(")],
        at: 2,
        message: "`mpsc::channel()` is unbounded — use `mpsc::sync_channel(cap)` \
                  so overload becomes back-pressure, not memory growth",
    },
    TokenRule {
        rule: "no-unbounded-queue",
        scope: |u| u.path.starts_with("crates/serve/src/"),
        skip_tests: true,
        pattern: &[Is("VecDeque"), Is("::"), Is("new"), Is("(")],
        at: 2,
        message: "`VecDeque::new()` is unbounded — use `with_capacity(cap)` and \
                  enforce the cap at the push site",
    },
];

fn serve_or_cli_binary(u: &FileUnit) -> bool {
    !u.class.is_lib
        && !u.class.is_test_like
        && (u.path.starts_with("crates/serve/") || u.path.starts_with("crates/cli/"))
}

fn dispatch_outside_exec(u: &FileUnit) -> bool {
    u.path.starts_with("crates/dispatch/src/") && u.path != "crates/dispatch/src/exec.rs"
}

/// Matches every in-scope [`TOKEN_RULES`] row in one pass over the code
/// tokens.
fn token_rules(u: &FileUnit, findings: &mut Vec<Finding>) {
    let rows: Vec<&TokenRule> = TOKEN_RULES.iter().filter(|r| (r.scope)(u)).collect();
    let code = &u.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        for r in &rows {
            let window = i
                .checked_sub(r.at)
                .and_then(|s| code.get(s..s + r.pattern.len()));
            let hit = window
                .is_some_and(|w| w.iter().zip(r.pattern).all(|(c, p)| p.matches(&c.text)))
                && !(r.skip_tests && analyses::in_test_region(&u.test_regions, t.line));
            if hit {
                findings.push(Finding::new(
                    r.rule,
                    &u.path,
                    t.line,
                    r.message.replace("{}", &t.text),
                ));
            }
        }
    }
}

/// The doc comments directly above the item at `tokens[i]`: walks back
/// over visibility qualifiers (`pub`, `pub(crate)`, …), `#[…]` attributes
/// and plain comments, and stops at any other token.
fn docs_above(tokens: &[Token], i: usize) -> Vec<&str> {
    let mut b = i;
    while b > 0 {
        let pt = &tokens[b - 1];
        let vis = (pt.kind == TokenKind::Ident
            && matches!(pt.text.as_str(), "pub" | "crate" | "super" | "self" | "in"))
            || pt.text == "("
            || pt.text == ")";
        if !vis {
            break;
        }
        b -= 1;
    }
    let mut docs = Vec::new();
    while b > 0 {
        b -= 1;
        let bt = &tokens[b];
        match bt.kind {
            TokenKind::DocComment => docs.push(bt.text.as_str()),
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
    docs
}

/// The checks that are more than a token sequence.
fn code_rules(u: &FileUnit, findings: &mut Vec<Finding>) {
    let path = u.path.as_str();
    let class = &u.class;
    let tokens = &u.tokens;
    let code = &u.code;
    let in_test = |line| analyses::in_test_region(&u.test_regions, line);

    // --- no-unchecked-simd, inside the sanctioned files: every `unsafe fn`
    // carries a `# Safety` doc section stating the contract the dispatch
    // layer upholds
    if SIMD_HOMES.contains(&path) {
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "unsafe" {
                continue;
            }
            // only `unsafe fn` declarations, not unsafe blocks
            let mut rest = tokens[i + 1..].iter().filter(|t| !t.is_comment());
            if rest.next().map(|t| t.text != "fn").unwrap_or(true) {
                continue;
            }
            if !docs_above(tokens, i).iter().any(|d| d.contains("# Safety")) {
                let name = rest.next().map(|t| t.text.as_str()).unwrap_or_default();
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
    }

    // --- no-float-eq: kernel/model code (blas + sim libraries) -----------
    let float_eq_scope = class.is_lib
        && matches!(
            class.crate_name.as_deref(),
            Some("blob-blas") | Some("blob-sim")
        );
    if float_eq_scope {
        let is_float = |t: Option<&Token>| {
            t.is_some_and(|t| {
                (t.kind == TokenKind::Num && is_float_literal(&t.text))
                    || t.text == "f32"
                    || t.text == "f64"
            })
        };
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") || in_test(t.line) {
                continue;
            }
            let prev = i.checked_sub(1).and_then(|p| code.get(p));
            if is_float(prev) || is_float(code.get(i + 1)) {
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
            if t.text != "pub" || t.kind != TokenKind::Ident || in_test(t.line) {
                continue;
            }
            // `pub(crate)` and friends are not public API
            let Some(j) = (i + 1..tokens.len()).find(|&j| !tokens[j].is_comment()) else {
                continue;
            };
            if tokens[j].text == "(" {
                continue;
            }
            // skip `unsafe`/`const`/`async` qualifiers to the item keyword
            let mut item = None;
            let mut probe = j;
            for _ in 0..3 {
                match tokens.get(probe).map(|t| t.text.as_str()) {
                    Some(k) if ITEM_KEYWORDS.contains(&k) => {
                        item = Some(k);
                        break;
                    }
                    Some("unsafe") | Some("const") | Some("async") | Some("extern") => probe += 1,
                    _ => break,
                }
            }
            let text_at = |k: usize| tokens.get(k).map(|t| t.text.as_str());
            let described = match item {
                // `pub mod name;` declarations carry their docs as `//!`
                // inside the module file (rustc accepts that), which a
                // single-file pass cannot see — skip them
                Some("mod") if text_at(probe + 2) == Some(";") => continue,
                Some(k) => format!("{k} `{}`", text_at(probe + 1).unwrap_or_default()),
                // `pub name: Type` struct field (skip `pub use` re-exports
                // and anything unrecognised)
                None => {
                    let is_field = tokens[j].kind == TokenKind::Ident
                        && tokens[j].text != "use"
                        && text_at(j + 1) == Some(":");
                    if !is_field {
                        continue;
                    }
                    format!("field `{}`", tokens[j].text)
                }
            };
            if docs_above(tokens, i).is_empty() {
                findings.push(Finding::new(
                    "pub-item-docs",
                    path,
                    t.line,
                    format!("public {described} has no doc comment"),
                ));
            }
        }
    }

    // --- no-raw-error-body: `Response::json|text(<literal ≥ 400>, …)`
    // outside the envelope module and `http.rs`, which defines them
    let raw_error_scope = path.starts_with("crates/serve/src/")
        && path != "crates/serve/src/envelope.rs"
        && path != "crates/serve/src/http.rs";
    if raw_error_scope {
        for (i, t) in code.iter().enumerate() {
            let is_ctor = t.kind == TokenKind::Ident
                && (t.text == "json" || t.text == "text")
                && i >= 2
                && code[i - 1].text == "::"
                && code[i - 2].text == "Response"
                && code.get(i + 1).is_some_and(|t| t.text == "(");
            if !is_ctor || in_test(t.line) {
                continue;
            }
            let status = code
                .get(i + 2)
                .filter(|t| t.kind == TokenKind::Num)
                .and_then(|t| t.text.parse::<u32>().ok());
            if let Some(s) = status.filter(|&s| s >= 400) {
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

    // --- no-untagged-precision: a public `gemm`/`gemv` kernel in the
    // precision-plane homes takes a `Precision` argument
    if path == "crates/blas/src/half.rs" || path == "crates/blas/src/emul.rs" {
        for (i, t) in code.iter().enumerate() {
            let public_fn =
                t.kind == TokenKind::Ident && t.text == "fn" && i > 0 && code[i - 1].text == "pub";
            if !public_fn || in_test(t.line) {
                continue;
            }
            let Some(name) = code.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
                continue;
            };
            if !name.text.contains("gemm") && !name.text.contains("gemv") {
                continue;
            }
            // the parameter list (past any generics), paren-balanced
            let mut depth = 0usize;
            let tagged = code[i + 2..]
                .iter()
                .skip_while(|t| t.text != "(")
                .take_while(|t| {
                    match t.text.as_str() {
                        "(" => depth += 1,
                        ")" => depth -= 1,
                        _ => {}
                    }
                    depth > 0
                })
                .any(|t| t.text == "Precision");
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_one(path: &str, src: &str) -> Vec<Finding> {
        crate::check_files(&[(path.to_string(), src.to_string())])
    }

    fn check_lib(src: &str) -> Vec<Finding> {
        check_one("crates/blas/src/demo.rs", src)
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
        let f = check_one("crates/blas/tests/t.rs", "fn f() { unsafe { } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unsafe");
    }

    #[test]
    fn simd_surface_flagged_outside_sanctioned_files() {
        let f = check_one(
            "crates/sim/src/roofline.rs",
            "fn f() { let v = core::arch::x86_64::_mm256_setzero_pd(); }",
        );
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert!(
            rules.contains(&"no-unchecked-simd"),
            "expected no-unchecked-simd, got {rules:?}"
        );
        // mentions inside strings and comments don't fire
        let clean = check_one(
            "crates/sim/src/roofline.rs",
            "// core::arch::x86_64 is discussed here\nconst S: &str = \"_mm256_setzero_pd\";",
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn unbounded_queue_flagged_in_serve_only() {
        let f = check_one(
            "crates/serve/src/fabric/worker.rs",
            "fn f() { let (tx, rx) = mpsc::channel(); let q: VecDeque<u8> = VecDeque::new(); }",
        );
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert_eq!(
            rules,
            vec!["no-unbounded-queue", "no-unbounded-queue"],
            "{f:?}"
        );
        // the bounded shapes are the sanctioned ones
        let bounded = check_one(
            "crates/serve/src/fabric/worker.rs",
            "fn f() { let (tx, rx) = mpsc::sync_channel(8); \
             let q: VecDeque<u8> = VecDeque::with_capacity(8); }",
        );
        assert!(bounded.is_empty(), "{bounded:?}");
        // out of scope: other crates and serve tests
        let elsewhere = check_one(
            "crates/core/src/runner.rs",
            "fn f() { let (tx, rx) = mpsc::channel(); }",
        );
        assert!(elsewhere.iter().all(|x| x.rule != "no-unbounded-queue"));
        let in_test = check_one(
            "crates/serve/src/metrics.rs",
            "#[cfg(test)]\nmod tests {\n    fn f() { let (tx, rx) = mpsc::channel(); }\n}",
        );
        assert!(in_test.is_empty(), "{in_test:?}");
    }

    #[test]
    fn unsafe_fn_in_simd_home_needs_safety_section() {
        let undocumented = check_one(
            "crates/blas/src/pack.rs",
            "/// Packs a tile.\nunsafe fn pack_tile() {}",
        );
        assert_eq!(undocumented.len(), 1, "{undocumented:?}");
        assert_eq!(undocumented[0].rule, "no-unchecked-simd");
        // `# Safety` anywhere in the contiguous doc block satisfies it,
        // and no-unsafe stays quiet in the sanctioned files
        let documented = check_one(
            "crates/blas/src/pack.rs",
            "/// Packs a tile.\n///\n/// # Safety\n///\n/// Caller checked the feature.\n\
             #[inline]\npub(crate) unsafe fn pack_tile() { unsafe { } }",
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
        let tests = check_one(
            "crates/blas/tests/t.rs",
            "fn f() { x.expect(\"fine in tests\"); }",
        );
        assert!(tests.is_empty());
        // unwrap_or_else is a different identifier — not flagged
        assert!(check_lib("fn f() { x.unwrap_or_else(|| 3); }").is_empty());
    }

    #[test]
    fn unwrap_in_serve_driver_binaries_flagged_once() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        // cli binary: the new rule fires, the lib rule does not
        let f = check_one("crates/cli/src/main.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-unwrap-in-serve");
        // serve *library* file: only the lib rule fires — never both
        let f = check_one("crates/serve/src/api.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-unwrap-in-lib");
        // serve/cli tests are exempt, like everywhere else
        let f = check_one("crates/serve/tests/chaos.rs", src);
        assert!(f.is_empty(), "{f:?}");
        // binaries of other crates are out of scope for this rule
        let f = check_one("crates/bench/src/bin/experiments.rs", src);
        assert!(f.iter().all(|f| f.rule != "no-unwrap-in-serve"), "{f:?}");
        // panic! and .expect() in a driver binary are the same violation
        let f = check_one(
            "crates/cli/src/main.rs",
            "fn f() { x.expect(\"boom\"); panic!(\"no\"); }",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "no-unwrap-in-serve"));
    }

    #[test]
    fn unwrap_in_serve_suppressible_with_reason() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // blob-check: allow(no-unwrap-in-serve): startup precondition\n    x.unwrap()\n}";
        let f = check_one("crates/cli/src/main.rs", src);
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
        let core = check_one("crates/core/src/x.rs", "fn f(x: f64) -> bool { x == 0.0 }");
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

    fn guard_findings(path: &str, src: &str) -> Vec<Finding> {
        check_one(path, src)
            .into_iter()
            .filter(|f| f.rule == "contract-guard")
            .collect()
    }

    #[test]
    fn contract_guard_detects_unvalidated_indexing() {
        let path = "crates/blas/src/gemm.rs";
        let bad = "pub fn kernel(a: &[f64]) -> f64 { a[0] }";
        assert_eq!(guard_findings(path, bad).len(), 1);
        let good = "pub fn kernel(a: &[f64]) -> Result<f64, ContractError> {\n    contract::check_vector(\"a\", a.len(), 1, 1)?;\n    Ok(a[0])\n}";
        assert!(guard_findings(path, good).is_empty());
        let late = "pub fn kernel(a: &[f64]) -> Result<f64, ContractError> {\n    let v = a[0];\n    contract::check_vector(\"a\", a.len(), 1, 1)?;\n    Ok(v)\n}";
        assert!(guard_findings(path, late)
            .iter()
            .any(|f| f.message.contains("before validating")));
        // not a guarded file: same code passes
        assert!(guard_findings("crates/sim/src/cpu.rs", bad).is_empty());
    }

    #[test]
    fn contract_guard_accepts_delegation() {
        let path = "crates/blas/src/gemm.rs";
        let src = "pub fn inner(a: &[f64]) -> Result<f64, ContractError> {\n    contract::check_vector(\"a\", a.len(), 1, 1)?;\n    Ok(a[0])\n}\npub fn outer(a: &[f64]) -> Result<f64, ContractError> {\n    inner(a)\n}\npub fn outer2(a: &[f64]) -> Result<f64, ContractError> {\n    outer(a)\n}\n";
        let ctx = guard_context(&[FileUnit::build(path, src)]);
        assert!(ctx.guarded_fns.contains(&"inner".to_string()));
        assert!(ctx.guarded_fns.contains(&"outer".to_string()));
        assert!(ctx.guarded_fns.contains(&"outer2".to_string()));
        let f = guard_findings(path, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn adhoc_scope_flagged_in_blas_outside_pool() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        let f = check_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-adhoc-scope");
        // pool.rs is the one sanctioned home for the primitive
        let pool = check_one("crates/blas/src/pool.rs", src);
        assert!(pool.iter().all(|f| f.rule != "no-adhoc-scope"), "{pool:?}");
        // other crates are out of scope for this rule
        let core = check_one("crates/core/src/runner.rs", src);
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
        let f = check_one("crates/serve/src/api.rs", bad);
        assert!(f.iter().any(|f| f.rule == "no-raw-error-body"), "{f:?}");
        let bad_text = "fn f() -> Response { Response::text(503, \"busy\".into()) }";
        let f = check_one("crates/serve/src/server.rs", bad_text);
        assert!(f.iter().any(|f| f.rule == "no-raw-error-body"), "{f:?}");
        // success responses are fine
        let ok = "fn f() -> Response { Response::json(200, doc) }";
        let f = check_one("crates/serve/src/api.rs", ok);
        assert!(f.iter().all(|f| f.rule != "no-raw-error-body"), "{f:?}");
        // a computed status is beyond a lexical rule — not flagged
        let dynamic = "fn f(s: u16) -> Response { Response::json(s, doc) }";
        let f = check_one("crates/serve/src/api.rs", dynamic);
        assert!(f.iter().all(|f| f.rule != "no-raw-error-body"), "{f:?}");
        // the envelope module and the transport layer are the sanctioned homes
        for exempt in ["crates/serve/src/envelope.rs", "crates/serve/src/http.rs"] {
            let f = check_one(exempt, bad);
            assert!(f.iter().all(|f| f.rule != "no-raw-error-body"), "{f:?}");
        }
        // other crates are out of scope
        let f = check_one("crates/cli/src/main.rs", bad);
        assert!(f.iter().all(|f| f.rule != "no-raw-error-body"), "{f:?}");
        // serve tests may hand-roll whatever they assert on
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn f() -> Response { Response::json(404, doc) }\n}";
        let f = check_one("crates/serve/src/api.rs", in_test);
        assert!(f.iter().all(|f| f.rule != "no-raw-error-body"), "{f:?}");
    }

    #[test]
    fn raw_error_body_suppressible_with_reason() {
        let src = "fn f() -> Response {\n    // blob-check: allow(no-raw-error-body): pre-envelope bootstrap reply\n    Response::json(500, doc)\n}";
        let f = check_one("crates/serve/src/server.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn direct_kernel_flagged_in_dispatch_outside_exec() {
        let bad = "fn f(a: &[f64]) { gemm_parallel(p, a, b, c, m, n, k); }";
        let f = check_one("crates/dispatch/src/dispatcher.rs", bad);
        assert!(
            f.iter().any(|f| f.rule == "no-direct-kernel-in-dispatch"),
            "{f:?}"
        );
        // path-qualified calls are the same violation
        let qualified = "fn f() { blob_blas::gemm::gemm_blocked(a, b, c, m, n, k); }";
        let f = check_one("crates/dispatch/src/front.rs", qualified);
        assert!(
            f.iter().any(|f| f.rule == "no-direct-kernel-in-dispatch"),
            "{f:?}"
        );
        // so are the half and emulated entry points
        let path_call = "fn f() { blob_blas::gemv_emul(p, a, x, y, m, n); }";
        let f = check_one("crates/dispatch/src/front.rs", path_call);
        assert!(
            f.iter().any(|f| f.rule == "no-direct-kernel-in-dispatch"),
            "{f:?}"
        );
        // exec.rs is the one sanctioned home for kernel invocations
        let exec = check_one("crates/dispatch/src/exec.rs", bad);
        assert!(
            exec.iter()
                .all(|f| f.rule != "no-direct-kernel-in-dispatch"),
            "{exec:?}"
        );
        // other crates are out of scope for this rule
        let blas = check_one("crates/blas/src/gemm.rs", bad);
        assert!(
            blas.iter()
                .all(|f| f.rule != "no-direct-kernel-in-dispatch"),
            "{blas:?}"
        );
        // `BlasCall::gemm(…)` builds a shape description, not a kernel call
        let ctor = "fn f() -> BlasCall { BlasCall::gemm(Precision::F64, 64, 64, 64) }";
        let f = check_one("crates/dispatch/src/mixed.rs", ctor);
        assert!(
            f.iter().all(|f| f.rule != "no-direct-kernel-in-dispatch"),
            "{f:?}"
        );
        // unit tests may drive kernels directly to cross-check the executor
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn g() { gemv_parallel(p, a, x, y, m, n); }\n}";
        let f = check_one("crates/dispatch/src/dispatcher.rs", in_test);
        assert!(
            f.iter().all(|f| f.rule != "no-direct-kernel-in-dispatch"),
            "{f:?}"
        );
    }

    #[test]
    fn direct_kernel_suppressible_with_reason() {
        let src = "fn f() {\n    // blob-check: allow(no-direct-kernel-in-dispatch): calibration probe outside the decision loop\n    gemm_ref(a, b, c, m, n, k);\n}";
        let f = check_one("crates/dispatch/src/dispatcher.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn untagged_precision_kernels_flagged_in_plane_homes() {
        let bad = "/// Docs.\npub fn gemm_half(m: usize, n: usize, k: usize) {}";
        let f = check_one("crates/blas/src/half.rs", bad);
        assert!(f.iter().any(|f| f.rule == "no-untagged-precision"), "{f:?}");
        // a `Precision` parameter anywhere in the list satisfies the rule,
        // including behind generics
        let good = "/// Docs.\npub fn gemm_emul<T: Scalar>(precision: Precision, m: usize) {}";
        let f = check_one("crates/blas/src/emul.rs", good);
        assert!(f.iter().all(|f| f.rule != "no-untagged-precision"), "{f:?}");
        // private helpers live behind a tagged entry point
        let private = "fn emul_core_gemm(m: usize) {}";
        let f = check_one("crates/blas/src/emul.rs", private);
        assert!(f.iter().all(|f| f.rule != "no-untagged-precision"), "{f:?}");
        // non-kernel functions are out of scope even when public
        let other = "/// Docs.\npub fn slice_bits(k: usize) -> u32 { 9 }";
        let f = check_one("crates/blas/src/emul.rs", other);
        assert!(f.iter().all(|f| f.rule != "no-untagged-precision"), "{f:?}");
        // the rule is scoped to the precision-plane homes only
        let elsewhere = check_one("crates/blas/src/gemm.rs", bad);
        assert!(
            elsewhere.iter().all(|f| f.rule != "no-untagged-precision"),
            "{elsewhere:?}"
        );
        // tests inside the plane homes may build untagged harness helpers
        let in_test = "#[cfg(test)]\nmod tests {\n    pub fn gemm_probe(m: usize) {}\n}";
        let f = check_one("crates/blas/src/half.rs", in_test);
        assert!(f.iter().all(|f| f.rule != "no-untagged-precision"), "{f:?}");
    }

    #[test]
    fn untagged_precision_suppressible_with_reason() {
        let src = "/// Docs.\n// blob-check: allow(no-untagged-precision): fixed-tag convenience wrapper\npub fn gemv_half_bf16(m: usize, n: usize) {}";
        let f = check_one("crates/blas/src/half.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cfg_test_region_spans_the_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c(x: Option<u32>) { x.unwrap(); }\n";
        let f = check_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }
}
