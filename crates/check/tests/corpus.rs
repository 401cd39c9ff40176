//! Golden-file corpus for the rules.
//!
//! Each `tests/corpus/<case>.case` file is a minimal Rust snippet split
//! into virtual workspace files by `//@ file: <path>` markers (the rules
//! are path-sensitive: guarded kernel files, module-qualified call
//! resolution, file classes). The paired `<case>.expected` file holds the
//! findings the full pipeline must produce, one per line in the binary's
//! human format — empty for negative cases. The snippets use `.case`, not
//! `.rs`, so `collect_sources` never sweeps the deliberate violations
//! into a real workspace run.
//!
//! Regenerate goldens after an intentional behaviour change with:
//!
//! ```text
//! BLOB_CHECK_BLESS=1 cargo test -p blob-check --test corpus
//! ```

use blob_check::check_files;
use std::fs;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Splits a case into its virtual `(path, text)` files. Line 1 of each
/// virtual file is the line right after its marker.
fn virtual_files(src: &str, case: &str) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = Vec::new();
    for line in src.lines() {
        if let Some(p) = line.trim().strip_prefix("//@ file:") {
            files.push((p.trim().to_string(), String::new()));
        } else if let Some((_, body)) = files.last_mut() {
            body.push_str(line);
            body.push('\n');
        } else {
            assert!(
                line.trim().is_empty(),
                "{case}: content before the first `//@ file:` marker"
            );
        }
    }
    assert!(!files.is_empty(), "{case}: no `//@ file:` marker");
    files
}

fn render(findings: &[blob_check::rules::Finding]) -> String {
    findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}\n", f.path, f.line, f.rule, f.message))
        .collect()
}

#[test]
fn corpus_matches_goldens() {
    let dir = corpus_dir();
    let bless = std::env::var("BLOB_CHECK_BLESS").is_ok();
    let mut cases: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    cases.sort();
    assert!(!cases.is_empty(), "corpus is empty");

    let mut failures = Vec::new();
    for case in &cases {
        let name = case
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = fs::read_to_string(case).expect("case readable");
        let files = virtual_files(&src, &name);
        let got = render(&check_files(&files));
        let golden = case.with_extension("expected");
        if bless {
            fs::write(&golden, &got).expect("golden writable");
            continue;
        }
        let want = fs::read_to_string(&golden)
            .unwrap_or_else(|_| panic!("{name}: missing golden {}", golden.display()));
        if got != want {
            failures.push(format!("== {name}\n--- expected\n{want}--- got\n{got}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus case(s) diverged (BLOB_CHECK_BLESS=1 regenerates):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The span round-trip property, on real inputs: parsing the checker's
/// own sources and every corpus virtual file must (1) recover nothing,
/// (2) produce top-level items whose spans are ordered, non-overlapping
/// and in bounds (tokens between items — `use` declarations, attributes
/// — own no item, so exact tiling is not required), and (3) nest every
/// statement and expression child inside its parent's span. Together
/// these say the AST is a faithful arrangement of the token stream,
/// which is what lets the CFG use token indices as positions.
#[test]
fn parser_round_trips_token_spans() {
    use blob_check::ast::{walk_expr, Item, Span, Stmt};
    use blob_check::lexer::lex;
    use blob_check::parse::{code_tokens, parse_file};

    let mut inputs: Vec<(String, String)> = Vec::new();
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut stack = vec![src_dir];
    while let Some(dir) = stack.pop() {
        for e in fs::read_dir(&dir).expect("src readable") {
            let p = e.expect("entry").path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                let text = fs::read_to_string(&p).expect("source readable");
                inputs.push((p.display().to_string(), text));
            }
        }
    }
    for e in fs::read_dir(corpus_dir()).expect("corpus readable") {
        let p = e.expect("entry").path();
        if p.extension().is_some_and(|x| x == "case") {
            let src = fs::read_to_string(&p).expect("case readable");
            inputs.extend(virtual_files(&src, &p.display().to_string()));
        }
    }
    assert!(inputs.len() > 10, "property needs real inputs");

    for (name, text) in &inputs {
        let toks = code_tokens(&lex(text));
        let file = parse_file(&toks);
        assert_eq!(file.recovered, 0, "{name}: parser recovered");
        // items in order, non-overlapping, within [0, n)
        let mut at = 0usize;
        for item in &file.items {
            let s = item.span();
            assert!(s.lo >= at, "{name}: item {s:?} overlaps the previous one");
            assert!(s.hi >= s.lo && s.hi <= toks.len(), "{name}: span {s:?}");
            at = s.hi;
            if let Item::Fn(f) = item {
                check_nesting(name, &f.body.stmts, f.span);
            }
        }
    }

    fn check_nesting(name: &str, stmts: &[Stmt], outer: Span) {
        let nest = |top| {
            walk_expr(top, &mut |e| {
                for c in e.children() {
                    assert!(
                        e.span.contains(&c.span),
                        "{name}: child {:?} outside parent {:?}",
                        c.span,
                        e.span
                    );
                }
            });
        };
        for s in stmts {
            let sp = s.span();
            assert!(outer.contains(&sp), "{name}: stmt {sp:?} outside {outer:?}");
            match s {
                Stmt::Let {
                    init, else_block, ..
                } => {
                    if let Some(e) = init {
                        nest(e);
                    }
                    if let Some(b) = else_block {
                        check_nesting(name, &b.stmts, sp);
                    }
                }
                Stmt::Expr { expr, .. } => nest(expr),
                Stmt::Item(i) => {
                    if let Item::Fn(f) = &**i {
                        check_nesting(name, &f.body.stmts, f.span);
                    }
                }
            }
        }
    }
}

/// Every rule in the catalogue must appear in at least one golden — a
/// corpus that silently stops covering a rule is itself a bug.
#[test]
fn corpus_covers_every_semantic_analysis() {
    let dir = corpus_dir();
    let mut seen = String::new();
    for e in fs::read_dir(&dir).expect("tests/corpus exists") {
        let p = e.expect("entry").path();
        if p.extension().is_some_and(|x| x == "expected") {
            seen.push_str(&fs::read_to_string(&p).unwrap_or_default());
        }
    }
    for rule in blob_check::rules::RULES {
        assert!(
            seen.contains(&format!("[{rule}]")),
            "no corpus golden exercises `{rule}`"
        );
    }
}
