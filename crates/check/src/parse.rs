//! A forgiving recursive-descent parser over [`crate::lexer`] tokens.
//!
//! The parser models exactly the structure the analyses need (see
//! [`crate::ast`]) and *degrades*, never fails: constructs outside the
//! grammar are consumed token-by-token into [`ExprKind::Opaque`] nodes
//! with any recognisable sub-expressions preserved. It must accept every
//! file in this workspace — and arbitrary Rust from the corpus — without
//! panicking, so all lookahead is bounds-checked and every loop provably
//! advances the cursor.
//!
//! Spans are half-open ranges of indices into the *comment-filtered*
//! token stream ([`code_tokens`]); the span property tests assert that
//! they nest and tile.

use crate::ast::{Arm, Block, Expr, ExprKind, File, FnItem, Item, Span, Stmt};
use crate::lexer::{Token, TokenKind};

/// Statement/expression keywords that can never be call names or plain
/// path segments in expression position.
const EXPR_KEYWORDS: [&str; 16] = [
    "if", "else", "match", "loop", "while", "for", "return", "break", "continue", "let", "move",
    "in", "as", "unsafe", "where", "else",
];

/// Item-introducing keywords at statement level.
const ITEM_KEYWORDS: [&str; 12] = [
    "fn",
    "struct",
    "enum",
    "union",
    "trait",
    "impl",
    "mod",
    "use",
    "static",
    "type",
    "extern",
    "macro_rules",
];

/// Binary / assignment operators folded into [`ExprKind::Binary`].
const BINARY_OPS: [&str; 28] = [
    "+", "-", "*", "/", "%", "==", "!=", "<", ">", "<=", ">=", "&&", "||", "&", "|", "^", "<<",
    ">>", "..", "..=", "=", "+=", "-=", "*=", "/=", "<<=", ">>=", "|=",
];

/// Drops comment tokens, leaving the code stream the parser consumes.
pub fn code_tokens(tokens: &[Token]) -> Vec<Token> {
    tokens.iter().filter(|t| !t.is_comment()).cloned().collect()
}

/// Parses a comment-filtered token stream into a [`File`].
pub fn parse_file(code: &[Token]) -> File {
    let mut p = Parser {
        toks: code,
        pos: 0,
        recovered: 0,
        depth: 0,
    };
    let items = p.parse_items(true);
    File {
        items,
        recovered: p.recovered,
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    recovered: usize,
    depth: usize,
}

/// Recursion guard: beyond this expression depth the parser consumes the
/// rest of the construct opaquely instead of recursing further.
const MAX_DEPTH: usize = 160;

impl<'a> Parser<'a> {
    // ---- primitives -----------------------------------------------------

    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + off)
    }

    fn text(&self) -> &'a str {
        self.peek().map(|t| t.text.as_str()).unwrap_or("")
    }

    fn text_at(&self, off: usize) -> &'a str {
        self.peek_at(off).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn line(&self) -> usize {
        self.peek().map(|t| t.line).unwrap_or(0)
    }

    fn bump(&mut self) {
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.text() == text {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn is_ident(&self) -> bool {
        self.peek()
            .map(|t| t.kind == TokenKind::Ident)
            .unwrap_or(false)
    }

    fn span_from(&self, lo: usize) -> Span {
        Span { lo, hi: self.pos }
    }

    /// Records one token skipped by error recovery.
    fn skip_recover(&mut self) {
        self.recovered += 1;
        self.bump();
    }

    /// Consumes a balanced delimiter region. The opening token must be
    /// current; consumes through the matching closer (tolerating EOF).
    fn skip_balanced(&mut self) {
        let open = self.text().to_string();
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => {
                self.bump();
                return;
            }
        };
        self.bump();
        let mut depth = 1usize;
        while !self.at_end() && depth > 0 {
            let t = self.text();
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
            }
            self.bump();
        }
    }

    /// Consumes a `<…>` generics region starting at `<`. `<<` and `>>`
    /// count double; `->` is a fused token and therefore inert. Gives up
    /// (restoring nothing — callers treat it as consumed) at `;` or `{`.
    fn skip_generics(&mut self) {
        let mut depth = 0isize;
        while !self.at_end() {
            match self.text() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "(" | "[" => {
                    self.skip_balanced();
                    continue;
                }
                ";" => return,
                "{" => return,
                _ => {}
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    /// Consumes tokens that form a type, stopping at `, ; = { ) ] >` at
    /// depth 0 or at `else`/`where`.
    fn skip_type(&mut self) {
        let mut angle = 0isize;
        while !self.at_end() {
            let t = self.text();
            match t {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" if angle > 0 => angle -= 1,
                ">>" if angle > 1 => angle -= 2,
                "(" | "[" => {
                    self.skip_balanced();
                    continue;
                }
                "," | ";" | "=" | "{" | ")" | "]" | "=>" if angle <= 0 => return,
                ">" | ">>" if angle <= 0 => return,
                "else" | "where" if angle <= 0 => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Consumes `#[…]` / `#![…]` attributes.
    fn skip_attrs(&mut self) {
        while self.text() == "#" && (self.text_at(1) == "[" || self.text_at(1) == "!") {
            self.bump(); // #
            if self.text() == "!" {
                self.bump();
            }
            if self.text() == "[" {
                self.skip_balanced();
            }
        }
    }

    // ---- items ----------------------------------------------------------

    /// Parses items until EOF (`top` = true) or a closing `}`.
    fn parse_items(&mut self, top: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            self.skip_attrs();
            if self.at_end() || (!top && self.text() == "}") {
                break;
            }
            let lo = self.pos;
            // visibility
            if self.eat("pub") && self.text() == "(" {
                self.skip_balanced();
            }
            // qualifiers before fn/impl/trait
            while matches!(self.text(), "const" | "async" | "unsafe" | "default")
                && ITEM_KEYWORDS.contains(&self.text_at(1))
            {
                self.bump();
            }
            match self.text() {
                "fn" => {
                    let f = self.parse_fn(lo);
                    items.push(Item::Fn(f));
                }
                "mod" => {
                    self.bump();
                    let name = if self.is_ident() {
                        let n = self.text().to_string();
                        self.bump();
                        n
                    } else {
                        String::new()
                    };
                    if self.eat("{") {
                        let inner = self.parse_items(false);
                        self.eat("}");
                        items.push(Item::Mod {
                            name,
                            items: inner,
                            span: self.span_from(lo),
                        });
                    } else {
                        self.eat(";");
                        items.push(Item::Other {
                            span: self.span_from(lo),
                        });
                    }
                }
                "impl" | "trait" => {
                    self.bump();
                    // skip generics, type path, `for Type`, where clause
                    while !self.at_end() && self.text() != "{" && self.text() != ";" {
                        match self.text() {
                            "<" => self.skip_generics(),
                            "(" | "[" => self.skip_balanced(),
                            _ => self.bump(),
                        }
                    }
                    if self.eat("{") {
                        let inner = self.parse_items(false);
                        self.eat("}");
                        items.push(Item::Impl {
                            items: inner,
                            span: self.span_from(lo),
                        });
                    } else {
                        self.eat(";");
                        items.push(Item::Other {
                            span: self.span_from(lo),
                        });
                    }
                }
                "struct" | "enum" | "union" | "use" | "static" | "type" | "extern"
                | "macro_rules" => {
                    self.skip_item_like();
                    items.push(Item::Other {
                        span: self.span_from(lo),
                    });
                }
                "const" => {
                    // `const NAME: T = …;` (const fn was handled above)
                    self.skip_item_like();
                    items.push(Item::Other {
                        span: self.span_from(lo),
                    });
                }
                ";" => {
                    self.bump();
                }
                _ if self.is_ident()
                    && self.text_at(1) == "!"
                    && matches!(self.text_at(2), "(" | "[" | "{") =>
                {
                    // item-level macro invocation: `thread_local! { … }`,
                    // `impl_scalar!(f32, 's');` — skipped as a unit
                    self.bump(); // name
                    self.bump(); // !
                    self.skip_balanced();
                    self.eat(";");
                    items.push(Item::Other {
                        span: self.span_from(lo),
                    });
                }
                _ => {
                    // unknown token at item level: recovery
                    if self.pos == lo {
                        self.skip_recover();
                    }
                    // a stray `{` would desynchronise brace matching —
                    // consume it as a unit
                }
            }
            if self.pos == lo {
                // absolute progress guarantee
                self.skip_recover();
            }
        }
        items
    }

    /// Skips a non-container item: to `;` at depth 0 or through one
    /// balanced `{…}` body (whichever comes first).
    fn skip_item_like(&mut self) {
        while !self.at_end() {
            match self.text() {
                ";" => {
                    self.bump();
                    return;
                }
                "{" => {
                    self.skip_balanced();
                    // `struct S { … }` ends here; `= …;` cannot follow
                    return;
                }
                "(" | "[" => self.skip_balanced(),
                "<" => self.skip_generics(),
                "=" => {
                    // const/static/type initialiser: parse as expr to `;`
                    self.bump();
                    while !self.at_end() && self.text() != ";" {
                        match self.text() {
                            "(" | "[" | "{" => self.skip_balanced(),
                            _ => self.bump(),
                        }
                    }
                }
                _ => self.bump(),
            }
        }
    }

    /// Parses `fn name(…) -> … { body }`; cursor is at `fn`. `lo` is the
    /// index of the first qualifier token (`pub`, `const`, …).
    fn parse_fn(&mut self, lo: usize) -> FnItem {
        let line = self.line();
        // was there a bare `pub` among the consumed qualifiers?
        let is_pub = self
            .toks
            .get(lo..self.pos)
            .map(|q| {
                q.iter().enumerate().any(|(i, t)| {
                    t.text == "pub" && q.get(i + 1).map(|n| n.text != "(").unwrap_or(true)
                })
            })
            .unwrap_or(false);
        self.bump(); // fn
        let name = if self.is_ident() {
            let n = self.text().to_string();
            self.bump();
            n
        } else {
            String::new()
        };
        if self.text() == "<" {
            self.skip_generics();
        }
        // parameters
        let mut params = Vec::new();
        if self.text() == "(" {
            let start = self.pos;
            self.bump();
            let mut depth = 1usize;
            let mut expect_name = true;
            while !self.at_end() && depth > 0 {
                let t = self.text();
                match t {
                    "(" | "[" | "{" => {
                        self.skip_balanced();
                        continue;
                    }
                    ")" => depth -= 1,
                    "<" => {
                        self.skip_generics();
                        continue;
                    }
                    "," => expect_name = true,
                    "mut" | "ref" => {}
                    _ => {
                        if depth == 1
                            && expect_name
                            && self.is_ident()
                            && self.text_at(1) == ":"
                            && t != "self"
                        {
                            params.push(t.to_string());
                        }
                        if t != "&" && !t.is_empty() {
                            expect_name = false;
                        }
                    }
                }
                self.bump();
            }
            let _ = start;
        }
        // return type + where clause
        let mut ret_result = false;
        let mut ret_contract_error = false;
        if self.eat("->") {
            let start = self.pos;
            self.skip_type();
            for t in self.toks.get(start..self.pos).unwrap_or(&[]) {
                if t.text == "Result" {
                    ret_result = true;
                }
                if t.text == "ContractError" {
                    ret_contract_error = true;
                }
            }
        }
        if self.text() == "where" {
            while !self.at_end() && self.text() != "{" && self.text() != ";" {
                match self.text() {
                    "(" | "[" => self.skip_balanced(),
                    "<" => self.skip_generics(),
                    _ => self.bump(),
                }
            }
        }
        let body = if self.text() == "{" {
            self.parse_block()
        } else {
            // trait method declaration without body
            self.eat(";");
            Block {
                stmts: Vec::new(),
                span: self.span_from(self.pos),
                line,
            }
        };
        FnItem {
            name,
            line,
            is_pub,
            params,
            ret_result,
            ret_contract_error,
            body,
            span: self.span_from(lo),
        }
    }

    // ---- statements ------------------------------------------------------

    /// Parses `{ … }`; cursor is at `{`.
    fn parse_block(&mut self) -> Block {
        let lo = self.pos;
        let line = self.line();
        self.eat("{");
        let mut stmts = Vec::new();
        loop {
            self.skip_attrs();
            if self.at_end() || self.text() == "}" {
                break;
            }
            let before = self.pos;
            if let Some(s) = self.parse_stmt() {
                stmts.push(s);
            }
            if self.pos == before {
                self.skip_recover();
            }
        }
        self.eat("}");
        Block {
            stmts,
            span: self.span_from(lo),
            line,
        }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        let lo = self.pos;
        let line = self.line();
        match self.text() {
            ";" => {
                self.bump();
                None
            }
            "let" => {
                self.bump();
                let (name, pat_names) = self.parse_pattern(&["=", ";", ":", "else"]);
                if self.eat(":") {
                    self.skip_type();
                }
                let init = if self.eat("=") {
                    Some(self.parse_expr(false))
                } else {
                    None
                };
                let else_block = if self.text() == "else" && self.text_at(1) == "{" {
                    self.bump();
                    Some(self.parse_block())
                } else {
                    None
                };
                self.eat(";");
                Some(Stmt::Let {
                    name,
                    pat_names,
                    init,
                    else_block,
                    span: self.span_from(lo),
                    line,
                })
            }
            kw if ITEM_KEYWORDS.contains(&kw)
                || (kw == "pub")
                || (matches!(kw, "const" | "unsafe" | "async")
                    && ITEM_KEYWORDS.contains(&self.text_at(1))) =>
            {
                // `unsafe {` is a block expression, not an item
                if kw == "unsafe" && self.text_at(1) == "{" {
                    let expr = self.parse_expr(false);
                    let has_semi = self.eat(";");
                    return Some(Stmt::Expr {
                        expr,
                        has_semi,
                        span: self.span_from(lo),
                    });
                }
                let mut items = {
                    // parse exactly one nested item by delegating
                    let save_pos = self.pos;
                    let one = self.parse_one_item();
                    if self.pos == save_pos {
                        self.skip_recover();
                    }
                    one
                };
                items.take().map(|i| Stmt::Item(Box::new(i)))
            }
            _ => {
                let expr = self.parse_expr(false);
                let has_semi = self.eat(";");
                Some(Stmt::Expr {
                    expr,
                    has_semi,
                    span: self.span_from(lo),
                })
            }
        }
    }

    /// Parses a single item at statement level.
    fn parse_one_item(&mut self) -> Option<Item> {
        let lo = self.pos;
        if self.eat("pub") && self.text() == "(" {
            self.skip_balanced();
        }
        while matches!(self.text(), "const" | "async" | "unsafe" | "default")
            && ITEM_KEYWORDS.contains(&self.text_at(1))
        {
            self.bump();
        }
        match self.text() {
            "fn" => Some(Item::Fn(self.parse_fn(lo))),
            "mod" => {
                self.bump();
                if self.is_ident() {
                    self.bump();
                }
                if self.text() == "{" {
                    self.bump();
                    let inner = self.parse_items(false);
                    self.eat("}");
                    Some(Item::Mod {
                        name: String::new(),
                        items: inner,
                        span: self.span_from(lo),
                    })
                } else {
                    self.eat(";");
                    Some(Item::Other {
                        span: self.span_from(lo),
                    })
                }
            }
            "impl" | "trait" => {
                self.bump();
                while !self.at_end() && self.text() != "{" && self.text() != ";" {
                    match self.text() {
                        "<" => self.skip_generics(),
                        "(" | "[" => self.skip_balanced(),
                        _ => self.bump(),
                    }
                }
                if self.eat("{") {
                    let inner = self.parse_items(false);
                    self.eat("}");
                    Some(Item::Impl {
                        items: inner,
                        span: self.span_from(lo),
                    })
                } else {
                    self.eat(";");
                    Some(Item::Other {
                        span: self.span_from(lo),
                    })
                }
            }
            _ => {
                self.skip_item_like();
                Some(Item::Other {
                    span: self.span_from(lo),
                })
            }
        }
    }

    /// Parses a pattern, stopping before any of `stops` at depth 0.
    /// Returns `(simple_name, all_bound_idents)`.
    fn parse_pattern(&mut self, stops: &[&str]) -> (Option<String>, Vec<String>) {
        // fast path: `ident` / `mut ident` directly before a stop token
        let mut off = 0;
        if self.text() == "mut" || self.text() == "ref" {
            off = 1;
        }
        if self
            .peek_at(off)
            .map(|t| t.kind == TokenKind::Ident && !EXPR_KEYWORDS.contains(&t.text.as_str()))
            .unwrap_or(false)
            && stops.contains(&self.text_at(off + 1))
        {
            let name = self.text_at(off).to_string();
            for _ in 0..=off {
                self.bump();
            }
            let names = vec![name.clone()];
            let simple = if name == "_" { None } else { Some(name) };
            return (simple, names);
        }
        // complex pattern: consume to a stop token, collecting idents
        let mut names = Vec::new();
        let mut depth = 0usize;
        while !self.at_end() {
            let t = self.text();
            if depth == 0 && stops.contains(&t) {
                break;
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ => {
                    if self.is_ident()
                        && !EXPR_KEYWORDS.contains(&t)
                        && t != "mut"
                        && t != "ref"
                        && t != "_"
                        && !t.starts_with(|c: char| c.is_ascii_uppercase())
                        && self.text_at(1) != "::"
                    {
                        names.push(t.to_string());
                    }
                }
            }
            self.bump();
        }
        (None, names)
    }

    // ---- expressions -----------------------------------------------------

    /// Parses an expression. `no_struct` suppresses struct-literal
    /// interpretation of `Path { … }` (condition / scrutinee position).
    fn parse_expr(&mut self, no_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            return self.opaque_to_terminator();
        }
        self.depth += 1;
        let e = self.parse_binary(no_struct);
        self.depth -= 1;
        e
    }

    /// Consumes tokens opaquely until a statement terminator at depth 0.
    fn opaque_to_terminator(&mut self) -> Expr {
        let lo = self.pos;
        let line = self.line();
        while !self.at_end() {
            match self.text() {
                ";" | "," | "}" | ")" | "]" => break,
                "(" | "[" | "{" => self.skip_balanced(),
                _ => self.bump(),
            }
        }
        Expr {
            kind: ExprKind::Opaque(Vec::new()),
            span: self.span_from(lo),
            line,
        }
    }

    fn parse_binary(&mut self, no_struct: bool) -> Expr {
        let lo = self.pos;
        let line = self.line();
        let mut lhs = self.parse_prefix(no_struct);
        loop {
            let t = self.text();
            if t == "as" {
                self.bump();
                self.skip_type();
                lhs = Expr {
                    kind: ExprKind::Opaque(vec![lhs]),
                    span: self.span_from(lo),
                    line,
                };
                continue;
            }
            if !BINARY_OPS.contains(&t) {
                break;
            }
            let op = t.to_string();
            self.bump();
            // open ranges: `a..` before `)`/`]`/`}`/`,`/`;`/`=` end here
            let next = self.text();
            let rhs = if (op == ".." || op == "..=")
                && matches!(next, ")" | "]" | "}" | "," | ";" | "" | "{")
            {
                None
            } else {
                Some(Box::new(self.parse_prefix_chain(no_struct)))
            };
            lhs = Expr {
                kind: ExprKind::Binary {
                    lhs: Box::new(lhs),
                    rhs,
                    op,
                },
                span: self.span_from(lo),
                line,
            };
        }
        lhs
    }

    /// A prefix chain is `parse_prefix` without re-entering binary
    /// folding (binary folding is left-associative in `parse_binary`).
    fn parse_prefix_chain(&mut self, no_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            return self.opaque_to_terminator();
        }
        self.depth += 1;
        let e = self.parse_prefix(no_struct);
        self.depth -= 1;
        e
    }

    fn parse_prefix(&mut self, no_struct: bool) -> Expr {
        let lo = self.pos;
        let line = self.line();
        match self.text() {
            "&" | "&&" | "*" | "-" | "!" => {
                self.bump();
                self.eat("mut");
                let inner = self.parse_prefix(no_struct);
                return Expr {
                    kind: ExprKind::Unary(Box::new(inner)),
                    span: self.span_from(lo),
                    line,
                };
            }
            ".." | "..=" => {
                // prefix range `..end` / `..=end` (e.g. `&buf[..head_end]`)
                // — without this the `..` falls into the one-token opaque
                // fallback and the rest of the statement desynchronises
                let op = self.text().to_string();
                self.bump();
                let rhs = if matches!(self.text(), ")" | "]" | "}" | "," | ";" | "" | "{" | "=") {
                    None
                } else {
                    Some(Box::new(self.parse_prefix_chain(no_struct)))
                };
                let open = Expr {
                    kind: ExprKind::Opaque(Vec::new()),
                    span: Span {
                        lo,
                        hi: lo.saturating_add(1),
                    },
                    line,
                };
                return Expr {
                    kind: ExprKind::Binary {
                        lhs: Box::new(open),
                        rhs,
                        op,
                    },
                    span: self.span_from(lo),
                    line,
                };
            }
            "move" if self.text_at(1) == "|" || self.text_at(1) == "||" => {
                self.bump();
                return self.parse_closure(lo, line);
            }
            "|" | "||" => {
                return self.parse_closure(lo, line);
            }
            _ => {}
        }
        let primary = self.parse_primary(no_struct);
        self.parse_postfix(primary, lo, line, no_struct)
    }

    fn parse_closure(&mut self, lo: usize, line: usize) -> Expr {
        let mut params = Vec::new();
        if self.eat("||") {
            // zero-parameter closure
        } else if self.eat("|") {
            while !self.at_end() && self.text() != "|" {
                if self.is_ident()
                    && self.text() != "mut"
                    && self.text() != "ref"
                    && !EXPR_KEYWORDS.contains(&self.text())
                {
                    params.push(self.text().to_string());
                }
                if self.text() == ":" {
                    // parameter type annotation: stop at `,` or the
                    // closing `|` (skip_type does not know about `|`)
                    self.bump();
                    let mut angle = 0isize;
                    while !self.at_end() {
                        match self.text() {
                            "<" => angle += 1,
                            "<<" => angle += 2,
                            ">" if angle > 0 => angle -= 1,
                            ">>" if angle > 1 => angle -= 2,
                            "(" | "[" => {
                                self.skip_balanced();
                                continue;
                            }
                            "," | "|" if angle <= 0 => break,
                            ";" | "{" => break,
                            _ => {}
                        }
                        self.bump();
                    }
                    continue;
                }
                match self.text() {
                    "(" | "[" => self.skip_balanced(),
                    _ => self.bump(),
                }
            }
            self.eat("|");
        }
        if self.eat("->") {
            self.skip_type();
        }
        let body = self.parse_expr(false);
        Expr {
            kind: ExprKind::Closure {
                params,
                body: Box::new(body),
            },
            span: self.span_from(lo),
            line,
        }
    }

    fn parse_primary(&mut self, no_struct: bool) -> Expr {
        let lo = self.pos;
        let line = self.line();
        let Some(tok) = self.peek() else {
            return Expr {
                kind: ExprKind::Opaque(Vec::new()),
                span: self.span_from(lo),
                line,
            };
        };
        match tok.kind {
            TokenKind::Num | TokenKind::Str | TokenKind::Char | TokenKind::Lifetime => {
                self.bump();
                return Expr {
                    kind: ExprKind::Lit,
                    span: self.span_from(lo),
                    line,
                };
            }
            _ => {}
        }
        match self.text() {
            "(" => {
                self.bump();
                let children = self.parse_comma_exprs(")");
                self.eat(")");
                Expr {
                    kind: ExprKind::Tuple(children),
                    span: self.span_from(lo),
                    line,
                }
            }
            "[" => {
                self.bump();
                let mut children = Vec::new();
                while !self.at_end() && self.text() != "]" {
                    children.push(self.parse_expr(false));
                    if !self.eat(",") && !self.eat(";") {
                        break;
                    }
                }
                self.eat("]");
                Expr {
                    kind: ExprKind::Array(children),
                    span: self.span_from(lo),
                    line,
                }
            }
            "{" => {
                let b = self.parse_block();
                Expr {
                    kind: ExprKind::Block(b),
                    span: self.span_from(lo),
                    line,
                }
            }
            "unsafe" if self.text_at(1) == "{" => {
                self.bump();
                let b = self.parse_block();
                Expr {
                    kind: ExprKind::Block(b),
                    span: self.span_from(lo),
                    line,
                }
            }
            "if" => self.parse_if(lo, line),
            "match" => {
                self.bump();
                let scrutinee = self.parse_expr(true);
                let mut arms = Vec::new();
                if self.eat("{") {
                    loop {
                        self.skip_attrs();
                        if self.at_end() || self.text() == "}" {
                            break;
                        }
                        let before = self.pos;
                        arms.push(self.parse_arm());
                        if self.pos == before {
                            self.skip_recover();
                        }
                    }
                    self.eat("}");
                }
                Expr {
                    kind: ExprKind::Match {
                        scrutinee: Box::new(scrutinee),
                        arms,
                    },
                    span: self.span_from(lo),
                    line,
                }
            }
            "loop" => {
                self.bump();
                let body = if self.text() == "{" {
                    self.parse_block()
                } else {
                    Block {
                        stmts: Vec::new(),
                        span: self.span_from(self.pos),
                        line,
                    }
                };
                Expr {
                    kind: ExprKind::Loop { body },
                    span: self.span_from(lo),
                    line,
                }
            }
            "while" => {
                self.bump();
                if self.eat("let") {
                    let (_, _pat) = self.parse_pattern(&["="]);
                    self.eat("=");
                }
                let cond = self.parse_expr(true);
                let body = if self.text() == "{" {
                    self.parse_block()
                } else {
                    Block {
                        stmts: Vec::new(),
                        span: self.span_from(self.pos),
                        line,
                    }
                };
                Expr {
                    kind: ExprKind::While {
                        cond: Box::new(cond),
                        body,
                    },
                    span: self.span_from(lo),
                    line,
                }
            }
            "for" => {
                self.bump();
                let (pat, _all) = self.parse_pattern(&["in"]);
                self.eat("in");
                let iter = self.parse_expr(true);
                let body = if self.text() == "{" {
                    self.parse_block()
                } else {
                    Block {
                        stmts: Vec::new(),
                        span: self.span_from(self.pos),
                        line,
                    }
                };
                Expr {
                    kind: ExprKind::For {
                        pat,
                        iter: Box::new(iter),
                        body,
                    },
                    span: self.span_from(lo),
                    line,
                }
            }
            "return" => {
                self.bump();
                let value = if matches!(self.text(), ";" | "}" | ")" | "," | "") {
                    None
                } else {
                    Some(Box::new(self.parse_expr(false)))
                };
                Expr {
                    kind: ExprKind::Return(value),
                    span: self.span_from(lo),
                    line,
                }
            }
            "break" => {
                self.bump();
                if self
                    .peek()
                    .map(|t| t.kind == TokenKind::Lifetime)
                    .unwrap_or(false)
                {
                    self.bump();
                }
                if !matches!(self.text(), ";" | "}" | ")" | "," | "") {
                    let _ = self.parse_expr(false);
                }
                Expr {
                    kind: ExprKind::Break,
                    span: self.span_from(lo),
                    line,
                }
            }
            "continue" => {
                self.bump();
                if self
                    .peek()
                    .map(|t| t.kind == TokenKind::Lifetime)
                    .unwrap_or(false)
                {
                    self.bump();
                }
                Expr {
                    kind: ExprKind::Continue,
                    span: self.span_from(lo),
                    line,
                }
            }
            _ if self.is_ident() && !EXPR_KEYWORDS.contains(&self.text()) => {
                self.parse_path_expr(lo, line, no_struct)
            }
            _ => {
                // unmodelled token: consume it opaquely
                self.bump();
                Expr {
                    kind: ExprKind::Opaque(Vec::new()),
                    span: self.span_from(lo),
                    line,
                }
            }
        }
    }

    fn parse_if(&mut self, lo: usize, line: usize) -> Expr {
        self.bump(); // if
        let mut pat_idents = Vec::new();
        if self.eat("let") {
            let (_, names) = self.parse_pattern(&["="]);
            pat_idents = names;
            self.eat("=");
        }
        let cond = self.parse_expr(true);
        let then_block = if self.text() == "{" {
            self.parse_block()
        } else {
            Block {
                stmts: Vec::new(),
                span: self.span_from(self.pos),
                line,
            }
        };
        let else_branch = if self.eat("else") {
            let else_lo = self.pos;
            let else_line = self.line();
            if self.text() == "if" {
                Some(Box::new(self.parse_if(else_lo, else_line)))
            } else if self.text() == "{" {
                let b = self.parse_block();
                Some(Box::new(Expr {
                    kind: ExprKind::Block(b),
                    span: self.span_from(else_lo),
                    line: else_line,
                }))
            } else {
                None
            }
        } else {
            None
        };
        Expr {
            kind: ExprKind::If {
                cond: Box::new(cond),
                pat_idents,
                then_block,
                else_branch,
            },
            span: self.span_from(lo),
            line,
        }
    }

    fn parse_arm(&mut self) -> Arm {
        // pattern: consume to `=>` (or an `if` guard) at depth 0
        let mut pat_idents = Vec::new();
        let mut guard = None;
        let mut depth = 0usize;
        while !self.at_end() {
            let t = self.text();
            if depth == 0 && t == "=>" {
                break;
            }
            if depth == 0 && t == "if" {
                self.bump();
                guard = Some(self.parse_expr(true));
                continue;
            }
            if depth == 0 && t == "}" {
                break;
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                _ => {
                    if self.is_ident()
                        && !EXPR_KEYWORDS.contains(&t)
                        && !t.starts_with(|c: char| c.is_ascii_uppercase())
                        && t != "_"
                        && t != "ref"
                        && t != "mut"
                        && self.text_at(1) != "::"
                        && self.text_at(1) != "("
                    {
                        pat_idents.push(t.to_string());
                    }
                }
            }
            self.bump();
        }
        self.eat("=>");
        let body = self.parse_expr(false);
        self.eat(",");
        Arm {
            pat_idents,
            guard,
            body,
        }
    }

    /// Parses a path-led expression: path, call, macro, or struct literal.
    fn parse_path_expr(&mut self, lo: usize, line: usize, no_struct: bool) -> Expr {
        let mut segs = Vec::new();
        loop {
            if self.is_ident() && !EXPR_KEYWORDS.contains(&self.text()) {
                segs.push(self.text().to_string());
                self.bump();
            } else {
                break;
            }
            if self.text() == "::" {
                if self.text_at(1) == "<" {
                    // turbofish
                    self.bump();
                    self.bump();
                    let mut depth = 1isize;
                    while !self.at_end() && depth > 0 {
                        match self.text() {
                            "<" => depth += 1,
                            "<<" => depth += 2,
                            ">" => depth -= 1,
                            ">>" => depth -= 2,
                            "(" | "[" => {
                                self.skip_balanced();
                                continue;
                            }
                            ";" | "{" => break,
                            _ => {}
                        }
                        self.bump();
                    }
                    // `Vec::<u32>::new` — the path may continue after the
                    // turbofish
                    if self.text() == "::" {
                        self.bump();
                        continue;
                    }
                    break;
                }
                self.bump();
            } else {
                break;
            }
        }
        // macro invocation
        if self.text() == "!" && matches!(self.text_at(1), "(" | "[" | "{") {
            self.bump(); // !
            let args = match self.text() {
                "(" => {
                    self.bump();
                    let a = self.parse_comma_exprs(")");
                    self.eat(")");
                    a
                }
                "[" => {
                    self.bump();
                    let a = self.parse_comma_exprs("]");
                    self.eat("]");
                    a
                }
                _ => {
                    self.skip_balanced();
                    Vec::new()
                }
            };
            return Expr {
                kind: ExprKind::Macro { path: segs, args },
                span: self.span_from(lo),
                line,
            };
        }
        // struct literal: `Path { … }` when allowed and CamelCase-headed
        let struct_head = segs
            .last()
            .map(|s| s.starts_with(|c: char| c.is_ascii_uppercase()))
            .unwrap_or(false);
        if self.text() == "{" && !no_struct && struct_head {
            self.bump();
            let mut fields = Vec::new();
            while !self.at_end() && self.text() != "}" {
                // `name: expr` / `..base` / shorthand `name`
                if self.is_ident() && self.text_at(1) == ":" {
                    self.bump();
                    self.bump();
                }
                if self.eat("..") {
                    // functional-update base
                }
                if self.text() == "}" {
                    break;
                }
                fields.push(self.parse_expr(false));
                if !self.eat(",") {
                    break;
                }
            }
            self.eat("}");
            return Expr {
                kind: ExprKind::StructLit { path: segs, fields },
                span: self.span_from(lo),
                line,
            };
        }
        Expr {
            kind: ExprKind::Path(segs),
            span: self.span_from(lo),
            line,
        }
    }

    fn parse_postfix(&mut self, mut e: Expr, lo: usize, line: usize, _no_struct: bool) -> Expr {
        loop {
            match self.text() {
                "." => {
                    self.bump();
                    if self.eat("await") {
                        e = Expr {
                            kind: ExprKind::Field {
                                recv: Box::new(e),
                                name: "await".to_string(),
                            },
                            span: self.span_from(lo),
                            line,
                        };
                        continue;
                    }
                    let name = if self.is_ident()
                        || self
                            .peek()
                            .map(|t| t.kind == TokenKind::Num)
                            .unwrap_or(false)
                    {
                        let n = self.text().to_string();
                        self.bump();
                        n
                    } else {
                        String::new()
                    };
                    // method turbofish: `.collect::<T>()`
                    if self.text() == "::" && self.text_at(1) == "<" {
                        self.bump();
                        self.skip_generics();
                    }
                    if self.text() == "(" {
                        self.bump();
                        let args = self.parse_comma_exprs(")");
                        self.eat(")");
                        e = Expr {
                            kind: ExprKind::MethodCall {
                                recv: Box::new(e),
                                method: name,
                                args,
                            },
                            span: self.span_from(lo),
                            line,
                        };
                    } else {
                        e = Expr {
                            kind: ExprKind::Field {
                                recv: Box::new(e),
                                name,
                            },
                            span: self.span_from(lo),
                            line,
                        };
                    }
                }
                "(" => {
                    self.bump();
                    let args = self.parse_comma_exprs(")");
                    self.eat(")");
                    e = Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        span: self.span_from(lo),
                        line,
                    };
                }
                "[" => {
                    self.bump();
                    let index = self.parse_expr(false);
                    self.eat("]");
                    e = Expr {
                        kind: ExprKind::Index {
                            recv: Box::new(e),
                            index: Box::new(index),
                        },
                        span: self.span_from(lo),
                        line,
                    };
                }
                "?" => {
                    self.bump();
                    e = Expr {
                        kind: ExprKind::Try(Box::new(e)),
                        span: self.span_from(lo),
                        line,
                    };
                }
                _ => break,
            }
        }
        e
    }

    /// Parses comma-separated expressions until `close` (not consumed).
    /// Also accepts `;` as a separator for the `vec![x; n]` repeat form.
    fn parse_comma_exprs(&mut self, close: &str) -> Vec<Expr> {
        let mut out = Vec::new();
        while !self.at_end() && self.text() != close {
            let before = self.pos;
            out.push(self.parse_expr(false));
            if !self.eat(",") && !self.eat(";") {
                if self.pos == before {
                    self.skip_recover();
                }
                if self.text() != close && self.pos == before + 1 {
                    continue;
                }
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;
    use crate::lexer::lex;

    fn parse(src: &str) -> File {
        parse_file(&code_tokens(&lex(src)))
    }

    fn fns(file: &File) -> Vec<&ast::FnItem> {
        ast::collect_fns(&file.items)
    }

    #[test]
    fn parses_simple_fn() {
        let f = parse("pub fn add(a: u32, b: u32) -> u32 { a + b }");
        let fs = fns(&f);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].name, "add");
        assert!(fs[0].is_pub);
        assert_eq!(fs[0].params, vec!["a", "b"]);
        assert_eq!(fs[0].body.stmts.len(), 1);
        assert_eq!(f.recovered, 0);
    }

    #[test]
    fn detects_result_return() {
        let f = parse("fn f() -> Result<u32, ContractError> { Ok(1) }");
        let fs = fns(&f);
        assert!(fs[0].ret_result);
        assert!(fs[0].ret_contract_error);
        let g = parse("fn g() -> u32 { 1 }");
        assert!(!fns(&g)[0].ret_result);
    }

    #[test]
    fn prefix_range_in_index_keeps_the_try_wrapper() {
        // `..end` at expression start must parse as a range, not fall
        // into the opaque fallback — otherwise the unconsumed tail
        // desynchronises the statement and the `?` is lost
        let f = parse("fn f(buf: &[u8], e: usize) { let b = g(&buf[..e])?; sink(b); }");
        assert_eq!(f.recovered, 0);
        let body = &fns(&f)[0].body;
        let ast::Stmt::Let {
            init: Some(init), ..
        } = &body.stmts[0]
        else {
            panic!("expected let with init, got {:?}", body.stmts[0]);
        };
        assert!(
            matches!(init.kind, ast::ExprKind::Try { .. }),
            "init should be ?-wrapped, got {:?}",
            init.kind
        );
        // the statement after the let must be the `sink(b)` call, proving
        // the range did not swallow the statement boundary
        assert_eq!(body.stmts.len(), 2, "{:?}", body.stmts);
    }

    #[test]
    fn parses_nested_mod_and_impl() {
        let src = "mod a { impl S { fn m(&self) {} } fn free() {} } fn top() {}";
        let f = parse(src);
        let names: Vec<_> = fns(&f).iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["m", "free", "top"]);
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
fn f(x: u32) -> u32 {
    let mut acc = 0;
    for i in 0..x {
        if i % 2 == 0 { acc += i; } else { acc -= 1; }
    }
    while acc > 10 { acc /= 2; }
    match acc {
        0 => 1,
        n if n > 5 => n,
        _ => 0,
    }
}
"#;
        let f = parse(src);
        assert_eq!(f.recovered, 0, "no recovery needed: {f:?}");
        let fs = fns(&f);
        assert_eq!(fs.len(), 1);
        // find the match expr and count arms
        let mut arms = 0;
        for s in &fs[0].body.stmts {
            if let Stmt::Expr { expr, .. } = s {
                ast::walk_expr(expr, &mut |e| {
                    if let ExprKind::Match { arms: a, .. } = &e.kind {
                        arms = a.len();
                    }
                });
            }
        }
        assert_eq!(arms, 3);
    }

    #[test]
    fn parses_calls_methods_try() {
        let src = "fn f() -> Result<(), E> { let x = g(1)?; x.h(2).i()?; a::b::c(x); Ok(()) }";
        let f = parse(src);
        assert_eq!(f.recovered, 0);
        let mut paths = Vec::new();
        let mut methods = Vec::new();
        for s in &fns(&f)[0].body.stmts {
            let exprs: Vec<&Expr> = match s {
                Stmt::Let { init: Some(e), .. } => vec![e],
                Stmt::Expr { expr, .. } => vec![expr],
                _ => vec![],
            };
            for e in exprs {
                ast::walk_expr(e, &mut |e| match &e.kind {
                    ExprKind::Call { callee, .. } => {
                        if let Some(p) = callee.as_path() {
                            paths.push(p.join("::"));
                        }
                    }
                    ExprKind::MethodCall { method, .. } => methods.push(method.clone()),
                    _ => {}
                });
            }
        }
        assert!(paths.contains(&"g".to_string()), "{paths:?}");
        assert!(paths.contains(&"a::b::c".to_string()), "{paths:?}");
        assert!(paths.contains(&"Ok".to_string()), "{paths:?}");
        assert_eq!(methods, vec!["i", "h"]);
    }

    #[test]
    fn parses_closures_and_macros() {
        let src = r#"fn f() { let c = |a, b| a + b; run(move || c(1, 2)); println!("x {}", 3); }"#;
        let f = parse(src);
        assert_eq!(f.recovered, 0);
        let mut closures = 0;
        let mut macros = Vec::new();
        for s in &fns(&f)[0].body.stmts {
            let exprs: Vec<&Expr> = match s {
                Stmt::Let { init: Some(e), .. } => vec![e],
                Stmt::Expr { expr, .. } => vec![expr],
                _ => vec![],
            };
            for e in exprs {
                ast::walk_expr(e, &mut |e| match &e.kind {
                    ExprKind::Closure { .. } => closures += 1,
                    ExprKind::Macro { path, .. } => macros.push(path.join("::")),
                    _ => {}
                });
            }
        }
        assert_eq!(closures, 2);
        assert_eq!(macros, vec!["println"]);
    }

    #[test]
    fn struct_literal_vs_block_disambiguation() {
        // `if x { }` must not parse `x {` as a struct literal
        let src = "fn f(x: bool) { if x { g(); } let p = Point { x: 1, y: 2 }; }";
        let f = parse(src);
        assert_eq!(f.recovered, 0);
        let mut has_struct = false;
        let mut has_if = false;
        for s in &fns(&f)[0].body.stmts {
            let exprs: Vec<&Expr> = match s {
                Stmt::Let { init: Some(e), .. } => vec![e],
                Stmt::Expr { expr, .. } => vec![expr],
                _ => vec![],
            };
            for e in exprs {
                ast::walk_expr(e, &mut |e| match &e.kind {
                    ExprKind::StructLit { path, .. } => {
                        has_struct = true;
                        assert_eq!(path.join("::"), "Point");
                    }
                    ExprKind::If { .. } => has_if = true,
                    _ => {}
                });
            }
        }
        assert!(has_struct && has_if);
    }

    #[test]
    fn let_else_and_patterns() {
        let src = "fn f(o: Option<u32>) -> u32 { let Some(v) = o else { return 0; }; v }";
        let f = parse(src);
        assert_eq!(f.recovered, 0);
        let Stmt::Let {
            name,
            pat_names,
            else_block,
            ..
        } = &fns(&f)[0].body.stmts[0]
        else {
            assert!(false, "first stmt is a let");
            return;
        };
        assert!(name.is_none());
        assert_eq!(pat_names, &vec!["v".to_string()]);
        assert!(else_block.is_some());
    }

    #[test]
    fn turbofish_and_generics_do_not_derail() {
        let src =
            "fn f() { let v = Vec::<u32>::new(); let s = x.iter().collect::<Vec<_>>(); g::<A, B>(1); }";
        let f = parse(src);
        assert_eq!(f.recovered, 0, "{f:?}");
        assert_eq!(fns(&f)[0].body.stmts.len(), 3);
    }

    #[test]
    fn spans_nest_within_parents() {
        let src = "fn f(x: u32) -> u32 { if x > 1 { g(x) } else { h(x + 2) } }";
        let toks = code_tokens(&lex(src));
        let f = parse_file(&toks);
        let fi = &fns(&f)[0];
        assert_eq!(fi.span.lo, 0);
        assert_eq!(fi.span.hi, toks.len());
        for s in &fi.body.stmts {
            assert!(fi.body.span.contains(&s.span()), "{s:?}");
            if let Stmt::Expr { expr, .. } = s {
                ast::walk_expr(expr, &mut |e| {
                    for c in e.children() {
                        assert!(
                            e.span.contains(&c.span),
                            "child span {:?} outside parent {:?}",
                            c.span,
                            e.span
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn malformed_input_terminates_with_recovery() {
        // unbalanced and nonsense input must terminate, not hang or panic
        for bad in [
            "fn f( { } )",
            "fn f() { let = ; }",
            "fn f() { x.(); }",
            "impl { fn g() { } ",
            "fn f() { match x { ",
            "=> => =>",
            "fn f() { a[1 }",
        ] {
            let _ = parse(bad);
        }
    }
}
