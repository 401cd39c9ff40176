//! A hand-rolled Rust lexer — just enough token structure for the lint
//! rules, with none of `syn`'s weight (or its dependency tree, which the
//! offline build cannot fetch).
//!
//! The lexer's one hard job is *never misclassifying regions*: rules must
//! not fire inside comments or string literals, and must fire on code that
//! merely sits near them. That means handling the awkward corners for
//! real: nested block comments, raw strings with arbitrary `#` fences,
//! byte strings, and the lifetime-vs-char-literal ambiguity after `'`.
//!
//! Everything else is kept deliberately coarse — keywords are just
//! [`TokenKind::Ident`] tokens, and multi-character operators are fused
//! only for the handful the rules inspect (`==`, `!=`, `::`, `->`, …).

/// The coarse classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Lifetime such as `'a` (including `'static`).
    Lifetime,
    /// Character or byte literal: `'x'`, `b'\n'`.
    Char,
    /// String literal of any flavour: `"…"`, `r#"…"#`, `b"…"`.
    Str,
    /// Numeric literal, suffix included: `1_000`, `0x1F`, `1.5e-3f64`.
    Num,
    /// `// …` comment that is not a doc comment.
    LineComment,
    /// `/// …`, `//! …`, `/** … */` or `/*! … */` doc comment.
    DocComment,
    /// `/* … */` comment (nesting handled) that is not a doc comment.
    BlockComment,
    /// Punctuation; multi-character operators are fused (`==`, `::`, …).
    Punct,
}

/// One lexed token with its 1-based starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Exact source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    fn new(kind: TokenKind, text: &str, line: usize) -> Self {
        Token {
            kind,
            text: text.to_string(),
            line,
        }
    }

    /// True for line, block and doc comments: everything the parser and
    /// the token rules skip, and the only place suppressions live.
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment | TokenKind::BlockComment | TokenKind::DocComment
        )
    }
}

/// Multi-character operators the rules care about, longest first so the
/// greedy match is unambiguous.
const OPERATORS: [&str; 21] = [
    "..=", "...", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "::", "..", "+=",
    "-=", "*=", "/=", "<<", ">>", "|=",
];

/// Lexes `src` into a token stream. Unterminated literals and comments are
/// tolerated (the token simply runs to end of input) — the checker must
/// degrade gracefully on code that `rustc` would reject, since it may run
/// before the compiler does.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;

    // Counts newlines in b[from..to] into `line`.
    fn advance_lines(b: &[u8], from: usize, to: usize, line: &mut usize) {
        *line += b[from..to].iter().filter(|&&c| c == b'\n').count();
    }

    while i < b.len() {
        let c = b[i];
        let start = i;
        let start_line = line;

        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }

        // comments
        if c == b'/' && i + 1 < b.len() {
            if b[i + 1] == b'/' {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                let is_doc = (text.starts_with("///") && !text.starts_with("////"))
                    || text.starts_with("//!");
                let kind = if is_doc {
                    TokenKind::DocComment
                } else {
                    TokenKind::LineComment
                };
                tokens.push(Token::new(kind, text, start_line));
                continue;
            }
            if b[i + 1] == b'*' {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if i + 1 < b.len() && b[i] == b'/' && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < b.len() && b[i] == b'*' && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let is_doc =
                    (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
                        || text.starts_with("/*!");
                let kind = if is_doc {
                    TokenKind::DocComment
                } else {
                    TokenKind::BlockComment
                };
                advance_lines(b, start, i, &mut line);
                tokens.push(Token::new(kind, text, start_line));
                continue;
            }
        }

        // raw / byte string prefixes: r", r#…#", br", b", and b'…'
        if c == b'r' || c == b'b' {
            let mut j = i;
            let mut is_raw = false;
            if b[j] == b'b'
                && j + 1 < b.len()
                && (b[j + 1] == b'r' || b[j + 1] == b'"' || b[j + 1] == b'\'')
            {
                if b[j + 1] == b'r' {
                    is_raw = true;
                    j += 2;
                } else {
                    j += 1;
                }
            } else if b[j] == b'r' && j + 1 < b.len() && (b[j + 1] == b'"' || b[j + 1] == b'#') {
                is_raw = true;
                j += 1;
            } else {
                j = i; // plain identifier starting with r/b
            }
            if j > i {
                if is_raw {
                    // count fence hashes
                    let mut hashes = 0;
                    while j < b.len() && b[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'"' {
                        j += 1;
                        // scan to closing quote + matching hashes
                        'scan: while j < b.len() {
                            if b[j] == b'"' {
                                let mut k = 0;
                                while k < hashes && j + 1 + k < b.len() && b[j + 1 + k] == b'#' {
                                    k += 1;
                                }
                                if k == hashes {
                                    j += 1 + hashes;
                                    break 'scan;
                                }
                            }
                            j += 1;
                        }
                        advance_lines(b, start, j, &mut line);
                        tokens.push(Token::new(TokenKind::Str, &src[start..j], start_line));
                        i = j;
                        continue;
                    }
                    // `r#ident` raw identifier, or stray `r#` — fall through
                    // to identifier lexing below.
                } else if b[j - 1] == b'"' || b[j] == b'"' || b[j] == b'\'' {
                    // b"…" or b'…' — rewind to the quote and use the normal
                    // string/char scanners with the prefix attached
                    let quote_at = if b[j] == b'"' || b[j] == b'\'' {
                        j
                    } else {
                        j - 1
                    };
                    let quote = b[quote_at];
                    let mut k = quote_at + 1;
                    while k < b.len() {
                        if b[k] == b'\\' {
                            k += 2;
                        } else if b[k] == quote {
                            k += 1;
                            break;
                        } else {
                            k += 1;
                        }
                    }
                    advance_lines(b, start, k, &mut line);
                    let kind = if quote == b'"' {
                        TokenKind::Str
                    } else {
                        TokenKind::Char
                    };
                    tokens.push(Token::new(kind, &src[start..k], start_line));
                    i = k;
                    continue;
                }
            }
        }

        // plain string
        if c == b'"' {
            let mut j = i + 1;
            while j < b.len() {
                if b[j] == b'\\' {
                    j += 2;
                } else if b[j] == b'"' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            advance_lines(b, start, j.min(b.len()), &mut line);
            tokens.push(Token::new(
                TokenKind::Str,
                &src[start..j.min(b.len())],
                start_line,
            ));
            i = j;
            continue;
        }

        // lifetime vs char literal
        if c == b'\'' {
            // lifetime: 'ident NOT followed by a closing quote ('a' is a char)
            let is_lifetime =
                i + 1 < b.len() && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_') && {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    !(j < b.len() && b[j] == b'\'')
                };
            if is_lifetime {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                tokens.push(Token::new(TokenKind::Lifetime, &src[start..j], start_line));
                i = j;
                continue;
            }
            // char literal with escapes: '\'' '\\' '\x41' '\u{1F600}' 'q'
            let mut j = i + 1;
            while j < b.len() {
                if b[j] == b'\\' {
                    j += 2;
                } else if b[j] == b'\'' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            advance_lines(b, start, j.min(b.len()), &mut line);
            tokens.push(Token::new(
                TokenKind::Char,
                &src[start..j.min(b.len())],
                start_line,
            ));
            i = j;
            continue;
        }

        // number: decimal/hex/octal/binary, underscores, `.` fraction,
        // exponent, and type suffix all folded into one token
        if c.is_ascii_digit() {
            let mut j = i + 1;
            let hex = c == b'0' && j < b.len() && (b[j] | 0x20) == b'x';
            while j < b.len() {
                let d = b[j];
                if d.is_ascii_alphanumeric() || d == b'_' {
                    // exponent sign: 1e-3 / 1E+5 (not for hex)
                    if !hex
                        && (d | 0x20) == b'e'
                        && j + 1 < b.len()
                        && (b[j + 1] == b'+' || b[j + 1] == b'-')
                    {
                        j += 2;
                        continue;
                    }
                    j += 1;
                } else if d == b'.' && !hex {
                    // fraction only if followed by a digit (`1..n` is a range,
                    // `1.` at expression end is rare and safe to fold)
                    if j + 1 < b.len() && b[j + 1] == b'.' {
                        break;
                    }
                    j += 1;
                } else {
                    break;
                }
            }
            tokens.push(Token::new(TokenKind::Num, &src[start..j], start_line));
            i = j;
            continue;
        }

        // identifier / keyword
        if c.is_ascii_alphabetic() || c == b'_' {
            let mut j = i + 1;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            tokens.push(Token::new(TokenKind::Ident, &src[start..j], start_line));
            i = j;
            continue;
        }

        // fused operators, longest first
        let rest = &src[i..];
        if let Some(op) = OPERATORS.iter().find(|op| rest.starts_with(**op)) {
            tokens.push(Token::new(TokenKind::Punct, op, start_line));
            i += op.len();
            continue;
        }

        // single punctuation (covers non-ASCII bytes too, one char at a time)
        let ch_len = src[i..].chars().next().map(char::len_utf8).unwrap_or(1);
        tokens.push(Token::new(
            TokenKind::Punct,
            &src[i..i + ch_len],
            start_line,
        ));
        i += ch_len;
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn nested_block_comments_are_one_token() {
        let t = kinds("a /* outer /* inner */ still */ b");
        assert_eq!(t.len(), 3);
        assert_eq!(t[1].0, TokenKind::BlockComment);
        assert_eq!(t[0].1, "a");
        assert_eq!(t[2].1, "b");
    }

    #[test]
    fn doc_comments_are_distinguished() {
        let t = kinds(
            "/// doc\n//! inner\n// plain\n//// not doc\n/** block */\n/*! inner */\n/* p */",
        );
        let expect = [
            TokenKind::DocComment,
            TokenKind::DocComment,
            TokenKind::LineComment,
            TokenKind::LineComment,
            TokenKind::DocComment,
            TokenKind::DocComment,
            TokenKind::BlockComment,
        ];
        assert_eq!(t.iter().map(|x| x.0).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        // a raw string containing what would otherwise be a comment + unwrap
        let t = kinds(r####"let s = r#"// .unwrap() /* "# ; x"####);
        assert!(t
            .iter()
            .any(|x| x.0 == TokenKind::Str && x.1.contains("unwrap")));
        assert!(!t.iter().any(|x| x.1 == "unwrap"));
        // fences with more hashes
        let t = kinds("r##\"quote \"# inside\"## y");
        assert_eq!(t[0].0, TokenKind::Str);
        assert_eq!(t[1].1, "y");
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let t = kinds("&'a str; 'x'; '\\''; b'z'; 'static");
        let lifetimes: Vec<_> = t.iter().filter(|x| x.0 == TokenKind::Lifetime).collect();
        let chars: Vec<_> = t.iter().filter(|x| x.0 == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "{t:?}");
        assert_eq!(lifetimes[0].1, "'a");
        assert_eq!(lifetimes[1].1, "'static");
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0].1, "'x'");
        assert_eq!(chars[1].1, "'\\''");
        assert_eq!(chars[2].1, "b'z'");
    }

    #[test]
    fn numbers_fold_fraction_exponent_suffix() {
        let t = kinds("1.5e-3f64 0x1F 1_000 1..3 2.");
        assert_eq!(t[0].1, "1.5e-3f64");
        assert_eq!(t[1].1, "0x1F");
        assert_eq!(t[2].1, "1_000");
        assert_eq!(t[3].1, "1");
        assert_eq!(t[4].1, "..");
        assert_eq!(t[5].1, "3");
    }

    #[test]
    fn operators_fuse() {
        let t = kinds("a == b != c :: d -> e .. f");
        let puncts: Vec<_> = t
            .iter()
            .filter(|x| x.0 == TokenKind::Punct)
            .map(|x| x.1.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "->", ".."]);
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb \"str\nacross\" c";
        let t = lex(src);
        let find = |s: &str| t.iter().find(|x| x.text == s).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("c"), 5);
    }

    #[test]
    fn strings_with_escapes_terminate_correctly() {
        let t = kinds(r#"let a = "q\"uote"; b"#);
        assert!(t
            .iter()
            .any(|x| x.0 == TokenKind::Str && x.1.contains("uote")));
        assert_eq!(t.last().unwrap().1, "b");
    }
}
