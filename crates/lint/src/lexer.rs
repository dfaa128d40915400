//! A hand-rolled Rust lexer, just deep enough for static analysis.
//!
//! Produces a token stream (identifiers, punctuation, literals,
//! lifetimes) plus the comments, which ordinary lexers throw away but
//! this tool lives on: `// ORDERING:` justifications and the
//! fixtures' `//~` expectation markers are comment-borne.
//!
//! The lexer understands everything that can *hide* tokens from a
//! naive scanner: nested block comments, string and raw-string
//! literals (any number of `#`s), byte/char literals with escapes, and
//! the char-literal vs. lifetime ambiguity. It does not classify
//! keywords or numeric literal forms — rules match on identifier
//! spelling, which is all they need.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line the token starts on.
    pub line: u32,
    pub kind: TokKind,
}

/// Token classification; only as fine-grained as the rules require.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `Ordering`, ...).
    Ident(String),
    /// Single punctuation character; multi-char operators appear as
    /// consecutive tokens (`::` is `:`, `:`).
    Punct(char),
    /// String/char/number literal (contents irrelevant to every rule).
    Lit,
    /// `'lifetime`.
    Lifetime,
}

/// A comment, with own-line runs merged into one logical block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line of the first comment line in the block.
    pub line: u32,
    /// 1-based line the block ends on.
    pub end_line: u32,
    /// Raw text with `//`/`/*` delimiters stripped, lines joined by
    /// `\n`.
    pub text: String,
    /// `true` when code precedes the comment on its first line.
    pub trailing: bool,
}

/// Raw lex output, before [`crate::source::SourceFile`] adds the
/// per-line and scope views.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// Total line count.
    pub line_count: u32,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src`, returning tokens and merged comment blocks.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();
    // Raw per-line comments; merged into blocks at the end.
    let mut raw_comments: Vec<(u32, u32, String)> = Vec::new();
    let total_lines = src.lines().count().max(1) as u32;
    out.line_count = total_lines;
    let mut line_has_token = vec![false; total_lines as usize + 2];

    while let Some(b) = cur.peek() {
        let line = cur.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                // Line comment: capture to end of line.
                let start = cur.pos + 2;
                while cur.peek().is_some_and(|c| c != b'\n') {
                    cur.bump();
                }
                let text = String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned();
                raw_comments.push((line, line, text));
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                // Block comment, nesting per the Rust grammar.
                cur.bump();
                cur.bump();
                let start = cur.pos;
                let mut depth = 1u32;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                let end = cur.pos.saturating_sub(2).max(start);
                let text = String::from_utf8_lossy(&cur.src[start..end]).into_owned();
                raw_comments.push((line, cur.line, text));
            }
            b'r' | b'b' if starts_raw_string(&cur) => {
                skip_raw_string(&mut cur);
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Lit,
                });
                mark(&mut line_has_token, line);
            }
            b'"' => {
                skip_string(&mut cur);
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Lit,
                });
                mark(&mut line_has_token, line);
            }
            b'b' if cur.peek_at(1) == Some(b'\'') => {
                cur.bump();
                skip_char_literal(&mut cur);
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Lit,
                });
                mark(&mut line_has_token, line);
            }
            b'\'' => {
                if is_char_literal(&cur) {
                    skip_char_literal(&mut cur);
                    out.tokens.push(Token {
                        line,
                        kind: TokKind::Lit,
                    });
                } else {
                    // Lifetime: consume the quote and the identifier.
                    cur.bump();
                    while cur.peek().is_some_and(is_ident_continue) {
                        cur.bump();
                    }
                    out.tokens.push(Token {
                        line,
                        kind: TokKind::Lifetime,
                    });
                }
                mark(&mut line_has_token, line);
            }
            _ if is_ident_start(b) => {
                let start = cur.pos;
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                let text = String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned();
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Ident(text),
                });
                mark(&mut line_has_token, line);
            }
            _ if b.is_ascii_digit() => {
                // Numbers, including underscores, suffixes, exponents
                // and hex/oct/bin prefixes — swallowed as one literal.
                while cur
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
                {
                    // A `..` range operator after an integer is not
                    // part of the number.
                    if cur.peek() == Some(b'.') && cur.peek_at(1) == Some(b'.') {
                        break;
                    }
                    cur.bump();
                }
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Lit,
                });
                mark(&mut line_has_token, line);
            }
            _ => {
                cur.bump();
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Punct(b as char),
                });
                mark(&mut line_has_token, line);
            }
        }
    }

    out.comments = merge_comments(raw_comments, &line_has_token);
    out
}

fn mark(lines: &mut [bool], line: u32) {
    if let Some(slot) = lines.get_mut(line as usize) {
        *slot = true;
    }
}

/// Merges consecutive own-line `//` comments into one block, so a
/// multi-line justification counts as a single comment whose marker
/// (`ORDERING:`) may sit on any of its lines.
fn merge_comments(raw: Vec<(u32, u32, String)>, line_has_token: &[bool]) -> Vec<Comment> {
    let mut out: Vec<Comment> = Vec::new();
    for (line, end_line, text) in raw {
        let trailing = line_has_token.get(line as usize).copied().unwrap_or(false);
        if let Some(prev) = out.last_mut() {
            if !prev.trailing && !trailing && prev.end_line + 1 == line {
                prev.end_line = end_line;
                prev.text.push('\n');
                prev.text.push_str(&text);
                continue;
            }
        }
        out.push(Comment {
            line,
            end_line,
            text,
            trailing,
        });
    }
    out
}

/// `r"..."`, `r#"..."#`, `br"..."`, `rb`-style orderings excluded
/// (not valid Rust).
fn starts_raw_string(cur: &Cursor<'_>) -> bool {
    let mut off = 0;
    if cur.peek() == Some(b'b') {
        off = 1;
    }
    if cur.peek_at(off) != Some(b'r') {
        return false;
    }
    off += 1;
    while cur.peek_at(off) == Some(b'#') {
        off += 1;
    }
    cur.peek_at(off) == Some(b'"')
}

fn skip_raw_string(cur: &mut Cursor<'_>) {
    if cur.peek() == Some(b'b') {
        cur.bump();
    }
    cur.bump(); // r
    let mut hashes = 0usize;
    while cur.peek() == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            None => return,
            Some(b'"') => {
                let mut matched = 0usize;
                while matched < hashes && cur.peek() == Some(b'#') {
                    matched += 1;
                    cur.bump();
                }
                if matched == hashes {
                    return;
                }
            }
            Some(_) => {}
        }
    }
}

fn skip_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            None | Some(b'"') => return,
            Some(b'\\') => {
                cur.bump();
            }
            Some(_) => {}
        }
    }
}

/// Distinguishes `'a'` (and `'\n'`, `'\u{1F600}'`) from `'a` the
/// lifetime: a char literal's closing quote appears before any
/// non-identifier break.
fn is_char_literal(cur: &Cursor<'_>) -> bool {
    // cur is at the opening quote.
    match cur.peek_at(1) {
        Some(b'\\') => true,
        Some(c) if is_ident_start(c) => {
            // 'x' vs 'x: scan the identifier; a quote right after a
            // one-or-more-char identifier means char literal only for
            // single chars ('ab' is not valid Rust).
            let mut off = 2;
            while cur.peek_at(off).is_some_and(is_ident_continue) {
                off += 1;
            }
            cur.peek_at(off) == Some(b'\'') && off == 2
        }
        Some(_) => true, // '(' etc — punctuation chars are char literals
        None => false,
    }
}

fn skip_char_literal(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            None | Some(b'\'') => return,
            Some(b'\\') => {
                cur.bump();
            }
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
// unsafe in a comment
/* unsafe /* nested */ still comment */
let s = "unsafe { }";
let r = r#"unsafe"#;
let c = 'u';
fn real() {}
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_owned()), "{ids:?}");
        assert!(ids.contains(&"real".to_owned()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn char_escapes_do_not_derail() {
        let src = "let q = '\\''; let n = '\\n'; fn after() {}";
        assert!(idents(src).contains(&"after".to_owned()));
    }

    #[test]
    fn own_line_comment_runs_merge() {
        let src = "// SAFETY: part one\n// part two\nlet x = 1; // trailing\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[0].end_line, 2);
        assert!(lexed.comments[0].text.contains("SAFETY:"));
        assert!(!lexed.comments[0].trailing);
        assert!(lexed.comments[1].trailing);
    }
}
