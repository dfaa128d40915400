//! Per-file analysis model: lexed tokens plus the derived views every
//! rule needs — test-code regions and comment look-ups for
//! `// ORDERING:` justifications.

use crate::lexer::{lex, Comment, TokKind, Token};

/// How far above a site a justification comment (`ORDERING:`) may
/// end and still cover it. Generous enough for a `let x =` line
/// between the comment and the keyword.
const JUSTIFY_REACH_LINES: u32 = 3;

/// One source file, lexed and indexed for the rules.
pub struct SourceFile {
    /// Path relative to the scanned root, `/`-separated.
    pub rel_path: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// 1-based: line is test code (`#[cfg(test)]` module, or the whole
    /// file when under a `tests/`, `benches/` or `examples/` tree).
    pub test_lines: Vec<bool>,
}

impl SourceFile {
    /// Lexes and indexes `src` as `rel_path`.
    #[must_use]
    pub fn parse(rel_path: &str, src: &str) -> Self {
        let lexed = lex(src);
        let whole_file_test = is_test_path(rel_path);
        let mut test_lines = vec![whole_file_test; lexed.line_count as usize + 2];
        if !whole_file_test {
            mark_cfg_test_regions(&lexed.tokens, &mut test_lines);
        }
        Self {
            rel_path: rel_path.to_owned(),
            tokens: lexed.tokens,
            comments: lexed.comments,
            test_lines,
        }
    }

    /// `true` when `line` is inside test code.
    #[must_use]
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// `true` when a justification comment covers the site at `line`:
    /// trailing on the same line, or an own-line block ending within
    /// [`JUSTIFY_REACH_LINES`] above it. To count, a comment line must
    /// *start* with `marker` — prose that merely mentions `ORDERING:`
    /// does not justify anything.
    #[must_use]
    pub fn has_justification(&self, marker: &str, line: u32) -> bool {
        self.comments.iter().any(|c| {
            (c.line == line || (c.end_line < line && line - c.end_line <= JUSTIFY_REACH_LINES))
                && c.text
                    .split('\n')
                    .any(|l| l.trim_start().starts_with(marker))
        })
    }

    /// Convenience for rules: identifier text at token index `i`.
    #[must_use]
    pub fn ident_at(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => Some(s),
            _ => None,
        }
    }

    /// Convenience for rules: `true` when token `i` is punct `c`.
    #[must_use]
    pub fn punct_at(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
    }
}

/// Whole-file test scope: integration tests, benches, examples.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

/// Marks every line of `#[cfg(test)] mod ... { ... }` regions (and
/// `#[cfg(test)]`-gated items generally) as test code.
fn mark_cfg_test_regions(tokens: &[Token], test_lines: &mut [bool]) {
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Find the start of the gated item's body: the first `{`
            // after the attribute (skipping further attributes), then
            // mark through its matching `}`.
            let mut j = skip_attr(tokens, i);
            while is_attr_start(tokens, j) {
                j = skip_attr(tokens, j);
            }
            let Some(open) = (j..tokens.len()).find(|&k| punct(tokens, k, '{')) else {
                return;
            };
            let close = match_brace(tokens, open);
            let start_line = tokens[i].line;
            let end_line = tokens.get(close).map_or(u32::MAX, |t| t.line);
            for t in tokens {
                if t.line >= start_line && t.line <= end_line {
                    if let Some(slot) = test_lines.get_mut(t.line as usize) {
                        *slot = true;
                    }
                }
            }
            i = close;
        }
        i += 1;
    }
}

fn punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

fn ident(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

fn is_attr_start(tokens: &[Token], i: usize) -> bool {
    punct(tokens, i, '#') && punct(tokens, i + 1, '[')
}

/// `#[cfg(...)]` whose argument list mentions `test`.
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    if !is_attr_start(tokens, i) || ident(tokens, i + 2) != Some("cfg") {
        return false;
    }
    let end = skip_attr(tokens, i);
    tokens[i..end.min(tokens.len())]
        .iter()
        .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "test"))
}

/// Returns the index just past a `#[...]` attribute starting at `i`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    debug_assert!(is_attr_start(tokens, i));
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < tokens.len() {
        if punct(tokens, j, '[') {
            depth += 1;
        } else if punct(tokens, j, ']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Index of the `}` matching the `{` at `open` (or the last token).
#[must_use]
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if punct(tokens, j, '{') {
            depth += 1;
        } else if punct(tokens, j, '}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_lines_are_test_scope() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn integration_test_paths_are_entirely_test_scope() {
        let f = SourceFile::parse("crates/x/tests/it.rs", "fn a() {}\n");
        assert!(f.is_test_line(1));
    }

    #[test]
    fn justification_reaches_over_a_let_line() {
        let src = "// ORDERING: pairs with the Release\n// store in publish().\nlet seq =\n    s.load(Ordering::Acquire);\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.has_justification("ORDERING:", 4));
        assert!(!f.has_justification("SAFETY:", 4));
    }
}
