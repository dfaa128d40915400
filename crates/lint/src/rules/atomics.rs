//! atomics: weak atomic orderings (`Relaxed` / `Acquire` / `Release`
//! / `AcqRel`) are only allowed in the approved lock-free modules
//! (seqlock ring, archive writer counters), and every
//! such site needs an `// ORDERING:` comment explaining why the
//! weaker ordering is sound. `SeqCst` is always fine.

use crate::config::Config;
use crate::findings::Finding;
use crate::source::SourceFile;

const RULE: &str = "atomics";

const WEAK_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

pub fn check(f: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    let approved = cfg.approved_atomics_module(&f.rel_path);
    for i in 0..f.tokens.len() {
        let Some(ord) = weak_ordering(f, i) else {
            continue;
        };
        let line = f.tokens[i].line;
        if f.is_test_line(line) || f.is_allowed(RULE, line) {
            continue;
        }
        if !approved {
            out.push(Finding::new(
                &f.rel_path,
                line,
                RULE,
                format!("weak atomic ordering `Ordering::{ord}` outside the approved lock-free modules (use SeqCst or move the code into an approved module)"),
            ));
        } else if !f.has_justification("ORDERING:", line) {
            out.push(Finding::new(
                &f.rel_path,
                line,
                RULE,
                format!("`Ordering::{ord}` without an `// ORDERING:` justification comment"),
            ));
        }
    }
}

/// Matches `Ordering :: <weak>` with the finding anchored at the
/// `Ordering` token.
fn weak_ordering(f: &SourceFile, i: usize) -> Option<&str> {
    if f.ident_at(i)? != "Ordering" || !(f.punct_at(i + 1, ':') && f.punct_at(i + 2, ':')) {
        return None;
    }
    let ord = f.ident_at(i + 3)?;
    WEAK_ORDERINGS.contains(&ord).then_some(ord)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(rel, src);
        let mut out = Vec::new();
        check(&f, &Config::default(), &mut out);
        out
    }

    #[test]
    fn weak_ordering_outside_approved_module_fires() {
        let out = run(
            "crates/sim/src/scenario.rs",
            "fn t() { x.load(Ordering::Relaxed); }\n",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("outside the approved"));
    }

    #[test]
    fn seqcst_is_always_fine() {
        assert!(run(
            "crates/sim/src/scenario.rs",
            "fn t() { x.load(Ordering::SeqCst); }\n"
        )
        .is_empty());
    }

    #[test]
    fn approved_module_requires_ordering_comment() {
        let bare = "fn t() { x.load(Ordering::Acquire); }\n";
        let out = run("crates/stream/src/ring.rs", bare);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("ORDERING:"));

        let justified = "fn t() {\n    // ORDERING: pairs with the Release store in publish().\n    x.load(Ordering::Acquire);\n}\n";
        assert!(run("crates/stream/src/ring.rs", justified).is_empty());
    }

    #[test]
    fn trailing_ordering_comment_counts() {
        let src = "fn t() { x.load(Ordering::Acquire); } // ORDERING: pairs with store\n";
        assert!(run("crates/stream/src/ring.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.load(Ordering::Relaxed); }\n}\n";
        assert!(run("crates/sim/src/scenario.rs", src).is_empty());
    }
}
