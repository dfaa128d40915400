//! Planted-violation fixture checking, rustc-UI style.
//!
//! Each file under `crates/lint/fixtures/` plants violations and
//! marks every expected finding with a `//~ rule-id` comment on the
//! same line. The checker runs the full rule set in fixtures mode
//! (filename-prefix scoping, see [`crate::config::Config`]) and
//! demands an exact match both ways: every marker fires, and nothing
//! unmarked fires. This is what proves in CI that each rule actually
//! detects its violation class.

use std::fs;
use std::io;
use std::path::Path;

use crate::config::Config;
use crate::rules::run_all;
use crate::source::SourceFile;
use crate::walk::collect_rs_files;

/// Outcome of a fixture run.
#[derive(Debug, Default)]
pub struct FixtureReport {
    /// Expectations that matched a finding (`file:line rule`).
    pub matched: Vec<String>,
    /// Expectations with no finding.
    pub missing: Vec<String>,
    /// Findings with no expectation.
    pub unexpected: Vec<String>,
}

impl FixtureReport {
    #[must_use]
    pub fn ok(&self) -> bool {
        self.missing.is_empty() && self.unexpected.is_empty() && !self.matched.is_empty()
    }
}

/// Runs the rules over the fixture tree and reconciles findings
/// against the `//~ rule-id` markers.
pub fn check_fixtures(dir: &Path) -> io::Result<FixtureReport> {
    let mut files = Vec::new();
    let mut expectations: Vec<(String, u32, String)> = Vec::new();
    for (rel, path) in collect_rs_files(dir, &[])? {
        let src = fs::read_to_string(&path)?;
        let parsed = SourceFile::parse(&rel, &src);
        collect_expectations(&parsed, &mut expectations);
        files.push(parsed);
    }
    let findings = run_all(
        &files,
        &Config {
            fixtures_mode: true,
        },
    );

    let mut report = FixtureReport::default();
    let mut unmatched = findings.clone();
    for (file, line, rule) in expectations {
        let label = format!("{file}:{line} {rule}");
        match unmatched
            .iter()
            .position(|f| f.file == file && f.line == line && f.rule == rule)
        {
            Some(i) => {
                unmatched.remove(i);
                report.matched.push(label);
            }
            None => report.missing.push(label),
        }
    }
    report.unexpected = unmatched.iter().map(ToString::to_string).collect();
    report.matched.sort();
    report.missing.sort();
    report.unexpected.sort();
    Ok(report)
}

/// Extracts `//~ rule-id` (this line) and `//~^ rule-id` (previous
/// line) markers. Merged own-line comment blocks are split back into
/// lines so each marker keeps its own line number.
fn collect_expectations(f: &SourceFile, out: &mut Vec<(String, u32, String)>) {
    for c in &f.comments {
        for (off, text) in c.text.split('\n').enumerate() {
            let Some(mut rest) = text.trim_start().strip_prefix('~') else {
                continue;
            };
            let mut line = c.line + off as u32;
            while let Some(up) = rest.strip_prefix('^') {
                rest = up;
                line = line.saturating_sub(1);
            }
            let rule = rest.split_whitespace().next().unwrap_or("");
            if rule.is_empty() {
                continue;
            }
            out.push((f.rel_path.clone(), line, rule.to_owned()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_are_extracted_with_lines() {
        let src = "fn t() {\n    x.load(Ordering::Relaxed); //~ atomics\n}\n";
        let f = SourceFile::parse("atomics_t.rs", src);
        let mut out = Vec::new();
        collect_expectations(&f, &mut out);
        assert_eq!(
            out,
            vec![("atomics_t.rs".to_owned(), 2, "atomics".to_owned())]
        );
    }

    #[test]
    fn own_line_marker_keeps_its_line() {
        let src = "//~ lock-order\npub fn a() {}\n";
        let f = SourceFile::parse("lock_t.rs", src);
        let mut out = Vec::new();
        collect_expectations(&f, &mut out);
        assert_eq!(out[0].1, 1);
    }

    #[test]
    fn shipped_fixture_tree_reconciles_exactly() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let report = check_fixtures(&dir).unwrap();
        assert!(
            report.ok(),
            "missing: {:?}\nunexpected: {:?}",
            report.missing,
            report.unexpected
        );
    }
}
