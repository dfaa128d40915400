//! ps3-lint: the workspace checks the compiler cannot make.
//!
//! rustc and clippy enforce the project's unsafe, wall-clock,
//! panic-path and blocking-I/O conventions (see DESIGN.md § "Static
//! analysis"). Two invariants are left that no lint expresses: a weak
//! atomic ordering needs an approved module and an `// ORDERING:`
//! comment at the site, and nested lock acquisitions must not form a
//! cycle across files. A hand-rolled lexer (std only, same vendoring
//! playbook as `compat/`) feeds those two rules, with JSON output for
//! CI.
//!
//! See DESIGN.md § "Static analysis" for the rule catalog and how to
//! add a rule.

#![forbid(unsafe_code)]

pub mod config;
pub mod findings;
pub mod fixtures;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use config::Config;
use findings::Finding;
use source::SourceFile;

/// Subtrees excluded from the real check: build outputs and the
/// planted-violation fixtures (checked separately, in fixtures mode).
pub const CHECK_SKIP_PREFIXES: &[&str] = &["crates/lint/fixtures/"];

/// Runs every rule over the workspace rooted at `root` and returns
/// the findings (empty = clean).
pub fn run_check(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for (rel, path) in walk::collect_rs_files(root, CHECK_SKIP_PREFIXES)? {
        let src = fs::read_to_string(&path)?;
        files.push(SourceFile::parse(&rel, &src));
    }
    Ok(rules::run_all(&files, &Config::default()))
}
