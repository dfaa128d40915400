//! The lint gate applied to the tree it ships in.
//!
//! Two promises back the CI stage: the workspace itself is clean
//! (every real finding has been fixed), and every rule demonstrably
//! fires on its planted fixture. Both are
//! asserted here so `cargo test` alone catches a regression even
//! before `ci.sh`'s lint-smoke stage runs.

use std::path::{Path, PathBuf};

use ps3_lint::config::RULE_IDS;
use ps3_lint::fixtures::check_fixtures;
use ps3_lint::run_check;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_lint_clean() {
    let findings = run_check(&workspace_root()).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "ps3-lint found {} issue(s) in the workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_rule_fires_on_its_fixture() {
    let dir = workspace_root().join("crates/lint/fixtures");
    let report = check_fixtures(&dir).expect("walk fixtures");
    assert!(
        report.missing.is_empty(),
        "planted violations not detected: {:?}",
        report.missing
    );
    assert!(
        report.unexpected.is_empty(),
        "findings without a //~ marker: {:?}",
        report.unexpected
    );
    // Coverage: every rule in the catalog must be exercised by at
    // least one planted violation, so a rule can't silently rot.
    for (rule, _) in RULE_IDS {
        assert!(
            report
                .matched
                .iter()
                .any(|m| m.ends_with(&format!(" {rule}"))),
            "no fixture exercises rule `{rule}` (matched: {:?})",
            report.matched
        );
    }
}

#[test]
fn fixture_findings_carry_exact_locations() {
    // Spot-check exact `file:line rule` triples so a lexer or
    // line-accounting regression can't shift findings around while
    // the both-ways reconciliation still happens to balance.
    let dir = workspace_root().join("crates/lint/fixtures");
    let report = check_fixtures(&dir).expect("walk fixtures");
    for expected in [
        "atomics_outside.rs:6 atomics",
        "atomics_ring_missing_ordering.rs:6 atomics",
        "lock_cycle.rs:12 lock-order",
    ] {
        assert!(
            report.matched.iter().any(|m| m == expected),
            "expected matched fixture `{expected}`, got: {:?}",
            report.matched
        );
    }
}
