//! Rule scoping: which paths each rule class applies to.
//!
//! Scopes are path-based and project-specific (this is a workspace
//! lint, not a general-purpose one). In fixtures mode the same rules
//! run over `crates/lint/fixtures/`, scoped by filename prefix so one
//! directory can exercise in-scope and out-of-scope behaviour.

/// All rule ids, for `list-rules`.
pub const RULE_IDS: &[(&str, &str)] = &[
    (
        "atomics",
        "weak atomic orderings (Relaxed/Acquire/Release/AcqRel) only in approved modules, each site with an `// ORDERING:` comment",
    ),
    (
        "lock-order",
        "nested lock acquisitions must not form a cycle across stream / fleet / compat-rayon",
    ),
];

/// Scoping configuration for one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Config {
    /// Scanning the planted-violation fixture tree: scope by filename
    /// prefix instead of workspace paths.
    pub fixtures_mode: bool,
}

impl Config {
    fn stem(rel: &str) -> &str {
        rel.rsplit('/').next().unwrap_or(rel)
    }

    /// Modules allowed to use weak atomic orderings (each site still
    /// needs an `// ORDERING:` justification).
    #[must_use]
    pub fn approved_atomics_module(&self, rel: &str) -> bool {
        if self.fixtures_mode {
            return Self::stem(rel).starts_with("atomics_ring");
        }
        matches!(
            rel,
            "crates/stream/src/ring.rs" | "crates/archive/src/writer.rs"
        )
    }

    /// Crates whose lock graphs are analysed for ordering cycles.
    #[must_use]
    pub fn lock_order_scope(&self, rel: &str) -> bool {
        if self.fixtures_mode {
            return Self::stem(rel).starts_with("lock_");
        }
        rel.starts_with("crates/stream/src/")
            || rel.starts_with("crates/fleet/src/")
            || rel.starts_with("compat/rayon/src/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_scopes() {
        let c = Config::default();
        assert!(c.approved_atomics_module("crates/stream/src/ring.rs"));
        assert!(c.approved_atomics_module("crates/archive/src/writer.rs"));
        assert!(!c.approved_atomics_module("compat/rayon/src/lib.rs"));
        assert!(!c.approved_atomics_module("crates/sim/src/scenario.rs"));
        assert!(c.lock_order_scope("crates/fleet/src/coordinator.rs"));
        assert!(c.lock_order_scope("compat/rayon/src/lib.rs"));
        assert!(!c.lock_order_scope("crates/sim/src/world.rs"));
    }

    #[test]
    fn fixture_prefix_scopes() {
        let c = Config {
            fixtures_mode: true,
        };
        assert!(c.approved_atomics_module("atomics_ring_missing_ordering.rs"));
        assert!(!c.approved_atomics_module("atomics_outside.rs"));
        assert!(c.lock_order_scope("lock_cycle_a.rs"));
        assert!(!c.lock_order_scope("atomics_outside.rs"));
    }
}
