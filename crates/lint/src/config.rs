//! Rule scoping: which paths each rule class applies to.
//!
//! Scopes are path-based and project-specific (this is a workspace
//! lint, not a general-purpose one). In fixtures mode the same rules
//! run over `crates/lint/fixtures/`, scoped by filename prefix so one
//! directory can exercise in-scope and out-of-scope behaviour.

/// All rule ids, for `list-rules` and allow-directive validation.
pub const RULE_IDS: &[(&str, &str)] = &[
    (
        "determinism",
        "wall-clock (Instant::now / SystemTime::now / thread::sleep) forbidden in sim-deterministic code",
    ),
    (
        "unsafe-safety",
        "every `unsafe` block/fn/impl must be covered by a `// SAFETY:` comment",
    ),
    (
        "forbid-unsafe",
        "crates whose src tree has zero `unsafe` must declare `#![forbid(unsafe_code)]` in lib.rs",
    ),
    (
        "atomics",
        "weak atomic orderings (Relaxed/Acquire/Release/AcqRel) only in approved modules, each site with an `// ORDERING:` comment",
    ),
    (
        "lock-order",
        "nested lock acquisitions must not form a cycle across stream / fleet / compat-rayon",
    ),
    (
        "panic-path",
        "unwrap / expect / panic! forbidden in daemon, subscriber and rig-supervision hot paths",
    ),
    (
        "allow-syntax",
        "`// ps3-lint: allow(...)` directives must parse and carry a non-empty reason",
    ),
    (
        "blocking-io",
        "blocking socket calls and thread spawns forbidden in event-loop modules (readiness-driven non-blocking I/O only)",
    ),
];

#[must_use]
pub fn known_rule(id: &str) -> bool {
    RULE_IDS.iter().any(|(r, _)| *r == id)
}

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

    /// Files where wall-clock calls are forbidden (sim-deterministic
    /// paths: the sim harness, archive codec/query/writer layers, the
    /// tsdb query engine and compactor, bench experiment bodies, and
    /// the modeled probe/DUT layers whose outputs must be pure
    /// functions of virtual time).
    #[must_use]
    pub fn determinism_scope(&self, rel: &str) -> bool {
        if self.fixtures_mode {
            return Self::stem(rel).starts_with("det_");
        }
        if self.determinism_exempt(rel) {
            return false;
        }
        rel.starts_with("crates/sim/src/")
            || rel.starts_with("crates/archive/src/")
            || rel.starts_with("crates/tsdb/src/")
            || rel.starts_with("crates/bench/src/")
            || rel.starts_with("crates/pmt/src/")
            || rel.starts_with("crates/duts/src/")
    }

    /// Modules exempt from the determinism rule by design:
    /// fault injection models transport stalls with real sleeps.
    fn determinism_exempt(&self, rel: &str) -> bool {
        rel == "crates/sim/src/inject.rs"
    }

    /// Long-running server code: daemon accept/subscriber loops, fleet
    /// rig supervision, and the background compactor that runs on the
    /// archive writer's maintenance thread. Panics here kill service
    /// threads.
    #[must_use]
    pub fn panic_scope(&self, rel: &str) -> bool {
        if self.fixtures_mode {
            return Self::stem(rel).starts_with("panic_");
        }
        matches!(
            rel,
            "crates/stream/src/daemon.rs"
                | "crates/stream/src/ring.rs"
                | "crates/stream/src/net.rs"
                | "crates/stream/src/event_loop.rs"
                | "crates/fleet/src/coordinator.rs"
                | "crates/fleet/src/rig.rs"
                | "crates/fleet/src/serve.rs"
                | "crates/tsdb/src/compactor.rs"
                | "crates/tsdb/src/writer.rs"
        )
    }

    /// Event-loop modules: everything here runs on the single
    /// readiness-driven thread, so blocking socket calls and
    /// per-connection thread spawns are design violations.
    #[must_use]
    pub fn blocking_io_scope(&self, rel: &str) -> bool {
        if self.fixtures_mode {
            return Self::stem(rel).starts_with("blockio_");
        }
        matches!(
            rel,
            "crates/stream/src/event_loop.rs" | "crates/fleet/src/serve.rs"
        )
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

    /// `true` for a crate's lib root (`src/lib.rs`), where
    /// `#![forbid(unsafe_code)]` must live.
    #[must_use]
    pub fn is_crate_root(&self, rel: &str) -> bool {
        rel == "src/lib.rs" || rel.ends_with("/src/lib.rs")
    }

    /// Key grouping a file with the crate src tree it belongs to, or
    /// `None` when the file is not part of a lib target (tests,
    /// examples, benches, bins are separate compilation units and do
    /// not affect the lib's `forbid(unsafe_code)` obligation).
    #[must_use]
    pub fn crate_src_key<'a>(&self, rel: &'a str) -> Option<&'a str> {
        let idx = if rel.starts_with("src/") {
            0
        } else {
            rel.find("/src/").map(|i| i + 1)?
        };
        Some(&rel[..idx + "src/".len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_scopes() {
        let c = Config::default();
        assert!(c.determinism_scope("crates/sim/src/world.rs"));
        assert!(!c.determinism_scope("crates/sim/src/inject.rs"));
        assert!(!c.determinism_scope("crates/stream/src/daemon.rs"));
        assert!(c.panic_scope("crates/stream/src/daemon.rs"));
        assert!(!c.panic_scope("crates/bench/src/driver.rs"));
        assert!(c.determinism_scope("crates/tsdb/src/query.rs"));
        assert!(c.determinism_scope("crates/pmt/src/probe/counter.rs"));
        assert!(c.determinism_scope("crates/duts/src/cpu.rs"));
        assert!(!c.determinism_scope("crates/testbed/src/lib.rs"));
        assert!(c.panic_scope("crates/tsdb/src/compactor.rs"));
        assert!(c.panic_scope("crates/tsdb/src/writer.rs"));
        assert!(!c.panic_scope("crates/tsdb/src/pyramid.rs"));
        assert!(c.approved_atomics_module("crates/stream/src/ring.rs"));
        assert!(!c.approved_atomics_module("compat/rayon/src/lib.rs"));
        assert!(!c.approved_atomics_module("crates/sim/src/scenario.rs"));
        assert!(c.lock_order_scope("crates/fleet/src/coordinator.rs"));
        assert!(c.panic_scope("crates/stream/src/event_loop.rs"));
        assert!(c.blocking_io_scope("crates/stream/src/event_loop.rs"));
        assert!(c.blocking_io_scope("crates/fleet/src/serve.rs"));
        assert!(!c.blocking_io_scope("crates/stream/src/daemon.rs"));
        assert!(c.is_crate_root("crates/core/src/lib.rs"));
        assert!(c.is_crate_root("src/lib.rs"));
        assert!(!c.is_crate_root("crates/core/src/sample.rs"));
    }

    #[test]
    fn fixture_prefix_scopes() {
        let c = Config {
            fixtures_mode: true,
        };
        assert!(c.determinism_scope("det_sim_clock.rs"));
        assert!(!c.determinism_scope("panic_loop.rs"));
        assert!(c.panic_scope("panic_loop.rs"));
        assert!(c.approved_atomics_module("atomics_ring_missing_ordering.rs"));
        assert!(!c.approved_atomics_module("atomics_outside.rs"));
        assert!(c.lock_order_scope("lock_cycle_a.rs"));
        assert!(c.blocking_io_scope("blockio_event_loop.rs"));
        assert!(!c.blocking_io_scope("panic_loop.rs"));
        assert!(c.is_crate_root("forbidcrate/src/lib.rs"));
    }

    #[test]
    fn crate_grouping() {
        let c = Config::default();
        assert_eq!(
            c.crate_src_key("crates/stream/src/net.rs"),
            Some("crates/stream/src/")
        );
        assert_eq!(c.crate_src_key("src/lib.rs"), Some("src/"));
        assert_eq!(c.crate_src_key("crates/stream/tests/it.rs"), None);
        assert_eq!(c.crate_src_key("tests/roundtrip.rs"), None);
    }

    #[test]
    fn rule_ids_known() {
        assert!(known_rule("determinism"));
        assert!(known_rule("lock-order"));
        assert!(!known_rule("no-such-rule"));
    }
}
