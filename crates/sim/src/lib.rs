//! # ps3-sim — deterministic simulation & fault-injection harness
//!
//! FoundationDB-style simulation testing for the whole PowerSensor3
//! stack: the emulated firmware device, the serial transport, the host
//! reader with its energy accounting, the stream daemon with TCP
//! subscribers, and the archive writer all run together under seeded,
//! byte-level fault injection — and a catalogue of global invariants
//! is checked after every run.
//!
//! The contract: **every failure replays bit-exactly from
//! `(scenario, seed, plan)`**. Fault plans ([`SimPlan`]) key their
//! events to byte offsets of streams that are themselves deterministic
//! functions of the seed, so thread scheduling changes *when* bytes
//! move, never *which* bytes move. A failing seed's plan is then
//! shrunk ([`runner::shrink`]) to a minimal reproducer and written out
//! as a JSON artifact.
//!
//! ```no_run
//! use ps3_sim::{runner, Sabotage, SimPlan};
//!
//! // One deterministic run of the full pipeline under seed 7's plan:
//! let report = runner::run_one("pipeline", 7, None, Sabotage::None).unwrap();
//! assert!(report.violations.is_empty());
//!
//! // The same run again is bit-identical:
//! let again = runner::run_one("pipeline", 7, None, Sabotage::None).unwrap();
//! assert_eq!(report.fingerprint, again.fingerprint);
//!
//! // Replay an artifact's minimal reproducer:
//! let plan = SimPlan::parse("drop@4096,flip@5000:3").unwrap();
//! let _ = runner::run_one("pipeline", 7, Some(&plan), Sabotage::None);
//! ```

#![forbid(unsafe_code)]

pub mod inject;
pub mod invariant;
pub mod plan;
pub mod probes;
pub mod runner;
pub mod scenario;
pub mod world;

pub use inject::{ApplyEffects, FaultChannel, FaultInjector, FaultProxy};
pub use invariant::{Checker, Fingerprint, Violation};
pub use plan::{FaultEvent, FaultKind, PlanOptions, SimPlan};
pub use runner::{failure_json, run_one, shrink, sweep, Failure, SweepOutcome};
pub use scenario::{crash_time_us, default_options, Sabotage, ScenarioReport, SCENARIOS};
pub use world::{quiesce, sim_eeprom, sim_source, spawn_device};
