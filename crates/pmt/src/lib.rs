//! The modeled RAPL probe family: what reading a CPU package's energy
//! counter costs the package being measured.
//!
//! [`probe`] models four access paths to a package energy counter
//! (powercap-sysfs, MSR, perf-event, eBPF) plus the PS3-external
//! baseline as one [`Probe`] type parameterised by [`ProbeKind`]. Each
//! path has its own read cost, update resolution and counter width,
//! and charges its measurement overhead to the
//! [`ps3_duts::CpuModel`] it measures — the substrate of the
//! `overhead` bench experiment and the `probes` sim scenario.

#![forbid(unsafe_code)]

pub mod probe;

pub use probe::{unwrap_delta, EnergySession, Probe, ProbeKind, ProbeSpec, SharedCpu};
