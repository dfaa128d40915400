//! PMT — a Power Measurement Toolkit abstraction (§V-A1).
//!
//! The paper's PMT library offers one interface over many power
//! sources: vendor APIs (NVML, ROCm/AMD SMI, RAPL) and PowerSensor3.
//! This crate reproduces that layering:
//!
//! * [`PowerMeter`] — the unified interface: name, native update
//!   interval, and an instantaneous power reading at a simulated time.
//! * [`Ps3Meter`] — backed by a connected
//!   [`ps3_core::PowerSensor`] (20 kHz).
//! * [`OnboardMeter`] — adapts any
//!   [`ps3_duts::OnboardSensor`] (NVML at 10 Hz, AMD
//!   SMI at 1 kHz, the Jetson module sensor).
//! * [`Monitor`] — polls any meter on a fixed grid and produces a
//!   [`ps3_analysis::Trace`], the common format all figure
//!   harnesses consume.
//! * [`probe`] — the RAPL probe *family*: four modeled access paths
//!   (powercap-sysfs, MSR, perf-event, eBPF) plus the PS3-external
//!   baseline behind one [`Probe`] trait, each with its own read
//!   cost, update resolution and counter width, and each charging its
//!   measurement overhead to the [`ps3_duts::CpuModel`] it measures —
//!   the substrate of the `overhead` bench experiment and the
//!   `probes` sim scenario.

#![forbid(unsafe_code)]

mod meter;
pub mod probe;

pub use meter::{Monitor, OnboardMeter, PowerMeter, Ps3Meter};
pub use probe::{
    build as build_probe, unwrap_delta, EnergySession, Probe, ProbeKind, ProbeSpec, SharedCpu,
};
