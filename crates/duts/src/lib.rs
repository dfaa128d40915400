//! Device-under-test (DUT) power models.
//!
//! The paper's evaluation measures four classes of devices; this crate
//! models each of them as a [`Dut`]: a stateful object that reports the
//! voltage and current on each of its power rails at any simulated
//! instant. The testbed wires these rails through sensor modules into
//! the emulated PowerSensor3.
//!
//! * [`BenchSetup`] — the accuracy-assessment bench of Fig 3: a lab
//!   PSU ([`LabPsu`]) plus a programmable electronic load
//!   ([`ElectronicLoad`]) with square-wave modulation for the step
//!   response (Fig 5) and current sweeps (Fig 4).
//! * [`GpuModel`] — a PCIe GPU with a DVFS boost governor; NVIDIA-like
//!   and AMD-like profiles reproduce the Fig 7 power signatures
//!   (clock ramp, inter-wave dips, power-limit capping, idle decay).
//!   [`NvmlSensor`] / [`AmdSmiSensor`] model the on-board counterparts.
//! * [`JetsonModel`] — an AGX-Orin-like SoC on a USB-C rail whose
//!   built-in sensor ([`JetsonBuiltinSensor`]) sees only the module,
//!   not the carrier board (§V-B).
//! * [`SsdModel`] — an NVMe SSD with an FTL (SLC cache, greedy garbage
//!   collection, write amplification) behind a PCIe slot, driven by a
//!   fio-like workload ([`FioJob`]); reproduces Fig 12.
//! * [`NicModel`] — a network adapter whose power scales with both
//!   throughput and packet rate (§VI extendibility demo).
//! * [`CpuModel`] — a CPU package running a phase-marked
//!   [`CpuWorkload`], with exact accounting of the cycles on-CPU
//!   measurement probes steal from it (the Diamond et al. overhead
//!   study's subject; see `ps3-pmt`'s probe family).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod bench_load;
mod cpu;
pub mod ftl;
mod gpu;
mod jetson;
mod nic;
mod onboard;
mod rail;
mod ssd;

pub use bench_load::{BenchSetup, ElectronicLoad, LabPsu, LoadProgram};
pub use cpu::{CpuModel, CpuPhase, CpuSpec, CpuWorkload, ENERGY_HISTORY};
pub use gpu::{GpuHandle, GpuKernel, GpuModel, GpuSpec, GpuVendor};
pub use jetson::{JetsonBuiltinSensor, JetsonModel, JetsonSpec};
pub use nic::{NicModel, NicSpec, TrafficLoad};
pub use onboard::{AmdSmiSensor, NvmlSensor, OnboardReading, OnboardSensor};
pub use rail::{ConstantDut, Dut, RailId, RailState, SharedDut};
pub use ssd::{FioJob, IoPattern, SsdHandle, SsdModel, SsdSpec, SsdStats};
