//! Host library for PowerSensor3 — the Rust equivalent of the paper's
//! C++ `PowerSensor` class and its accompanying tools (§III-C).
//!
//! # Overview
//!
//! Connect a [`PowerSensor`] to any [`Transport`](ps3_transport::Transport)
//! (in this repository: the virtual USB link to the emulated device).
//! On connect, the library stops any stale stream, reads the sensor
//! configuration from the device's EEPROM, starts streaming, and spawns
//! a lightweight reader thread that decodes sensor packets, tracks
//! cumulative energy per sensor pair, and serves [`State`] snapshots.
//!
//! Both of the paper's measurement modes are supported, simultaneously:
//!
//! * **Interval mode** — take two [`State`]s and compute the energy and
//!   average power between them with [`joules`], [`watts`], [`seconds`].
//! * **Continuous mode** — record every 20 kHz frame into a
//!   [`Trace`](ps3_analysis::Trace) and/or an on-disk dump, with
//!   time-synced [marker characters](PowerSensor::mark).
//!
//! The four command-line utilities shipped with PowerSensor3 are
//! available as library functions in [`tools`] (`psinfo`, `pstest`,
//! `psrun`, `psconfig`) and as runnable demos in the repository's
//! `examples/` directory.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` for the end-to-end flow against the
//! emulated device.

#![forbid(unsafe_code)]

mod calibration;
mod error;
mod frame;
mod offline;
mod power_sensor;
mod state;
#[cfg(test)]
pub(crate) mod testharness;
pub mod tools;

pub use calibration::{calibrate_pair, CalibrationReport, DEFAULT_CALIBRATION_FRAMES};
pub use error::PowerSensorError;
pub use frame::{frame_total, FrameRecord};
pub use offline::{decode_stream, OfflineDecode};
pub use power_sensor::{FrameSink, PowerSensor, RawCapture, SharedPowerSensor, SENSOR_PAIRS};
pub use ps3_firmware::pair_readings;
pub use state::{interval, joules, pair_joules, seconds, watts, PairState, State};
