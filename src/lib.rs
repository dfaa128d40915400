//! PowerSensor3 reproduction — facade crate.
//!
//! Re-exports the public API of every subsystem crate so downstream
//! users (and the examples/integration tests in this repository) can
//! depend on a single crate. See the README for an architecture
//! overview and DESIGN.md for the paper-to-module map.

#![forbid(unsafe_code)]

pub mod cli;

pub use ps3_analysis as analysis;
pub use ps3_archive as archive;
pub use ps3_core as core;
pub use ps3_duts as duts;
pub use ps3_firmware as firmware;
pub use ps3_fleet as fleet;
pub use ps3_pmt as pmt;
pub use ps3_sensors as sensors;
pub use ps3_sim as sim;
pub use ps3_stream as stream;
pub use ps3_testbed as testbed;
pub use ps3_transport as transport;
pub use ps3_tsdb as tsdb;
pub use ps3_tuner as tuner;
pub use ps3_units as units;
