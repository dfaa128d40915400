//! Trace containers and signal/statistics utilities.
//!
//! This crate holds everything the evaluation harnesses need to turn raw
//! sample streams into the numbers the paper reports:
//!
//! * [`Trace`] — a time series of power samples with markers, as produced
//!   by the host library's continuous mode.
//! * [`SampleStats`] — min/max/mean/std/rms/peak-to-peak summaries
//!   (Table II columns).
//! * [`block_average`] — reduces the effective sampling rate by averaging
//!   consecutive blocks (Table II rows).
//! * [`rise_time`] / [`step_levels`] — step-response extraction (Fig 5).
//! * [`pareto_front`] — non-dominated front for the auto-tuning scatter
//!   plots (Fig 8 / Fig 10).
//! * [`csv`] — a tiny hand-rolled CSV writer for experiment artifacts.
//! * [`DumpWriter`] / [`parse_dump`] — writes continuous-mode dump
//!   files and reads them back into traces (capture once, analyse
//!   many).
//! * [`dominant_frequency`] — Goertzel-based tone detection for
//!   periodic workloads (the Fig 5 modulation, GPU wave cadence).
//!
//! # Examples
//!
//! ```
//! use ps3_analysis::SampleStats;
//!
//! let stats = SampleStats::from_samples([1.0, 2.0, 3.0]).unwrap();
//! assert_eq!(stats.mean, 2.0);
//! assert_eq!(stats.peak_to_peak(), 2.0);
//! ```

#![forbid(unsafe_code)]

pub mod csv;
mod dump;
mod pareto;
mod plot;
mod spectrum;
mod stats;
mod step;
mod trace;

pub use dump::{parse_dump, DumpWriter, ParseDumpError, ParsedDump};
pub use pareto::{pareto_front, pareto_front_indices, ParetoPoint};
pub use plot::{ascii_plot, ascii_trace};
pub use spectrum::{dominant_frequency, goertzel_power};
pub use stats::{block_average, decimate, SampleStats};
pub use step::{find_edges, rise_time, settle_time, step_levels, StepEdge};
pub use trace::{Marker, Trace, TraceSample};
