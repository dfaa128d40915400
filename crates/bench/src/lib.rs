//! Experiment harness: one module per table/figure of the paper.
//!
//! Every module exposes a `run(...)` function returning plain data
//! (rows/series) plus a `render(...)` that formats the paper-style
//! output. The `repro` binary drives them, writes CSV artifacts and
//! records its own wall clock in `BENCH_repro.json`.
//!
//! | Paper item | Module |
//! |---|---|
//! | Table I (worst-case accuracy) | [`table1`] |
//! | Fig 4 (power error vs load sweep) | [`fig4`] |
//! | Table II (error vs sampling rate) | [`table2`] |
//! | §IV-B (50-hour stability) | [`stability`] |
//! | Fig 5 (step response) | [`fig5`] |
//! | Fig 7a/7b (GPU traces vs vendor APIs) | [`fig7`] |
//! | Fig 8 / Fig 10 (auto-tuning Pareto + 3.25×) | [`fig8`] |
//! | Fig 12a/12b (SSD bandwidth vs power) | [`fig12`] |
//! | Interference ablation (beyond the paper) | [`interference`] |
//! | §II tool-landscape comparison (beyond the paper) | [`related`] |
//! | Power-capping study (beyond the paper) | [`capping`] |
//! | §IV-A noise decomposition | [`noise`] |
//! | Archive store cost/exactness (beyond the paper) | [`archive`] |
//! | Fleet coordinator scaling (beyond the paper) | [`fleet`] |
//! | Pyramid query latency (beyond the paper) | [`tsdb`] |
//! | C10k stream daemon scaling (beyond the paper) | [`stream`] |

#![forbid(unsafe_code)]

/// Renders a trace as a 72×12 ASCII chart (shared by the `repro`
/// binary's figure output).
#[must_use]
pub fn report_plot(trace: &ps3_analysis::Trace) -> String {
    ps3_analysis::ascii_trace(trace, 72, 12)
}

pub mod archive;
pub mod capping;
pub mod driver;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod interference;
pub mod noise;
pub mod overhead;
pub mod related;
pub mod report;
pub mod sim;
pub mod stability;
pub mod stream;
pub mod table1;
pub mod table2;
pub mod tsdb;
