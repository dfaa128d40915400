//! A Kernel-Tuner-like GPU auto-tuner (§V-A2, Fig 8/Fig 10).
//!
//! The paper tunes the Tensor-Core Beamformer: 512 functionally
//! equivalent code variants (thread-block dimensions, fragments per
//! block/warp, double buffering, split-K) × 10 locked GPU clock
//! frequencies = 5120 configurations, each benchmarked for execution
//! time and energy. The headline result is that measuring energy with
//! PowerSensor3 takes the energy reading *during the normal timing
//! runs*, while on-board sensors (NVML at ~10 Hz) force each kernel to
//! be re-run continuously for about a second — stretching the whole
//! tuning session by 3.25×.
//!
//! * [`TunableParams`] / [`enumerate_params`] — the 512-variant space.
//! * [`BeamformerModel`] — an analytic performance model mapping a
//!   variant + clock to achieved TFLOP/s and power intensity.
//! * [`measure_with_powersensor`] / [`measure_with_onboard`] — the two
//!   measurement strategies with faithful time accounting.
//! * [`Tuner`] — sweeps the space, returns per-configuration records,
//!   the Pareto front, and total tuning time per strategy.

#![forbid(unsafe_code)]

mod model;
mod strategy;
mod tuner;

pub use model::{BeamformerModel, BeamformerProblem, KernelEstimate};
pub use strategy::{measure_with_onboard, measure_with_powersensor, Measurement};
pub use tuner::{Tuner, TuningOutcome, TuningRecord};

/// One point in the tunable-parameter space (the paper's 512 variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TunableParams {
    /// Thread-block x dimension (warps): 2, 4, 8, 16.
    pub block_x: u32,
    /// Thread-block y dimension: 1, 2, 4, 8.
    pub block_y: u32,
    /// Matrix fragments per thread block: 1, 2, 4, 8.
    pub frags_block: u32,
    /// Fragments per warp: 1, 2.
    pub frags_warp: u32,
    /// Double buffering in shared memory.
    pub double_buffer: bool,
    /// Split-K factor: 1, 2.
    pub split_k: u32,
}

/// Enumerates all 512 code variants (4 × 4 × 4 × 2 × 2 × 2).
#[must_use]
pub fn enumerate_params() -> Vec<TunableParams> {
    let mut out = Vec::with_capacity(512);
    for &block_x in &[2u32, 4, 8, 16] {
        for &block_y in &[1u32, 2, 4, 8] {
            for &frags_block in &[1u32, 2, 4, 8] {
                for &frags_warp in &[1u32, 2] {
                    for &double_buffer in &[false, true] {
                        for &split_k in &[1u32, 2] {
                            out.push(TunableParams {
                                block_x,
                                block_y,
                                frags_block,
                                frags_warp,
                                double_buffer,
                                split_k,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// The locked-clock sweep for a GPU: 10 frequencies spanning the range
/// a performance model would pre-select (the paper narrows the range
/// before tuning, §V-A2).
#[must_use]
pub fn clock_range(boost_mhz: f64) -> Vec<f64> {
    (0..10)
        .map(|i| boost_mhz * (0.72 + 0.28 * f64::from(i) / 9.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_has_512_variants() {
        let params = enumerate_params();
        assert_eq!(params.len(), 512);
        let unique: std::collections::HashSet<_> = params.iter().collect();
        assert_eq!(unique.len(), 512);
    }

    #[test]
    fn clock_range_spans_and_ends_at_boost() {
        let clocks = clock_range(2580.0);
        assert_eq!(clocks.len(), 10);
        assert!((clocks[9] - 2580.0).abs() < 1e-9);
        assert!(clocks[0] > 0.7 * 2580.0);
        assert!(clocks.windows(2).all(|w| w[1] > w[0]));
    }
}
