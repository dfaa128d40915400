//! The two energy-measurement strategies and their time accounting.
//!
//! *PowerSensor3*: energy is captured during the normal timing runs —
//! two host-library `State`s bracket each kernel (§V-A2: "instant
//! capturing of the energy consumption of GPU kernels").
//!
//! *On-board*: the built-in sensor refreshes every ~100 ms, so Kernel
//! Tuner must re-run the kernel continuously for about a second per
//! configuration to collect enough sensor updates — the overhead that
//! stretches tuning sessions by hours.

use std::sync::Arc;

use parking_lot::Mutex;

use ps3_core::{joules, PowerSensor, PowerSensorError};
use ps3_duts::{GpuKernel, GpuModel, OnboardSensor};
use ps3_units::{SimDuration, SimTime};

use crate::model::KernelEstimate;

/// Result of measuring one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Measured kernel execution time in seconds (including inter-wave
    /// gaps).
    pub kernel_seconds: f64,
    /// Measured energy of one kernel execution in joules.
    pub energy_j: f64,
    /// Wall-clock time this configuration cost the tuning session
    /// (compilation + benchmarking + any extended energy runs).
    pub tuning_cost: SimDuration,
}

/// Compilation + setup overhead charged per configuration.
pub const COMPILE_OVERHEAD: SimDuration = SimDuration::from_millis(390);

/// Per-trial launch/transfer overhead.
const LAUNCH_OVERHEAD: SimDuration = SimDuration::from_millis(1);

/// Inter-wave scheduling gap used for tuner launches.
const WAVE_GAP: SimDuration = SimDuration::from_micros(150);

/// Minimum continuous run needed for the on-board sensor to deliver a
/// usable energy estimate (~10 refreshes at 10 Hz).
const ONBOARD_WINDOW: SimDuration = SimDuration::from_secs(1);

/// Builds the launch parameters for an estimate at a locked clock and
/// returns `(kernel, actual_total_duration)`.
fn plan_launch(
    gpu: &Arc<Mutex<GpuModel>>,
    est: &KernelEstimate,
    clock_mhz: f64,
    repeats: u32,
) -> (GpuKernel, SimDuration) {
    let spec = gpu.lock().spec().clone();
    // The power limit may hold the clock below the requested lock.
    let actual_clock = clock_mhz.min(spec.sustained_clock(est.utilization));
    // Wave durations are specified at boost clock; scale so the actual
    // execution time at `actual_clock` matches the estimate's duration
    // (the estimate already includes the clock's performance effect).
    let total_boost_s = est.duration.as_secs_f64() * (actual_clock / spec.boost_mhz);
    let waves = est.waves.max(1) * repeats;
    let kernel = GpuKernel {
        waves,
        wave_duration: SimDuration::from_secs_f64(
            total_boost_s * f64::from(repeats) / f64::from(waves),
        ),
        gap: WAVE_GAP,
        utilization: est.utilization,
    };
    let wall =
        est.duration.as_secs_f64() * f64::from(repeats) + f64::from(waves) * WAVE_GAP.as_secs_f64();
    (kernel, SimDuration::from_secs_f64(wall))
}

/// Measures one configuration with PowerSensor3 through the testbed.
///
/// `advance` must advance the testbed and synchronise the host (e.g.
/// `|d| testbed.advance_and_sync(&ps, d).unwrap()`). `sim_trials`
/// kernels are actually simulated (their energies averaged);
/// `accounted_trials` is what the tuning-time ledger charges (the
/// paper uses 7 trials — simulating fewer keeps the simulation cheap
/// without changing the statistics materially).
///
/// # Errors
///
/// Propagates host-library failures.
pub fn measure_with_powersensor(
    gpu: &Arc<Mutex<GpuModel>>,
    ps: &PowerSensor,
    advance: &mut dyn FnMut(SimDuration),
    est: &KernelEstimate,
    clock_mhz: f64,
    sim_trials: u32,
    accounted_trials: u32,
) -> Result<Measurement, PowerSensorError> {
    gpu.lock().set_locked_clock(Some(clock_mhz));
    let (kernel, wall) = plan_launch(gpu, est, clock_mhz, 1);
    let mut energies = Vec::with_capacity(sim_trials as usize);
    for _ in 0..sim_trials.max(1) {
        let first = ps.read();
        gpu.lock().launch(kernel);
        advance(wall + SimDuration::from_micros(200));
        let second = ps.read();
        energies.push(joules(&first, &second).value());
    }
    gpu.lock().set_locked_clock(None);
    let energy_j = energies.iter().sum::<f64>() / energies.len() as f64;
    let per_trial = wall + LAUNCH_OVERHEAD;
    let tuning_cost = COMPILE_OVERHEAD + per_trial * u64::from(accounted_trials);
    Ok(Measurement {
        kernel_seconds: wall.as_secs_f64(),
        energy_j,
        tuning_cost,
    })
}

/// Measures one configuration with an on-board sensor: timing runs
/// first, then a continuous ~1 s run polled at the sensor's own rate.
///
/// `cursor` is the strategy's private GPU timeline; it advances past
/// the extended run and is reused for the next configuration.
pub fn measure_with_onboard(
    gpu: &Arc<Mutex<GpuModel>>,
    sensor: &mut dyn OnboardSensor,
    cursor: &mut SimTime,
    est: &KernelEstimate,
    clock_mhz: f64,
    accounted_trials: u32,
) -> Measurement {
    gpu.lock().set_locked_clock(Some(clock_mhz));
    let (_, single_wall) = plan_launch(gpu, est, clock_mhz, 1);

    // Extended energy run: repeat the kernel until the window is full.
    let repeats = (ONBOARD_WINDOW.as_nanos() / single_wall.as_nanos().max(1) + 1) as u32;
    let (kernel, wall) = plan_launch(gpu, est, clock_mhz, repeats);
    gpu.lock().launch(kernel);
    let start = *cursor;
    let end = start + wall;
    let mut sum = 0.0;
    let mut count = 0u32;
    let step = sensor.update_interval();
    let mut t = start;
    while t < end {
        t += step;
        sum += sensor.read(t).power.value();
        count += 1;
    }
    gpu.lock().set_locked_clock(None);
    // Let the GPU drain back to idle before the next configuration.
    *cursor = end + SimDuration::from_millis(50);
    let mean_power = sum / f64::from(count.max(1));
    let energy_j = mean_power * single_wall.as_secs_f64();

    let timing_runs = (single_wall + LAUNCH_OVERHEAD) * u64::from(accounted_trials);
    let tuning_cost = COMPILE_OVERHEAD + timing_runs + wall.max(ONBOARD_WINDOW);
    Measurement {
        kernel_seconds: single_wall.as_secs_f64(),
        energy_j,
        tuning_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BeamformerModel, BeamformerProblem};
    use crate::TunableParams;
    use ps3_duts::{GpuSpec, NvmlSensor};

    fn setup() -> (Arc<Mutex<GpuModel>>, KernelEstimate) {
        let gpu = Arc::new(Mutex::new(GpuModel::new(GpuSpec::rtx4000_ada(), 31)));
        let model = BeamformerModel::new(GpuSpec::rtx4000_ada(), BeamformerProblem::paper());
        let p = TunableParams {
            block_x: 8,
            block_y: 4,
            frags_block: 4,
            frags_warp: 2,
            double_buffer: true,
            split_k: 1,
        };
        let est = model.estimate(&p, 2580.0);
        (gpu, est)
    }

    #[test]
    fn onboard_measurement_costs_at_least_a_second() {
        let (gpu, est) = setup();
        let mut sensor = NvmlSensor::instantaneous(Arc::clone(&gpu));
        let mut cursor = SimTime::ZERO;
        let m = measure_with_onboard(&gpu, &mut sensor, &mut cursor, &est, 2580.0, 7);
        assert!(m.tuning_cost >= ONBOARD_WINDOW + COMPILE_OVERHEAD);
        // Energy of a ~7 ms kernel at ~125 W ≈ 0.9 J.
        assert!(
            m.energy_j > 0.3 && m.energy_j < 3.0,
            "energy {}",
            m.energy_j
        );
        assert!(cursor > SimTime::ZERO);
    }

    #[test]
    fn onboard_cost_dwarfs_kernel_time() {
        let (gpu, est) = setup();
        let mut sensor = NvmlSensor::instantaneous(Arc::clone(&gpu));
        let mut cursor = SimTime::ZERO;
        let m = measure_with_onboard(&gpu, &mut sensor, &mut cursor, &est, 2580.0, 7);
        assert!(m.tuning_cost.as_secs_f64() > 100.0 * m.kernel_seconds);
    }

    #[test]
    fn plan_launch_preserves_duration() {
        let (gpu, est) = setup();
        let (_, wall) = plan_launch(&gpu, &est, 2580.0, 1);
        // Wall = duration + wave gaps; gaps are small.
        let d = est.duration.as_secs_f64();
        let w = wall.as_secs_f64();
        assert!(w >= d && w < d * 1.2, "wall {w} vs duration {d}");
    }
}
