//! Fig 4: power error across a −10 A…+10 A load sweep for four sensor
//! module types, with the min/max envelope per measurement point.

use ps3_duts::LoadProgram;
use ps3_sensors::ModuleKind;
use ps3_testbed::setups::accuracy_bench;
use ps3_units::{Amps, SimDuration};

use crate::report::text_table;

/// One measurement point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Programmed load current.
    pub amps: f64,
    /// Ground-truth power at that point.
    pub expected_w: f64,
    /// Mean measurement error (the continuous line of Fig 4).
    pub mean_err: f64,
    /// Smallest single-sample error (lower dotted line).
    pub min_err: f64,
    /// Largest single-sample error (upper dotted line).
    pub max_err: f64,
}

/// The sweep for one module type.
#[derive(Debug, Clone)]
pub struct Fig4Series {
    /// The module measured.
    pub module: ModuleKind,
    /// Points from −10 A to +10 A.
    pub points: Vec<Fig4Point>,
}

/// The four module types the figure covers.
pub const MODULES: [ModuleKind; 4] = [
    ModuleKind::Slot10A3V3,
    ModuleKind::Slot10A12V,
    ModuleKind::UsbC,
    ModuleKind::Pcie8Pin20A,
];

/// Load steps of the sweep: −10 A to +10 A in 1 A increments.
const STEPS: std::ops::RangeInclusive<i32> = -10..=10;

/// Runs the sweep with `samples_per_point` samples at each 1 A step
/// (the paper uses 128 k).
///
/// Every (module, step) pair is an independent unit of work with its
/// own testbed and a seed derived purely from `(seed, module, step)`,
/// so the sweep parallelises through `rayon::par_map` with output
/// bit-identical to a serial run.
#[must_use]
pub fn run(samples_per_point: usize, seed: u64) -> Vec<Fig4Series> {
    let units: Vec<(usize, i32)> = MODULES
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| STEPS.map(move |step| (mi, step)))
        .collect();
    let points = rayon::par_map(units, |(mi, step)| {
        measure_point(
            MODULES[mi],
            step,
            samples_per_point,
            point_seed(seed, mi, step),
        )
    });
    let per_module = STEPS.count();
    points
        .chunks(per_module)
        .zip(MODULES)
        .map(|(chunk, module)| Fig4Series {
            module,
            points: chunk.to_vec(),
        })
        .collect()
}

/// Per-unit seed: a splitmix64 mix of the experiment seed and the
/// unit's identity, so every point gets a decorrelated noise stream
/// that does not depend on execution order.
fn point_seed(seed: u64, module_index: usize, step: i32) -> u64 {
    let id = ((module_index as u64) << 32) | u64::from((step + 10) as u32);
    let mut z = seed
        .wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Measures one sweep point on a fresh testbed programmed to the
/// target current from t = 0 (the low-pass filters start settled on
/// their first sample, so 2 ms of settling suffices).
fn measure_point(module: ModuleKind, step: i32, samples: usize, seed: u64) -> Fig4Point {
    let amps = f64::from(step);
    let mut tb = accuracy_bench(module, LoadProgram::Constant(Amps::new(amps)), seed);
    let bench = tb.dut();
    let ps = tb.connect().expect("connect");
    tb.advance_and_sync(&ps, SimDuration::from_millis(2))
        .expect("settle");
    let expected = bench.lock().reference(tb.device_time()).watts().value();
    ps.begin_trace_with_capacity(samples);
    tb.advance_and_sync(&ps, SimDuration::from_micros(samples as u64 * 50))
        .expect("measure");
    let trace = ps.end_trace();
    // Error stats stream straight out of the trace — no scratch vector.
    let stats =
        ps3_analysis::SampleStats::from_samples(trace.iter().map(|s| s.power.value() - expected))
            .expect("non-empty trace");
    Fig4Point {
        amps,
        expected_w: expected,
        mean_err: stats.mean,
        min_err: stats.min,
        max_err: stats.max,
    }
}

/// Serial sweep of one module (tests and focused runs); same per-point
/// units as [`run`].
#[must_use]
pub fn sweep_module(module: ModuleKind, samples: usize, seed: u64) -> Fig4Series {
    let mi = MODULES.iter().position(|&m| m == module).unwrap_or(0);
    let points = STEPS
        .map(|step| measure_point(module, step, samples, point_seed(seed, mi, step)))
        .collect();
    Fig4Series { module, points }
}

/// Renders one series as a text table.
#[must_use]
pub fn render(series: &Fig4Series) -> String {
    let rows: Vec<Vec<String>> = series
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:+.0}", p.amps),
                format!("{:.2}", p.expected_w),
                format!("{:+.3}", p.mean_err),
                format!("{:+.2}", p.min_err),
                format!("{:+.2}", p.max_err),
            ]
        })
        .collect();
    format!(
        "{}\n{}",
        series.module,
        text_table(
            &["I [A]", "P_true [W]", "mean err", "min err", "max err"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reproduces_figure_shape() {
        // Reduced scale: one module, 2k samples per point.
        let series = sweep_module(ModuleKind::Slot10A12V, 2048, 4242);
        assert_eq!(series.points.len(), 21);
        for p in &series.points {
            // Mean error within the worst-case budget (±4.2 W), and in
            // practice well within ±1 W after calibration.
            assert!(
                p.mean_err.abs() < 1.0,
                "mean err {} at {} A",
                p.mean_err,
                p.amps
            );
            // Envelope contains the mean.
            assert!(p.min_err <= p.mean_err && p.mean_err <= p.max_err);
            // Noise envelope is a few watts wide, like the figure.
            let width = p.max_err - p.min_err;
            assert!(
                width > 0.5 && width < 10.0,
                "envelope {width} at {} A",
                p.amps
            );
        }
        // Expected power spans the full bidirectional range.
        assert!(series.points[0].expected_w < -100.0);
        assert!(series.points[20].expected_w > 100.0);
    }

    #[test]
    fn three_volt_module_has_smaller_error_than_twelve() {
        // §IV-A: "the accuracy of the 3.3 V sensor is better in
        // comparison with the 12 V sensor, where the error in the
        // current sensor is multiplied by 12 instead of 3.3".
        let s33 = sweep_module(ModuleKind::Slot10A3V3, 2048, 7);
        let s12 = sweep_module(ModuleKind::Slot10A12V, 2048, 7);
        let width = |s: &Fig4Series| {
            s.points.iter().map(|p| p.max_err - p.min_err).sum::<f64>() / s.points.len() as f64
        };
        assert!(
            width(&s33) < 0.5 * width(&s12),
            "3.3 V envelope {} vs 12 V {}",
            width(&s33),
            width(&s12)
        );
    }
}
