//! Fig 8 (RTX 4000 Ada) and Fig 10 (Jetson AGX Orin): auto-tuning the
//! Tensor-Core Beamformer for performance and energy efficiency, with
//! PowerSensor3 providing per-kernel energy, and the 3.25× tuning-time
//! saving over the on-board-sensor workflow.

use std::sync::Arc;

use parking_lot::Mutex;

use ps3_duts::{GpuModel, GpuSpec, JetsonSpec};
use ps3_testbed::setups::{gpu_riser, jetson_usbc};
use ps3_tuner::{BeamformerModel, BeamformerProblem, Tuner, TuningOutcome, TuningRecord};
use ps3_units::SimDuration;

use crate::report::text_table;

/// Everything the figure needs.
#[derive(Debug, Clone)]
pub struct TuningFigure {
    /// Device label.
    pub device: &'static str,
    /// The sweep (possibly a subset; see `sweep_fraction`).
    pub outcome: TuningOutcome,
    /// Indices of Pareto-optimal records in `outcome.records`.
    pub pareto: Vec<usize>,
    /// The fastest configuration.
    pub fastest: TuningRecord,
    /// The most energy-efficient configuration.
    pub most_efficient: TuningRecord,
    /// Full-space session time with PowerSensor3 (paper: 2274 s).
    pub session_ps3: SimDuration,
    /// Full-space session time with the on-board sensor (paper:
    /// 7394 s).
    pub session_onboard: SimDuration,
    /// `session_onboard / session_ps3` (paper: 3.25×).
    pub speedup: f64,
}

/// Variants per parallel sweep chunk. Each chunk owns a full testbed,
/// so this balances spawn overhead against load-balancing granularity:
/// 8 variants × 10 clocks ≈ 80 kernel measurements per chunk keeps
/// even the full 512-variant sweep at 64 well-mixed units of work.
const CHUNK_PARAMS: usize = 8;

/// Runs the Fig 8 experiment on the RTX-4000-Ada-like GPU. `stride` /
/// `clock_stride` subsample the 512 × 10 space (1/1 = the full 5120
/// configurations).
#[must_use]
pub fn run_rtx4000(stride: usize, clock_stride: usize, seed: u64) -> TuningFigure {
    let spec = GpuSpec::rtx4000_ada();
    run_parallel(
        "RTX 4000 Ada (model)",
        spec.clone(),
        stride,
        clock_stride,
        move |chunk| {
            let mut tb = gpu_riser(spec.clone(), seed);
            let gpu: Arc<Mutex<GpuModel>> = tb.dut();
            let ps = tb.connect().expect("connect");
            chunk
                .run_with_powersensor(&gpu, &ps, &mut |d| {
                    tb.advance_and_sync(&ps, d).expect("advance");
                })
                .expect("tuning sweep")
        },
    )
}

/// Runs the Fig 10 experiment on the Jetson-AGX-Orin-like board; the
/// PowerSensor3 sits on the USB-C input and therefore measures the
/// whole board, carrier included.
#[must_use]
pub fn run_jetson(stride: usize, clock_stride: usize, seed: u64) -> TuningFigure {
    run_parallel(
        "Jetson AGX Orin (model)",
        GpuSpec::orin_igpu(),
        stride,
        clock_stride,
        move |chunk| {
            let mut tb = jetson_usbc(JetsonSpec::agx_orin(), seed);
            let gpu = tb.dut().lock().gpu();
            let ps = tb.connect().expect("connect");
            chunk
                .run_with_powersensor(&gpu, &ps, &mut |d| {
                    tb.advance_and_sync(&ps, d).expect("advance");
                })
                .expect("tuning sweep")
        },
    )
}

/// Shared sweep driver: splits the (possibly subsampled) sweep into
/// [`CHUNK_PARAMS`]-variant chunks and farms the chunks out through
/// `rayon::par_map`. Every chunk builds its own testbed with the *same*
/// seed, so each is a pure function of `(chunk, seed)` and the merged
/// record list is bit-identical no matter how many threads run it.
fn run_parallel(
    device: &'static str,
    spec: GpuSpec,
    stride: usize,
    clock_stride: usize,
    run_chunk: impl Fn(&Tuner) -> TuningOutcome + Sync,
) -> TuningFigure {
    let model = BeamformerModel::new(spec, BeamformerProblem::paper());
    let tuner = Tuner::new(model.clone()).subset(stride, clock_stride);
    let chunks = tuner.split(CHUNK_PARAMS);
    let outcomes = rayon::par_map(chunks, |chunk| run_chunk(&chunk));
    let mut records = Vec::with_capacity(tuner.configurations());
    let mut total = SimDuration::ZERO;
    for o in outcomes {
        records.extend(o.records);
        total += o.total_tuning_time;
    }
    let outcome = TuningOutcome {
        strategy: "PowerSensor3",
        records,
        total_tuning_time: total,
    };
    let pareto = outcome.pareto_indices();
    let fastest = *outcome.fastest().expect("non-empty sweep");
    let most_efficient = *outcome.most_efficient().expect("non-empty sweep");
    // Full-space session accounting (independent of the subset).
    let (session_ps3, session_onboard) = Tuner::new(model).predicted_session_times();
    let speedup = session_onboard.as_secs_f64() / session_ps3.as_secs_f64();
    TuningFigure {
        device,
        outcome,
        pareto,
        fastest,
        most_efficient,
        session_ps3,
        session_onboard,
        speedup,
    }
}

/// Renders the figure summary the way the paper reports it.
#[must_use]
pub fn render(f: &TuningFigure) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — {} configurations benchmarked ({} Pareto-optimal)",
        f.device,
        f.outcome.records.len(),
        f.pareto.len()
    );
    let _ = writeln!(
        out,
        "fastest:        {:6.1} TFLOP/s at {:.3} TFLOP/J ({:4.0} MHz)",
        f.fastest.tflops, f.fastest.tflop_per_joule, f.fastest.clock_mhz
    );
    let _ = writeln!(
        out,
        "most efficient: {:6.1} TFLOP/s at {:.3} TFLOP/J ({:4.0} MHz)",
        f.most_efficient.tflops, f.most_efficient.tflop_per_joule, f.most_efficient.clock_mhz
    );
    let eff_gain = (f.most_efficient.tflop_per_joule / f.fastest.tflop_per_joule - 1.0) * 100.0;
    let slowdown = (1.0 - f.most_efficient.tflops / f.fastest.tflops) * 100.0;
    let _ = writeln!(
        out,
        "trade-off: +{eff_gain:.1}% efficiency for -{slowdown:.1}% performance \
         (paper: +12.7% / -21.5%)"
    );
    let _ = writeln!(
        out,
        "full-space tuning session: PowerSensor3 {:.1} s vs on-board {:.1} s -> {:.2}x \
         (paper: 2274.4 s vs 7394 s -> 3.25x)",
        f.session_ps3.as_secs_f64(),
        f.session_onboard.as_secs_f64(),
        f.speedup
    );
    let rows: Vec<Vec<String>> = f
        .pareto
        .iter()
        .map(|&i| {
            let r = &f.outcome.records[i];
            vec![
                format!("{:.0}", r.clock_mhz),
                format!("{:.1}", r.tflops),
                format!("{:.3}", r.tflop_per_joule),
                format!("{:.2}", r.energy_j),
            ]
        })
        .collect();
    let _ = writeln!(out, "Pareto front:");
    out.push_str(&text_table(
        &["clock [MHz]", "TFLOP/s", "TFLOP/J", "E [J]"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx_subset_reproduces_figure_shape() {
        // 16 variants × 2 clocks through the full testbed.
        let f = run_rtx4000(32, 5, 81);
        assert_eq!(f.outcome.records.len(), 32);
        // The headline ratio comes from full-space accounting.
        assert!((f.speedup - 3.25).abs() < 0.6, "speedup {}", f.speedup);
        // Fastest beats most-efficient on speed; vice versa on energy.
        assert!(f.fastest.tflops >= f.most_efficient.tflops);
        assert!(f.most_efficient.tflop_per_joule >= f.fastest.tflop_per_joule);
        // Throughput in the right ballpark (paper: 80.4 TFLOP/s best;
        // the subset may miss the single best variant).
        assert!(
            f.fastest.tflops > 50.0 && f.fastest.tflops < 95.0,
            "fastest {}",
            f.fastest.tflops
        );
        // Efficiency in a plausible band (paper: 0.83–0.94 TFLOP/J).
        assert!(
            f.most_efficient.tflop_per_joule > 0.4 && f.most_efficient.tflop_per_joule < 1.5,
            "eff {}",
            f.most_efficient.tflop_per_joule
        );
        assert!(!f.pareto.is_empty());
    }

    #[test]
    fn jetson_subset_behaves_like_rtx_but_smaller() {
        let f = run_jetson(64, 5, 82);
        assert_eq!(f.outcome.records.len(), 16);
        // Orin-class throughput, an order of magnitude below the RTX.
        assert!(
            f.fastest.tflops > 3.0 && f.fastest.tflops < 12.0,
            "fastest {}",
            f.fastest.tflops
        );
        // Same qualitative trade-off.
        assert!(f.most_efficient.tflop_per_joule >= f.fastest.tflop_per_joule);
        // PowerSensor3 still pays off (longer kernels shrink the gap).
        assert!(f.speedup > 1.5, "speedup {}", f.speedup);
    }
}
