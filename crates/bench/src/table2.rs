//! Table II: measurement error versus effective sampling rate.
//!
//! A 12 V / 10 A module measures small constant loads; blocks of the
//! 20 kHz stream are averaged to emulate lower sampling rates, and the
//! error statistics shrink with ≈ √N — the paper's resolution/accuracy
//! trade-off.

use ps3_analysis::{block_average, SampleStats};
use ps3_duts::LoadProgram;
use ps3_sensors::ModuleKind;
use ps3_testbed::setups::accuracy_bench;
use ps3_units::{Amps, SimDuration};

use crate::report::text_table;

/// One row of Table II for one load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Effective sampling rate in kHz.
    pub rate_khz: f64,
    /// Statistics of the block-averaged power readings, in watts.
    pub stats: SampleStats,
}

/// Results for one load current.
#[derive(Debug, Clone)]
pub struct Table2Load {
    /// The load current in amps.
    pub amps: f64,
    /// Rows for 20/10/5/1/0.5 kHz.
    pub rows: Vec<Table2Row>,
}

/// Block sizes corresponding to the paper's rates (20 kHz base).
const BLOCKS: [(f64, usize); 5] = [(20.0, 1), (10.0, 2), (5.0, 4), (1.0, 20), (0.5, 40)];

/// Runs the experiment for the paper's 0.5 A and 1 A loads with
/// `samples` raw samples each (paper: 128 k).
///
/// Each load runs on its own testbed seeded purely from `(seed, amps)`,
/// so the two runs parallelise with output identical to a serial pass.
#[must_use]
pub fn run(samples: usize, seed: u64) -> Vec<Table2Load> {
    rayon::par_map(vec![0.5, 1.0], |amps| run_load(amps, samples, seed))
}

fn run_load(amps: f64, samples: usize, seed: u64) -> Table2Load {
    let mut tb = accuracy_bench(
        ModuleKind::Slot10A12V,
        LoadProgram::Constant(Amps::new(amps)),
        seed,
    );
    let ps = tb.connect().expect("connect");
    tb.advance_and_sync(&ps, SimDuration::from_millis(2))
        .expect("settle");
    ps.begin_trace_with_capacity(samples);
    tb.advance_and_sync(&ps, SimDuration::from_micros(samples as u64 * 50))
        .expect("measure");
    let powers = ps.end_trace().powers();
    let rows = BLOCKS
        .iter()
        .map(|&(rate_khz, block)| {
            let averaged = block_average(&powers, block);
            Table2Row {
                rate_khz,
                stats: SampleStats::from_samples(averaged).expect("non-empty"),
            }
        })
        .collect();
    Table2Load { amps, rows }
}

/// Renders the two-load table in the paper's layout.
#[must_use]
pub fn render(loads: &[Table2Load]) -> String {
    let mut out = String::new();
    for load in loads {
        out.push_str(&format!("{} A load:\n", load.amps));
        let rows: Vec<Vec<String>> = load
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.rate_khz),
                    format!("{:.2}", r.stats.min),
                    format!("{:.2}", r.stats.max),
                    format!("{:.3}", r.stats.peak_to_peak()),
                    format!("{:.3}", r.stats.std),
                ]
            })
            .collect();
        out.push_str(&text_table(
            &["F_s [kHz]", "min [W]", "max [W]", "p-p [W]", "std [W]"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_shrinks_with_sqrt_of_block() {
        let loads = run(16 * 1024, 99);
        for load in &loads {
            let s20 = load.rows[0].stats.std;
            let s1 = load.rows[3].stats.std; // 1 kHz = block 20
            let ratio = s20 / s1;
            assert!(
                (ratio - 20f64.sqrt()).abs() < 1.2,
                "{} A: std ratio {ratio}, expected ≈4.47",
                load.amps
            );
        }
    }

    #[test]
    fn twenty_khz_std_near_paper() {
        // Paper: std ≈ 0.72 W at 20 kHz for both loads.
        let loads = run(16 * 1024, 5);
        for load in &loads {
            let s = load.rows[0].stats.std;
            assert!(
                (s - 0.72).abs() < 0.15,
                "{} A: 20 kHz std {s}, paper 0.72",
                load.amps
            );
        }
    }

    #[test]
    fn means_match_true_power() {
        let loads = run(8 * 1024, 6);
        // 0.5 A × ~12 V ≈ 6 W; 1 A ≈ 12 W (with small droop).
        let m0 = loads[0].rows[0].stats.mean;
        let m1 = loads[1].rows[0].stats.mean;
        assert!((m0 - 6.0).abs() < 0.5, "mean {m0}");
        assert!((m1 - 12.0).abs() < 0.5, "mean {m1}");
        // Every rate reports the same mean (averaging is unbiased).
        for load in &loads {
            for r in &load.rows {
                assert!((r.stats.mean - load.rows[0].stats.mean).abs() < 0.05);
            }
        }
    }

    #[test]
    fn render_contains_all_rates() {
        let text = render(&run(2048, 1));
        for khz in ["20", "10", "5", "1", "0.5"] {
            assert!(text.contains(khz));
        }
    }
}
