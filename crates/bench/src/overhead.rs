//! The `overhead` experiment: the Diamond et al. RAPL measurement-cost
//! study, reproduced over the modeled probe family.
//!
//! For every probe kind × polling frequency cell, a fresh CPU package
//! runs the same phase-marked workload while one [`EnergySession`]
//! polls it at the cell's cadence. Because every on-CPU read *steals*
//! modeled CPU time from the workload ([`ps3_duts::CpuModel::steal`]),
//! the sweep exposes the study's two headline curves:
//!
//! * **perturbation** — runtime inflation versus the unperturbed
//!   workload, growing with polling frequency and per-read cost;
//! * **energy-estimate error** — the probe's wrap-corrected energy
//!   against ground truth over the identical span, bounded by each
//!   path's quantisation unit and update staleness.
//!
//! The PS3-external probe rides along as the near-zero-perturbation
//! baseline: measuring from *outside* the package, its only DUT cost
//! is the host USB client. Every cell is a pure function of
//! `(kind, freq)` — no wall-clock, no randomness — so the CSV and
//! report are bit-identical across `--jobs` values; cells fan out
//! through `rayon::par_map`.

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use ps3_duts::{CpuModel, CpuPhase, CpuSpec, CpuWorkload};
use ps3_pmt::{EnergySession, ProbeKind, SharedCpu};
use ps3_units::{SimDuration, SimTime};

/// One probe-kind × polling-frequency cell of the sweep.
#[derive(Debug, Clone)]
pub struct OverheadCell {
    /// The access path polled.
    pub kind: ProbeKind,
    /// Polling frequency, Hz.
    pub freq_hz: u64,
    /// Counter reads the session issued.
    pub reads: u64,
    /// Perturbed workload runtime, seconds.
    pub runtime_s: f64,
    /// Unperturbed runtime, seconds.
    pub ideal_s: f64,
    /// Runtime inflation over ideal, percent.
    pub inflation_pct: f64,
    /// CPU time the probe stole before the workload finished, ms.
    pub stolen_ms: f64,
    /// The session's wrap-corrected energy estimate, joules.
    pub energy_est_j: f64,
    /// Ground-truth energy over the identical span, joules.
    pub truth_j: f64,
    /// Energy-estimate error against ground truth, percent.
    pub err_pct: f64,
    /// Extra energy the measurement itself burned (perturbed ground
    /// truth versus the unperturbed workload's energy), percent.
    pub energy_overhead_pct: f64,
}

/// The phase-marked workload every cell runs: idle lead-in, a hot
/// compute burst, a memory-bound stretch, a sync lull and a final
/// burst — 1.1 s of work spanning the package's dynamic range.
#[must_use]
pub fn workload() -> CpuWorkload {
    CpuWorkload::new(vec![
        CpuPhase {
            label: 'i',
            util: 0.05,
            work: SimDuration::from_millis(100),
        },
        CpuPhase {
            label: 'c',
            util: 0.95,
            work: SimDuration::from_millis(400),
        },
        CpuPhase {
            label: 'm',
            util: 0.55,
            work: SimDuration::from_millis(250),
        },
        CpuPhase {
            label: 's',
            util: 0.30,
            work: SimDuration::from_millis(150),
        },
        CpuPhase {
            label: 'f',
            util: 0.85,
            work: SimDuration::from_millis(200),
        },
    ])
}

/// Runs the full sweep: every probe kind at every frequency, fanned
/// out through `rayon::par_map` (cells are independent and pure, so the result
/// order — kind-major, frequency-minor — is deterministic).
#[must_use]
pub fn run(freqs: &[u64]) -> Vec<OverheadCell> {
    let cells: Vec<(ProbeKind, u64)> = ProbeKind::ALL
        .iter()
        .flat_map(|&k| freqs.iter().map(move |&f| (k, f)))
        .collect();
    rayon::par_map(cells, |(kind, freq)| run_cell(kind, freq))
}

fn run_cell(kind: ProbeKind, freq_hz: u64) -> OverheadCell {
    let wl = workload();
    let spec = CpuSpec::desktop();
    let ideal = wl.ideal_runtime();
    let ideal_j = wl.ideal_energy(&spec).value();
    let cpu: SharedCpu = Arc::new(Mutex::new(CpuModel::new(spec, wl)));
    let mut session = EnergySession::over(kind, Arc::clone(&cpu));
    let pspec = session.spec();
    let cadence = SimDuration::from_nanos(1_000_000_000 / freq_hz);
    // Steal fractions stay well under 1, so the workload always
    // finishes within a few ideal runtimes.
    let hard_cap = SimTime::ZERO + ideal * 4;

    let mut t = SimTime::ZERO;
    let mut last_tick;
    loop {
        session.poll(t);
        last_tick = pspec.tick_before(t);
        let finished = {
            let mut m = cpu.lock();
            m.advance_to(t);
            m.finished_at()
        };
        // One extra update interval after completion so the counter
        // has caught up with the workload's tail.
        if let Some(f) = finished {
            if t >= f + pspec.update_interval {
                break;
            }
        }
        if t >= hard_cap {
            break;
        }
        t += cadence;
    }

    let mut m = cpu.lock();
    let finished_at = m.finished_at().expect("workload finishes under cap");
    let stolen = m.stolen_before_finish();
    let runtime = finished_at - SimTime::ZERO;
    // The model's core identity — inflation IS the stolen time.
    assert_eq!(runtime, ideal + stolen, "steal balance broken");
    // Ground truth over exactly the session's span [tick 0, last tick].
    let truth_j = m.energy_at(last_tick).expect("tick in history").value();
    drop(m);

    let energy_est_j = session.energy().value();
    let err_pct = (energy_est_j - truth_j).abs() / truth_j.max(1e-12) * 100.0;
    OverheadCell {
        kind,
        freq_hz,
        reads: session.reads(),
        runtime_s: runtime.as_secs_f64(),
        ideal_s: ideal.as_secs_f64(),
        inflation_pct: stolen.as_secs_f64() / ideal.as_secs_f64() * 100.0,
        stolen_ms: stolen.as_secs_f64() * 1e3,
        energy_est_j,
        truth_j,
        err_pct,
        energy_overhead_pct: (truth_j - ideal_j) / ideal_j * 100.0,
    }
}

/// Perturbation ratio at the highest swept frequency: worst on-CPU
/// inflation over the PS3-external baseline's (the acceptance bar is
/// ≥ 10×).
#[must_use]
pub fn ps3_ratio_at_max_hz(cells: &[OverheadCell]) -> f64 {
    let max_hz = cells.iter().map(|c| c.freq_hz).max().unwrap_or(0);
    let worst = cells
        .iter()
        .filter(|c| c.freq_hz == max_hz && c.kind.is_on_cpu())
        .map(|c| c.inflation_pct)
        .fold(0.0f64, f64::max);
    let ps3 = cells
        .iter()
        .find(|c| c.freq_hz == max_hz && c.kind == ProbeKind::Ps3External)
        .map_or(0.0, |c| c.inflation_pct);
    if ps3 > 0.0 {
        worst / ps3
    } else {
        f64::INFINITY
    }
}

/// Formats the report: one block per access path, frequency rows.
#[must_use]
pub fn render(cells: &[OverheadCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "RAPL measurement-overhead study (Diamond et al.): polling frequency x access path"
    );
    let _ = writeln!(
        out,
        "workload: 5 phases, {:.1} s ideal runtime on a desktop package",
        cells.first().map_or(0.0, |c| c.ideal_s)
    );
    for kind in ProbeKind::ALL {
        let spec = kind.spec();
        let _ = writeln!(
            out,
            "  {} (read {} / update {} / {}-bit):",
            kind.label(),
            spec.read_cost,
            spec.update_interval,
            spec.counter_bits
        );
        let _ = writeln!(
            out,
            "        freq     reads  runtime(s)  inflate%  stolen(ms)    est(J)   truth(J)    err%"
        );
        for c in cells.iter().filter(|c| c.kind == kind) {
            let _ = writeln!(
                out,
                "    {:>7}Hz  {:>8}  {:>10.6}  {:>8.4}  {:>10.4}  {:>8.3}  {:>9.3}  {:>6.4}",
                c.freq_hz,
                c.reads,
                c.runtime_s,
                c.inflation_pct,
                c.stolen_ms,
                c.energy_est_j,
                c.truth_j,
                c.err_pct
            );
        }
    }
    let _ = writeln!(
        out,
        "  ps3-external vs worst on-CPU perturbation at max rate: {:.1}x lower",
        ps3_ratio_at_max_hz(cells)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reproduces_the_overhead_story() {
        let freqs = [10, 1_000, 100_000];
        let cells = run(&freqs);
        assert_eq!(cells.len(), ProbeKind::ALL.len() * freqs.len());
        for kind in ProbeKind::ALL {
            let by_freq: Vec<&OverheadCell> = cells.iter().filter(|c| c.kind == kind).collect();
            assert_eq!(by_freq.len(), freqs.len());
            // Perturbation grows monotonically with polling frequency.
            for w in by_freq.windows(2) {
                assert!(
                    w[1].inflation_pct >= w[0].inflation_pct,
                    "{}: inflation shrank {} -> {} Hz",
                    kind.label(),
                    w[0].freq_hz,
                    w[1].freq_hz
                );
            }
            // Energy estimates stay close to truth everywhere (the
            // biggest envelope is ~2 units + 2 ms of staleness on a
            // ~90 J span — well under 1%).
            for c in &by_freq {
                assert!(c.err_pct < 1.0, "{}: err {}%", kind.label(), c.err_pct);
                assert!(c.runtime_s >= c.ideal_s);
            }
        }
        // The acceptance bar: PS3-external perturbs ≥10× less than the
        // worst on-CPU path at the highest rate.
        let ratio = ps3_ratio_at_max_hz(&cells);
        assert!(ratio >= 10.0, "ratio {ratio}");
        let text = render(&cells);
        assert!(text.contains("ps3-external"), "{text}");
    }

    #[test]
    fn ebpf_pays_background_tax_even_at_low_rates() {
        let cells = run(&[1]);
        let ebpf = cells.iter().find(|c| c.kind == ProbeKind::Ebpf).unwrap();
        let msr = cells.iter().find(|c| c.kind == ProbeKind::Msr).unwrap();
        // At 1 Hz the eBPF kernel timer (2 µs per 1 ms tick) dwarfs
        // MSR's couple of 450 ns reads.
        assert!(
            ebpf.stolen_ms > 10.0 * msr.stolen_ms,
            "ebpf {} ms vs msr {} ms",
            ebpf.stolen_ms,
            msr.stolen_ms
        );
    }

    #[test]
    fn cells_are_bit_identical_across_runs() {
        let a = run(&[100, 10_000]);
        let b = run(&[100, 10_000]);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.freq_hz, y.freq_hz);
            assert_eq!(x.reads, y.reads);
            assert_eq!(x.runtime_s.to_bits(), y.runtime_s.to_bits());
            assert_eq!(x.energy_est_j.to_bits(), y.energy_est_j.to_bits());
            assert_eq!(x.err_pct.to_bits(), y.err_pct.to_bits());
        }
    }
}
