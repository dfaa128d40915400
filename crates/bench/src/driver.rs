//! The parallel experiment engine behind the `repro` binary.
//!
//! Every experiment is a pure function of `(Scale, seed)`: it builds
//! its own testbeds, returns its rendered report and CSV rows as data,
//! and performs no I/O. That makes the set of experiments trivially
//! parallel — [`run_all`] maps them with [`rayon::par_map`] while the
//! binary prints reports and writes artifacts in request order, so the
//! observable output is bit-identical for any `--jobs` value.
//! Sweep-style experiments (fig4, table2, the fig8/fig10 tuner runs)
//! additionally parallelise *within* themselves; nested `par_map`
//! calls share one lane budget, so the two levels compose.

use std::fmt::Write as _;
use std::time::Instant;

use ps3_units::SimDuration;

use crate::{
    archive, capping, fig12, fig4, fig5, fig7, fig8, fleet, interference, noise, overhead, related,
    sim, stability, stream, table1, table2, tsdb,
};

/// The seed every `repro` run uses, so artifacts are comparable
/// between runs and machines.
pub const SEED: u64 = 0x5EED_2026;

/// The default experiment list (the paper's tables and figures, in
/// paper order, plus the interference ablation).
pub const DEFAULT_EXPERIMENTS: [&str; 18] = [
    "table1",
    "table2",
    "fig4",
    "fig5",
    "stability",
    "fig7a",
    "fig7b",
    "fig8",
    "fig10",
    "fig12a",
    "fig12b",
    "interference",
    "archive",
    "tsdb",
    "overhead",
    "sim",
    "fleet",
    "stream",
];

/// Sample counts and sweep sizes for one run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Samples per fig4 sweep point (paper: 128 k).
    pub samples_per_point: usize,
    /// Raw samples per Table II load (paper: 128 k).
    pub table2_samples: usize,
    /// Hours of simulated runtime for the stability experiment.
    pub stability_hours: f64,
    /// Samples per stability probe window.
    pub stability_window: usize,
    /// Kernel timing of the Fig 7 trace experiments.
    pub fig7_timing: fig7::Fig7Timing,
    /// Variant stride of the tuner sweeps (1 = all 512).
    pub tuner_stride: usize,
    /// Clock stride of the tuner sweeps (1 = all 10).
    pub tuner_clock_stride: usize,
    /// Averaging window per Fig 12a read-size point.
    pub fig12a_window: SimDuration,
    /// Simulated seconds of random writes for Fig 12b.
    pub fig12b_seconds: u64,
    /// Rig counts the fleet scaling experiment sweeps.
    pub fleet_rigs: Vec<u16>,
    /// Subscriber counts the stream C10k experiment sweeps.
    pub stream_subs: Vec<usize>,
    /// Capture sizes (frames) the tsdb query-latency experiment sweeps.
    pub tsdb_frames: Vec<u64>,
    /// Polling frequencies (Hz) the RAPL overhead study sweeps.
    pub overhead_freqs: Vec<u64>,
}

impl Scale {
    /// Reduced scales: a full run finishes in minutes.
    #[must_use]
    pub fn reduced() -> Self {
        Self {
            samples_per_point: 16 * 1024,
            table2_samples: 32 * 1024,
            stability_hours: 10.0,
            stability_window: 16 * 1024,
            fig7_timing: fig7::Fig7Timing::paper(),
            tuner_stride: 8,
            tuner_clock_stride: 1,
            fig12a_window: SimDuration::from_secs(1),
            fig12b_seconds: 240,
            fleet_rigs: vec![1, 8, 32],
            stream_subs: vec![256, 1024, 4096],
            tsdb_frames: vec![20_000, 80_000, 320_000],
            overhead_freqs: vec![1, 10, 100, 1_000, 10_000, 100_000],
        }
    }

    /// The paper's sample counts (128 k per point, the whole
    /// 5120-configuration sweep, 50 hours of stability, >20 min of
    /// random writes).
    #[must_use]
    pub fn full() -> Self {
        Self {
            samples_per_point: 128 * 1024,
            table2_samples: 128 * 1024,
            stability_hours: 50.0,
            stability_window: 128 * 1024,
            fig7_timing: fig7::Fig7Timing::paper(),
            tuner_stride: 1,
            tuner_clock_stride: 1,
            fig12a_window: SimDuration::from_secs(10),
            fig12b_seconds: 1300,
            fleet_rigs: vec![1, 8, 32, 100],
            stream_subs: vec![1024, 4096, 8192],
            tsdb_frames: vec![50_000, 200_000, 800_000],
            overhead_freqs: vec![1, 10, 100, 1_000, 10_000, 100_000],
        }
    }

    /// A tiny scale for smoke tests and CI (seconds, not minutes).
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            samples_per_point: 2 * 1024,
            table2_samples: 4 * 1024,
            stability_hours: 2.0,
            stability_window: 2 * 1024,
            fig7_timing: fig7::Fig7Timing::paper(),
            tuner_stride: 64,
            tuner_clock_stride: 5,
            fig12a_window: SimDuration::from_millis(250),
            fig12b_seconds: 60,
            fleet_rigs: vec![1, 4, 8],
            stream_subs: vec![64, 256, 1024],
            tsdb_frames: vec![10_000, 40_000, 160_000],
            overhead_freqs: vec![100, 10_000, 100_000],
        }
    }
}

/// One CSV artifact, as data: the binary decides where it lands.
#[derive(Debug, Clone, PartialEq)]
pub struct Csv {
    /// File name (e.g. `fig4.csv`).
    pub name: String,
    /// Column names.
    pub header: Vec<&'static str>,
    /// Numeric rows.
    pub rows: Vec<Vec<f64>>,
}

/// Everything one experiment produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutput {
    /// Experiment name (`table2`, `fig4`, …).
    pub name: String,
    /// The rendered paper-style report.
    pub report: String,
    /// CSV artifacts, in write order.
    pub csvs: Vec<Csv>,
    /// Device samples processed, where the experiment has a natural
    /// sample count (0 otherwise); feeds the samples/sec metric.
    pub samples: u64,
    /// Named scalar results worth recording in `BENCH_repro.json`
    /// (e.g. the archive store's bytes/sample). Empty for most
    /// experiments.
    pub metrics: Vec<(String, f64)>,
}

/// One experiment's result plus its wall-clock cost.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// `None` for an unknown experiment name.
    pub output: Option<ExperimentOutput>,
    /// Wall-clock seconds the experiment took.
    pub wall_s: f64,
}

/// Runs the named experiments in parallel with [`rayon::par_map`]
/// and returns their results in request order. Use
/// [`rayon::configure_global`] first to pick the thread count.
#[must_use]
pub fn run_all(names: &[&str], scale: &Scale, seed: u64) -> Vec<ExperimentRun> {
    let units: Vec<String> = names.iter().map(|n| (*n).to_owned()).collect();
    rayon::par_map(units, |name| {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock speedup metric: measures real elapsed time of the parallel run, outside the simulated timeline"
        )]
        let start = Instant::now();
        let output = run_experiment(&name, scale, seed);
        ExperimentRun {
            output,
            wall_s: start.elapsed().as_secs_f64(),
        }
    })
}

/// Runs a single experiment; `None` if the name is unknown.
#[must_use]
pub fn run_experiment(name: &str, scale: &Scale, seed: u64) -> Option<ExperimentOutput> {
    let out = match name {
        "table1" => run_table1(),
        "table2" => run_table2(scale, seed),
        "fig4" => run_fig4(scale, seed),
        "fig5" => run_fig5(seed),
        "stability" => run_stability(scale, seed),
        "fig7a" => run_fig7(scale, seed, false),
        "fig7b" => run_fig7(scale, seed, true),
        "fig8" => run_fig8(scale, seed),
        "fig10" => run_fig10(scale, seed),
        "fig12a" => run_fig12a(scale, seed),
        "fig12b" => run_fig12b(scale, seed),
        "interference" => run_interference(scale, seed),
        "archive" => run_archive(scale, seed),
        "tsdb" => run_tsdb(scale, seed),
        "overhead" => run_overhead(scale),
        "sim" => run_sim(seed),
        "fleet" => run_fleet(scale, seed),
        "stream" => run_stream(scale, seed),
        "related" => run_related(scale, seed),
        "capping" => run_capping(seed),
        "noise" => run_noise(scale, seed),
        _ => return None,
    };
    Some(ExperimentOutput {
        name: name.to_owned(),
        ..out
    })
}

/// Shorthand: an output with the name filled in by the caller.
fn output(report: String, csvs: Vec<Csv>, samples: u64) -> ExperimentOutput {
    ExperimentOutput {
        name: String::new(),
        report,
        csvs,
        samples,
        metrics: Vec::new(),
    }
}

fn run_table1() -> ExperimentOutput {
    let rows = table1::run();
    let csv: Vec<Vec<f64>> = rows
        .iter()
        .map(|b| {
            vec![
                b.rail.value(),
                b.full_scale.value(),
                b.voltage_error.value(),
                b.current_error.value(),
                b.power_error.value(),
            ]
        })
        .collect();
    output(
        table1::render(&rows),
        vec![Csv {
            name: "table1.csv".into(),
            header: vec!["rail_v", "fullscale_a", "e_u", "e_i", "e_p"],
            rows: csv,
        }],
        0,
    )
}

fn run_table2(scale: &Scale, seed: u64) -> ExperimentOutput {
    let loads = table2::run(scale.table2_samples, seed);
    let mut csv = Vec::new();
    for load in &loads {
        for r in &load.rows {
            csv.push(vec![
                load.amps,
                r.rate_khz,
                r.stats.min,
                r.stats.max,
                r.stats.peak_to_peak(),
                r.stats.std,
            ]);
        }
    }
    output(
        table2::render(&loads),
        vec![Csv {
            name: "table2.csv".into(),
            header: vec!["load_a", "rate_khz", "min_w", "max_w", "pp_w", "std_w"],
            rows: csv,
        }],
        2 * scale.table2_samples as u64,
    )
}

fn run_fig4(scale: &Scale, seed: u64) -> ExperimentOutput {
    let series = fig4::run(scale.samples_per_point, seed);
    let mut report = String::new();
    let mut csv = Vec::new();
    for s in &series {
        let _ = writeln!(report, "{}", fig4::render(s));
        for p in &s.points {
            csv.push(vec![
                s.module.nominal_rail().value(),
                p.amps,
                p.expected_w,
                p.mean_err,
                p.min_err,
                p.max_err,
            ]);
        }
    }
    let points: u64 = series.iter().map(|s| s.points.len() as u64).sum();
    output(
        report,
        vec![Csv {
            name: "fig4.csv".into(),
            header: vec![
                "rail_v",
                "amps",
                "expected_w",
                "mean_err",
                "min_err",
                "max_err",
            ],
            rows: csv,
        }],
        points * scale.samples_per_point as u64,
    )
}

fn run_fig5(seed: u64) -> ExperimentOutput {
    let r = fig5::run(30, seed);
    let mut report = fig5::render(&r);
    report.push_str("ms-scale view:\n");
    report.push_str(&crate::report_plot(&r.trace));
    let csv: Vec<Vec<f64>> = r
        .trace
        .iter()
        .map(|s| vec![s.time.as_secs_f64(), s.power.value()])
        .collect();
    let samples = r.trace.len() as u64;
    output(
        report,
        vec![Csv {
            name: "fig5.csv".into(),
            header: vec!["t_s", "power_w"],
            rows: csv,
        }],
        samples,
    )
}

fn run_stability(scale: &Scale, seed: u64) -> ExperimentOutput {
    let r = stability::run(
        scale.stability_hours,
        SimDuration::from_secs(900),
        scale.stability_window,
        seed,
    );
    let csv: Vec<Vec<f64>> = r
        .probes
        .iter()
        .map(|p| vec![p.hours, p.avg_w, p.min_w, p.max_w])
        .collect();
    let samples = r.probes.len() as u64 * scale.stability_window as u64;
    output(
        stability::render(&r),
        vec![Csv {
            name: "stability.csv".into(),
            header: vec!["hours", "avg_w", "min_w", "max_w"],
            rows: csv,
        }],
        samples,
    )
}

fn run_fig7(scale: &Scale, seed: u64, amd: bool) -> ExperimentOutput {
    let (r, stem) = if amd {
        (fig7::run_amd(scale.fig7_timing, seed), "fig7b")
    } else {
        (fig7::run_nvidia(scale.fig7_timing, seed), "fig7a")
    };
    let mut report = fig7::render(&r);
    report.push_str("PowerSensor3 trace:\n");
    report.push_str(&crate::report_plot(&r.ps3));
    let mut csvs = Vec::new();
    // PS3 trace decimated to 2 kHz for a manageable artifact.
    csvs.push(Csv {
        name: format!("{stem}_ps3.csv"),
        header: vec!["t_s", "power_w"],
        rows: r
            .ps3
            .iter()
            .step_by(10)
            .map(|s| vec![s.time.as_secs_f64(), s.power.value()])
            .collect(),
    });
    for (sensor_name, trace) in &r.onboard {
        let slug: String = sensor_name
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        csvs.push(Csv {
            name: format!("{stem}_{slug}.csv"),
            header: vec!["t_s", "power_w"],
            rows: trace
                .iter()
                .map(|s| vec![s.time.as_secs_f64(), s.power.value()])
                .collect(),
        });
    }
    let samples = r.ps3.len() as u64;
    output(report, csvs, samples)
}

fn run_fig8(scale: &Scale, seed: u64) -> ExperimentOutput {
    let f = fig8::run_rtx4000(scale.tuner_stride, scale.tuner_clock_stride, seed);
    output(fig8::render(&f), vec![tuning_csv(&f, "fig8.csv")], 0)
}

fn run_fig10(scale: &Scale, seed: u64) -> ExperimentOutput {
    // Jetson kernels are ~8× longer; thin the sweep accordingly.
    let f = fig8::run_jetson(scale.tuner_stride * 4, scale.tuner_clock_stride, seed);
    output(fig8::render(&f), vec![tuning_csv(&f, "fig10.csv")], 0)
}

fn tuning_csv(f: &fig8::TuningFigure, name: &str) -> Csv {
    Csv {
        name: name.to_owned(),
        header: vec!["clock_mhz", "tflops", "tflop_per_j", "energy_j", "pareto"],
        rows: f
            .outcome
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                vec![
                    r.clock_mhz,
                    r.tflops,
                    r.tflop_per_joule,
                    r.energy_j,
                    if f.pareto.contains(&i) { 1.0 } else { 0.0 },
                ]
            })
            .collect(),
    }
}

fn run_fig12a(scale: &Scale, seed: u64) -> ExperimentOutput {
    let rows = fig12::run_reads(scale.fig12a_window, seed);
    let csv: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| vec![f64::from(r.size_kib), r.bandwidth_mbps, r.power_w])
        .collect();
    output(
        fig12::render_reads(&rows),
        vec![Csv {
            name: "fig12a.csv".into(),
            header: vec!["size_kib", "bw_mbps", "power_w"],
            rows: csv,
        }],
        0,
    )
}

fn run_fig12b(scale: &Scale, seed: u64) -> ExperimentOutput {
    let points = fig12::run_writes(scale.fig12b_seconds, seed);
    let mut report = fig12::render_writes(&points);
    let bw: Vec<f64> = points.iter().map(|p| p.bandwidth_mbps).collect();
    report.push_str("bandwidth over time (MB/s):\n");
    report.push_str(&ps3_analysis::ascii_plot(&bw, 72, 10));
    let csv: Vec<Vec<f64>> = points
        .iter()
        .map(|p| vec![p.t_s, p.bandwidth_mbps, p.power_w])
        .collect();
    output(
        report,
        vec![Csv {
            name: "fig12b.csv".into(),
            header: vec!["t_s", "bw_mbps", "power_w"],
            rows: csv,
        }],
        0,
    )
}

fn run_interference(scale: &Scale, seed: u64) -> ExperimentOutput {
    let fields = [0.0, 1.0, 2.0, 5.0, 10.0];
    let samples = scale.table2_samples / 4;
    let rows = interference::run(&fields, samples, seed);
    let csv: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| vec![r.field_mt, r.differential_err_w, r.single_ended_err_w])
        .collect();
    output(
        interference::render(&rows),
        vec![Csv {
            name: "interference.csv".into(),
            header: vec!["field_mt", "differential_err_w", "single_ended_err_w"],
            rows: csv,
        }],
        fields.len() as u64 * samples as u64,
    )
}

fn run_related(scale: &Scale, seed: u64) -> ExperimentOutput {
    let rows = related::run(scale.fig7_timing, seed);
    let csv: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tool.rate_hz,
                r.samples as f64,
                r.min_w,
                r.max_w,
                r.energy_j,
                f64::from(u8::from(r.sees_dips)),
            ]
        })
        .collect();
    output(
        related::render(&rows),
        vec![Csv {
            name: "related.csv".into(),
            header: vec![
                "rate_hz",
                "samples",
                "min_w",
                "max_w",
                "energy_j",
                "sees_dips",
            ],
            rows: csv,
        }],
        0,
    )
}

fn run_capping(seed: u64) -> ExperimentOutput {
    let caps = [130.0, 115.0, 100.0, 85.0, 70.0, 55.0, 45.0, 35.0, 25.0];
    let rows = capping::run(&caps, seed);
    let csv: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| vec![r.cap_w, r.runtime_s, r.energy_j, r.mean_power_w])
        .collect();
    output(
        capping::render(&rows),
        vec![Csv {
            name: "capping.csv".into(),
            header: vec!["cap_w", "runtime_s", "energy_j", "mean_power_w"],
            rows: csv,
        }],
        0,
    )
}

fn run_archive(scale: &Scale, seed: u64) -> ExperimentOutput {
    let r = archive::run(scale.samples_per_point, seed);
    let csv: Vec<Vec<f64>> = r
        .segments
        .iter()
        .map(|s| {
            vec![
                f64::from(s.seq),
                s.frames as f64,
                s.bytes as f64,
                if s.frames == 0 {
                    0.0
                } else {
                    s.bytes as f64 / s.frames as f64
                },
            ]
        })
        .collect();
    let mut out = output(
        archive::render(&r),
        vec![Csv {
            name: "archive.csv".into(),
            header: vec!["seq", "frames", "bytes", "bytes_per_sample"],
            rows: csv,
        }],
        r.frames,
    );
    out.metrics = vec![
        ("archive_bytes_per_sample".into(), r.bytes_per_sample()),
        ("archive_compression_ratio".into(), r.ratio()),
        (
            "archive_roundtrip_exact".into(),
            f64::from(r.roundtrip_exact),
        ),
        ("archive_stats_bit_exact".into(), f64::from(r.stats_exact)),
        ("archive_verify_clean".into(), f64::from(r.verify_clean)),
    ];
    out
}

fn run_tsdb(scale: &Scale, seed: u64) -> ExperimentOutput {
    let points = tsdb::run(&scale.tsdb_frames, seed);
    let csv: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            vec![
                p.frames as f64,
                p.segments as f64,
                p.blocks as f64,
                p.tier1 as f64,
                p.tier2 as f64,
                p.count as f64,
                f64::from(p.stats_exact),
                p.energy_rel_err,
            ]
        })
        .collect();
    let samples: u64 = points.iter().map(|p| p.frames).sum();
    let mut out = output(
        tsdb::render(&points),
        vec![Csv {
            name: "tsdb.csv".into(),
            header: vec![
                "frames",
                "segments",
                "blocks",
                "tier1",
                "tier2",
                "count",
                "stats_exact",
                "energy_rel_err",
            ],
            rows: csv,
        }],
        samples,
    );
    // The latency-vs-capture-size curve: wall-clock, so it belongs in
    // the perf record, never in the deterministic report or CSV.
    out.metrics = points
        .iter()
        .flat_map(|p| {
            [
                (format!("tsdb_{}_pyramid_s", p.frames), p.pyramid_wall_s),
                (format!("tsdb_{}_decode_s", p.frames), p.decode_wall_s),
                (format!("tsdb_{}_speedup", p.frames), p.speedup()),
            ]
        })
        .collect();
    if let Some(last) = points.last() {
        out.metrics
            .push(("tsdb_speedup_at_largest".into(), last.speedup()));
        out.metrics.push((
            "tsdb_stats_exact".into(),
            f64::from(points.iter().all(|p| p.stats_exact)),
        ));
    }
    out
}

fn run_overhead(scale: &Scale) -> ExperimentOutput {
    let cells = overhead::run(&scale.overhead_freqs);
    let csv: Vec<Vec<f64>> = cells
        .iter()
        .map(|c| {
            let kind_idx = ps3_pmt::ProbeKind::ALL
                .iter()
                .position(|&k| k == c.kind)
                .unwrap_or(0);
            vec![
                kind_idx as f64,
                c.freq_hz as f64,
                c.reads as f64,
                c.runtime_s,
                c.inflation_pct,
                c.stolen_ms,
                c.energy_est_j,
                c.truth_j,
                c.err_pct,
                c.energy_overhead_pct,
            ]
        })
        .collect();
    let samples: u64 = cells.iter().map(|c| c.reads).sum();
    let mut out = output(
        overhead::render(&cells),
        vec![Csv {
            name: "overhead.csv".into(),
            header: vec![
                "probe",
                "freq_hz",
                "reads",
                "runtime_s",
                "inflation_pct",
                "stolen_ms",
                "energy_est_j",
                "truth_j",
                "err_pct",
                "energy_overhead_pct",
            ],
            rows: csv,
        }],
        samples,
    );
    // Unlike the latency experiments these curves are fully simulated,
    // so they are deterministic — recording them as metrics puts the
    // perturbation/error story into BENCH_repro.json alongside the CSV.
    out.metrics = cells
        .iter()
        .flat_map(|c| {
            [
                (
                    format!("overhead_{}_{}hz_inflation_pct", c.kind.slug(), c.freq_hz),
                    c.inflation_pct,
                ),
                (
                    format!("overhead_{}_{}hz_err_pct", c.kind.slug(), c.freq_hz),
                    c.err_pct,
                ),
            ]
        })
        .collect();
    out.metrics.push((
        "overhead_ps3_ratio_at_max_hz".into(),
        overhead::ps3_ratio_at_max_hz(&cells),
    ));
    out
}

fn run_sim(seed: u64) -> ExperimentOutput {
    let r = sim::run(seed);
    let csv: Vec<Vec<f64>> = r
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            vec![
                i as f64,
                row.seed as f64,
                row.frames as f64,
                row.violations as f64,
                // A u64 fingerprint does not fit an f64 exactly; split
                // it so the CSV still pins the replay identity.
                f64::from((row.fingerprint >> 32) as u32),
                f64::from(row.fingerprint as u32),
            ]
        })
        .collect();
    let mut out = output(
        sim::render(&r),
        vec![Csv {
            name: "sim.csv".into(),
            header: vec![
                "run",
                "seed",
                "frames",
                "violations",
                "fingerprint_hi",
                "fingerprint_lo",
            ],
            rows: csv,
        }],
        r.total_frames(),
    );
    out.metrics = vec![
        ("sim_scenarios".into(), r.rows.len() as f64),
        ("sim_violations".into(), r.total_violations() as f64),
        ("sim_sabotage_caught".into(), f64::from(r.sabotage_caught)),
    ];
    out
}

fn run_fleet(scale: &Scale, seed: u64) -> ExperimentOutput {
    let points = fleet::run(&scale.fleet_rigs, seed);
    let csv: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            vec![
                f64::from(p.rigs),
                p.published as f64,
                p.received as f64,
                p.gap_events as f64,
                p.dropped as f64,
                p.archive_samples as f64,
                p.energy_j,
                f64::from(u8::from(p.energy_exact)),
            ]
        })
        .collect();
    let samples: u64 = points.iter().map(|p| p.published).sum();
    let mut out = output(
        fleet::render(&points),
        vec![Csv {
            name: "fleet.csv".into(),
            header: vec![
                "rigs",
                "published",
                "received",
                "gap_events",
                "dropped",
                "archive_samples",
                "energy_j",
                "energy_exact",
            ],
            rows: csv,
        }],
        samples,
    );
    // The rigs-vs-throughput curve: wall-clock, so it belongs in the
    // perf record, never in the deterministic report or CSV.
    out.metrics = points
        .iter()
        .flat_map(|p| {
            [
                (
                    format!("fleet_{}_rigs_frames_per_sec", p.rigs),
                    p.frames_per_sec(),
                ),
                (format!("fleet_{}_rigs_query_s", p.rigs), p.query_wall_s),
            ]
        })
        .collect();
    out
}

fn run_stream(scale: &Scale, seed: u64) -> ExperimentOutput {
    let points = stream::run(&scale.stream_subs, seed);
    let csv: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            vec![
                p.subscribers as f64,
                p.published as f64,
                p.expected_per_sub as f64,
                p.delivered as f64,
                p.gap_events as f64,
                p.dropped as f64,
                p.evicted as f64,
            ]
        })
        .collect();
    let samples: u64 = points.iter().map(|p| p.published).sum();
    let mut out = output(
        stream::render(&points),
        vec![Csv {
            name: "stream.csv".into(),
            header: vec![
                "subscribers",
                "published",
                "expected_per_sub",
                "delivered",
                "gap_events",
                "dropped",
                "evicted",
            ],
            rows: csv,
        }],
        samples,
    );
    // The subscribers-vs-latency/throughput curve: wall-clock, so it
    // belongs in the perf record, never in the deterministic report
    // or CSV.
    out.metrics = points
        .iter()
        .flat_map(|p| {
            [
                (format!("stream_{}_subs_p50_ms", p.subscribers), p.p50_ms),
                (format!("stream_{}_subs_p99_ms", p.subscribers), p.p99_ms),
                (
                    format!("stream_{}_subs_frames_per_sec", p.subscribers),
                    p.frames_per_sec(),
                ),
                (
                    format!("stream_{}_subs_deliveries_per_sec", p.subscribers),
                    p.deliveries_per_sec(),
                ),
                (
                    format!("stream_{}_subs_connect_s", p.subscribers),
                    p.connect_wall_s,
                ),
            ]
        })
        .collect();
    out
}

fn run_noise(scale: &Scale, seed: u64) -> ExperimentOutput {
    let loads = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 9.5];
    let samples = scale.table2_samples / 16;
    let rows = noise::run(&loads, samples, seed);
    let csv: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            vec![
                r.amps,
                r.sigma_i,
                r.sigma_u,
                r.current_term_w,
                r.voltage_term_w,
            ]
        })
        .collect();
    output(
        noise::render(&rows),
        vec![Csv {
            name: "noise.csv".into(),
            header: vec!["amps", "sigma_i", "sigma_u", "u_term_w", "i_term_w"],
            rows: csv,
        }],
        loads.len() as u64 * samples as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("fig99", &Scale::smoke(), 1).is_none());
    }

    #[test]
    fn run_all_preserves_request_order() {
        let runs = run_all(&["table1", "fig99", "table1"], &Scale::smoke(), 1);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].output.as_ref().unwrap().name, "table1");
        assert!(runs[1].output.is_none());
        assert_eq!(
            runs[0].output.as_ref().unwrap().csvs,
            runs[2].output.as_ref().unwrap().csvs
        );
    }

    #[test]
    fn every_default_experiment_is_known() {
        // Cheap sanity check on the name table only: table1 is the one
        // default experiment that costs microseconds; the rest are
        // covered by the determinism integration test.
        assert!(DEFAULT_EXPERIMENTS.contains(&"table1"));
        for name in DEFAULT_EXPERIMENTS {
            assert!(
                [
                    "table1",
                    "table2",
                    "fig4",
                    "fig5",
                    "stability",
                    "fig7a",
                    "fig7b",
                    "fig8",
                    "fig10",
                    "fig12a",
                    "fig12b",
                    "interference",
                    "archive",
                    "tsdb",
                    "overhead",
                    "sim",
                    "fleet",
                    "stream",
                ]
                .contains(&name),
                "{name} missing from the dispatch table"
            );
        }
    }
}
