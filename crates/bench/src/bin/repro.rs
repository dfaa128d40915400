//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--full] [--smoke] [--jobs N] [--compare-serial] [experiment...]
//! experiments: table1 table2 fig4 fig5 stability fig7a fig7b fig8 fig10
//!              fig12a fig12b interference archive tsdb overhead sim fleet
//!              stream
//!              (default: all)
//! ```
//!
//! Default scales are reduced so a full run finishes in minutes;
//! `--full` uses the paper's sample counts (128 k samples per point,
//! the whole 5120-configuration sweep, 50 hours of stability, >20 min
//! of random writes) and `--smoke` a seconds-scale CI subset.
//!
//! Experiments run in parallel on `--jobs` threads (default: the
//! `PS3_JOBS` environment variable, else all cores; `--jobs 1` is the
//! legacy serial mode). Both take a positive integer; anything else
//! exits 1. Output is bit-identical for every thread count.
//! `--compare-serial` first times a serial pass, so the emitted
//! `BENCH_repro.json` carries a measured speedup instead of only the
//! parallel wall times.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::process::ExitCode;
use std::time::Instant;

use ps3_bench::driver::{self, ExperimentRun, Scale};
use ps3_bench::report;

/// The rule for `--jobs` and `PS3_JOBS`: a positive integer.
fn positive(value: &str) -> Option<usize> {
    value.parse().ok().filter(|&n| n >= 1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::reduced();
    // --jobs beats PS3_JOBS beats all cores (configure_global(0)).
    let mut jobs = match std::env::var("PS3_JOBS") {
        Err(std::env::VarError::NotPresent) => None,
        v => match v.ok().as_deref().and_then(positive) {
            Some(n) => Some(n),
            None => {
                eprintln!("PS3_JOBS needs a positive integer");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut compare_serial = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => scale = Scale::full(),
            "--smoke" => scale = Scale::smoke(),
            "--compare-serial" => compare_serial = true,
            "--jobs" => match it.next().as_deref().and_then(positive) {
                Some(n) => jobs = Some(n),
                None => {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                return ExitCode::FAILURE;
            }
            other => wanted.push(other.to_owned()),
        }
    }
    if wanted.is_empty() {
        wanted = driver::DEFAULT_EXPERIMENTS
            .iter()
            .map(|n| (*n).to_owned())
            .collect();
    }
    let names: Vec<&str> = wanted.iter().map(String::as_str).collect();

    rayon::configure_global(jobs.unwrap_or(0));
    let jobs_used = rayon::current_num_threads();

    let serial_wall_s = if compare_serial && jobs_used > 1 {
        rayon::configure_global(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock speedup metric: measures real elapsed time of the parallel run, outside the simulated timeline"
        )]
        let start = Instant::now();
        let _ = driver::run_all(&names, &scale, driver::SEED);
        let serial = start.elapsed().as_secs_f64();
        rayon::configure_global(jobs.unwrap_or(0));
        Some(serial)
    } else {
        None
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock speedup metric: measures real elapsed time of the parallel run, outside the simulated timeline"
    )]
    let start = Instant::now();
    let runs = driver::run_all(&names, &scale, driver::SEED);
    let total_wall_s = start.elapsed().as_secs_f64();

    let mut entries = Vec::new();
    let mut unknown = false;
    for (name, run) in names.iter().zip(&runs) {
        println!("==============================================================");
        println!("== {name}");
        println!("==============================================================");
        let ExperimentRun { output, wall_s } = run;
        match output {
            Some(out) => {
                print!("{}", out.report);
                for csv in &out.csvs {
                    match report::write_csv(&csv.name, &csv.header, &csv.rows) {
                        Ok(path) => println!("[wrote {}]", path.display()),
                        Err(e) => eprintln!("[failed to write {}: {e}]", csv.name),
                    }
                }
                entries.push(report::BenchEntry {
                    name: out.name.clone(),
                    wall_s: *wall_s,
                    samples: out.samples,
                    metrics: out.metrics.clone(),
                });
            }
            None => {
                eprintln!("unknown experiment: {name}");
                unknown = true;
            }
        }
        println!("[{name} took {wall_s:.1} s]\n");
    }

    println!("== timing summary ({jobs_used} jobs) ==");
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            let rate = if e.samples > 0 && e.wall_s > 0.0 {
                format!("{:.0}", e.samples as f64 / e.wall_s)
            } else {
                "-".to_owned()
            };
            vec![e.name.clone(), format!("{:.2}", e.wall_s), rate]
        })
        .collect();
    print!(
        "{}",
        report::text_table(&["experiment", "wall [s]", "samples/s"], &rows)
    );
    println!("total: {total_wall_s:.2} s");
    if let Some(serial) = serial_wall_s {
        println!(
            "serial reference: {serial:.2} s -> speedup {:.2}x",
            serial / total_wall_s
        );
    }

    match report::write_bench_json(jobs_used, total_wall_s, serial_wall_s, &entries) {
        Ok(path) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("[failed to write BENCH_repro.json: {e}]"),
    }

    if unknown {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
