//! One benchmark process: runs one workload once and prints its result
//! record as the last line of standard output.
//!
//! ```text
//! perfbench run|trace --workload ingest|serve|query|fleet --seed N
//!                     --seconds S --dir SCRATCH [--check K/N]
//! ```
//!
//! `run` measures the end-to-end metrics with no probes attached;
//! `trace` repeats the workload with the benchmark's probes and layer
//! timings and adds the per-layer metrics. `run.py` starts one process
//! per repetition, so no state leaks between repetitions.

#![deny(unsafe_code)]

mod common;
mod fleet;
mod ingest;
mod query;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Args, Report};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let traced = match argv.first().map(String::as_str) {
        Some("run") => false,
        Some("trace") => true,
        _ => {
            eprintln!("usage: perfbench run|trace --workload W --seed N --seconds S --dir D [--check K/N]");
            return ExitCode::from(2);
        }
    };
    let parsed = (|| {
        Some((
            flag(&argv, "--workload")?,
            Args {
                seed: flag(&argv, "--seed")?.parse().ok()?,
                seconds: flag(&argv, "--seconds")?.parse().ok()?,
                dir: PathBuf::from(flag(&argv, "--dir")?),
                check: match flag(&argv, "--check") {
                    None => (0, 1),
                    Some(share) => {
                        let (k, n) = share.split_once('/')?;
                        let (k, n) = (k.parse().ok()?, n.parse().ok()?);
                        (k < n).then_some((k, n))?
                    }
                },
            },
        ))
    })();
    let Some((workload, args)) = parsed else {
        eprintln!("perfbench: missing or malformed --workload/--seed/--seconds/--dir/--check");
        return ExitCode::from(2);
    };
    let run: fn(&Args, bool) -> Report = match workload.as_str() {
        "ingest" => ingest::run,
        "serve" => serve::run,
        "query" => query::run,
        "fleet" => fleet::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", run(&args, traced).to_json());
    ExitCode::SUCCESS
}
