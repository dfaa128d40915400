//! `ps3-sim` — the deterministic simulation & fault-injection harness.
//!
//! Runs the full acquisition→stream→archive stack under seeded
//! byte-level fault plans and checks global invariants. Every failure
//! replays bit-exactly from `(scenario, seed, plan)`.
//!
//! ```text
//! ps3-sim <command> [options]
//!
//! commands:
//!   sweep    [--seeds N] [--start S] [--scenario NAME] [--out DIR]
//!            run N seeds (default 8) across all scenarios, shrink
//!            failures, write one JSON artifact per failure
//!   run      --seed N [--scenario NAME] [--plan P] [--sabotage X]
//!            one run; prints the report, exits nonzero on violations
//!   replay   --seed N [--scenario NAME] [--plan P] [--sabotage X]
//!            run twice and verify the fingerprints are identical
//!   list     print known scenarios and sabotage modes
//!
//! options:
//!   --scenario NAME   pipeline | device-crash | tcp-faults | archive-crash |
//!                     tsdb | fleet | c10k | probes
//!   --plan P          compact plan, e.g. drop@4096,flip@5000:3 (- = empty)
//!   --sabotage X      none | uncounted-drop | unsealed-tail
//!   --out DIR         where sweep writes failure-*.json + summary.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use powersensor3::cli::{flag, flag_value};
use powersensor3::sim::{runner, Sabotage, ScenarioReport, SimPlan, SCENARIOS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("usage: ps3-sim <sweep|run|replay|list> [options]");
        return ExitCode::FAILURE;
    };
    run(command, &args).unwrap_or_else(|e| {
        eprintln!("ps3-sim: {e}");
        ExitCode::FAILURE
    })
}

fn run(command: &str, args: &[String]) -> Result<ExitCode, String> {
    let scenario = flag_value(args, "--scenario")?;
    let plan = match flag_value(args, "--plan")? {
        None => None,
        Some(p) => Some(SimPlan::parse(&p).map_err(|e| format!("bad --plan: {e}"))?),
    };
    let sabotage = match flag_value(args, "--sabotage")? {
        None => Sabotage::None,
        Some(name) => Sabotage::parse(&name)
            .ok_or_else(|| format!("unknown --sabotage '{name}' ({})", Sabotage::names()))?,
    };

    Ok(match command {
        "list" => {
            println!("scenarios: {}", SCENARIOS.join(", "));
            println!("sabotage modes: {}", Sabotage::names());
            ExitCode::SUCCESS
        }
        "sweep" => cmd_sweep(args, scenario.as_deref(), sabotage)?,
        "run" => cmd_run(args, scenario.as_deref(), plan.as_ref(), sabotage)?,
        "replay" => cmd_replay(args, scenario.as_deref(), plan.as_ref(), sabotage)?,
        other => {
            eprintln!("ps3-sim: unknown command '{other}' (sweep, run, replay, list)");
            ExitCode::FAILURE
        }
    })
}

fn cmd_sweep(
    args: &[String],
    scenario: Option<&str>,
    sabotage: Sabotage,
) -> Result<ExitCode, String> {
    let seeds: u64 = flag(args, "--seeds")?.unwrap_or(8);
    let start: u64 = flag(args, "--start")?.unwrap_or(1);
    let out: Option<PathBuf> = flag_value(args, "--out")?.map(PathBuf::from);
    let scenarios: Vec<&str> = scenario.map(|s| vec![s]).unwrap_or_default();

    let outcome = match runner::sweep(&scenarios, start..start + seeds, sabotage, out.as_deref()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ps3-sim: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if let Some(dir) = &out {
        if let Err(e) = runner::write_summary(&outcome, dir) {
            eprintln!("ps3-sim: write summary: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    println!(
        "swept {} scenario runs over seeds {}..{}: {} violation(s), {} failing run(s)",
        outcome.scenarios_run,
        start,
        start + seeds,
        outcome.violations,
        outcome.failures.len()
    );
    for failure in &outcome.failures {
        let r = &failure.report;
        println!(
            "  FAIL {} seed {} plan {} ({} violation(s)){}",
            r.scenario,
            r.seed,
            r.plan,
            r.violations.len(),
            failure
                .artifact
                .as_ref()
                .map(|p| format!(" -> {}", p.display()))
                .unwrap_or_default()
        );
        for v in &r.violations {
            println!("       {v}");
        }
    }
    Ok(if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_run(
    args: &[String],
    scenario: Option<&str>,
    plan: Option<&SimPlan>,
    sabotage: Sabotage,
) -> Result<ExitCode, String> {
    let Some(seed) = flag(args, "--seed")? else {
        eprintln!("usage: ps3-sim run --seed N [--scenario NAME] [--plan P] [--sabotage X]");
        return Ok(ExitCode::FAILURE);
    };
    let scenario = scenario.unwrap_or("pipeline");
    Ok(match runner::run_one(scenario, seed, plan, sabotage) {
        Ok(report) => {
            print_report(&report);
            if report.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ps3-sim: {e}");
            ExitCode::FAILURE
        }
    })
}

fn cmd_replay(
    args: &[String],
    scenario: Option<&str>,
    plan: Option<&SimPlan>,
    sabotage: Sabotage,
) -> Result<ExitCode, String> {
    let Some(seed) = flag(args, "--seed")? else {
        eprintln!("usage: ps3-sim replay --seed N [--scenario NAME] [--plan P] [--sabotage X]");
        return Ok(ExitCode::FAILURE);
    };
    let scenario = scenario.unwrap_or("pipeline");
    let first = match runner::run_one(scenario, seed, plan, sabotage) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ps3-sim: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let second =
        runner::run_one(scenario, seed, plan, sabotage).expect("scenario ran once already");
    print_report(&first);
    Ok(if first.fingerprint == second.fingerprint {
        println!(
            "replay OK: fingerprint {:016x} is identical across two runs",
            first.fingerprint
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "replay MISMATCH: {:016x} vs {:016x} — the run is not deterministic",
            first.fingerprint, second.fingerprint
        );
        ExitCode::FAILURE
    })
}

fn print_report(report: &ScenarioReport) {
    println!(
        "{} seed {} plan {} -> {} frames, fingerprint {:016x}",
        report.scenario, report.seed, report.plan, report.frames, report.fingerprint
    );
    for (k, v) in &report.facts {
        println!("  {k}: {v}");
    }
    if report.violations.is_empty() {
        println!("  invariants: all hold");
    } else {
        for v in &report.violations {
            println!("  VIOLATION {v}");
        }
    }
}
