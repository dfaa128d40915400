//! `ps3-streamd` — the PowerSensor3 streaming daemon over a simulated
//! device.
//!
//! Owns the (virtual) sensor and serves its 20 kHz sample stream to
//! any number of TCP subscribers; see `examples/streaming.rs` for the
//! client side. The virtual testbed clock is paced against wall time
//! so remote subscribers observe a live, real-rate stream.
//!
//! ```text
//! ps3-streamd [--bind HOST:PORT] [--setup bench|gpu] [--seed N] [--secs N]
//!             [--persist FILE] [--replay FILE [--speed X]]
//!
//!   --bind     listen address          (default $PS3_BIND, else 127.0.0.1:9421;
//!              --addr is an accepted alias)
//!   --setup    simulated rig           (default bench)
//!   --seed     sensor imperfections    (default 42)
//!   --secs     run duration, 0=forever (default 0)
//!   --persist  archive the live stream to a .ps3a trace store
//!   --replay   serve an archived .ps3a capture instead of a live rig
//!   --speed    replay pacing factor, 0=as fast as possible (default 1)
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use powersensor3::archive::{Archive, ArchiveWriter, ArchiveWriterOptions};
use powersensor3::cli::{done_line, flag, flag_value, progress_line};
use powersensor3::core::SharedPowerSensor;
use powersensor3::duts::{GpuKernel, GpuSpec, LoadProgram};
use powersensor3::sensors::ModuleKind;
use powersensor3::stream::{resolve_bind, StreamDaemon, StreamDaemonConfig};
use powersensor3::testbed::setups;
use powersensor3::units::{Amps, SimDuration};

/// Wall-clock pacing granularity for the virtual device clock.
const TICK: Duration = Duration::from_millis(50);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("ps3-streamd: {e}");
        ExitCode::FAILURE
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: ps3-streamd [--bind HOST:PORT] [--setup bench|gpu] [--seed N] [--secs N]\n\
             \x20                  [--persist FILE] [--replay FILE [--speed X]]\n\
             the listen address falls back to $PS3_BIND, then 127.0.0.1:9421"
        );
        return Ok(ExitCode::SUCCESS);
    }
    let bind = match flag_value(args, "--bind")? {
        Some(bind) => Some(bind),
        None => flag_value(args, "--addr")?,
    };
    let addr = resolve_bind(bind, "127.0.0.1:9421");
    let setup = flag_value(args, "--setup")?.unwrap_or_else(|| "bench".to_owned());
    let seed: u64 = flag(args, "--seed")?.unwrap_or(42);
    let secs: u64 = flag(args, "--secs")?.unwrap_or(0);

    if let Some(path) = flag_value(args, "--replay")? {
        let speed: f64 = flag(args, "--speed")?.unwrap_or(1.0);
        return Ok(run_replay(&path, &addr, speed, secs));
    }

    // Build the simulated rig and a closure that paces its clock.
    let (sensor, mut advance, label): (SharedPowerSensor, AdvanceFn, &str) = match setup.as_str() {
        "bench" => {
            let mut tb = setups::accuracy_bench(
                ModuleKind::Slot10A12V,
                LoadProgram::SquareWave {
                    low: Amps::new(2.0),
                    high: Amps::new(6.0),
                    frequency_hz: 2.0,
                },
                seed,
            );
            let ps = SharedPowerSensor::new(tb.connect().expect("connect"));
            let sensor = ps.clone();
            (
                ps,
                Box::new(move |d| tb.advance_and_sync(&sensor, d).expect("advance")),
                "12 V bench, 2/6 A square wave",
            )
        }
        "gpu" => {
            let mut tb = setups::gpu_riser(GpuSpec::rtx4000_ada(), seed);
            let dut = tb.dut();
            let ps = SharedPowerSensor::new(tb.connect().expect("connect"));
            let sensor = ps.clone();
            let mut next_kick = SimDuration::ZERO;
            let mut elapsed = SimDuration::ZERO;
            (
                ps,
                Box::new(move |d| {
                    // Re-launch a kernel burst every virtual second.
                    if elapsed >= next_kick {
                        dut.lock()
                            .launch(GpuKernel::synthetic_fma(SimDuration::from_millis(600), 8));
                        next_kick = elapsed + SimDuration::from_secs(1);
                    }
                    elapsed += d;
                    tb.advance_and_sync(&sensor, d).expect("advance");
                }),
                "RTX 4000 Ada riser, 600 ms kernel bursts",
            )
        }
        other => {
            eprintln!("unknown setup '{other}' (expected bench|gpu)");
            return Ok(ExitCode::FAILURE);
        }
    };

    // Persist mode: archive every acquired frame to a .ps3a trace
    // store alongside serving the live stream.
    let writer = match flag_value(args, "--persist")? {
        Some(path) => {
            match ArchiveWriter::spawn(&path, sensor.configs(), ArchiveWriterOptions::default()) {
                Ok(w) => {
                    w.attach(&sensor);
                    println!("ps3-streamd: persisting to {path}");
                    Some(w)
                }
                Err(e) => {
                    eprintln!("cannot create archive {path}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        None => None,
    };

    let daemon = match StreamDaemon::start(sensor, &addr[..], StreamDaemonConfig::default()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{}", powersensor3::stream::bind_error(&addr, &e));
            return Ok(ExitCode::FAILURE);
        }
    };
    println!("ps3-streamd: {label}");
    println!(
        "listening on {} (subscribe with powersensor3::stream::StreamClient)",
        daemon.local_addr()
    );

    // Pace the virtual clock against wall time.
    let start = Instant::now();
    let mut ticks = 0u64;
    loop {
        if secs > 0 && start.elapsed() >= Duration::from_secs(secs) {
            break;
        }
        advance(SimDuration::from_nanos(TICK.as_nanos() as u64));
        ticks += 1;
        // Sleep off whatever wall time this tick has not yet used.
        let target = TICK * u32::try_from(ticks).unwrap_or(u32::MAX);
        if let Some(lag) = target.checked_sub(start.elapsed()) {
            std::thread::sleep(lag);
        }
        if ticks.is_multiple_of(200) {
            println!("{}", progress_line(ticks / 20, &daemon.stats()));
        }
    }
    println!("{}", done_line(&daemon.stats()));
    if let Some(w) = writer {
        match w.finish() {
            Ok(ws) => println!(
                "archived {} frames in {} segments ({} bytes, {} dropped)",
                ws.frames, ws.segments, ws.bytes, ws.dropped
            ),
            Err(e) => {
                eprintln!("archive finalisation failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Replay mode: serves an archived capture's frames over the same
/// stream protocol, paced by `--speed` (1 = real rate, 0 = unpaced).
fn run_replay(path: &str, addr: &str, speed: f64, secs: u64) -> ExitCode {
    let archive = match Archive::open(path) {
        Ok(a) => Arc::new(a),
        Err(e) => {
            eprintln!("cannot open archive {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let frames = archive.frames();
    let daemon =
        match StreamDaemon::start_replay(archive, None, speed, addr, StreamDaemonConfig::default())
        {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{}", powersensor3::stream::bind_error(addr, &e));
                return ExitCode::FAILURE;
            }
        };
    println!("ps3-streamd: replaying {path} ({frames} frames at {speed}x)");
    println!(
        "listening on {} (subscribe with powersensor3::stream::StreamClient)",
        daemon.local_addr()
    );
    let start = Instant::now();
    let mut last_report = 0u64;
    loop {
        if secs > 0 && start.elapsed() >= Duration::from_secs(secs) {
            break;
        }
        std::thread::sleep(TICK);
        let elapsed = start.elapsed().as_secs();
        if elapsed >= last_report + 10 {
            last_report = elapsed;
            let s = daemon.stats();
            println!(
                "t={elapsed:>5} s  frames={}  subscribers={}  gaps={}",
                s.frames_published, s.active_subscribers, s.gap_events
            );
        }
    }
    println!("{}", done_line(&daemon.stats()));
    ExitCode::SUCCESS
}

type AdvanceFn = Box<dyn FnMut(SimDuration)>;
