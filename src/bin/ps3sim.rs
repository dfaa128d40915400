//! `ps3sim` — command-line front end to the simulated PowerSensor3.
//!
//! The real PowerSensor3 ships standalone executables (`psinfo`,
//! `pstest`, `psrun`, `psconfig`); this binary bundles their
//! equivalents behind one CLI, each against a selectable simulated
//! setup:
//!
//! ```text
//! ps3sim <command> [--setup bench|gpu|amd|jetson|ssd|nic] [--seed N]
//!
//! commands:
//!   info                          sensor configuration + live readings
//!   test                          energy/power at increasing intervals
//!   run [--millis N]              measure a canned workload (default 500 ms)
//!   dump [--millis N] [--out F]   continuous-mode capture to a dump file
//!   parse <file>                  analyse a dump file (stats, markers)
//!   calibrate                     one-time calibration on the bench setup
//!   version                       firmware version string
//! ```

use std::process::ExitCode;

use powersensor3::analysis::{parse_dump, SampleStats};
use powersensor3::cli::{flag, flag_value};
use powersensor3::core::{tools, PowerSensor};
use powersensor3::duts::{
    BenchSetup, Dut, FioJob, GpuKernel, GpuSpec, IoPattern, JetsonSpec, LoadProgram, NicModel,
    NicSpec, RailId, SsdSpec, TrafficLoad,
};
use powersensor3::sensors::ModuleKind;
use powersensor3::testbed::setups;
use powersensor3::testbed::{Testbed, TestbedBuilder};
use powersensor3::units::{Amps, SimDuration, Volts};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("usage: ps3sim <info|test|run|dump|parse|calibrate|version> [options]");
        return ExitCode::FAILURE;
    };
    run(command, &args).unwrap_or_else(|e| {
        eprintln!("ps3sim {command}: {e}");
        ExitCode::FAILURE
    })
}

fn run(command: &str, args: &[String]) -> Result<ExitCode, String> {
    let setup = flag_value(args, "--setup")?.unwrap_or_else(|| "bench".to_owned());
    let seed: u64 = flag(args, "--seed")?.unwrap_or(42);
    let millis: u64 = flag(args, "--millis")?.unwrap_or(500);

    match command {
        "parse" => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: ps3sim parse <dump-file>");
                return Ok(ExitCode::FAILURE);
            };
            return Ok(cmd_parse(path));
        }
        "calibrate" => return Ok(cmd_calibrate(seed)),
        _ => {}
    }

    let Some(mut rig) = Rig::build(&setup, seed) else {
        eprintln!("unknown setup '{setup}' (expected bench|gpu|amd|jetson|ssd|nic)");
        return Ok(ExitCode::FAILURE);
    };
    Ok(match command {
        "info" => {
            rig.warm_up();
            println!("{}", tools::info(&rig.ps));
            ExitCode::SUCCESS
        }
        "test" => cmd_test(&mut rig),
        "run" => cmd_run(&mut rig, millis),
        "dump" => {
            let out = flag_value(args, "--out")?.unwrap_or_else(|| "ps3sim_dump.txt".into());
            cmd_dump(&mut rig, millis, &out)
        }
        "version" => match rig.ps.firmware_version() {
            Ok(v) => {
                println!("{v}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("version query failed: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("unknown command '{other}'");
            ExitCode::FAILURE
        }
    })
}

/// Closure advancing a testbed and syncing the host.
type AdvanceFn = Box<dyn FnMut(&PowerSensor, SimDuration)>;

/// A connected testbed of any setup, with a canned workload trigger.
struct Rig {
    ps: PowerSensor,
    advance: AdvanceFn,
    kick: Box<dyn FnMut(SimDuration)>,
    label: String,
}

impl Rig {
    fn build(setup: &str, seed: u64) -> Option<Rig> {
        fn wire<D: Dut + 'static>(
            mut tb: Testbed<D>,
            label: &str,
            kick: impl FnMut(SimDuration) + 'static,
        ) -> Rig {
            let ps = tb.connect().expect("connect to simulated device");
            let label = label.to_owned();
            Rig {
                ps,
                advance: Box::new(move |ps, d| {
                    tb.advance_and_sync(ps, d).expect("advance testbed");
                }),
                kick: Box::new(kick),
                label,
            }
        }

        Some(match setup {
            "bench" => {
                let tb = setups::accuracy_bench(
                    ModuleKind::Slot10A12V,
                    LoadProgram::Constant(Amps::new(4.0)),
                    seed,
                );
                let dut = tb.dut();
                wire(tb, "12 V bench, 4 A constant load", move |_d| {
                    // The "workload": step the load up for a while.
                    dut.lock()
                        .set_program(LoadProgram::Constant(Amps::new(8.0)));
                })
            }
            "gpu" => {
                let tb = setups::gpu_riser(GpuSpec::rtx4000_ada(), seed);
                let dut = tb.dut();
                wire(tb, "RTX 4000 Ada riser", move |d| {
                    dut.lock().launch(GpuKernel::synthetic_fma(d, 8));
                })
            }
            "amd" => {
                let tb = setups::gpu_riser(GpuSpec::w7700(), seed);
                let dut = tb.dut();
                wire(tb, "AMD W7700 riser", move |d| {
                    dut.lock().launch(GpuKernel::synthetic_fma(d, 8));
                })
            }
            "jetson" => {
                let tb = setups::jetson_usbc(JetsonSpec::agx_orin(), seed);
                let dut = tb.dut();
                wire(tb, "Jetson AGX Orin USB-C", move |d| {
                    dut.lock().launch(GpuKernel::synthetic_fma(d, 4));
                })
            }
            "ssd" => {
                let tb = setups::ssd_riser(SsdSpec::samsung_980_pro(), seed);
                let dut = tb.dut();
                wire(tb, "Samsung 980 PRO riser", move |_d| {
                    dut.lock().start_job(FioJob {
                        pattern: IoPattern::RandRead { block_kib: 128 },
                        queue_depth: 32,
                    });
                })
            }
            "nic" => {
                let nic = NicModel::new(NicSpec::hundred_gbe());
                let tb = TestbedBuilder::new(nic)
                    .attach(ModuleKind::Slot10A3V3, RailId::Slot3V3)
                    .attach(ModuleKind::Slot10A12V, RailId::Slot12V)
                    .seed(seed)
                    .build();
                let dut = tb.dut();
                wire(tb, "100 GbE NIC riser", move |_d| {
                    dut.lock().offer(TrafficLoad {
                        gbps: 80.0,
                        packet_bytes: 512,
                    });
                })
            }
            _ => return None,
        })
    }

    fn warm_up(&mut self) {
        (self.advance)(&self.ps, SimDuration::from_millis(10));
    }
}

fn cmd_test(rig: &mut Rig) -> ExitCode {
    println!("pstest on {}:", rig.label);
    let intervals: Vec<SimDuration> = (0..6).map(|i| SimDuration::from_millis(5 << i)).collect();
    let Rig { ps, advance, .. } = rig;
    match tools::pstest(ps, &intervals, |d| advance(ps, d)) {
        Ok(rows) => {
            for row in rows {
                println!("  {row}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pstest failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(rig: &mut Rig, millis: u64) -> ExitCode {
    println!("psrun on {} ({} ms workload):", rig.label, millis);
    rig.warm_up();
    let d = SimDuration::from_millis(millis);
    (rig.kick)(d);
    let Rig { ps, advance, .. } = rig;
    let report = tools::psrun(ps, || {
        advance(ps, d + SimDuration::from_millis(20));
    });
    match report {
        Ok(r) => {
            println!("  {r}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("psrun failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_dump(rig: &mut Rig, millis: u64, out: &str) -> ExitCode {
    let file = match std::fs::File::create(out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    rig.warm_up();
    rig.ps.dump_to(file);
    rig.ps.mark('s').expect("marker");
    let d = SimDuration::from_millis(millis);
    (rig.kick)(d);
    (rig.advance)(&rig.ps, d);
    rig.ps.mark('e').expect("marker");
    (rig.advance)(&rig.ps, SimDuration::from_millis(10));
    rig.ps.stop_dump();
    println!(
        "wrote {} ms of {} at 20 kHz to {out} (markers 's' and 'e')",
        millis, rig.label
    );
    ExitCode::SUCCESS
}

fn cmd_parse(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match parse_dump(&text) {
        Ok(dump) => {
            let stats = SampleStats::from_samples(dump.total.powers());
            println!(
                "{} samples over {}, {} pairs, {} markers",
                dump.total.len(),
                dump.total.span(),
                dump.pairs.len(),
                dump.total.markers().len()
            );
            if let Some(s) = stats {
                println!(
                    "power: mean {:.3} W, min {:.3} W, max {:.3} W, std {:.3} W",
                    s.mean, s.min, s.max, s.std
                );
            }
            println!("energy: {:.4} J", dump.total.energy().value());
            for m in dump.total.markers() {
                println!("marker '{}' at {}", m.label, m.time);
            }
            if let Some(window) = dump.total.between_markers('s', 'e') {
                println!(
                    "between 's' and 'e': {:.4} J over {}",
                    window.energy().value(),
                    window.span()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("parse error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_calibrate(seed: u64) -> ExitCode {
    // Uncalibrated bench, zero current, known voltage → §III-D.
    let bench = BenchSetup::twelve_volt(LoadProgram::Constant(Amps::zero()));
    let mut tb = TestbedBuilder::new(bench)
        .attach(ModuleKind::Slot10A12V, RailId::Ext12V)
        .factory_calibrated(false)
        .seed(seed)
        .build();
    let dut = tb.dut();
    let ps = tb.connect().expect("connect");
    tb.advance_and_sync(&ps, SimDuration::from_millis(5))
        .expect("settle");
    let reference = dut.lock().reference(tb.device_time()).volts;
    println!("calibrating against {reference:.3} reference, 16384 frames...");
    let reports = tools::autocalibrate(
        &ps,
        &[Some(Volts::new(reference.value())), None, None, None],
        16 * 1024,
        |d| tb.advance(d),
    );
    match reports {
        Ok(reports) => {
            for r in reports {
                println!(
                    "pair {}: removed {:+.4} A offset, gain correction {:+.3}%",
                    r.pair,
                    r.current_offset_amps,
                    (r.voltage_gain_correction - 1.0) * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("calibration failed: {e}");
            ExitCode::FAILURE
        }
    }
}
