//! End-to-end integration tests across the whole stack:
//! DUT model → analog sensors → firmware → wire protocol → virtual USB
//! → host library → analysis.

use powersensor3::analysis::SampleStats;
use powersensor3::core::{joules, pair_joules, seconds, tools, watts};
use powersensor3::duts::{ConstantDut, GpuKernel, GpuSpec, LoadProgram, RailId};
use powersensor3::sensors::budget::ErrorBudget;
use powersensor3::sensors::{AdcSpec, ModuleKind};
use powersensor3::testbed::setups::{accuracy_bench, gpu_riser};
use powersensor3::testbed::TestbedBuilder;
use powersensor3::units::{Amps, SimDuration, Volts};

#[test]
fn measured_error_stays_within_worst_case_budget() {
    // The empirical error at full scale must respect Table I's
    // theoretical worst case for every module type.
    for kind in [
        ModuleKind::Slot10A12V,
        ModuleKind::Slot10A3V3,
        ModuleKind::UsbC,
        ModuleKind::Pcie8Pin20A,
    ] {
        let budget = ErrorBudget::for_module(kind, &AdcSpec::POWERSENSOR3);
        let mut tb = accuracy_bench(kind, LoadProgram::Constant(Amps::new(8.0)), 1234);
        let bench = tb.dut();
        let ps = tb.connect().unwrap();
        tb.advance_and_sync(&ps, SimDuration::from_millis(2))
            .unwrap();
        ps.begin_trace();
        tb.advance_and_sync(&ps, SimDuration::from_millis(100))
            .unwrap();
        let trace = ps.end_trace();
        let truth = bench.lock().reference(tb.device_time()).watts().value();
        let stats =
            SampleStats::from_samples(trace.powers().iter().map(|p| (p - truth).abs())).unwrap();
        // Worst case is 3σ territory before 6-fold averaging; the mean
        // absolute error of averaged samples sits far below it.
        assert!(
            stats.mean < budget.power_error.value(),
            "{kind}: mean |err| {} exceeds budget {}",
            stats.mean,
            budget.power_error.value()
        );
    }
}

#[test]
fn interval_and_trace_modes_agree_on_energy() {
    let dut = ConstantDut::new(RailId::Slot12V, Volts::new(12.0), Amps::new(5.0));
    let mut tb = TestbedBuilder::new(dut)
        .attach(ModuleKind::Slot10A12V, RailId::Slot12V)
        .seed(55)
        .build();
    let ps = tb.connect().unwrap();
    tb.advance_and_sync(&ps, SimDuration::from_millis(5))
        .unwrap();

    let first = ps.read();
    ps.begin_trace();
    tb.advance_and_sync(&ps, SimDuration::from_millis(200))
        .unwrap();
    let trace = ps.end_trace();
    let second = ps.read();

    let interval_energy = joules(&first, &second).value();
    let trace_energy = trace.energy().value();
    assert!(
        (interval_energy - trace_energy).abs() < 0.05 * interval_energy,
        "interval {interval_energy} J vs trace {trace_energy} J"
    );
    // ~60 W for 0.2 s ≈ 12 J.
    assert!((interval_energy - 12.0).abs() < 0.5, "{interval_energy} J");
}

#[test]
fn multi_rail_gpu_energy_sums_across_pairs() {
    let mut tb = gpu_riser(GpuSpec::rtx4000_ada(), 77);
    let gpu = tb.dut();
    let ps = tb.connect().unwrap();
    tb.advance_and_sync(&ps, SimDuration::from_millis(10))
        .unwrap();
    let first = ps.read();
    gpu.lock()
        .launch(GpuKernel::synthetic_fma(SimDuration::from_millis(300), 4));
    tb.advance_and_sync(&ps, SimDuration::from_millis(400))
        .unwrap();
    let second = ps.read();

    let total = joules(&first, &second).value();
    let per_pair: f64 = (0..3)
        .map(|p| pair_joules(&first, &second, p).value())
        .sum();
    assert!(
        (total - per_pair).abs() < 1e-9,
        "total {total} vs pair sum {per_pair}"
    );
    // All three rails contributed.
    for p in 0..3 {
        assert!(
            pair_joules(&first, &second, p).value() > 0.0,
            "pair {p} contributed nothing"
        );
    }
}

#[test]
fn pstest_rows_scale_linearly_with_interval() {
    let dut = ConstantDut::new(RailId::Slot12V, Volts::new(12.0), Amps::new(4.0));
    let mut tb = TestbedBuilder::new(dut)
        .attach(ModuleKind::Slot10A12V, RailId::Slot12V)
        .build();
    let ps = tb.connect().unwrap();
    let intervals = [
        SimDuration::from_millis(10),
        SimDuration::from_millis(20),
        SimDuration::from_millis(40),
    ];
    let rows = tools::pstest(&ps, &intervals, |d| {
        tb.advance_and_sync(&ps, d).unwrap();
    })
    .unwrap();
    assert_eq!(rows.len(), 3);
    // Power constant across intervals; energy doubles with interval.
    for row in &rows {
        assert!((row.watts.value() - 48.0).abs() < 1.0, "{row}");
    }
    let ratio = rows[2].joules.value() / rows[0].joules.value();
    assert!((ratio - 4.0).abs() < 0.2, "energy ratio {ratio}");
}

#[test]
fn dump_file_round_trips_through_filesystem() {
    let dir = std::env::temp_dir().join(format!("ps3_dump_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dump.txt");
    {
        let dut = ConstantDut::new(RailId::Slot12V, Volts::new(12.0), Amps::new(1.0));
        let mut tb = TestbedBuilder::new(dut)
            .attach(ModuleKind::Slot10A12V, RailId::Slot12V)
            .build();
        let ps = tb.connect().unwrap();
        ps.dump_to(std::fs::File::create(&path).unwrap());
        ps.mark('s').unwrap();
        tb.advance_and_sync(&ps, SimDuration::from_millis(10))
            .unwrap();
        ps.stop_dump();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("# PowerSensor3 dump"));
    let data_lines = text.lines().filter(|l| !l.starts_with(['#', 'M'])).count();
    assert!(data_lines >= 195, "expected ≈200 frames, got {data_lines}");
    assert!(text
        .lines()
        .any(|l| l.starts_with("M ") && l.ends_with('s')));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dump_round_trips_through_parser() {
    // Capture a dump, parse it back, and check that the parsed trace
    // reproduces the host's own energy accounting.
    let dut = ConstantDut::new(RailId::Slot12V, Volts::new(12.0), Amps::new(3.0));
    let mut tb = TestbedBuilder::new(dut)
        .attach(ModuleKind::Slot10A12V, RailId::Slot12V)
        .seed(21)
        .build();
    let ps = tb.connect().unwrap();
    let buf = std::sync::Arc::new(parking_lot_stub::Mutex::new(Vec::new()));
    struct SharedWriter(std::sync::Arc<parking_lot_stub::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    tb.advance_and_sync(&ps, SimDuration::from_millis(2))
        .unwrap();
    ps.dump_to(SharedWriter(std::sync::Arc::clone(&buf)));
    let first = ps.read();
    ps.mark('a').unwrap();
    tb.advance_and_sync(&ps, SimDuration::from_millis(50))
        .unwrap();
    ps.mark('b').unwrap();
    tb.advance_and_sync(&ps, SimDuration::from_millis(5))
        .unwrap();
    let second = ps.read();
    ps.stop_dump();

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let dump = powersensor3::analysis::parse_dump(&text).unwrap();
    assert_eq!(dump.pairs.len(), 1);
    // Parsed trace energy ≈ host interval energy over the same window.
    let host_energy = joules(&first, &second).value();
    let parsed_energy = dump.total.energy().value();
    assert!(
        (parsed_energy - host_energy).abs() < 0.05 * host_energy,
        "parsed {parsed_energy} vs host {host_energy}"
    );
    // Markers round-trip and bracket ~50 ms.
    let window = dump.total.between_markers('a', 'b').unwrap();
    let span_ms = window.span().as_secs_f64() * 1e3;
    assert!((span_ms - 50.0).abs() < 1.0, "window {span_ms} ms");
    // ~36 W × 50 ms ≈ 1.8 J.
    assert!((window.energy().value() - 1.8).abs() < 0.1);
}

#[test]
fn dump_parser_refuses_timestamps_past_the_clock_range() {
    // `ps3sim parse` hands a user's file straight to the parser: a
    // microsecond count whose nanoseconds overflow u64 is a bad number,
    // not a panic or a wrapped time.
    use powersensor3::analysis::{parse_dump, ParseDumpError};
    assert_eq!(
        parse_dump("25 1.0 2.0\n18446744073709552 1.0 2.0\n").unwrap_err(),
        ParseDumpError::BadNumber { line: 2 }
    );
    assert_eq!(
        parse_dump("M 18446744073709552 k\n").unwrap_err(),
        ParseDumpError::BadMarker { line: 1 }
    );
}

/// std's Mutex under a name that does not clash with parking_lot in
/// other tests.
mod parking_lot_stub {
    pub use std::sync::Mutex;
}

#[test]
fn firmware_version_query_mid_session() {
    let dut = ConstantDut::new(RailId::Slot12V, Volts::new(12.0), Amps::new(1.0));
    let mut tb = TestbedBuilder::new(dut)
        .attach(ModuleKind::Slot10A12V, RailId::Slot12V)
        .build();
    let ps = tb.connect().unwrap();
    tb.advance_and_sync(&ps, SimDuration::from_millis(5))
        .unwrap();
    let version = ps.firmware_version().unwrap();
    assert_eq!(version, powersensor3::firmware::FIRMWARE_VERSION);
    // Streaming resumes afterwards.
    let before = ps.frames_received();
    tb.advance_and_sync(&ps, SimDuration::from_millis(5))
        .unwrap();
    assert!(ps.frames_received() > before);
}

#[test]
fn seconds_and_watts_are_consistent() {
    let dut = ConstantDut::new(RailId::Slot3V3, Volts::new(3.3), Amps::new(3.0));
    let mut tb = TestbedBuilder::new(dut)
        .attach(ModuleKind::Slot10A3V3, RailId::Slot3V3)
        .build();
    let ps = tb.connect().unwrap();
    tb.advance_and_sync(&ps, SimDuration::from_millis(5))
        .unwrap();
    let a = ps.read();
    tb.advance_and_sync(&ps, SimDuration::from_millis(75))
        .unwrap();
    let b = ps.read();
    let j = joules(&a, &b).value();
    let s = seconds(&a, &b);
    let w = watts(&a, &b).value();
    assert!((j / s - w).abs() < 1e-9, "J/s {} vs W {w}", j / s);
    assert!((w - 9.9).abs() < 0.3, "3.3 V × 3 A ≈ 9.9 W, got {w}");
}
