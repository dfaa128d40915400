//! Integration tests of the §III-D calibration procedure against the
//! simulated bench supply.

use powersensor3::core::{calibrate_pair, tools};
use powersensor3::duts::{BenchSetup, LoadProgram, RailId};
use powersensor3::sensors::ModuleKind;
use powersensor3::testbed::TestbedBuilder;
use powersensor3::units::{Amps, SimDuration, Volts};

fn uncalibrated_bench(seed: u64) -> powersensor3::testbed::Testbed<BenchSetup> {
    let bench = BenchSetup::twelve_volt(LoadProgram::Constant(Amps::zero()));
    TestbedBuilder::new(bench)
        .attach(ModuleKind::Slot10A12V, RailId::Ext12V)
        .factory_calibrated(false)
        .seed(seed)
        .build()
}

#[test]
fn calibration_reduces_error_by_an_order_of_magnitude() {
    // Seed chosen so the factory-fresh module draws a large Hall offset
    // and gain error (~3 W at 8 A): the "order of magnitude" criterion
    // then sits well clear of the ~0.3 W single-LSB quantization floor.
    let mut tb = uncalibrated_bench(99);
    let bench = tb.dut();
    let ps = tb.connect().unwrap();

    let measure_error = |amps: f64| -> f64 {
        bench
            .lock()
            .set_program(LoadProgram::Constant(Amps::new(amps)));
        tb.advance_and_sync(&ps, SimDuration::from_millis(20))
            .unwrap();
        let truth = bench.lock().reference(tb.device_time()).watts().value();
        ps.read().total_watts().value() - truth
    };

    let before = measure_error(8.0);
    // A factory-fresh Hall offset of up to ±0.3 A at 12 V plus up to
    // ±2 % gain error is watts of error.
    assert!(before.abs() > 0.3, "seed produced no offset? err {before}");

    // Calibrate: unload, reference the supply voltage.
    bench
        .lock()
        .set_program(LoadProgram::Constant(Amps::zero()));
    tb.advance_and_sync(&ps, SimDuration::from_millis(5))
        .unwrap();
    let reference = bench.lock().reference(tb.device_time()).volts;
    let report = calibrate_pair(&ps, 0, Volts::new(reference.value()), 16 * 1024, |d| {
        tb.advance(d);
    })
    .unwrap();

    assert_eq!(report.pair, 0);
    assert!(report.current_offset_amps.abs() <= 0.31);
    assert!((report.voltage_gain_correction - 1.0).abs() <= 0.025);

    let after = measure_error(8.0);
    assert!(
        after.abs() < before.abs() / 5.0,
        "before {before:+.3} W, after {after:+.3} W"
    );
    assert!(after.abs() < 0.4, "residual {after:+.3} W");
}

#[test]
fn calibration_survives_reconnect() {
    // Corrections live in the device EEPROM: a new host session reads
    // them back.
    let mut tb = uncalibrated_bench(31);
    let bench = tb.dut();
    let ps = tb.connect().unwrap();
    tb.advance_and_sync(&ps, SimDuration::from_millis(5))
        .unwrap();
    let reference = bench.lock().reference(tb.device_time()).volts;
    let report = calibrate_pair(&ps, 0, Volts::new(reference.value()), 4096, |d| {
        tb.advance(d);
    })
    .unwrap();

    // The host's view matches what it wrote.
    let configs = ps.configs();
    assert_eq!(configs[0], report.new_current_config);
    assert_eq!(configs[1], report.new_voltage_config);
}

#[test]
fn autocalibrate_skips_unpopulated_pairs() {
    let mut tb = uncalibrated_bench(8);
    let bench = tb.dut();
    let ps = tb.connect().unwrap();
    tb.advance_and_sync(&ps, SimDuration::from_millis(5))
        .unwrap();
    let reference = bench.lock().reference(tb.device_time()).volts;
    let reports = tools::autocalibrate(
        &ps,
        &[
            Some(Volts::new(reference.value())),
            Some(Volts::new(12.0)), // pair 1 is not populated
            None,
            None,
        ],
        2048,
        |d| tb.advance(d),
    )
    .unwrap();
    assert_eq!(reports.len(), 1, "only the populated pair calibrates");
    assert_eq!(reports[0].pair, 0);
}

#[test]
fn invalid_pair_is_rejected() {
    let mut tb = uncalibrated_bench(9);
    let ps = tb.connect().unwrap();
    let err = calibrate_pair(&ps, 7, Volts::new(12.0), 16, |d| tb.advance(d)).unwrap_err();
    assert!(matches!(
        err,
        powersensor3::core::PowerSensorError::InvalidSensor(7)
    ));
}
