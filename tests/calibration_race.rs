//! Regression test for a lost raw capture: calibration must register
//! its capture before the device time that fills it passes, or frames
//! stream by uncounted and the capture times out. The window is
//! narrow, so the flow runs on hundreds of fresh testbeds.

use powersensor3::core::{calibrate_pair, tools};
use powersensor3::duts::{BenchSetup, LoadProgram, RailId};
use powersensor3::sensors::ModuleKind;
use powersensor3::testbed::TestbedBuilder;
use powersensor3::units::{Amps, SimDuration, Volts};

/// Fresh testbeds the flow runs on.
const ROUNDS: u64 = 200;
/// Frames per capture: short, so the device finishes an advance about
/// as fast as the host can register a capture.
const FRAMES: usize = 256;

#[test]
fn calibration_never_loses_its_capture() {
    for round in 0..ROUNDS {
        let bench = BenchSetup::twelve_volt(LoadProgram::Constant(Amps::zero()));
        let mut tb = TestbedBuilder::new(bench)
            .attach(ModuleKind::Slot10A12V, RailId::Ext12V)
            .factory_calibrated(false)
            .seed(round)
            .build();
        let bench = tb.dut();
        let ps = tb.connect().unwrap();
        tb.advance_and_sync(&ps, SimDuration::from_millis(1))
            .unwrap();
        let reference = Volts::new(bench.lock().reference(tb.device_time()).volts.value());

        let reports =
            tools::autocalibrate(&ps, &[Some(reference), None, None, None], FRAMES, |d| {
                tb.advance(d);
            })
            .unwrap_or_else(|e| panic!("round {round}: autocalibrate: {e:?}"));
        assert_eq!(reports.len(), 1, "round {round}");

        let report = calibrate_pair(&ps, 0, reference, FRAMES, |d| tb.advance(d))
            .unwrap_or_else(|e| panic!("round {round}: calibrate_pair: {e:?}"));
        assert_eq!(ps.configs()[0], report.new_current_config, "round {round}");

        // The stream survives the EEPROM rewrite: every frame the
        // device emits afterwards still reaches the host.
        tb.advance_and_sync(&ps, SimDuration::from_millis(1))
            .unwrap_or_else(|e| panic!("round {round}: sync after calibration: {e:?}"));
    }
}
