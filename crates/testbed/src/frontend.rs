//! The analog frontend: maps ADC channels to sensor modules and rails.

use std::sync::Arc;

use parking_lot::Mutex;

use ps3_duts::{Dut, RailId};
use ps3_firmware::AnalogSource;
use ps3_sensors::SensorModule;
use ps3_units::SimTime;

/// Implements the firmware's [`AnalogSource`] by evaluating the DUT
/// rail state at each conversion instant and passing it through the
/// attached module's sensor transfer functions.
///
/// Channel mapping follows the baseboard: channel `2k` is module `k`'s
/// current sensor, channel `2k+1` its voltage sensor. Unpopulated
/// channels read 0 V.
pub struct AnalogFrontend<D> {
    dut: Arc<Mutex<D>>,
    modules: Vec<(SensorModule, RailId)>,
}

impl<D: Dut> AnalogFrontend<D> {
    /// Creates a frontend over a shared DUT with the given module
    /// attachments (at most four).
    ///
    /// # Panics
    ///
    /// Panics if more than four modules are attached.
    pub fn new(dut: Arc<Mutex<D>>, modules: Vec<(SensorModule, RailId)>) -> Self {
        assert!(modules.len() <= 4, "the baseboard has four module slots");
        Self { dut, modules }
    }
}

/// Shared per-conversion math: rail state at the conversion instant
/// through the pair's sensor transfer function.
fn convert<D: Dut>(
    dut: &mut D,
    modules: &mut [(SensorModule, RailId)],
    channel: usize,
    now: SimTime,
) -> f64 {
    let pair = channel / 2;
    let Some((module, rail)) = modules.get_mut(pair) else {
        return 0.0;
    };
    let state = dut.rail_state(*rail, now);
    if channel.is_multiple_of(2) {
        module.hall_mut().output_voltage(state.amps, now)
    } else {
        module.voltage_sensor_mut().output_voltage(state.volts, now)
    }
}

impl<D: Dut> AnalogSource for AnalogFrontend<D> {
    fn sample_channel(&mut self, channel: usize, now: SimTime) -> f64 {
        convert(&mut *self.dut.lock(), &mut self.modules, channel, now)
    }

    /// Batched scan: one DUT lock per frame instead of one per
    /// conversion. The per-conversion evaluation order (and therefore
    /// every stateful sensor/DUT result) is identical to the
    /// channel-by-channel path.
    fn sample_frame(&mut self, times: &[SimTime], out: &mut [f64]) {
        let mut dut = self.dut.lock();
        for (k, (t, o)) in times.iter().zip(out.iter_mut()).enumerate() {
            *o = convert(&mut *dut, &mut self.modules, k % 8, *t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_duts::ConstantDut;
    use ps3_sensors::ModuleKind;
    use ps3_units::{Amps, Volts};

    #[test]
    fn channels_map_to_pairs() {
        let dut = Arc::new(Mutex::new(ConstantDut::new(
            RailId::Slot12V,
            Volts::new(12.0),
            Amps::new(3.0),
        )));
        let module = SensorModule::ideal(ModuleKind::Slot10A12V);
        let mut fe = AnalogFrontend::new(dut, vec![(module, RailId::Slot12V)]);
        let v_i = fe.sample_channel(0, SimTime::ZERO);
        let v_u = fe.sample_channel(1, SimTime::ZERO);
        // 3 A through 120 mV/A above mid-scale; 12 V through gain 5.
        assert!((v_i - (1.65 + 0.36)).abs() < 0.01, "v_i {v_i}");
        assert!((v_u - 2.4).abs() < 0.01, "v_u {v_u}");
        // Unpopulated pairs read zero.
        assert_eq!(fe.sample_channel(4, SimTime::ZERO), 0.0);
        assert_eq!(fe.sample_channel(7, SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "four module slots")]
    fn five_modules_rejected() {
        let dut = Arc::new(Mutex::new(ConstantDut::new(
            RailId::Slot12V,
            Volts::new(12.0),
            Amps::zero(),
        )));
        let m = || (SensorModule::ideal(ModuleKind::Slot10A12V), RailId::Slot12V);
        let _ = AnalogFrontend::new(dut, vec![m(), m(), m(), m(), m()]);
    }
}
