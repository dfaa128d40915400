//! Testbed construction around the firmware's device thread.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use ps3_core::{PowerSensor, PowerSensorError};
use ps3_duts::{Dut, RailId};
use ps3_firmware::{AdcSequencer, Device, DeviceThread, Eeprom, SensorConfig};
use ps3_sensors::{ModuleKind, SensorModule};
use ps3_transport::{SerialEndpoint, VirtualSerial};
use ps3_units::{SimDuration, SimTime, Watts};

use crate::frontend::AnalogFrontend;

/// Builder for a [`Testbed`].
pub struct TestbedBuilder<D> {
    dut: Arc<Mutex<D>>,
    attachments: Vec<(ModuleKind, RailId)>,
    seed: u64,
    factory_calibrated: bool,
    averages: u32,
    external_field_mt: f64,
    single_ended_sensors: bool,
}

impl<D: Dut + 'static> TestbedBuilder<D> {
    /// Starts a testbed around `dut`.
    pub fn new(dut: D) -> Self {
        Self {
            dut: Arc::new(Mutex::new(dut)),
            attachments: Vec::new(),
            seed: 0x5EED,
            factory_calibrated: true,
            averages: 6,
            external_field_mt: 0.0,
            single_ended_sensors: false,
        }
    }

    /// Attaches a sensor module of `kind` to `rail` in the next free
    /// slot (up to four).
    #[must_use]
    pub fn attach(mut self, kind: ModuleKind, rail: RailId) -> Self {
        self.attachments.push((kind, rail));
        self
    }

    /// Seeds the sensor imperfections and noise streams.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// `true` (default): EEPROM conversion values compensate the
    /// factory offset/gain errors, as after the one-time calibration of
    /// §III-D. `false`: nominal datasheet values, for experiments that
    /// exercise the calibration procedure itself.
    #[must_use]
    pub fn factory_calibrated(mut self, yes: bool) -> Self {
        self.factory_calibrated = yes;
        self
    }

    /// Overrides the firmware's 6-fold averaging depth (ablations).
    #[must_use]
    pub fn averaging(mut self, averages: u32) -> Self {
        self.averages = averages;
        self
    }

    /// Applies a static external magnetic field (in millitesla) to all
    /// current sensors — the interference scenario that motivated the
    /// move to differential Hall parts (§I).
    #[must_use]
    pub fn external_field_mt(mut self, millitesla: f64) -> Self {
        self.external_field_mt = millitesla;
        self
    }

    /// Replaces the differential Hall sensors with PowerSensor2-era
    /// single-ended parts (two orders of magnitude more sensitive to
    /// external fields). For the interference ablation.
    #[must_use]
    pub fn single_ended_sensors(mut self, yes: bool) -> Self {
        self.single_ended_sensors = yes;
        self
    }

    /// Builds the testbed and starts the device thread.
    ///
    /// # Panics
    ///
    /// Panics if more than four modules were attached.
    #[must_use]
    pub fn build(self) -> Testbed<D> {
        assert!(self.attachments.len() <= 4, "four module slots");
        let mut eeprom = Eeprom::new();
        let mut modules = Vec::new();
        for (i, (kind, rail)) in self.attachments.iter().enumerate() {
            let hall_spec = if self.single_ended_sensors {
                kind.hall_spec().single_ended()
            } else {
                kind.hall_spec()
            };
            let mut module = SensorModule::with_hall_spec(
                *kind,
                hall_spec,
                self.seed.wrapping_add(i as u64 * 7919),
            );
            if self.external_field_mt != 0.0 {
                module.hall_mut().set_external_field(self.external_field_mt);
            }
            let (i_cfg, u_cfg) = configs_for(&module, self.factory_calibrated);
            eeprom.write(2 * i, i_cfg);
            eeprom.write(2 * i + 1, u_cfg);
            modules.push((module, *rail));
        }

        let (host_end, dev_end) = VirtualSerial::pair();
        let frontend = AnalogFrontend::new(Arc::clone(&self.dut), modules);
        let mut device = Device::new(frontend, eeprom);
        if self.averages != 6 {
            device.set_sequencer(AdcSequencer::with_averages(self.averages));
        }
        let frame_interval = device.frame_interval();

        Testbed {
            dut: self.dut,
            host_end: Some(host_end),
            device: DeviceThread::spawn(device, dev_end),
            frame_interval,
        }
    }
}

/// EEPROM configuration for a module: nominal datasheet values, or
/// values compensating the module's factory imperfections (what the
/// §III-D procedure produces).
fn configs_for(module: &SensorModule, calibrated: bool) -> (SensorConfig, SensorConfig) {
    let kind = module.kind();
    let sens = module.nominal_sensitivity();
    let gain = module.nominal_gain();
    let vref = SensorModule::VREF;
    if calibrated {
        let offset = module.hall().factory_offset().value();
        let vref_cal = vref + 2.0 * sens * offset;
        let gain_cal = gain / module.voltage_sensor().factory_gain();
        (
            SensorConfig::new(kind.label(), vref_cal as f32, sens as f32, true),
            SensorConfig::new(kind.label(), vref as f32, gain_cal as f32, true),
        )
    } else {
        (
            SensorConfig::new(kind.label(), vref as f32, sens as f32, true),
            SensorConfig::new(kind.label(), vref as f32, gain as f32, true),
        )
    }
}

/// A running testbed: emulated device thread + virtual clock control.
///
/// Dropping the testbed stops the device thread (the host side then
/// observes a disconnect, as if the sensor were unplugged).
pub struct Testbed<D> {
    dut: Arc<Mutex<D>>,
    host_end: Option<SerialEndpoint>,
    device: DeviceThread,
    frame_interval: SimDuration,
}

impl<D: Dut + 'static> Testbed<D> {
    /// Connects the host library to the testbed's device.
    ///
    /// # Errors
    ///
    /// Propagates connection failures from the host library.
    ///
    /// # Panics
    ///
    /// Panics if called twice (there is one USB cable).
    pub fn connect(&mut self) -> Result<PowerSensor, PowerSensorError> {
        let end = self
            .host_end
            .take()
            .expect("testbed already connected once");
        PowerSensor::connect(end)
    }

    /// Shared handle to the DUT, for driving workloads.
    #[must_use]
    pub fn dut(&self) -> Arc<Mutex<D>> {
        Arc::clone(&self.dut)
    }

    /// Ground-truth total DUT power at the current device time.
    #[must_use]
    pub fn true_power(&self) -> Watts {
        let now = self.device_time();
        self.dut.lock().total_power(now)
    }

    /// Current device (virtual) time.
    #[must_use]
    pub fn device_time(&self) -> SimTime {
        self.device.clock()
    }

    /// Frames the device has emitted so far.
    #[must_use]
    pub fn frames_emitted(&self) -> u64 {
        self.device.frames_emitted()
    }

    /// The device's output frame interval (50 µs by default).
    #[must_use]
    pub fn frame_interval(&self) -> SimDuration {
        self.frame_interval
    }

    /// Advances the virtual-time target by `d`. Returns immediately;
    /// the device thread catches up in the background (use
    /// [`Testbed::advance_and_sync`] to wait).
    pub fn advance(&self, d: SimDuration) {
        self.device.advance(d);
    }

    /// Advances by `d` and blocks until the device reached the target
    /// *and* the host has processed every frame the device emitted.
    ///
    /// # Errors
    ///
    /// [`PowerSensorError::Timeout`] if the pipeline stalls for more
    /// than 60 s of real time.
    pub fn advance_and_sync(
        &self,
        ps: &PowerSensor,
        d: SimDuration,
    ) -> Result<(), PowerSensorError> {
        self.advance(d);
        self.sync(ps)
    }

    /// Blocks until device and host have caught up with the current
    /// target.
    ///
    /// # Errors
    ///
    /// [`PowerSensorError::Timeout`] on a stalled pipeline,
    /// [`PowerSensorError::Shutdown`] if the link died.
    pub fn sync(&self, ps: &PowerSensor) -> Result<(), PowerSensorError> {
        // 1. Device reaches the target time.
        if !self
            .device
            .wait_parked(Instant::now() + Duration::from_secs(60))
        {
            return Err(PowerSensorError::Timeout("device advancing"));
        }
        // 2. Host consumes all emitted frames.
        ps.wait_for_frames(self.frames_emitted(), Duration::from_secs(60))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_duts::ConstantDut;
    use ps3_units::{Amps, Volts};

    fn twelve_volt_two_amp() -> TestbedBuilder<ConstantDut> {
        TestbedBuilder::new(ConstantDut::new(
            RailId::Slot12V,
            Volts::new(12.0),
            Amps::new(2.0),
        ))
        .attach(ModuleKind::Slot10A12V, RailId::Slot12V)
    }

    #[test]
    fn end_to_end_power_readout() {
        let mut tb = twelve_volt_two_amp().build();
        let ps = tb.connect().unwrap();
        tb.advance_and_sync(&ps, SimDuration::from_millis(20))
            .unwrap();
        let state = ps.read();
        let measured = state.total_watts().value();
        assert!((measured - 24.0).abs() < 1.0, "measured {measured}");
    }

    #[test]
    fn calibrated_beats_uncalibrated() {
        // Same seed, same DUT: factory-calibrated EEPROM values must
        // yield a smaller error than raw datasheet values.
        let measure = |calibrated: bool| -> f64 {
            let mut tb = twelve_volt_two_amp()
                .seed(77)
                .factory_calibrated(calibrated)
                .build();
            let ps = tb.connect().unwrap();
            tb.advance_and_sync(&ps, SimDuration::from_millis(50))
                .unwrap();
            (ps.read().total_watts().value() - 24.0).abs()
        };
        let calibrated_err = measure(true);
        let raw_err = measure(false);
        assert!(
            calibrated_err < raw_err,
            "calibrated {calibrated_err} vs raw {raw_err}"
        );
        assert!(calibrated_err < 1.0, "calibrated error {calibrated_err}");
    }

    #[test]
    fn advance_is_async_and_sync_catches_up() {
        let mut tb = twelve_volt_two_amp().build();
        let ps = tb.connect().unwrap();
        tb.advance(SimDuration::from_millis(5));
        tb.sync(&ps).unwrap();
        assert!(tb.device_time() >= SimTime::from_micros(5_000));
        assert_eq!(ps.frames_received(), tb.frames_emitted());
    }

    #[test]
    fn seeds_change_noise_but_not_signal() {
        let run = |seed: u64| -> f64 {
            let mut tb = twelve_volt_two_amp().seed(seed).build();
            let ps = tb.connect().unwrap();
            tb.advance_and_sync(&ps, SimDuration::from_millis(20))
                .unwrap();
            ps.read().total_watts().value()
        };
        let a = run(1);
        let b = run(2);
        assert_ne!(a, b, "different seeds, different noise");
        assert!((a - 24.0).abs() < 1.0 && (b - 24.0).abs() < 1.0);
    }

    #[test]
    fn true_power_reports_ground_truth() {
        let tb = twelve_volt_two_amp().build();
        assert!((tb.true_power().value() - 24.0).abs() < 0.01);
    }

    #[test]
    fn custom_averaging_changes_rate() {
        let mut tb = twelve_volt_two_amp().averaging(12).build();
        let ps = tb.connect().unwrap();
        assert_eq!(tb.frame_interval(), SimDuration::from_micros(100));
        ps.begin_trace();
        tb.advance_and_sync(&ps, SimDuration::from_millis(20))
            .unwrap();
        let trace = ps.end_trace();
        let rate = trace.sample_rate().unwrap();
        assert!((rate - 10_000.0).abs() < 100.0, "rate {rate}");
    }
}
