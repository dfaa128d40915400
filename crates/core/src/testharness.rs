//! Shared in-crate test harness: the firmware's device thread driving
//! the emulated firmware on a virtual clock (`ps3-testbed` wraps the
//! same thread around real sensor models; this one avoids the circular
//! dev-dependency).

use ps3_firmware::{AnalogSource, Device, DeviceThread, Eeprom, SensorConfig};
use ps3_transport::{SerialEndpoint, VirtualSerial};
use ps3_units::SimTime;

/// Runs a device over `source` in its own thread; returns the handle
/// and the host end of the link.
pub(crate) fn spawn_device<S: AnalogSource + Send + 'static>(
    source: S,
    eeprom: Eeprom,
) -> (DeviceThread, SerialEndpoint) {
    let (host_end, dev_end) = VirtualSerial::pair();
    (
        DeviceThread::spawn(Device::new(source, eeprom), dev_end),
        host_end,
    )
}

/// An EEPROM with a single populated 12 V / 10 A pair.
pub(crate) fn one_pair_eeprom() -> Eeprom {
    let mut e = Eeprom::new();
    e.write(0, SensorConfig::new("I0", 3.3, 0.12, true));
    e.write(1, SensorConfig::new("U0", 3.3, 5.0, true));
    e
}

/// A source producing exactly 2 A at 12 V on pair 0 (ideal codes).
pub(crate) fn two_amp_source() -> impl AnalogSource {
    |ch: usize, _t: SimTime| -> f64 {
        match ch {
            0 => 1.65 + 2.0 * 0.12, // 2 A through 120 mV/A
            1 => 12.0 / 5.0,        // 12 V through gain 5
            _ => 0.0,
        }
    }
}
