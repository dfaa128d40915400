//! The simulated world: an emulated PowerSensor3 device on a virtual
//! clock (the firmware's [`DeviceThread`]), plus the quiesce protocol
//! that makes end-of-run state deterministic.
//!
//! The device thread races nothing: it only advances toward a shared
//! virtual-time target, and every byte it emits is a pure function of
//! `(seed, clock, command sequence)`. Thread scheduling changes *when*
//! bytes move, never *which* bytes move — the property every sim
//! invariant leans on.

use std::time::{Duration, Instant};

use ps3_core::{PowerSensor, PowerSensorError};
use ps3_firmware::{Device, DeviceThread, Eeprom, SensorConfig};
use ps3_transport::{SerialEndpoint, VirtualSerial};
use ps3_units::SimTime;

/// Nominal rail voltage of the simulated pair.
pub const RAIL_VOLTS: f64 = 12.0;
/// Mean simulated load current in amps.
pub const MEAN_AMPS: f64 = 2.0;
/// Peak deviation of the sinusoidal load around [`MEAN_AMPS`].
pub const RIPPLE_AMPS: f64 = 0.35;

/// An EEPROM with one populated 12 V / 10 A pair (slots 0 and 1).
#[must_use]
pub fn sim_eeprom() -> Eeprom {
    let mut e = Eeprom::new();
    e.write(0, SensorConfig::new("I0", 3.3, 0.12, true));
    e.write(1, SensorConfig::new("U0", 3.3, 5.0, true));
    e
}

/// A deterministic analog source: a seed-detuned sinusoidal load on a
/// steady 12 V rail. Pure in `(seed, channel, t)`, so the device's
/// output byte stream is replayable from the seed alone.
#[must_use]
pub fn sim_source(seed: u64) -> impl ps3_firmware::AnalogSource {
    // 80–119 Hz, phase offset from the seed: distinct seeds exercise
    // distinct code sequences without losing determinism.
    let hz = 80.0 + (seed % 40) as f64;
    let phase = (seed / 40 % 628) as f64 / 100.0;
    move |ch: usize, t: SimTime| -> f64 {
        match ch {
            0 => {
                let amps = MEAN_AMPS
                    + RIPPLE_AMPS * (core::f64::consts::TAU * hz * t.as_secs_f64() + phase).sin();
                1.65 + amps * 0.12 // 120 mV/A around the 1.65 V midpoint
            }
            1 => RAIL_VOLTS / 5.0, // voltage divider gain 5
            _ => 0.0,
        }
    }
}

/// Spawns the emulated device for `seed` in its own thread. The host
/// side talks to it over the returned [`SerialEndpoint`] (usually
/// through a [`FaultInjector`](crate::FaultInjector)). `crash_at`
/// schedules a firmware crash at that virtual time; when it fires the
/// device thread exits and drops its endpoint, so the host observes
/// `Disconnected`.
#[must_use]
pub fn spawn_device(seed: u64, crash_at: Option<SimTime>) -> (DeviceThread, SerialEndpoint) {
    let (host_end, dev_end) = VirtualSerial::pair();
    let mut dev = Device::new(sim_source(seed), sim_eeprom());
    if let Some(at) = crash_at {
        dev.schedule_crash(at);
    }
    (DeviceThread::spawn(dev, dev_end), host_end)
}

/// Drives the world to a deterministic stop: the device is parked (or
/// crashed) and the host reader has decoded every byte the transport
/// delivered ([`PowerSensor::wait_drained`]), or has exited on a dead
/// link. After a successful quiesce, every fact derived from the byte
/// stream (frame count, trace, archive contents, energy) is a pure
/// function of `(seed, plan)`.
///
/// Each of the two waits may take up to `timeout`. Returns `false` on
/// timeout (the run is then not trustworthy for bit-exact comparison).
#[must_use]
pub fn quiesce(ps: &PowerSensor, device: &DeviceThread, timeout: Duration) -> bool {
    #[expect(
        clippy::disallowed_methods,
        reason = "harness quiesce: bounds the blocking waits on real OS reader/device threads; the simulated timeline itself is SimTime-driven"
    )]
    let deadline = Instant::now() + timeout;
    device.wait_parked(deadline)
        && matches!(
            ps.wait_drained(timeout),
            Ok(()) | Err(PowerSensorError::Shutdown)
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_transport::Transport;
    use ps3_units::SimDuration;

    /// The bytes `seed`'s device streams over its first 5 ms.
    fn stream_of(seed: u64) -> Vec<u8> {
        let (dev, host) = spawn_device(seed, None);
        host.write_all(&ps3_firmware::protocol::Command::StartStreaming.encode())
            .unwrap();
        dev.advance(SimDuration::from_millis(5));
        assert!(dev.wait_parked(Instant::now() + Duration::from_secs(5)));
        let mut got = vec![0u8; host.available()];
        host.read_exact(&mut got).unwrap();
        got
    }

    #[test]
    fn device_stream_is_deterministic_per_seed() {
        let first = stream_of(7);
        assert!(!first.is_empty());
        assert_eq!(first, stream_of(7));
        // A different seed produces a different stream.
        assert_ne!(first, stream_of(8));
    }
}
