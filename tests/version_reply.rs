//! A `v` byte on the wire is a firmware version reply only when the
//! host asked for one. It is also byte 0 of every slot-7 sample whose
//! code lies in 768..=895 (`0 111 0 110`: slot 7, no marker, value bits
//! 9..7 = `110`), so on a four-pair board a reader that took every `v`
//! for a reply would swallow those samples and the bytes after them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use powersensor3::core::PowerSensor;
use powersensor3::firmware::{Device, DeviceThread, Eeprom, SensorConfig, FIRMWARE_VERSION};
use powersensor3::transport::VirtualSerial;
use powersensor3::units::{SimDuration, SimTime};

const WAIT: Duration = Duration::from_secs(10);

/// Four populated 12 V / 10 A pairs: all eight slots stream.
fn four_pair_eeprom() -> Eeprom {
    let mut e = Eeprom::new();
    for pair in 0..4 {
        e.write(
            2 * pair,
            SensorConfig::new(&format!("I{pair}"), 3.3, 0.12, true),
        );
        e.write(
            2 * pair + 1,
            SensorConfig::new(&format!("U{pair}"), 3.3, 5.0, true),
        );
    }
    e
}

/// 2 A on every current channel; 12 V on pairs 0–2, and 13 V on pair
/// 3, whose 2.6 V divider output puts slot 7 at code ≈ 807.
fn source(ch: usize, _t: SimTime) -> f64 {
    match ch {
        7 => 13.0 / 5.0,
        c if c % 2 == 1 => 12.0 / 5.0,
        _ => 1.65 + 2.0 * 0.12,
    }
}

#[test]
fn slot7_samples_are_not_taken_for_a_version_reply() {
    let (host, dev) = VirtualSerial::pair();
    let device = DeviceThread::spawn(Device::new(source, four_pair_eeprom()), dev);
    let ps = PowerSensor::connect(host).unwrap();

    // Counts frames carrying all eight slots, with slot 7 in the range
    // whose first byte is `v`.
    let whole = Arc::new(AtomicU64::new(0));
    {
        let whole = Arc::clone(&whole);
        ps.add_frame_sink(move |record| {
            if record.present == 0xFF && (768..=895).contains(&record.raw[7]) {
                whole.fetch_add(1, Ordering::SeqCst);
            }
            true
        });
    }

    let mut emitted = 0;
    for round in 0..3 {
        device.advance(SimDuration::from_millis(50));
        assert!(device.wait_parked(Instant::now() + WAIT));
        emitted = device.frames_emitted();
        ps.wait_for_frames(emitted, WAIT)
            .unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        assert_eq!(ps.frames_received(), emitted, "round {round}");
        assert_eq!(whole.load(Ordering::SeqCst), emitted, "round {round}");
        // A requested reply still gets through between captures.
        assert_eq!(ps.firmware_version().unwrap(), FIRMWARE_VERSION);
    }
    assert_eq!(emitted, 3000);
}
