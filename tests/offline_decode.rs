//! Capture-once / decode-anywhere: a live session recorded at the
//! transport level must decode offline to the same measurements the
//! live host produced.

use powersensor3::core::{decode_stream, PowerSensor};
use powersensor3::firmware::{Device, DeviceThread, Eeprom, SensorConfig};
use powersensor3::transport::{RecordingTransport, Transport, TransportError, VirtualSerial};
use powersensor3::units::{SimDuration, SimTime};

use std::sync::Arc;
use std::time::Duration;

/// Adapter exposing a shared `RecordingTransport` as a `Transport` by
/// value (the host consumes its transport; the test keeps a handle to
/// read the recording afterwards).
struct ArcTransport(Arc<RecordingTransport<powersensor3::transport::SerialEndpoint>>);

impl Transport for ArcTransport {
    fn write_all(&self, bytes: &[u8]) -> Result<(), TransportError> {
        self.0.write_all(bytes)
    }
    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> Result<usize, TransportError> {
        self.0.read(buf, timeout)
    }
    fn available(&self) -> usize {
        self.0.available()
    }
}

#[test]
fn recorded_session_decodes_to_live_results() {
    // Device thread: exactly 2 A at 12 V on pair 0.
    let (host_end, dev_end) = VirtualSerial::pair();
    let mut eeprom = Eeprom::new();
    eeprom.write(0, SensorConfig::new("I0", 3.3, 0.12, true));
    eeprom.write(1, SensorConfig::new("U0", 3.3, 5.0, true));
    let device = DeviceThread::spawn(
        Device::new(
            |ch: usize, _t: SimTime| match ch {
                0 => 1.65 + 2.0 * 0.12,
                1 => 12.0 / 5.0,
                _ => 0.0,
            },
            eeprom,
        ),
        dev_end,
    );

    // Live session through a recorder we keep a handle to.
    let recorder = Arc::new(RecordingTransport::new(host_end));
    let ps = PowerSensor::connect(ArcTransport(Arc::clone(&recorder))).unwrap();
    let configs = ps.configs();
    ps.begin_trace();
    device.advance(SimDuration::from_millis(100));
    ps.wait_for_frames(1990, Duration::from_secs(30)).unwrap();
    let live_trace = ps.end_trace();
    drop(device);
    drop(ps);

    // Offline decode of the raw byte capture. The recording starts
    // with the connect-time config response; the stream decoder's
    // framing bits carry it past those bytes.
    let capture = recorder.received();
    assert!(capture.len() > 1990 * 6, "capture has the stream bytes");
    let decoded = decode_stream(&capture, &configs);

    assert!(
        decoded.frames as usize >= live_trace.len() - 2,
        "offline {} vs live {}",
        decoded.frames,
        live_trace.len()
    );
    let offline_mean = decoded.total.mean_power().unwrap().value();
    let live_mean = live_trace.mean_power().unwrap().value();
    assert!(
        (offline_mean - live_mean).abs() < 0.05,
        "offline {offline_mean} vs live {live_mean}"
    );
    assert!((offline_mean - 24.0).abs() < 0.3);
    // Offline trapezoid energy over the same span matches the live
    // trace's integral.
    let live_energy = live_trace.energy().value();
    let offline_energy = decoded.total.energy().value();
    assert!(
        (live_energy - offline_energy).abs() < 0.02 * live_energy,
        "live {live_energy} J vs offline {offline_energy} J"
    );
}
