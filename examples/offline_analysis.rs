//! Capture once, analyse anywhere: record the raw USB byte stream of a
//! live session, then decode it offline — no device attached.
//!
//! ```text
//! cargo run --release --example offline_analysis
//! ```
//!
//! Wraps the transport in a recorder during a GPU measurement, then
//! feeds the captured bytes to [`powersensor3::core::decode_stream`]
//! and renders the recovered trace as an ASCII chart.

use std::sync::Arc;
use std::time::{Duration, Instant};

use powersensor3::analysis::ascii_trace;
use powersensor3::core::{decode_stream, PowerSensor};
use powersensor3::duts::{Dut as _, GpuKernel, GpuModel, GpuSpec, RailId};
use powersensor3::firmware::{Device, DeviceThread, Eeprom, SensorConfig};
use powersensor3::transport::{RecordingTransport, Transport, TransportError, VirtualSerial};
use powersensor3::units::{SimDuration, SimTime};

/// Shares a recorder between the host library (which consumes its
/// transport) and this example (which reads the capture afterwards).
struct SharedRecorder(Arc<RecordingTransport<powersensor3::transport::SerialEndpoint>>);

impl Transport for SharedRecorder {
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

fn main() {
    // A minimal device: GPU on the 12 V external rail only.
    let (host_end, dev_end) = VirtualSerial::pair();
    let mut eeprom = Eeprom::new();
    eeprom.write(0, SensorConfig::new("I-ext", 3.3, 0.06, true));
    eeprom.write(1, SensorConfig::new("U-ext", 3.3, 5.0, true));
    let mut gpu = GpuModel::new(GpuSpec::rtx4000_ada(), 5);
    gpu.launch(GpuKernel::synthetic_fma(SimDuration::from_millis(700), 6));
    let source = move |ch: usize, now: SimTime| {
        let state = gpu.rail_state(RailId::Ext12V, now);
        match ch {
            0 => 1.65 + state.amps.value() * 0.06,
            1 => state.volts.value() / 5.0,
            _ => 0.0,
        }
    };
    let device = DeviceThread::spawn(Device::new(source, eeprom), dev_end);

    // Live session through the recorder: one simulated second, then
    // the device hangs up.
    let recorder = Arc::new(RecordingTransport::new(host_end));
    let configs;
    {
        let ps = PowerSensor::connect(SharedRecorder(Arc::clone(&recorder))).expect("connect");
        configs = ps.configs();
        device.advance(SimDuration::from_secs(1));
        assert!(device.wait_parked(Instant::now() + Duration::from_secs(30)));
        let _ = ps.wait_for_frames(device.frames_emitted(), Duration::from_secs(30));
        drop(device);
    } // host disconnects here

    // Offline decode of the raw capture.
    let capture = recorder.received();
    println!("captured {} raw bytes; decoding offline...", capture.len());
    let decoded = decode_stream(&capture, &configs);
    println!(
        "{} frames, {} resyncs, energy {:.2} J",
        decoded.frames,
        decoded.resyncs,
        decoded.energy.value()
    );
    print!("{}", ascii_trace(&decoded.total, 72, 12));
}
