//! Capture-once / decode-anywhere: a live session recorded at the
//! transport level must decode offline to the same measurements the
//! live host produced, on a clean link and on a faulted one.

use powersensor3::analysis::Trace;
use powersensor3::archive::{
    frame_total, index_path_for, Archive, ArchiveWriter, ArchiveWriterOptions,
};
use powersensor3::core::{decode_stream, PowerSensor};
use powersensor3::firmware::{Device, DeviceThread, Eeprom, SensorConfig};
use powersensor3::sim::{quiesce, spawn_device, FaultInjector, SimPlan};
use powersensor3::transport::{RecordingTransport, Transport, TransportError, VirtualSerial};
use powersensor3::units::{SimDuration, SimTime};

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Adapter exposing a shared `RecordingTransport` as a `Transport` by
/// value (the host consumes its transport; the test keeps a handle to
/// read the recording afterwards).
struct ArcTransport<T>(Arc<RecordingTransport<T>>);

impl<T: Transport> Transport for ArcTransport<T> {
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

/// `(time µs, power bits)` per sample: equality is bit-for-bit.
fn sample_bits(trace: &Trace) -> Vec<(u64, u64)> {
    trace
        .samples()
        .iter()
        .map(|s| (s.time.as_micros(), s.power.value().to_bits()))
        .collect()
}

/// Asserts two sample lists are equal, naming the first divergence
/// rather than printing thousands of samples.
fn assert_same(got: &[(u64, u64)], want: &[(u64, u64)], ctx: &str) {
    let first_diff = got.iter().zip(want).position(|(g, w)| g != w);
    assert!(
        got.len() == want.len() && first_diff.is_none(),
        "{ctx}: {} vs {} samples, first difference at {first_diff:?}",
        got.len(),
        want.len()
    );
}

/// Removes an archive and its sidecars when dropped.
struct TempArchive(PathBuf);

impl Drop for TempArchive {
    fn drop(&mut self) {
        for p in [self.0.clone(), index_path_for(&self.0)] {
            std::fs::remove_file(p).ok();
        }
    }
}

/// One byte stream, three readers: the live reader's trace, an offline
/// decode of the recorded bytes and the archive the live reader's frame
/// sink wrote must hold the same samples, bit for bit — also when the
/// link flips, drops and duplicates bytes mid-stream.
#[test]
fn live_offline_and_archive_agree_bit_for_bit_on_faulted_links() {
    const FAULTS: &str = "flip@4000:3,drop@9000,flip@15000:6,dup@20000";
    for plan in ["-", FAULTS] {
        let plan = SimPlan::parse(plan).unwrap();
        for seed in 1..=4u64 {
            let ctx = format!("seed {seed}, plan {plan}");
            let archive = TempArchive(std::env::temp_dir().join(format!(
                "ps3-offline-parity-{}-{seed}-{}.ps3a",
                std::process::id(),
                plan.len()
            )));
            let (device, host) = spawn_device(seed, None);
            let recorder = Arc::new(RecordingTransport::new(FaultInjector::new(host, &plan)));
            let ps = PowerSensor::connect(ArcTransport(Arc::clone(&recorder))).unwrap();
            let configs = ps.configs();
            ps.begin_trace();
            let writer =
                ArchiveWriter::spawn(&archive.0, configs.clone(), ArchiveWriterOptions::default())
                    .unwrap();
            writer.attach(&ps);
            device.advance(SimDuration::from_millis(200));
            assert!(
                quiesce(&ps, &device, Duration::from_secs(30)),
                "{ctx}: quiesce"
            );
            let live = sample_bits(&ps.end_trace());
            drop(ps);
            drop(device);
            writer.finish().unwrap();
            assert!(live.len() >= 3990, "{ctx}: live trace has {}", live.len());

            let offline = decode_stream(&recorder.received(), &configs);
            assert_same(
                &sample_bits(&offline.total),
                &live,
                &format!("{ctx}, offline"),
            );

            let opened = Archive::open(&archive.0).unwrap();
            let mut archived = Vec::new();
            for meta in opened.segments() {
                for frame in opened.decode_segment_frames(meta).unwrap() {
                    let watts = frame_total(opened.configs(), opened.adc(), &frame);
                    archived.push((frame.time.as_micros(), watts.value().to_bits()));
                }
            }
            assert_same(&archived, &live, &format!("{ctx}, archive"));
        }
    }
}
