//! Failure-injection tests: the host library must survive a noisy or
//! lossy USB link (resynchronising on the protocol framing bits) and
//! react sanely to a vanished device.
//!
//! These tests wire the fault injector between a raw device thread and
//! the host, bypassing the Testbed convenience layer.

use std::time::Duration;

use powersensor3::core::PowerSensor;
use powersensor3::firmware::{Device, DeviceThread, Eeprom, SensorConfig};
use powersensor3::transport::{FaultPlan, FaultyTransport, SerialEndpoint, VirtualSerial};
use powersensor3::units::{SimDuration, SimTime};

/// Spawns a device thread producing a 2 A / 12 V signal on pair 0,
/// returning the host-side endpoint and the device handle.
fn spawn_device() -> (SerialEndpoint, DeviceThread) {
    let (host_end, dev_end) = VirtualSerial::pair();
    let mut eeprom = Eeprom::new();
    eeprom.write(0, SensorConfig::new("I0", 3.3, 0.12, true));
    eeprom.write(1, SensorConfig::new("U0", 3.3, 5.0, true));
    let dev = Device::new(
        |ch: usize, _t: SimTime| -> f64 {
            match ch {
                0 => 1.65 + 2.0 * 0.12,
                1 => 12.0 / 5.0,
                _ => 0.0,
            }
        },
        eeprom,
    );
    (host_end, DeviceThread::spawn(dev, dev_end))
}

fn wait_frames(ps: &PowerSensor, n: u64) {
    ps.wait_for_frames(n, Duration::from_secs(30)).unwrap();
}

#[test]
fn host_survives_corrupted_stream() {
    let (host_end, device) = spawn_device();
    // One byte in a thousand gets a flipped bit.
    let faulty = FaultyTransport::new(host_end, FaultPlan::NOISY, 42);
    let ps = PowerSensor::connect(faulty).unwrap();
    device.advance(SimDuration::from_millis(500));
    wait_frames(&ps, 9_000);
    let state = ps.read();
    // Despite corruption the bulk of the frames decode and the power
    // reading is still ≈ 24 W (individual corrupt samples may spike,
    // but the latest-state view recovers immediately).
    assert!(
        (state.total_watts().value() - 24.0).abs() < 12.0,
        "power {}",
        state.total_watts()
    );
    assert!(ps.is_alive());
    drop(ps);
    drop(device);
}

#[test]
fn host_survives_byte_loss_and_keeps_time_monotonic() {
    let (host_end, device) = spawn_device();
    let faulty = FaultyTransport::new(host_end, FaultPlan::LOSSY, 43);
    let ps = PowerSensor::connect(faulty).unwrap();
    ps.begin_trace();
    device.advance(SimDuration::from_millis(500));
    wait_frames(&ps, 9_000);
    let trace = ps.end_trace();
    // Lost bytes drop whole frames but never corrupt time ordering
    // (Trace::push asserts monotonicity in debug builds).
    assert!(trace.len() > 8_000, "got {} frames", trace.len());
    let mean = trace.mean_power().unwrap().value();
    assert!((mean - 24.0).abs() < 2.0, "mean {mean}");
    drop(ps);
    drop(device);
}

#[test]
fn energy_accounting_tolerates_lossy_link() {
    let (host_end, device) = spawn_device();
    let faulty = FaultyTransport::new(host_end, FaultPlan::LOSSY, 44);
    let ps = PowerSensor::connect(faulty).unwrap();
    let first = ps.read();
    device.advance(SimDuration::from_secs(1));
    wait_frames(&ps, 19_000);
    let second = ps.read();
    let energy = powersensor3::core::joules(&first, &second).value();
    // 24 W × 1 s = 24 J; lost frames bridge via longer dt on the next
    // frame, so the integral error stays small.
    assert!((energy - 24.0).abs() < 1.5, "energy {energy}");
    drop(ps);
    drop(device);
}

#[test]
fn device_vanishing_mid_session_is_detected() {
    let (host_end, device) = spawn_device();
    let ps = PowerSensor::connect(host_end).unwrap();
    device.advance(SimDuration::from_millis(10));
    wait_frames(&ps, 150);
    assert!(ps.is_alive());
    // Kill the device. No frame count is ever reached: the wait ends
    // when the reader exits on the dead link.
    drop(device);
    let _ = ps.wait_for_frames(u64::MAX, Duration::from_secs(5));
    assert!(!ps.is_alive(), "host must notice the dead link");
    // Waits now fail fast instead of hanging.
    let err = ps
        .wait_for_frames(u64::MAX, Duration::from_secs(1))
        .unwrap_err();
    assert!(matches!(
        err,
        powersensor3::core::PowerSensorError::Shutdown
    ));
}

#[test]
fn marker_commands_pass_through_fault_injector() {
    // Commands travel the (reliable) host→device direction even when
    // the device→host stream is noisy.
    let (host_end, device) = spawn_device();
    let faulty = FaultyTransport::new(host_end, FaultPlan::NOISY, 45);
    let ps = PowerSensor::connect(faulty).unwrap();
    ps.begin_trace();
    ps.mark('z').unwrap();
    device.advance(SimDuration::from_millis(100));
    wait_frames(&ps, 1_900);
    let trace = ps.end_trace();
    assert_eq!(trace.markers().len(), 1);
    assert_eq!(trace.markers()[0].label, 'z');
    drop(ps);
    drop(device);
}
