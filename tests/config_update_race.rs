//! A configuration write mid-stream never loses a frame.
//!
//! `update_configs` pauses the stream, rewrites the configuration and
//! resumes. The device sends whole frames, so the pause falls between
//! frames on the wire, but the host reader may be partway through
//! decoding one when the update takes its lock. Reading at most 5
//! bytes at a time leaves it mid-frame most of the time. Every frame
//! the device emitted must still reach the host.

use std::time::{Duration, Instant};

use powersensor3::core::PowerSensor;
use powersensor3::sim::spawn_device;
use powersensor3::transport::{SerialEndpoint, Transport, TransportError};
use powersensor3::units::SimDuration;

/// Generous bound for a wait the counters end; the assertions are on
/// the counters, never on how long a wait took.
const WAIT: Duration = Duration::from_secs(30);

/// Largest read the host end returns: less than one frame.
const MAX_READ: usize = 5;

/// The host end of the link, returning at most [`MAX_READ`] bytes per
/// read.
struct ShortReads(SerialEndpoint);

impl Transport for ShortReads {
    fn write_all(&self, bytes: &[u8]) -> Result<(), TransportError> {
        self.0.write_all(bytes)
    }

    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> Result<usize, TransportError> {
        let len = buf.len().min(MAX_READ);
        self.0.read(&mut buf[..len], timeout)
    }

    fn available(&self) -> usize {
        self.0.available()
    }
}

#[test]
fn config_updates_mid_stream_keep_every_frame() {
    let (device, host) = spawn_device(3, None);
    let ps = PowerSensor::connect(ShortReads(host)).unwrap();
    let unchanged = ps.configs()[0].clone();
    for round in 0..40u64 {
        let before = ps.frames_received();
        // 50 ms is 1000 frames; the update lands a little later into
        // each round's stream.
        device.advance(SimDuration::from_millis(50));
        ps.wait_for_frames(before + 100 + 10 * round, WAIT)
            .unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        ps.update_configs(&[(0, unchanged.clone())]).unwrap();
        assert!(device.wait_parked(Instant::now() + WAIT), "round {round}");
        ps.wait_drained(WAIT)
            .unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        assert_eq!(
            ps.frames_received(),
            device.frames_emitted(),
            "round {round}: host frames against device frames"
        );
    }
}
