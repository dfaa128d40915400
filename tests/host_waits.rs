//! The host-side waits block on counters, never on the clock: each
//! round ends exactly when the counters balance, with no sleep and no
//! settle anywhere in this file.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use powersensor3::core::{PowerSensor, SharedPowerSensor};
use powersensor3::sim::spawn_device;
use powersensor3::stream::{StreamClient, StreamClientConfig, StreamDaemon, StreamDaemonConfig};
use powersensor3::units::SimDuration;

/// Generous bound for a wait the counters end; the assertions are on
/// the counters, never on how long a wait took.
const WAIT: Duration = Duration::from_secs(30);

/// A small deterministic generator for chunk lengths.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// `frames_emitted == host frames` at every boundary: after the device
/// parks and the reader drains, the host has decoded every frame the
/// device put on the wire — no more, no fewer.
#[test]
fn drained_host_holds_every_emitted_frame() {
    let (device, host) = spawn_device(11, None);
    let ps = PowerSensor::connect(host).unwrap();
    // The reader runs frame sinks under its state lock. Holding this
    // gate while the device runs leaves the reader a backlog, so
    // `wait_drained` registers while undecoded bytes remain.
    let gate = Arc::new(Mutex::new(()));
    {
        let gate = Arc::clone(&gate);
        ps.add_frame_sink(move |_| {
            drop(gate.lock().unwrap());
            true
        });
    }
    let mut rng = 0x5EED;
    for round in 0..200 {
        // 1 µs .. 400 ms: chunks that end mid-frame as well as on one.
        // 400 ms of 6-byte frames is 48 KB, under the 64 KB link
        // buffer, so the device parks while the reader is gated.
        let chunk = 1 + next(&mut rng) % 400_000;
        let held = gate.lock().unwrap();
        device.advance(SimDuration::from_micros(chunk));
        assert!(device.wait_parked(Instant::now() + WAIT), "round {round}");
        drop(held);
        ps.wait_drained(WAIT)
            .unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        assert_eq!(
            ps.frames_received(),
            device.frames_emitted(),
            "round {round} after a {chunk} µs chunk"
        );
    }
}

/// Once `wait_stats` sees every subscriber up, their ring cursors are
/// pinned: the device may advance at once and every subscriber still
/// receives the whole capture, gap-free.
#[test]
fn counted_subscribers_need_no_settle() {
    const DIVISORS: [u32; 8] = [1, 2, 3, 4, 5, 8, 20, 1];
    let (device, host) = spawn_device(12, None);
    let ps = SharedPowerSensor::new(PowerSensor::connect(host).unwrap());
    let daemon =
        StreamDaemon::start(ps.clone(), "127.0.0.1:0", StreamDaemonConfig::default()).unwrap();
    let clients: Vec<StreamClient> = DIVISORS
        .iter()
        .map(|&divisor| {
            StreamClient::connect(
                daemon.local_addr(),
                StreamClientConfig {
                    divisor,
                    ..StreamClientConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    assert!(daemon.wait_stats(WAIT, |s| s.active_subscribers == 8));

    // 200 ms is 4000 frames: under the 8192-slot ring, so nothing laps.
    device.advance(SimDuration::from_millis(200));
    assert!(device.wait_parked(Instant::now() + WAIT));
    ps.wait_drained(WAIT).unwrap();
    let published = daemon.stats().frames_published;
    assert_eq!(published, device.frames_emitted());
    assert_eq!(published, 4000);

    for (client, &divisor) in clients.iter().zip(&DIVISORS) {
        let want = published / u64::from(divisor);
        assert!(
            client.wait_until(WAIT, |c| c.is_evicted() || c.frames_received() >= want),
            "divisor {divisor}: {client:?}"
        );
        assert_eq!(client.frames_received(), want, "divisor {divisor}");
        assert_eq!(client.gap_events(), 0, "divisor {divisor}");
        assert_eq!(client.dropped_frames(), 0, "divisor {divisor}");
        assert!(!client.is_evicted(), "divisor {divisor}");
    }
}
