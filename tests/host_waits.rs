//! The host-side waits block on counters, never on the clock: each
//! round ends exactly when the counters balance, with no sleep and no
//! settle anywhere in this file.

use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use powersensor3::core::{PowerSensor, SharedPowerSensor};
use powersensor3::sim::spawn_device;
use powersensor3::stream::{StreamClient, StreamClientConfig, StreamDaemon, StreamDaemonConfig};
use powersensor3::units::{SimDuration, SimTime};

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

/// Frame times a sink saw, and where each chunk it saw ended.
#[derive(Default)]
struct Seen {
    times: Vec<SimTime>,
    chunk_ends: Vec<usize>,
}

/// The reader counts a chunk's frames only after every sink has seen
/// them: whenever `frames_received` reads n, a chunk sink and a
/// per-frame sink have each seen exactly the first n frames, in order,
/// and a per-frame sink that declines frame k never sees frame k + 1,
/// even inside one chunk.
#[test]
fn sinks_see_every_frame_before_it_is_counted() {
    const QUITS: [usize; 7] = [10, 50, 100, 200, 500, 1000, 2000];
    let (device, host) = spawn_device(13, None);
    let ps = PowerSensor::connect(host).unwrap();
    // Registered first, so it runs before the observers: it pauses the
    // reader at the start of a chunk's hand-off until told to go on.
    let (entered_tx, entered) = mpsc::channel();
    let (go, go_rx) = mpsc::channel::<()>();
    ps.add_chunk_sink(move |frames| {
        entered_tx.send(frames.len()).ok();
        go_rx.recv().is_ok()
    });
    let chunks = Arc::new(Mutex::new(Seen::default()));
    {
        let chunks = Arc::clone(&chunks);
        ps.add_chunk_sink(move |frames| {
            let mut seen = chunks.lock().unwrap();
            seen.times.extend(frames.iter().map(|f| f.time));
            let end = seen.times.len();
            seen.chunk_ends.push(end);
            true
        });
    }
    let single = Arc::new(Mutex::new(Vec::new()));
    {
        let single = Arc::clone(&single);
        ps.add_frame_sink(move |f| {
            single.lock().unwrap().push(f.time);
            true
        });
    }
    let quitters: Vec<Arc<Mutex<Vec<SimTime>>>> = QUITS
        .iter()
        .map(|&k| {
            let got = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&got);
            ps.add_frame_sink(move |f| {
                let mut got = sink.lock().unwrap();
                got.push(f.time);
                got.len() <= k
            });
            got
        })
        .collect();
    let seen_by_both = || {
        let n = chunks.lock().unwrap().times.len();
        assert_eq!(
            single.lock().unwrap().len(),
            n,
            "per-frame against chunk sink"
        );
        n as u64
    };

    // Gated: while the reader waits inside a chunk's hand-off, none of
    // that chunk's frames is counted yet. A second of 6-byte frames is
    // at least 30 reads of 4 KiB.
    device.advance(SimDuration::from_secs(1));
    for chunk in 0..10 {
        let len = entered.recv_timeout(WAIT).unwrap();
        assert!(len > 0, "chunk {chunk} is empty");
        assert_eq!(ps.frames_received(), seen_by_both(), "gated chunk {chunk}");
        go.send(()).unwrap();
    }
    drop(go); // the gate declines its next chunk and is gone
    assert!(device.wait_parked(Instant::now() + WAIT));

    // Ungated: after each wait, every counted frame is in every sink.
    for round in 0..20 {
        device.advance(SimDuration::from_micros(1 + 7919 * round));
        assert!(device.wait_parked(Instant::now() + WAIT), "round {round}");
        ps.wait_for_frames(device.frames_emitted(), WAIT).unwrap();
        assert_eq!(ps.frames_received(), device.frames_emitted());
        assert_eq!(ps.frames_received(), seen_by_both(), "round {round}");
    }

    let seen = chunks.lock().unwrap();
    assert!(
        seen.times.windows(2).all(|w| w[0] < w[1]),
        "frames out of order"
    );
    assert_eq!(*single.lock().unwrap(), seen.times);
    let mut inside = 0;
    for (&k, got) in QUITS.iter().zip(&quitters) {
        assert_eq!(
            *got.lock().unwrap(),
            seen.times[..=k],
            "sink declining frame {k}"
        );
        inside += usize::from(!seen.chunk_ends.contains(&(k + 1)));
    }
    assert!(inside > 0, "no declined frame fell inside a chunk");
}
