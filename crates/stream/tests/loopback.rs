//! End-to-end loopback test: a daemon owning a virtual-testbed sensor,
//! many concurrent TCP subscribers at mixed rates, one deliberately
//! stalled subscriber that must be evicted without disturbing anyone
//! else — the acceptance scenario for the streaming subsystem.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ps3_core::SharedPowerSensor;
use ps3_duts::{BenchSetup, LoadProgram, RailId};
use ps3_sensors::ModuleKind;
use ps3_stream::{ClientMsg, StreamClient, StreamClientConfig, StreamDaemon, StreamDaemonConfig};
use ps3_testbed::{Testbed, TestbedBuilder};
use ps3_units::{Amps, SimDuration};

fn bench_testbed() -> Testbed<BenchSetup> {
    TestbedBuilder::new(BenchSetup::twelve_volt(LoadProgram::Constant(Amps::new(
        2.0,
    ))))
    .attach(ModuleKind::Slot10A12V, RailId::Ext12V)
    .seed(7)
    .build()
}

#[test]
fn daemon_serves_mixed_rate_subscribers_and_evicts_stalled() {
    let mut tb = bench_testbed();
    let sensor = SharedPowerSensor::new(tb.connect().unwrap());
    let daemon = StreamDaemon::start(
        sensor.clone(),
        "127.0.0.1:0",
        StreamDaemonConfig {
            ring_capacity: 65536,
            write_timeout: Duration::from_millis(150),
            max_gap_events: 8,
            ..StreamDaemonConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();

    // Seven healthy subscribers at three rates…
    let at = |divisor: u32| StreamClientConfig {
        pair_mask: 0x0F,
        divisor,
        ..StreamClientConfig::default()
    };
    let fast: Vec<StreamClient> = (0..3)
        .map(|_| StreamClient::connect(addr, at(1)).unwrap())
        .collect();
    let khz: Vec<StreamClient> = (0..2)
        .map(|_| StreamClient::connect(addr, at(20)).unwrap())
        .collect();
    let slow: Vec<StreamClient> = (0..2)
        .map(|_| StreamClient::connect(addr, at(2000)).unwrap())
        .collect();

    // …plus one that subscribes and then never reads a byte.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .write_all(
            &ClientMsg::Subscribe {
                pair_mask: 0x0F,
                divisor: 1,
                rig: None,
            }
            .encode(),
        )
        .unwrap();

    assert!(
        daemon.wait_stats(Duration::from_secs(10), |s| s.active_subscribers == 8),
        "all 8 subscribers should be accepted, stats: {:?}",
        daemon.stats()
    );

    // The first fast client records every timestamp it sees.
    let timestamps: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let markers = Arc::new(AtomicU64::new(0));
    {
        let timestamps = Arc::clone(&timestamps);
        let markers = Arc::clone(&markers);
        fast[0].set_frame_callback(move |frame| {
            timestamps.lock().unwrap().push(frame.time.as_micros());
            if frame.marker {
                markers.fetch_add(1, Ordering::SeqCst);
            }
        });
    }

    // Drive the virtual clock until the stalled subscriber has been
    // evicted (its TCP buffers fill, a daemon write times out), with a
    // generous cap on how much data that may take.
    let chunk = SimDuration::from_millis(250);
    let mut chunks = 0;
    while daemon.stats().evicted == 0 && chunks < 120 {
        tb.advance_and_sync(&sensor, chunk).unwrap();
        chunks += 1;
        if chunks == 2 {
            // A marker injected over the network, mid-stream.
            fast[1].inject_marker('n').unwrap();
        }
    }
    let stats = daemon.stats();
    assert_eq!(stats.evicted, 1, "stalled subscriber evicted: {stats:?}");

    // Acquisition never depends on subscribers: the host processed
    // every frame the device emitted.
    assert_eq!(sensor.frames_received(), tb.frames_emitted());
    let frames_total = tb.frames_emitted();
    assert!(
        frames_total >= 10_000,
        "expected a substantial run, got {frames_total} frames"
    );

    // Every healthy 20 kHz subscriber gets every frame, gap-free.
    for client in &fast {
        assert!(
            client.wait_until(Duration::from_secs(30), |c| c.frames_received()
                >= frames_total),
            "20 kHz subscriber received {} of {frames_total}",
            client.frames_received()
        );
        assert_eq!(client.frames_received(), frames_total);
        assert_eq!(client.gap_events(), 0, "20 kHz stream must be gap-free");
        assert_eq!(client.dropped_frames(), 0);
        assert!(!client.is_evicted());
        assert!(client.is_alive());
    }

    // The recorded timestamps are strictly 50 µs apart — no holes, no
    // reordering, across the whole run.
    {
        let ts = timestamps.lock().unwrap();
        assert_eq!(ts.len() as u64, frames_total);
        for pair in ts.windows(2) {
            assert_eq!(
                pair[1] - pair[0],
                50,
                "gap between {} and {}",
                pair[0],
                pair[1]
            );
        }
    }
    assert_eq!(markers.load(Ordering::SeqCst), 1, "one injected marker");

    // Downsampled subscribers see block counts and the same power.
    for (clients, divisor) in [(&khz, 20u64), (&slow, 2000u64)] {
        let expect = frames_total / divisor;
        for client in clients.iter() {
            assert!(
                client.wait_until(Duration::from_secs(30), |c| c.frames_received() >= expect),
                "÷{divisor} subscriber received {} of {expect}",
                client.frames_received()
            );
            assert_eq!(client.frames_received(), expect);
            assert_eq!(client.gap_events(), 0);
            let watts = client.last_watts().value();
            assert!((watts - 24.0).abs() < 0.5, "÷{divisor} power {watts}");
        }
    }
    // A single un-averaged 20 kHz frame carries the full sensor noise,
    // so its tolerance is wider than the downsampled streams'.
    let watts = fast[2].last_watts().value();
    assert!((watts - 24.0).abs() < 2.0, "native-rate power {watts}");

    // Stats round-trip over the wire matches the daemon's own view
    // (the evicted session's thread needs a moment to finish tearing
    // down before the subscriber count settles at 7).
    assert!(
        daemon.wait_stats(Duration::from_secs(10), |s| s.active_subscribers == 7),
        "evicted session should deregister, stats: {:?}",
        daemon.stats()
    );
    let wire_stats = fast[0].query_stats(Duration::from_secs(5)).unwrap();
    assert_eq!(wire_stats.frames_published, frames_total);
    assert_eq!(wire_stats.evicted, 1);
    assert_eq!(wire_stats.active_subscribers, 7);

    drop(stalled);
    drop(fast);
    drop(khz);
    drop(slow);
    assert!(
        daemon.wait_stats(Duration::from_secs(10), |s| s.active_subscribers == 0),
        "subscribers drain on disconnect"
    );
    drop(daemon);
    drop(sensor);
}

#[test]
fn lagging_subscriber_gets_gap_markers_not_backpressure() {
    let mut tb = bench_testbed();
    let sensor = SharedPowerSensor::new(tb.connect().unwrap());
    // A two-slot ring: the producer's bursts are guaranteed to lap the
    // sender thread, so the drop-oldest path runs constantly. The gap
    // budget is unlimited — this test watches the Gap messages.
    let daemon = StreamDaemon::start(
        sensor.clone(),
        "127.0.0.1:0",
        StreamDaemonConfig {
            ring_capacity: 2,
            max_gap_events: u64::MAX,
            ..StreamDaemonConfig::default()
        },
    )
    .unwrap();

    let client = StreamClient::connect(daemon.local_addr(), StreamClientConfig::default()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.gap_events() == 0 && Instant::now() < deadline {
        tb.advance_and_sync(&sensor, SimDuration::from_millis(100))
            .unwrap();
    }

    assert!(
        client.gap_events() > 0,
        "two-slot ring must lap: {client:?}"
    );
    assert!(client.dropped_frames() > 0);
    assert!(
        client.frames_received() > 0,
        "laps drop data, not the client"
    );
    assert!(client.is_alive());
    assert!(!client.is_evicted());
    // Acquisition never noticed any of it.
    assert_eq!(sensor.frames_received(), tb.frames_emitted());
}

#[test]
fn persistently_lapped_subscriber_is_evicted() {
    let mut tb = bench_testbed();
    let sensor = SharedPowerSensor::new(tb.connect().unwrap());
    let daemon = StreamDaemon::start(
        sensor.clone(),
        "127.0.0.1:0",
        StreamDaemonConfig {
            ring_capacity: 2,
            max_gap_events: 2,
            ..StreamDaemonConfig::default()
        },
    )
    .unwrap();

    let client = StreamClient::connect(daemon.local_addr(), StreamClientConfig::default()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon.stats().evicted == 0 && Instant::now() < deadline {
        tb.advance_and_sync(&sensor, SimDuration::from_millis(100))
            .unwrap();
    }
    assert_eq!(daemon.stats().evicted, 1, "gap budget exceeded → eviction");
    // The client reads promptly, so the Evicted notice reaches it.
    assert!(
        client.wait_until(Duration::from_secs(10), StreamClient::is_evicted),
        "client should learn of its eviction: {client:?}"
    );
    // The eviction notice carries the cause: the configured gap budget
    // it blew through.
    match client.eviction_reason() {
        Some(ps3_stream::EvictReason::TooManyGaps { gaps, limit }) => {
            assert_eq!(limit, 2, "limit echoes the daemon config");
            assert!(gaps > limit, "reported gaps exceed the limit");
        }
        other => panic!("expected TooManyGaps eviction, got {other:?}"),
    }
    assert_eq!(sensor.frames_received(), tb.frames_emitted());
}

#[test]
fn marker_injected_by_client_reaches_host_trace() {
    let mut tb = bench_testbed();
    let sensor = SharedPowerSensor::new(tb.connect().unwrap());
    let daemon =
        StreamDaemon::start(sensor.clone(), "127.0.0.1:0", StreamDaemonConfig::default()).unwrap();
    let client = StreamClient::connect(daemon.local_addr(), StreamClientConfig::default()).unwrap();

    sensor.begin_trace();
    tb.advance_and_sync(&sensor, SimDuration::from_millis(5))
        .unwrap();
    client.inject_marker('z').unwrap();
    // The marker command travels client → daemon → sensor: give it a
    // moment to land before producing the frames that carry it.
    std::thread::sleep(Duration::from_millis(50));
    tb.advance_and_sync(&sensor, SimDuration::from_millis(5))
        .unwrap();
    let trace = sensor.end_trace();
    let labels: Vec<char> = trace.markers().iter().map(|m| m.label).collect();
    assert_eq!(labels, vec!['z'], "network-injected marker in host trace");
}

/// Replay mode: a daemon serving an archived range must deliver the
/// stored frames bit-for-bit (raw codes, presence, marker positions)
/// and close the stream when the range is exhausted.
#[test]
fn replay_daemon_serves_archived_range_exactly() {
    use ps3_archive::{Archive, ArchiveFrame, SegmentWriter};
    use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
    use ps3_stream::StreamFrame;
    use ps3_units::SimTime;

    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);

    let path = std::env::temp_dir().join(format!("ps3-stream-replay-{}.ps3a", std::process::id()));
    let frames: Vec<ArchiveFrame> = (0..400u64)
        .map(|i| {
            let mut raw = [0u16; SENSOR_SLOTS];
            raw[0] = 400 + (i % 37) as u16;
            raw[1] = 600 + (i % 11) as u16;
            ArchiveFrame {
                time: SimTime::from_micros(25 + i * 50),
                raw,
                present: 0b11,
                marker: (i == 150 || i == 250).then_some('r'),
            }
        })
        .collect();
    {
        let mut writer = SegmentWriter::create_with(&path, configs, 100).unwrap();
        for &frame in &frames {
            writer.push(frame).unwrap();
        }
        writer.finish().unwrap();
    }

    // Replay only frames 100..300, unpaced.
    let archive = Arc::new(Archive::open(&path).unwrap());
    let range = Some((frames[100].time, frames[300].time));
    let mut daemon = StreamDaemon::start_replay(
        archive,
        range,
        0.0,
        "127.0.0.1:0",
        StreamDaemonConfig::default(),
    )
    .unwrap();
    assert!(daemon.is_replay());
    assert!(daemon.sensor().is_none());

    let client = StreamClient::connect(
        daemon.local_addr(),
        StreamClientConfig {
            pair_mask: 0x0F,
            divisor: 1,
            ..StreamClientConfig::default()
        },
    )
    .unwrap();
    let received: Arc<Mutex<Vec<StreamFrame>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let received = Arc::clone(&received);
        client.set_frame_callback(move |frame| received.lock().unwrap().push(*frame));
    }
    // InjectMarker is accepted but ignored in replay mode.
    client.inject_marker('x').unwrap();

    // End of range closes the stream; the client observes it.
    assert!(
        client.wait_until(Duration::from_secs(30), |c| !c.is_alive()),
        "replay should end the stream"
    );
    let got = received.lock().unwrap().clone();
    assert_eq!(got.len(), 200, "half-open range [100, 300)");
    for (frame, want) in got.iter().zip(&frames[100..300]) {
        assert_eq!(frame.time, want.time);
        assert_eq!(frame.raw, want.raw);
        assert_eq!(frame.present, want.present);
        assert_eq!(frame.marker, want.marker.is_some());
    }
    assert_eq!(client.gap_events(), 0);
    // End-of-replay is a clean shutdown, not a for-cause eviction.
    assert!(!client.is_evicted());
    assert_eq!(
        client.eviction_reason(),
        Some(ps3_stream::EvictReason::Shutdown)
    );

    daemon.shutdown();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ps3_archive::index_path_for(&path)).ok();
}

/// Satellite: a client with a reconnect policy survives a daemon
/// bounce (stop + restart on the same port) and resumes receiving
/// frames from the new incarnation without counting the outage as
/// dropped frames.
#[test]
fn reconnecting_client_survives_daemon_bounce() {
    use ps3_stream::ReconnectPolicy;

    let mut tb = bench_testbed();
    let sensor = SharedPowerSensor::new(tb.connect().unwrap());
    let daemon =
        StreamDaemon::start(sensor.clone(), "127.0.0.1:0", StreamDaemonConfig::default()).unwrap();
    let addr = daemon.local_addr();

    let client = StreamClient::connect(
        addr,
        StreamClientConfig {
            reconnect: Some(ReconnectPolicy {
                max_retries: 50,
                initial_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_millis(100),
            }),
            ..StreamClientConfig::default()
        },
    )
    .unwrap();

    tb.advance_and_sync(&sensor, SimDuration::from_millis(50))
        .unwrap();
    assert!(
        client.wait_until(Duration::from_secs(10), |c| c.frames_received() > 0),
        "first incarnation delivers frames"
    );
    let before_bounce = client.frames_received();

    // Bounce: tear the daemon down (clients get a Shutdown notice) and
    // start a fresh one on the same address.
    drop(daemon);
    let mut tb2 = bench_testbed();
    let sensor2 = SharedPowerSensor::new(tb2.connect().unwrap());
    let daemon2 =
        StreamDaemon::start(sensor2.clone(), addr, StreamDaemonConfig::default()).unwrap();

    // The client redials and resubscribes on its own.
    assert!(
        daemon2.wait_stats(Duration::from_secs(10), |s| s.active_subscribers == 1),
        "client should reattach to the new daemon"
    );
    // The daemon counts the subscriber before the client has read its
    // Hello and counted the reconnect.
    client.wait_until(Duration::from_secs(10), |c| c.reconnects() == 1);
    assert_eq!(client.reconnects(), 1);
    assert!(client.is_alive());
    assert!(!client.is_evicted(), "a bounce is not a for-cause eviction");

    tb2.advance_and_sync(&sensor2, SimDuration::from_millis(50))
        .unwrap();
    assert!(
        client.wait_until(Duration::from_secs(10), |c| c.frames_received()
            > before_bounce),
        "second incarnation delivers frames to the same client"
    );
    // The outage is a cursor jump, not a counted gap: dropped_frames
    // only ever reports server-side ring laps.
    assert_eq!(client.gap_events(), 0);
    assert_eq!(client.dropped_frames(), 0);

    drop(client);
    assert!(
        daemon2.wait_stats(Duration::from_secs(10), |s| s.active_subscribers == 0),
        "client drains from the new daemon on close"
    );
}
