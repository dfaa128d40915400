//! Replay after a crash: an archive truncated mid-segment must replay
//! exactly its recovered prefix — every frame of every sealed segment,
//! nothing from the torn tail — and close the ring cleanly so the
//! subscriber observes an ordinary end-of-stream, not an eviction.

use std::fs::OpenOptions;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ps3_archive::{Archive, ArchiveFrame, SegmentWriter};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_stream::{
    EvictReason, StreamClient, StreamClientConfig, StreamDaemon, StreamDaemonConfig, StreamFrame,
};
use ps3_units::SimTime;

#[test]
fn replay_of_truncated_archive_serves_recovered_prefix_and_closes_cleanly() {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);

    let path = std::env::temp_dir().join(format!(
        "ps3-stream-replay-torn-{}.ps3a",
        std::process::id()
    ));
    let frames: Vec<ArchiveFrame> = (0..300u64)
        .map(|i| {
            let mut raw = [0u16; SENSOR_SLOTS];
            raw[0] = 400 + (i % 41) as u16;
            raw[1] = 600 + (i % 13) as u16;
            ArchiveFrame {
                time: SimTime::from_micros(25 + i * 50),
                raw,
                present: 0b11,
                marker: (i == 50 || i == 250).then_some('m'),
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

    // Crash simulation: tear 37 bytes off the end, which lands inside
    // the third segment's bytes. The stale sidecar index still
    // describes all 300 frames, so recovery must also notice the index
    // no longer matches the file and fall back to a scan.
    let full_len = std::fs::metadata(&path).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(full_len - 37)
        .unwrap();

    let archive = Arc::new(Archive::open(&path).unwrap());
    let recovery = archive.recovery();
    assert!(!recovery.used_index, "stale index must be rejected");
    assert!(recovery.trailing_bytes > 0, "torn tail must be declared");
    let recovered: u64 = archive
        .segments()
        .iter()
        .map(|m| u64::from(m.header.frame_count))
        .sum();
    assert_eq!(recovered, 200, "two sealed segments survive");

    let mut daemon = StreamDaemon::start_replay(
        Arc::clone(&archive),
        None,
        0.0,
        "127.0.0.1:0",
        StreamDaemonConfig::default(),
    )
    .unwrap();
    let received: Arc<Mutex<Vec<StreamFrame>>> = Arc::new(Mutex::new(Vec::new()));
    let client = StreamClient::connect(
        daemon.local_addr(),
        StreamClientConfig {
            pair_mask: 0x0F,
            divisor: 1,
            on_frame: Some(Box::new({
                let received = Arc::clone(&received);
                move |frame| received.lock().unwrap().push(*frame)
            })),
            ..StreamClientConfig::default()
        },
    )
    .unwrap();

    // The replay ends by closing the ring; the client sees a clean
    // end-of-stream.
    assert!(
        client.wait_until(Duration::from_secs(30), |c| !c.is_alive()),
        "replay should end the stream"
    );
    let got = received.lock().unwrap().clone();
    assert_eq!(got.len(), 200, "exactly the recovered prefix is served");
    for (frame, want) in got.iter().zip(&frames[..200]) {
        assert_eq!(frame.time, want.time);
        assert_eq!(frame.raw, want.raw);
        assert_eq!(frame.present, want.present);
        assert_eq!(frame.marker, want.marker.is_some());
    }
    assert_eq!(client.frames_received(), 200);
    assert_eq!(client.gap_events(), 0, "no gaps on an unpaced replay");
    assert!(!client.is_evicted(), "end-of-replay is not an eviction");
    assert_eq!(client.eviction_reason(), Some(EvictReason::Shutdown));

    // The daemon's own accounting agrees, and shutdown is orderly.
    assert_eq!(daemon.stats().frames_published, 200);
    assert_eq!(daemon.stats().evicted, 0);
    daemon.shutdown();

    for p in [path.clone(), ps3_archive::index_path_for(&path)] {
        std::fs::remove_file(p).ok();
    }
}
