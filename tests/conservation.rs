//! Conservation at the host's boundaries, one identity per test.
//!
//! The archive writer: every frame offered to its queue is either
//! written or counted as dropped, `offered == written + dropped`, and
//! the frames written are the first ones that fit, in order.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use powersensor3::archive::{Archive, ArchiveFrame, ArchiveWriter, ArchiveWriterOptions};
use powersensor3::firmware::{SensorConfig, SENSOR_SLOTS};
use powersensor3::units::SimTime;

const WAIT: Duration = Duration::from_secs(30);

fn configs() -> [SensorConfig; SENSOR_SLOTS] {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.12, true);
    configs[1] = SensorConfig::new("U0", 3.3, 5.0, true);
    configs
}

fn frames(n: u64) -> Vec<ArchiveFrame> {
    (0..n)
        .map(|i| {
            let mut raw = [0u16; SENSOR_SLOTS];
            raw[0] = (i * 37 % 1024) as u16;
            raw[1] = (600 + i % 13) as u16;
            ArchiveFrame {
                time: SimTime::from_micros(25 + 50 * i),
                raw,
                present: 0b11,
                marker: i.is_multiple_of(29).then_some('m'),
            }
        })
        .collect()
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        for ext in ["", ".ps3x", ".ps3s"] {
            let mut p = self.0.as_os_str().to_os_string();
            p.push(ext);
            std::fs::remove_file(PathBuf::from(p)).ok();
        }
    }
}

/// The worker is held inside its first seal's maintenance hook while
/// chunks overflow the queue: exactly the overflow is dropped, and
/// `finish` accounts for every frame offered.
#[test]
fn archive_writer_offered_equals_written_plus_dropped() {
    const SEGMENT: usize = 10;
    const CAPACITY: usize = 100;
    let scratch =
        Scratch(std::env::temp_dir().join(format!("ps3-conservation-{}.ps3a", std::process::id())));
    let (held_tx, held) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let mut first = true;
    let writer = ArchiveWriter::spawn_with_maintenance(
        &scratch.0,
        configs(),
        ArchiveWriterOptions {
            segment_frames: SEGMENT,
            queue_capacity: CAPACITY,
        },
        Box::new(move |_| {
            if std::mem::take(&mut first) {
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            }
            Ok(())
        }),
    )
    .unwrap();

    let offered = frames(170);
    // One segment's worth: the worker seals it and parks in the hook.
    assert!(writer.push(&offered[..SEGMENT]));
    held.recv_timeout(WAIT).unwrap();
    // 30 + 45 fit, 25 of the next 40 fit, the last 25 find no room.
    let mut at = SEGMENT;
    for len in [30, 45, 40, 25] {
        assert!(writer.push(&offered[at..at + len]));
        at += len;
    }
    assert_eq!(at, 150);
    assert_eq!(writer.dropped(), 40);

    release.send(()).unwrap();
    let deadline = Instant::now() + WAIT;
    while writer.frames_written() < (SEGMENT + CAPACITY) as u64 {
        assert!(Instant::now() < deadline, "worker never drained the queue");
        std::thread::sleep(Duration::from_millis(1));
    }
    // With the queue drained there is room again.
    assert!(writer.push(&offered[150..]));
    let stats = writer.finish().unwrap();
    assert_eq!(stats.dropped, 40);
    assert_eq!(stats.frames, 130);
    assert_eq!(stats.frames + stats.dropped, offered.len() as u64);

    let archive = Archive::open(&scratch.0).unwrap();
    let archived: Vec<ArchiveFrame> = archive
        .segments()
        .iter()
        .flat_map(|meta| archive.decode_segment_frames(meta).unwrap())
        .collect();
    let kept: Vec<ArchiveFrame> = offered[..SEGMENT + CAPACITY]
        .iter()
        .chain(&offered[150..])
        .copied()
        .collect();
    assert_eq!(archived, kept);
}
