//! The `.ps3x` sidecar is an append-only log: every seal appends
//! exactly one record and rewrites nothing, so a seal costs the same at
//! segment 2 000 as at segment 1, and `finish` appends exactly the
//! `Finished` record. Counted in bytes, not timed.

use std::path::PathBuf;

use powersensor3::archive::{index_path_for, Archive, ArchiveFrame, ArchiveIndex, SegmentWriter};
use powersensor3::firmware::{SensorConfig, SENSOR_SLOTS};
use powersensor3::units::SimTime;

const SEALS: u64 = 2_000;

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        for path in [self.0.clone(), index_path_for(&self.0)] {
            std::fs::remove_file(path).ok();
        }
    }
}

#[test]
fn every_seal_appends_one_record_and_rewrites_nothing() {
    let scratch =
        Scratch(std::env::temp_dir().join(format!("ps3-index-log-{}.ps3a", std::process::id())));
    let (path, log_path) = (&scratch.0, index_path_for(&scratch.0));
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
    let mut writer = SegmentWriter::create_with(path, configs, 1).unwrap();

    let header = ArchiveIndex::default().encode();
    let mut log = std::fs::read(&log_path).unwrap();
    assert_eq!(log, header, "a new capture's log is its header alone");
    for i in 0..SEALS {
        let mut raw = [0u16; SENSOR_SLOTS];
        raw[0] = 500 + (i % 13) as u16;
        raw[1] = 700 + (i % 7) as u16;
        writer
            .push(ArchiveFrame {
                time: SimTime::from_micros(25 + i * 50),
                raw,
                present: 0b11,
                marker: (i % 40 == 10).then_some('m'),
            })
            .unwrap();
        // The bytes this seal should have appended: its one record.
        let sealed = ArchiveIndex {
            segments: vec![*writer.index().segments.last().unwrap()],
            finished: None,
        };
        let grown = std::fs::read(&log_path).unwrap();
        assert_eq!(
            grown[..log.len()],
            log[..],
            "seal {i} rewrote earlier bytes"
        );
        assert_eq!(
            grown[log.len()..],
            sealed.encode()[header.len()..],
            "seal {i}"
        );
        log = grown;
    }
    assert_eq!(writer.index().segments.len() as u64, SEALS);
    writer.finish().unwrap();

    let finished = ArchiveIndex {
        segments: Vec::new(),
        finished: Some(0),
    };
    let done = std::fs::read(&log_path).unwrap();
    assert_eq!(done[..log.len()], log[..], "finish rewrote earlier bytes");
    assert_eq!(done[log.len()..], finished.encode()[header.len()..]);

    let archive = Archive::open(path).unwrap();
    assert!(archive.recovery().used_index);
    assert_eq!(archive.recovery().dropped, Some(0));
    assert_eq!(archive.segments().len() as u64, SEALS);
    assert_eq!(archive.frames(), SEALS);
}
