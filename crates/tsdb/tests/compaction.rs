//! Compaction and retention end-to-end: answers survive compaction
//! bit-for-bit, an in-flight compaction can crash at any structural
//! byte without damaging the original capture, stale staging files are
//! harmless, and retention drops exactly the expired prefix.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ps3_archive::format::{FILE_HEADER_SIZE, SEGMENT_HEADER_SIZE};
use ps3_archive::{frame_total, index_path_for, Archive, ArchiveFrame, SegmentWriter};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_tsdb::{
    compact_archive, compact_tmp_path_for, pyramid_path_for, retain_archive, retained_prefix_drop,
    stage_compacted, CompactOptions, PyramidConfig, Retention, Tsdb, TsdbWriter, TsdbWriterOptions,
};
use ps3_units::SimTime;

const SMALL: PyramidConfig = PyramidConfig {
    tier1_blocks: 2,
    tier2_nodes: 2,
};

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ps3-tsdb-cp-{}-{tag}-{n}.ps3a", std::process::id()))
}

fn cleanup(path: &Path) {
    for p in [
        path.to_path_buf(),
        index_path_for(path),
        pyramid_path_for(path),
        compact_tmp_path_for(path),
    ] {
        std::fs::remove_file(p).ok();
    }
}

fn test_configs() -> [SensorConfig; SENSOR_SLOTS] {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
    configs
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn build_frames(seed: u64, n: usize) -> Vec<ArchiveFrame> {
    (0..n)
        .map(|i| {
            let r = mix(seed ^ i as u64);
            let mut raw = [0u16; SENSOR_SLOTS];
            raw[0] = (r % 1024) as u16;
            raw[1] = (r >> 10 & 1023) as u16;
            ArchiveFrame {
                time: SimTime::from_micros(25 + 50 * i as u64),
                raw,
                present: 0b0011,
                marker: (i % 127 == 0).then_some('m'),
            }
        })
        .collect()
}

fn far_future() -> SimTime {
    SimTime::from_micros(u64::MAX / 1_000)
}

fn write_capture(path: &Path, frames: &[ArchiveFrame], segment_frames: usize) {
    let mut writer = SegmentWriter::create_with(path, test_configs(), segment_frames).unwrap();
    for &frame in frames {
        writer.push(frame).unwrap();
    }
    writer.finish().unwrap();
}

fn reference_trace(frames: &[ArchiveFrame]) -> ps3_analysis::Trace {
    let configs = test_configs();
    let adc = AdcSpec::POWERSENSOR3;
    let mut trace = ps3_analysis::Trace::with_capacity(frames.len());
    for f in frames {
        trace.push(f.time, frame_total(&configs, &adc, f));
        if let Some(label) = f.marker {
            trace.mark(f.time, label);
        }
    }
    trace
}

#[test]
fn compaction_preserves_every_answer() {
    let frames = build_frames(3, 2000);
    let path = temp_path("roundtrip");
    write_capture(&path, &frames, 150);

    let before = Archive::open(&path).unwrap();
    let segments_before = before.segments().len();
    let trace_before = before.read_all().unwrap();
    drop(before);

    let report = compact_archive(
        &path,
        CompactOptions {
            target_frames: 900,
            config: SMALL,
        },
    )
    .unwrap();
    assert_eq!(report.segments_before, segments_before);
    assert!(report.segments_after < segments_before);
    assert!(report.bytes_after <= report.bytes_before);

    let after = Archive::open(&path).unwrap();
    assert!(after.recovery().used_index, "index sidecar was rewritten");
    assert!(after.verify().unwrap().is_clean());
    assert_eq!(after.read_all().unwrap(), trace_before);
    let seqs: Vec<u32> = after.segments().iter().map(|s| s.header.seq).collect();
    assert_eq!(seqs, (0..report.segments_after as u32).collect::<Vec<_>>());

    // The rewritten pyramid sidecar is fresh and still exact.
    let tsdb = Tsdb::open_with(&path, SMALL).unwrap();
    assert!(tsdb.from_sidecar());
    let (t0, t1) = (SimTime::from_micros(0), far_future());
    let stats = tsdb.stats(t0, t1).unwrap();
    assert_eq!(stats.count, frames.len() as u64);
    assert_eq!(
        tsdb.energy(t0, t1).unwrap().value().to_bits(),
        tsdb.energy_ref(t0, t1).unwrap().value().to_bits()
    );

    cleanup(&path);
}

#[test]
fn crash_at_every_structural_byte_leaves_the_capture_intact() {
    let frames = build_frames(17, 1200);
    let path = temp_path("crash");
    write_capture(&path, &frames, 100);

    let archive = Archive::open(&path).unwrap();
    let trace_before = archive.read_all().unwrap();
    let tmp = compact_tmp_path_for(&path);
    let index = stage_compacted(&archive, 600, &tmp).unwrap();
    let staged = std::fs::read(&tmp).unwrap();
    std::fs::remove_file(&tmp).unwrap();
    drop(archive);

    // Every structural boundary of the staged file, ±1, plus interior
    // samples: a crash that tears the staging write at that byte.
    let mut cuts = vec![0, 1, FILE_HEADER_SIZE - 1, FILE_HEADER_SIZE];
    for rec in &index.segments {
        let at = usize::try_from(rec.offset).unwrap();
        cuts.extend([at - 1, at, at + 1, at + SEGMENT_HEADER_SIZE]);
    }
    let len = staged.len();
    cuts.extend([len - 9, len - 8, len - 4, len - 1]);
    cuts.extend((0..8).map(|i| len * (i + 1) / 9));

    for cut in cuts {
        std::fs::write(&tmp, &staged[..cut]).unwrap();
        // The original archive never saw the crash: fully verifiable,
        // serving the pre-compaction view.
        let archive = Archive::open(&path).unwrap();
        assert!(archive.verify().unwrap().is_clean(), "cut at {cut}");
        assert_eq!(archive.read_all().unwrap(), trace_before, "cut at {cut}");
        let tsdb = Tsdb::open_with(&path, SMALL).unwrap();
        assert_eq!(
            tsdb.stats(SimTime::from_micros(0), far_future())
                .unwrap()
                .count,
            frames.len() as u64,
            "cut at {cut}"
        );
    }

    // A stale torn staging file is simply overwritten by the next
    // attempt, which completes.
    let report = compact_archive(
        &path,
        CompactOptions {
            target_frames: 600,
            config: SMALL,
        },
    )
    .unwrap();
    assert_eq!(report.segments_after, 2);
    let after = Archive::open(&path).unwrap();
    assert!(after.verify().unwrap().is_clean());
    assert_eq!(after.read_all().unwrap(), trace_before);

    cleanup(&path);
}

#[test]
fn retention_drops_exactly_the_expired_prefix() {
    let frames = build_frames(29, 1500);
    let path = temp_path("retain");
    write_capture(&path, &frames, 100);

    // 1500 frames at 50 µs end at 25 + 50·1499 µs; a 30 ms window
    // keeps segments ending within 30 000 µs of that.
    let archive = Archive::open(&path).unwrap();
    let retention = Retention::Duration(30_000);
    let expect_drop = retained_prefix_drop(&archive, retention);
    assert!(expect_drop > 0 && expect_drop < archive.segments().len());
    drop(archive);

    let report = retain_archive(&path, retention, SMALL).unwrap();
    assert_eq!(report.segments_before - report.segments_after, expect_drop);

    let after = Archive::open(&path).unwrap();
    assert!(after.verify().unwrap().is_clean());
    // Surviving segments are byte-identical: same seqs, same frames as
    // the tail of the original capture.
    let first_kept_us = after.segments()[0].header.start_us;
    let kept: Vec<ArchiveFrame> = frames
        .iter()
        .copied()
        .filter(|f| f.time.as_micros() >= first_kept_us)
        .collect();
    assert_eq!(after.read_all().unwrap(), reference_trace(&kept));
    assert_eq!(
        after.segments()[0].header.seq,
        expect_drop as u32,
        "surviving segments keep their original sequence numbers"
    );

    // A byte window so small only the newest segment fits never drops
    // everything.
    let drop_all = retained_prefix_drop(&after, Retention::Bytes(1));
    assert_eq!(drop_all, after.segments().len() - 1);

    // Everything already inside the window: a no-op sweep.
    let noop = retain_archive(&path, Retention::Duration(u64::MAX), SMALL).unwrap();
    assert_eq!(noop.segments_before, noop.segments_after);

    cleanup(&path);
}

#[test]
fn live_writer_compacts_and_retains_between_seals() {
    let frames = build_frames(41, 1000);
    let path = temp_path("live");
    let writer = TsdbWriter::spawn(
        &path,
        test_configs(),
        TsdbWriterOptions {
            segment_frames: 60,
            config: SMALL,
            compact_after_segments: Some(4),
            compact_target_frames: 240,
            ..TsdbWriterOptions::default()
        },
    )
    .unwrap();
    for chunk in frames.chunks(64) {
        assert!(writer.push(chunk));
    }
    let stats = writer.finish().unwrap();
    assert_eq!(stats.frames, 1000);
    assert_eq!(stats.dropped, 0);

    // Compaction ran between seals: far fewer than the 17 naive
    // segments, and the capture is bit-complete.
    let archive = Archive::open(&path).unwrap();
    assert!(archive.segments().len() < 17);
    assert!(archive.verify().unwrap().is_clean());
    assert_eq!(archive.read_all().unwrap(), reference_trace(&frames));
    drop(archive);

    // The maintained sidecar is fresh: no rebuild on open.
    let tsdb = Tsdb::open_with(&path, SMALL).unwrap();
    assert!(tsdb.from_sidecar());
    let total = tsdb.stats(SimTime::from_micros(0), far_future()).unwrap();
    assert_eq!(total.count, 1000);

    cleanup(&path);
}

#[test]
fn live_writer_enforces_the_retention_window() {
    let frames = build_frames(43, 1200);
    let path = temp_path("live-retain");
    let writer = TsdbWriter::spawn(
        &path,
        test_configs(),
        TsdbWriterOptions {
            segment_frames: 100,
            config: SMALL,
            retention: Some(Retention::Duration(20_000)),
            ..TsdbWriterOptions::default()
        },
    )
    .unwrap();
    for chunk in frames.chunks(64) {
        assert!(writer.push(chunk));
    }
    writer.finish().unwrap();

    let archive = Archive::open(&path).unwrap();
    assert!(archive.verify().unwrap().is_clean());
    // 20 ms at 50 µs cadence spans 400 frames: old segments are gone,
    // the surviving tail is bit-identical to the source.
    assert!(archive.segments().len() <= 5);
    let first_kept_us = archive.segments()[0].header.start_us;
    assert!(first_kept_us > 25, "the oldest segment was dropped");
    let kept: Vec<ArchiveFrame> = frames
        .iter()
        .copied()
        .filter(|f| f.time.as_micros() >= first_kept_us)
        .collect();
    assert_eq!(archive.read_all().unwrap(), reference_trace(&kept));

    let tsdb = Tsdb::open_with(&path, SMALL).unwrap();
    assert!(tsdb.from_sidecar());
    assert_eq!(
        tsdb.stats(SimTime::from_micros(0), far_future())
            .unwrap()
            .count,
        kept.len() as u64
    );

    cleanup(&path);
}
