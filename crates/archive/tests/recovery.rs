//! Crash-safety: truncate an archive at every possible byte offset and
//! prove that the sealed prefix always survives, the torn tail is
//! flagged, and corruption never decodes silently.

use std::ops::Range;
use std::path::{Path, PathBuf};

use ps3_archive::{
    crc32, index_path_for, Archive, ArchiveError, ArchiveFrame, ArchiveIndex, SegmentWriter,
};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_units::SimTime;

/// Removes an archive and the sidecars its writer and reader leave.
fn cleanup(path: &Path) {
    for p in [path.to_path_buf(), index_path_for(path)] {
        std::fs::remove_file(p).ok();
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ps3-archive-rec-{}-{tag}.ps3a", std::process::id()))
}

fn test_configs() -> [SensorConfig; SENSOR_SLOTS] {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
    configs
}

/// A small archive: 3 sealed segments of 30 frames each, with markers.
fn write_archive(path: &PathBuf, frames_total: u64, segment_frames: usize) -> Vec<u64> {
    let mut writer = SegmentWriter::create_with(path, test_configs(), segment_frames).unwrap();
    let mut seals = Vec::new();
    for i in 0..frames_total {
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
        if (i + 1) % segment_frames as u64 == 0 {
            seals.push(i + 1);
        }
    }
    writer.finish().unwrap();
    seals
}

#[test]
fn truncation_at_every_offset_keeps_sealed_prefix() {
    let path = temp_path("every-offset");
    write_archive(&path, 90, 30);
    let bytes = std::fs::read(&path).unwrap();
    let archive = Archive::open(&path).unwrap();
    // Byte offset where each segment ends (header → seg0 → seg1 → seg2).
    let mut seal_offsets = vec![ps3_archive::format::FILE_HEADER_SIZE as u64];
    for meta in archive.segments() {
        seal_offsets.push(meta.offset + meta.header.disk_size());
    }
    assert_eq!(seal_offsets.len(), 4);
    assert_eq!(*seal_offsets.last().unwrap(), bytes.len() as u64);
    drop(archive);

    let torn = temp_path("torn");
    let torn_index = index_path_for(&torn);
    for len in 0..=bytes.len() {
        std::fs::write(&torn, &bytes[..len]).unwrap();
        // No sidecar: force the recovery scan.
        std::fs::remove_file(&torn_index).ok();
        let sealed = seal_offsets
            .iter()
            .rev()
            .find(|&&o| o <= len as u64)
            .copied();
        match Archive::open(&torn) {
            Ok(archive) => {
                let sealed = sealed
                    .unwrap_or_else(|| panic!("open succeeded below the file header at len {len}"));
                let segments_expected = seal_offsets
                    .iter()
                    .filter(|&&o| o > seal_offsets[0] && o <= len as u64)
                    .count();
                assert_eq!(
                    archive.segments().len(),
                    segments_expected,
                    "truncated at {len}"
                );
                assert_eq!(
                    archive.frames(),
                    segments_expected as u64 * 30,
                    "truncated at {len}"
                );
                assert_eq!(
                    archive.recovery().trailing_bytes,
                    len as u64 - sealed,
                    "truncated at {len}"
                );
                // Sealed data reads back fully.
                let trace = archive.read_all().unwrap();
                assert_eq!(trace.len(), segments_expected * 30);
                // Verify flags the tail and nothing else.
                let report = archive.verify().unwrap();
                assert!(
                    report.errors.is_empty(),
                    "truncated at {len}: {:?}",
                    report.errors
                );
                assert_eq!(report.trailing_bytes, len as u64 - sealed);
                assert_eq!(report.is_clean(), len as u64 == sealed);
            }
            Err(e) => {
                // Only acceptable below a complete file header.
                assert!(
                    len < ps3_archive::format::FILE_HEADER_SIZE,
                    "open failed at len {len}: {e}"
                );
            }
        }
    }
    std::fs::remove_file(&torn).ok();
    cleanup(&path);
}

#[test]
fn stale_index_after_crash_is_bypassed() {
    let path = temp_path("stale-index");
    write_archive(&path, 90, 30);
    let bytes = std::fs::read(&path).unwrap();
    // Crash scenario: the file lost its tail but the sidecar still
    // describes the full-length archive.
    std::fs::write(&path, &bytes[..bytes.len() - 37]).unwrap();
    let archive = Archive::open(&path).unwrap();
    assert!(
        !archive.recovery().used_index,
        "stale index must not be trusted"
    );
    assert_eq!(archive.segments().len(), 2);
    assert_eq!(archive.frames(), 60);
    // Cut exactly at the end of segment 1: the log's first two records
    // reach the end of the file, but the capture they finish is gone.
    let sealed = archive.sealed_len() as usize;
    drop(archive);
    std::fs::write(&path, &bytes[..sealed]).unwrap();
    let archive = Archive::open(&path).unwrap();
    assert!(archive.recovery().used_index);
    assert_eq!(
        archive.recovery().dropped,
        None,
        "lost segment 2 yet finished"
    );
    assert_eq!(archive.frames(), 60);
    cleanup(&path);
}

#[test]
fn mid_file_corruption_stops_the_scan_without_lying() {
    let path = temp_path("flip");
    write_archive(&path, 90, 30);
    let mut bytes = std::fs::read(&path).unwrap();
    let archive = Archive::open(&path).unwrap();
    let second = &archive.segments()[1];
    // Flip one payload byte of segment 1.
    let target = (second.offset + ps3_archive::format::SEGMENT_HEADER_SIZE as u64 + 60) as usize;
    drop(archive);
    bytes[target] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    std::fs::remove_file(index_path_for(&path)).ok();

    let archive = Archive::open(&path).unwrap();
    // Only the first segment survives; nothing after the damage is served.
    assert_eq!(archive.segments().len(), 1);
    assert_eq!(archive.read_all().unwrap().len(), 30);
    let report = archive.verify().unwrap();
    assert!(!report.is_clean());
    cleanup(&path);
}

#[test]
fn unrelated_file_is_rejected() {
    let path = temp_path("not-an-archive");
    std::fs::write(&path, vec![0x42u8; 4096]).unwrap();
    assert!(matches!(
        Archive::open(&path),
        Err(ArchiveError::NotAnArchive)
    ));
    std::fs::remove_file(&path).ok();
}

/// Opens `path` (an archive whose segment 0 is damaged and whose
/// sidecar is still the intact one) and checks that nothing is
/// answered from the damage: either the sidecar is refused and the
/// CRC scan stops before segment 0, or every read of segment 0's
/// `damaged` blocks fails — a range read, and the query walk wherever
/// it decodes the block as a range edge (a 7-frame downsample, and
/// stats and energy over a range that starts or ends mid-block).
fn assert_damage_is_not_served(path: &PathBuf, damaged: Range<usize>, what: &str) {
    let archive = Archive::open(path).unwrap_or_else(|e| panic!("{what}: {e}"));
    if !archive.recovery().used_index {
        assert!(archive.segments().is_empty(), "{what}: served past damage");
        assert!(archive.read_all().unwrap().is_empty(), "{what}");
        assert!(!archive.verify().unwrap().is_clean(), "{what}");
        return;
    }
    let meta = &archive.segments()[0];
    for i in damaged {
        let block = meta.summaries[i];
        let (s, e) = (
            SimTime::from_micros(block.first_us),
            SimTime::from_micros(block.last_us + 1),
        );
        let mid = SimTime::from_micros(block.first_us + (block.last_us - block.first_us) / 2);
        assert!(archive.read_range(s, e).is_err(), "{what}: block {i} read");
        assert!(
            archive.downsample(s, e, 7).is_err(),
            "{what}: block {i} downsample"
        );
        assert!(archive.stats(mid, e).is_err(), "{what}: block {i} stats");
        assert!(archive.energy(s, mid).is_err(), "{what}: block {i} energy");
    }
    assert!(archive.read_all().is_err(), "{what}: full read");
}

/// Writes 3 segments of 5 summary blocks each and returns the bytes
/// plus segment 0's parsed tables.
fn write_block_archive(path: &PathBuf) -> (Vec<u8>, ps3_archive::SegmentMeta) {
    write_archive(path, 15_000, 5_000);
    let archive = Archive::open(path).unwrap();
    assert!(archive.recovery().used_index);
    let meta = archive.segments()[0].clone();
    assert_eq!(meta.summaries.len(), 5);
    (std::fs::read(path).unwrap(), meta)
}

#[test]
fn flipped_summary_count_falls_back_to_the_scan() {
    let path = temp_path("summary-count");
    let (bytes, meta) = write_block_archive(&path);
    // summary_count is the u32 at byte 12 of the segment header:
    // 5 → 1 (a shorter segment) and 5 → 261 (a longer one).
    for (byte, bit) in [(12, 0x04u8), (13, 0x01)] {
        let mut damaged = bytes.clone();
        damaged[meta.offset as usize + byte] ^= bit;
        std::fs::write(&path, &damaged).unwrap();
        let archive = Archive::open(&path).unwrap();
        assert!(
            !archive.recovery().used_index,
            "byte {byte}: sidecar trusted"
        );
        assert_damage_is_not_served(&path, 0..0, &format!("summary_count byte {byte}"));
    }
    cleanup(&path);
}

#[test]
fn flipped_block_offset_is_never_served() {
    let path = temp_path("block-offset");
    let (bytes, meta) = write_block_archive(&path);
    let table = meta.offset as usize
        + ps3_archive::format::SEGMENT_HEADER_SIZE
        + 5 * ps3_archive::format::SUMMARY_WIRE_SIZE;
    // Every byte of block 2's offset; the high ones point past the
    // payload and must send the open to the scan.
    for byte in 0..4 {
        let at = table + 2 * ps3_archive::format::BLOCK_OFFSET_SIZE + byte;
        let mut damaged = bytes.clone();
        damaged[at] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();
        if byte >= 2 {
            let archive = Archive::open(&path).unwrap();
            assert!(
                !archive.recovery().used_index,
                "byte {byte}: sidecar trusted"
            );
        }
        // Block 2 starts, and block 1 ends, at the damaged offset.
        assert_damage_is_not_served(&path, 1..3, &format!("offset byte {byte}"));
    }
    cleanup(&path);
}

#[test]
fn marker_label_outside_unicode_is_refused() {
    use ps3_archive::format::{MARKER_WIRE_SIZE as ENTRY, SEGMENT_TRAILER_SIZE, TABLES_CRC_SIZE};
    let path = temp_path("marker-label");
    let index_path = index_path_for(&path);
    let (bytes, meta) = write_block_archive(&path);
    let index = std::fs::read(&index_path).unwrap();
    // Sets the label code of the marker entry at `at` to 0xD800 (a
    // UTF-16 surrogate) and rewrites the CRC that follows `body`, so
    // the code is the only fault.
    let plant = |mut bytes: Vec<u8>, at: usize, body: Range<usize>| {
        bytes[at + 8..at + 12].copy_from_slice(&0xD800u32.to_le_bytes());
        let crc = crc32(&bytes[body.clone()]);
        bytes[body.end..body.end + 4].copy_from_slice(&crc.to_le_bytes());
        bytes
    };
    // Segment 0's first marker-table entry, under an intact sidecar,
    // with the tables CRC that closes the marker table and the segment
    // CRC both rewritten.
    let end = (meta.offset + meta.header.disk_size()) as usize - SEGMENT_TRAILER_SIZE;
    let tables_end = end - meta.header.payload_len as usize - TABLES_CRC_SIZE;
    let at = tables_end - meta.markers.len() * ENTRY;
    let planted = plant(bytes.clone(), at, meta.offset as usize..tables_end);
    let planted = plant(planted, at, meta.offset as usize..end);
    std::fs::write(&path, planted).unwrap();
    assert_damage_is_not_served(&path, 0..0, "segment marker label");
    // A log record whose CRC is valid but whose fields disagree with
    // segment 1 (its last frame 50 µs later), over an intact archive:
    // the walk stops there and scans the rest, markers included.
    std::fs::write(&path, &bytes).unwrap();
    let mut log = ArchiveIndex::decode(&index).unwrap();
    log.segments[1].end_us += 50;
    std::fs::write(&index_path, log.encode()).unwrap();
    let archive = Archive::open(&path).unwrap();
    assert!(!archive.recovery().used_index, "sidecar trusted");
    assert_eq!(archive.recovery().dropped, None);
    assert_eq!(archive.segments().len(), 3);
    assert_eq!(archive.markers().len(), 3 * meta.markers.len());
    cleanup(&path);
}

/// Each segment's place, size and identity, for comparing opens.
fn layout(archive: &Archive) -> Vec<(u64, u64, u32, u32)> {
    archive
        .segments()
        .iter()
        .map(|m| {
            let h = &m.header;
            (m.offset, h.disk_size(), h.seq, h.frame_count)
        })
        .collect()
}

#[test]
fn damaged_index_costs_only_a_longer_scan() {
    let path = temp_path("index-damage");
    let index_path = index_path_for(&path);
    write_archive(&path, 90, 30);
    let log = std::fs::read(&index_path).unwrap();
    let intact = Archive::open(&path).unwrap();
    assert!(intact.recovery().used_index);
    assert_eq!(intact.recovery().dropped, Some(0));
    let (segments, markers) = (layout(&intact), intact.markers().to_vec());
    let trace = intact.read_all().unwrap();
    drop(intact);
    assert_eq!(segments.len(), 3);
    // Every cut and every flipped byte of the log: open serves exactly
    // what it serves with the intact log, reports the writer finished
    // only when the whole log is intact, and says it used the index
    // only when the log's surviving records cover all three segments.
    let check = |damaged: &[u8], what: &str| {
        std::fs::write(&index_path, damaged).unwrap();
        let archive = Archive::open(&path).unwrap();
        let recovery = archive.recovery();
        let records = ArchiveIndex::decode(damaged).map_or(0, |i| i.segments.len());
        assert_eq!(layout(&archive), segments, "{what}");
        assert_eq!(archive.markers(), &markers[..], "{what}");
        assert_eq!(archive.read_all().unwrap(), trace, "{what}");
        assert_eq!(recovery.trailing_bytes, 0, "{what}");
        assert_eq!(recovery.used_index, records == 3, "{what}");
        assert_eq!(recovery.dropped, (damaged == log).then_some(0), "{what}");
    };
    for len in 0..=log.len() {
        check(&log[..len], &format!("log cut at byte {len}"));
    }
    for byte in 0..log.len() {
        let mut damaged = log.clone();
        damaged[byte] ^= 0xFF;
        check(&damaged, &format!("log byte {byte} flipped"));
    }
    cleanup(&path);
}

#[test]
fn index_of_an_earlier_capture_is_never_adopted() {
    let path = temp_path("earlier-capture");
    let index_path = index_path_for(&path);
    write_archive(&path, 90, 30);
    let earlier = std::fs::read(&index_path).unwrap();
    assert_eq!(ArchiveIndex::decode(&earlier).unwrap().finished, Some(0));

    // A new capture at the same path that dies before its first seal:
    // creating it emptied the log, so nothing of the earlier capture
    // (its segments, its `Finished` record) is left to adopt.
    let mut writer = SegmentWriter::create_with(&path, test_configs(), 45).unwrap();
    for i in 0..10 {
        let mut raw = [0u16; SENSOR_SLOTS];
        raw[0] = 600 + i as u16;
        writer
            .push(ArchiveFrame {
                time: SimTime::from_micros(25 + i * 50),
                raw,
                present: 0b11,
                marker: None,
            })
            .unwrap();
    }
    drop(writer);
    let log = ArchiveIndex::decode(&std::fs::read(&index_path).unwrap()).unwrap();
    assert_eq!(log, ArchiveIndex::default());
    let archive = Archive::open(&path).unwrap();
    assert!(archive.segments().is_empty());
    assert_eq!(archive.recovery().dropped, None);

    // The earlier log planted beside a finished new capture with
    // another segment layout: its first record already disagrees, so
    // the whole file is scanned and the writer is not reported
    // finished.
    write_archive(&path, 90, 45);
    let scanned = {
        std::fs::remove_file(&index_path).unwrap();
        let archive = Archive::open(&path).unwrap();
        (layout(&archive), archive.read_all().unwrap())
    };
    std::fs::write(&index_path, &earlier).unwrap();
    let archive = Archive::open(&path).unwrap();
    assert!(!archive.recovery().used_index);
    assert_eq!(archive.recovery().dropped, None);
    assert_eq!(layout(&archive), scanned.0);
    assert_eq!(archive.read_all().unwrap(), scanned.1);
    cleanup(&path);
}

#[test]
fn flipped_summary_sum_falls_back_to_the_scan() {
    let path = temp_path("summary-sum");
    let (bytes, meta) = write_block_archive(&path);
    // Block 0's `sum_w` is the f64 at byte 20 of the first summary.
    let sum_at = meta.offset as usize + ps3_archive::format::SEGMENT_HEADER_SIZE + 20;
    for byte in [0, 3, 7] {
        let mut damaged = bytes.clone();
        damaged[sum_at + byte] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();
        let archive = Archive::open(&path).unwrap();
        assert!(
            !archive.recovery().used_index,
            "byte {byte}: sidecar trusted"
        );
        assert_damage_is_not_served(&path, 0..0, &format!("sum_w byte {byte}"));
    }
    cleanup(&path);
}

#[test]
fn flipped_run_table_is_never_served() {
    let path = temp_path("run-table");
    let (bytes, meta) = write_block_archive(&path);
    let archive = Archive::open(&path).unwrap();
    let block = meta.block_bytes(&(2..3));
    let payload = meta.payload_offset() as usize;
    let table = meta
        .runs(2, &bytes[payload + block.start..payload + block.end])
        .unwrap();
    drop(archive);
    // Every byte of block 2's run table and its CRC: the sidecar is
    // still trusted (it never reads payloads), so every read of block
    // 2 must fail on the table, and verify must flag the segment.
    for byte in 0..table.bytes(0).start {
        let mut damaged = bytes.clone();
        damaged[payload + block.start + byte] ^= 0x10;
        std::fs::write(&path, &damaged).unwrap();
        let archive = Archive::open(&path).unwrap();
        assert!(archive.recovery().used_index, "byte {byte}");
        assert!(!archive.verify().unwrap().is_clean(), "byte {byte}");
        assert_damage_is_not_served(&path, 2..3, &format!("run table byte {byte}"));
    }
    cleanup(&path);
}
