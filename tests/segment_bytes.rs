//! Pins the on-disk segment format (v4) byte for byte, and the refusal
//! of the formats it replaced.
//!
//! Round-trip tests only prove that the writer and the reader agree
//! with each other; a codec change that emits different bytes which
//! still decode would pass them and silently fork the format. This test
//! builds one deterministic segment that walks every codec path and
//! checks its exact length and the CRC-32 of everything before its
//! trailer, so any change to the bytes on disk fails here. (A CRC-32
//! over the whole segment would not do: the trailer holds the body's
//! own CRC, and a message followed by its CRC always hashes to the
//! same residue.) The frame set walks:
//!
//! * timestamps in all four delta-of-delta classes (zero, 8-, 16- and
//!   32-bit) and the raw 64-bit delta class;
//! * Rice escapes (full-scale value swings) next to ordinary codes;
//! * markers, in the payload and in the marker table;
//! * presence changes (slots appearing and disappearing);
//! * a partial tail block (2 530 frames: 1 000 + 1 000 + 530) whose
//!   last run is partial too (530 frames: ten runs of 50, then 30), so
//!   every run table holds several runs and one ends early.

use powersensor3::archive::format::{
    encode_file_header, FILE_HEADER_SIZE, FORMAT_VERSION, SEGMENT_HEADER_SIZE,
    SEGMENT_TRAILER_SIZE, SUB_FRAMES, SUMMARY_FRAMES,
};
use powersensor3::archive::{
    build_segment, crc32, Archive, ArchiveError, ArchiveFrame, SegmentHeader, SegmentMeta,
};
use powersensor3::firmware::{SensorConfig, SENSOR_SLOTS};
use powersensor3::units::SimTime;

const FRAMES: usize = 2_530;

/// Byte length of the pinned segment.
const PINNED_LEN: usize = 5_443;
/// CRC-32 of the pinned segment's bytes before its trailer.
const PINNED_CRC: u32 = 0x8813_37D1;

/// Time step (µs) before frame `i`: mostly the 20 kHz cadence, with
/// steps that land in each delta-of-delta class.
fn step_us(i: usize) -> u64 {
    match i % 250 {
        10 => 50 + 100,           // dod +100: 8-bit class
        11 => 50,                 // dod −100: 8-bit class
        40 => 50 + 20_000,        // 16-bit class
        41 => 50,                 //
        70 => 50 + 2_000_000_000, // 32-bit class
        71 => 50,                 //
        100 => 1 << 40,           // raw 64-bit delta class
        101 => 50,                //
        130 => 50,                // dod 0 on a slow-path frame (marker below)
        _ => 50,
    }
}

fn frames() -> Vec<ArchiveFrame> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut time_us = 25u64;
    let mut code = [512i64, 300, 800, 100];
    (0..FRAMES)
        .map(|i| {
            if i > 0 {
                time_us += step_us(i);
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            for (slot, c) in code.iter_mut().enumerate() {
                let jitter = (state >> (8 * slot)) % 9;
                *c = (*c + jitter as i64 - 4).clamp(0, 1023);
            }
            // Full-scale swings: the deltas into and out of these
            // frames take the Rice escape.
            if i % 97 == 3 {
                code[0] = if code[0] < 512 { 1023 } else { 0 };
            }
            // Slots 2 and 3 come and go.
            let present = if (i / 300) % 2 == 1 { 0b1111 } else { 0b0011 };
            let mut raw = [0u16; SENSOR_SLOTS];
            for slot in 0..SENSOR_SLOTS {
                if present & (1 << slot) != 0 {
                    raw[slot] = code[slot % 4] as u16;
                }
            }
            let marker = match i % 250 {
                130 => Some('m'),
                131 => Some('λ'),
                _ => None,
            };
            ArchiveFrame {
                time: SimTime::from_micros(time_us),
                raw,
                present,
                marker,
            }
        })
        .collect()
}

fn watts(frames: &[ArchiveFrame]) -> Vec<f64> {
    frames
        .iter()
        .map(|f| f.raw.iter().map(|&r| f64::from(r)).sum::<f64>() / 64.0)
        .collect()
}

#[test]
fn the_frame_set_walks_every_codec_path() {
    let frames = frames();
    let deltas: Vec<i128> = frames
        .windows(2)
        .map(|w| i128::from(w[1].time.as_micros() - w[0].time.as_micros()))
        .collect();
    let dods: Vec<u128> = deltas
        .windows(2)
        .map(|w| (w[1] - w[0]).unsigned_abs())
        .collect();
    for (lo, hi) in [
        (1, 127),
        (128, 32_767),
        (32_768, i32::MAX as u128),
        (i32::MAX as u128 + 1, u128::MAX),
    ] {
        assert!(dods.iter().any(|d| (lo..=hi).contains(d)), "{lo}..={hi}");
    }
    assert!(frames.iter().filter(|f| f.marker.is_some()).count() >= 2);
    assert!(frames.windows(2).any(|w| w[0].present != w[1].present));
    assert!(frames
        .windows(2)
        .any(|w| w[0].raw[0].abs_diff(w[1].raw[0]) > 900));
    assert_ne!(FRAMES % SUMMARY_FRAMES, 0, "the tail block is partial");
    assert_ne!(
        FRAMES % SUMMARY_FRAMES % SUB_FRAMES,
        0,
        "the tail run is partial"
    );
    const {
        assert!(
            FRAMES % SUMMARY_FRAMES > SUB_FRAMES,
            "the tail block has runs"
        )
    };
}

#[test]
fn segment_bytes_match_the_pinned_format() {
    let frames = frames();
    let bytes = build_segment(5, &frames, &watts(&frames));
    let body = &bytes[..bytes.len() - SEGMENT_TRAILER_SIZE];
    assert_eq!(
        (bytes.len(), crc32(body)),
        (PINNED_LEN, PINNED_CRC),
        "segment bytes changed: the on-disk format is pinned"
    );

    // The pinned bytes also decode back to the frames.
    let header = SegmentHeader::parse(&bytes, 0).unwrap();
    let meta = SegmentMeta::parse(0, header, &bytes[SEGMENT_HEADER_SIZE..]).unwrap();
    let at = meta.payload_offset() as usize;
    let mut decoded = Vec::new();
    meta.decode_blocks(
        0..meta.summaries.len(),
        &bytes[at..at + header.payload_len as usize],
        &mut decoded,
    )
    .unwrap();
    assert_eq!(decoded, frames);
}

/// Opens a file whose header claims `version`, header CRC intact, over
/// a segment this crate writes.
fn open_as_version(version: u32) -> Result<Archive, ArchiveError> {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
    let mut header = encode_file_header(&configs);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    let body = FILE_HEADER_SIZE - 4;
    let crc = crc32(&header[..body]);
    header[body..].copy_from_slice(&crc.to_le_bytes());
    let frames = frames();
    header.extend(build_segment(0, &frames, &watts(&frames)));
    let path = std::env::temp_dir().join(format!("ps3-v{version}-{}.ps3a", std::process::id()));
    std::fs::write(&path, &header).unwrap();
    let opened = Archive::open(&path);
    std::fs::remove_file(&path).ok();
    opened
}

/// A version-2 file (1000-frame blocks with no run tables) is refused
/// as not an archive, header CRC intact, rather than misread.
#[test]
fn a_version_2_file_is_not_an_archive() {
    let opened = open_as_version(2);
    assert!(
        matches!(opened, Err(ArchiveError::NotAnArchive)),
        "{opened:?}"
    );
}

/// A version-3 file (200-frame runs) is refused as not an archive,
/// header CRC intact, rather than misread with this version's runs;
/// the same file under this version's number opens.
#[test]
fn a_version_3_file_is_not_an_archive() {
    assert!(open_as_version(FORMAT_VERSION).is_ok());
    let opened = open_as_version(3);
    assert!(
        matches!(opened, Err(ArchiveError::NotAnArchive)),
        "{opened:?}"
    );
}
