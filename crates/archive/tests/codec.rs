//! Adversarial property tests for the two payload codecs: the Rice
//! coder (per-slot sample deltas) and the delta-of-delta timestamp
//! scheme — max deltas, all-equal runs, alternating extremes, and the
//! empty segment, plus randomized sweeps over the whole input space —
//! and for the block layout: every summary block decodes on its own to
//! exactly its slice of the whole-segment decode.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use ps3_archive::bits::{
    unzigzag64, zigzag64, BitReader, BitWriter, RICE_ESCAPE_BITS, RICE_ESCAPE_Q,
};
use ps3_archive::format::{SEGMENT_HEADER_SIZE, SUMMARY_FRAMES};
use ps3_archive::{
    build_segment, Archive, ArchiveFrame, SegmentHeader, SegmentMeta, SegmentWriter,
};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_units::SimTime;

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ps3-archive-codec-{}-{tag}-{n}.ps3a",
        std::process::id()
    ))
}

fn test_configs() -> [SensorConfig; SENSOR_SLOTS] {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
    configs
}

/// The largest value a Rice codeword can carry: zigzagged 10-bit
/// sample deltas span 0..=2046, and the escape path is
/// `RICE_ESCAPE_BITS` wide.
const RICE_MAX: u32 = (1 << RICE_ESCAPE_BITS) - 1;

fn rice_roundtrip(values: &[u32], k: u8) {
    let mut writer = BitWriter::new();
    let mut expect_bits = 0usize;
    for &v in values {
        writer.push_rice(v, k);
        expect_bits += BitWriter::rice_cost(v, k) as usize;
    }
    assert_eq!(writer.bit_len(), expect_bits, "rice_cost must be exact");
    let bytes = writer.finish();
    let mut reader = BitReader::new(&bytes);
    for &v in values {
        assert_eq!(reader.read_rice(k).unwrap(), v, "k={k}");
    }
}

/// Hand-picked adversarial Rice inputs, at every k the encoder uses.
#[test]
fn rice_adversarial_inputs_roundtrip_at_every_k() {
    let all_equal_zero = vec![0u32; 257];
    let all_equal_max = vec![2046u32; 257];
    let alternating: Vec<u32> = (0..256)
        .map(|i| if i % 2 == 0 { 0 } else { 2046 })
        .collect();
    let escape_edge: Vec<u32> = (0..=10u32)
        .flat_map(|k| {
            // Around the unary→escape boundary for this k (clamped:
            // values above RICE_MAX don't fit the escape word and are
            // never produced by the delta stage).
            let edge = RICE_ESCAPE_Q << k;
            [
                edge.saturating_sub(1).min(RICE_MAX),
                edge.min(RICE_MAX),
                (edge + 1).min(RICE_MAX),
            ]
        })
        .collect();
    let max_everything = vec![RICE_MAX; 64];
    for k in 0..=10u8 {
        rice_roundtrip(&all_equal_zero, k);
        rice_roundtrip(&all_equal_max, k);
        rice_roundtrip(&alternating, k);
        rice_roundtrip(&escape_edge, k);
        rice_roundtrip(&max_everything, k);
        rice_roundtrip(&[], k);
    }
}

#[test]
fn zigzag_maps_extremes_without_loss() {
    for v in [0i64, 1, -1, i64::MAX, i64::MIN, i64::MIN + 1, 50, -50] {
        assert_eq!(unzigzag64(zigzag64(v)), v);
    }
    // Zigzag keeps small magnitudes small (the property the Rice stage
    // depends on for its k tuning).
    assert_eq!(zigzag64(0), 0);
    assert_eq!(zigzag64(-1), 1);
    assert_eq!(zigzag64(1), 2);
    assert_eq!(zigzag64(-1023), 2045);
    assert_eq!(zigzag64(1023), 2046);
}

/// Writes `times` (µs, non-decreasing) through the real segment codec
/// and reads them back through the real decoder.
fn dod_roundtrip(times_us: &[u64], tag: &str) {
    let path = temp_path(tag);
    let mut writer = SegmentWriter::create_with(&path, test_configs(), 100).unwrap();
    for (i, &t) in times_us.iter().enumerate() {
        let mut raw = [0u16; SENSOR_SLOTS];
        raw[0] = 500 + (i % 13) as u16;
        raw[1] = 300;
        writer
            .push(ArchiveFrame {
                time: SimTime::from_micros(t),
                raw,
                present: 0b11,
                marker: None,
            })
            .unwrap();
    }
    let stats = writer.finish().unwrap();
    assert_eq!(stats.frames, times_us.len() as u64);

    let archive = Archive::open(&path).unwrap();
    let mut decoded = Vec::new();
    for meta in archive.segments() {
        decoded.extend(archive.decode_segment_frames(meta).unwrap());
    }
    let got: Vec<u64> = decoded.iter().map(|f| f.time.as_micros()).collect();
    assert_eq!(got, times_us, "{tag}");
    assert!(archive.verify().unwrap().is_clean());

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ps3_archive::index_path_for(&path)).ok();
}

/// `SimTime::from_micros` multiplies by 1000 internally, so keep
/// timestamps below u64::MAX / 1000.
const T_MAX_US: u64 = u64::MAX / 1000 - 1;

#[test]
fn dod_adversarial_timestamp_patterns_roundtrip() {
    // Perfect cadence: the all-dod-zero fast path.
    let cadence: Vec<u64> = (0..250).map(|i| 25 + 50 * i).collect();
    dod_roundtrip(&cadence, "cadence");

    // All-equal timestamps: first delta -50 (against the assumed
    // cadence), then delta 0 forever.
    dod_roundtrip(&vec![123_456u64; 250], "all-equal");

    // Alternating extremes: 50 µs steps alternating with jumps big
    // enough to force the 64-bit raw-delta class, repeatedly flipping
    // the delta-of-delta sign at maximum magnitude.
    let mut t = 25u64;
    let mut alternating = vec![t];
    for i in 0..120 {
        t += if i % 2 == 0 { 1u64 << 42 } else { 50 };
        alternating.push(t);
    }
    dod_roundtrip(&alternating, "alternating");

    // Maximum single delta: epoch straight to the far end of the
    // representable range.
    dod_roundtrip(&[0, T_MAX_US], "max-delta");

    // One frame, and one frame at the extreme.
    dod_roundtrip(&[25], "single");
    dod_roundtrip(&[T_MAX_US], "single-max");

    // Empty segment: zero frames must produce a valid, empty archive.
    let path = temp_path("empty");
    let writer = SegmentWriter::create_with(&path, test_configs(), 100).unwrap();
    let stats = writer.finish().unwrap();
    assert_eq!(stats.frames, 0);
    assert_eq!(stats.segments, 0);
    let archive = Archive::open(&path).unwrap();
    assert!(archive.segments().is_empty());
    assert!(archive.verify().unwrap().is_clean());
    assert!(archive.read_all().unwrap().is_empty());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ps3_archive::index_path_for(&path)).ok();
}

/// Things that can happen on a block's first frame, as bits of an
/// event mask.
const MARKER: u8 = 1;
const PRESENCE: u8 = 2;
const TIME_JUMP: u8 = 4;
const ESCAPE: u8 = 8;

/// `n` frames at the 20 kHz cadence with a noisy two-slot code walk,
/// and `events[i - 1]` applied to the first frame of block `i`.
fn boundary_frames(n: usize, events: &[u8], seed: u64) -> Vec<ArchiveFrame> {
    let mut state = seed | 1;
    let mut time_us = 25u64;
    let mut code = 500i64;
    let mut frames: Vec<ArchiveFrame> = (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            code = (code + (state % 7) as i64 - 3).clamp(0, 1023);
            if i > 0 {
                time_us += 50;
            }
            let mut raw = [0u16; SENSOR_SLOTS];
            raw[0] = code as u16;
            raw[1] = 700 + (state >> 8) as u16 % 5;
            ArchiveFrame {
                time: SimTime::from_micros(time_us),
                raw,
                present: 0b11,
                marker: None,
            }
        })
        .collect();
    for (i, &mask) in events.iter().enumerate() {
        let b = (i + 1) * SUMMARY_FRAMES;
        if b >= n {
            break;
        }
        if mask & MARKER != 0 {
            frames[b].marker = Some('β');
        }
        if mask & PRESENCE != 0 {
            frames[b].present = 0b1101;
            frames[b].raw[1] = 0;
            frames[b].raw[2] = 1023;
            frames[b].raw[3] = 1;
        }
        if mask & TIME_JUMP != 0 {
            for f in &mut frames[b..] {
                f.time += ps3_units::SimDuration::from_micros(1 << 33);
            }
        }
        if mask & ESCAPE != 0 {
            // A full-scale swing into and out of the block's first
            // frame: the delta after it takes the Rice escape.
            frames[b].raw[0] = if frames[b - 1].raw[0] < 512 { 1023 } else { 0 };
        }
    }
    frames
}

/// Builds one segment from `frames` and checks that the whole-segment
/// decode returns them, and that every block, and every run of
/// blocks, decoded alone equals its slice of it.
fn check_blocks_decode_alone(frames: &[ArchiveFrame]) {
    let watts: Vec<f64> = frames.iter().map(|f| f64::from(f.raw[0])).collect();
    let bytes = build_segment(0, frames, &watts);
    let header = SegmentHeader::parse(&bytes, 0).unwrap();
    let meta = SegmentMeta::parse(0, header, &bytes[SEGMENT_HEADER_SIZE..]).unwrap();
    let at = meta.payload_offset() as usize;
    let payload = &bytes[at..at + header.payload_len as usize];
    let blocks = meta.summaries.len();
    assert_eq!(blocks, frames.len().div_ceil(SUMMARY_FRAMES));

    let mut whole = Vec::new();
    meta.decode_blocks(0..blocks, payload, &mut whole).unwrap();
    assert_eq!(whole, frames);
    for lo in 0..blocks {
        for hi in lo + 1..=blocks {
            let mut alone = Vec::new();
            let span = meta.block_bytes(&(lo..hi));
            meta.decode_blocks(lo..hi, &payload[span], &mut alone)
                .unwrap();
            let end = (hi * SUMMARY_FRAMES).min(whole.len());
            assert_eq!(alone, whole[lo * SUMMARY_FRAMES..end], "blocks {lo}..{hi}");
        }
    }
}

#[test]
fn every_block_decodes_alone_at_its_boundaries() {
    // Each event alone, then all of them at once, on a 3.5-block
    // segment: the last block is partial.
    for mask in [0, MARKER, PRESENCE, TIME_JUMP, ESCAPE, 15] {
        check_blocks_decode_alone(&boundary_frames(3500, &[mask; 3], 7));
    }
    // A single-frame segment, a single full block, and one frame past.
    for n in [1, SUMMARY_FRAMES, SUMMARY_FRAMES + 1] {
        check_blocks_decode_alone(&boundary_frames(n, &[15], 7));
    }
}

/// The file path: `Archive::decode_blocks_into` reads one block's bytes
/// and decodes the same frames as the whole-segment decode.
#[test]
fn archive_reads_each_block_alone() {
    let path = temp_path("blocks");
    let frames = boundary_frames(5000, &[15, 3, 12, 0], 11);
    let mut writer = SegmentWriter::create_with(&path, test_configs(), 2500).unwrap();
    for &frame in &frames {
        writer.push(frame).unwrap();
    }
    writer.finish().unwrap();
    let archive = Archive::open(&path).unwrap();
    assert!(archive.verify().unwrap().is_clean());
    let mut decoded = Vec::new();
    for meta in archive.segments() {
        let whole = archive.decode_segment_frames(meta).unwrap();
        for i in 0..meta.summaries.len() {
            let mut alone = Vec::new();
            archive
                .decode_blocks_into(meta, i..i + 1, &mut alone)
                .unwrap();
            let end = ((i + 1) * SUMMARY_FRAMES).min(whole.len());
            assert_eq!(alone, whole[i * SUMMARY_FRAMES..end]);
        }
        decoded.extend(whole);
    }
    assert_eq!(decoded, frames);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ps3_archive::index_path_for(&path)).ok();
}

proptest! {
    /// Random segment lengths (partial last blocks and single frames
    /// included) with random events on every block's first frame.
    #[test]
    fn blocks_decode_alone_under_random_boundary_events(
        n in 1usize..=3600,
        events in proptest::collection::vec(0u8..16, 3),
        seed in proptest::prelude::any::<u64>(),
    ) {
        check_blocks_decode_alone(&boundary_frames(n, &events, seed));
    }

    /// Random values at random k: decode inverts encode and the cost
    /// model stays exact.
    #[test]
    fn rice_random_values_roundtrip(
        values in proptest::collection::vec(0u32..=RICE_MAX, 0..200),
        k in 0u8..=10,
    ) {
        rice_roundtrip(&values, k);
    }

    /// Random zigzag round trip across the full i64 domain.
    #[test]
    fn zigzag_random_roundtrip(v in proptest::prelude::any::<i64>()) {
        prop_assert_eq!(unzigzag64(zigzag64(v)), v);
    }

    /// Random timestamp walks biased to hit every delta-of-delta
    /// class: zero deltas, small jitter, and jumps out to the 16-, 32-
    /// and 64-bit encodings.
    #[test]
    fn dod_random_walks_roundtrip(
        steps in proptest::collection::vec((0u8..=4, 0u64..=u64::MAX), 1..120),
    ) {
        let mut t = 25u64;
        let mut times = vec![t];
        for &(class, magnitude) in &steps {
            let delta = match class {
                0 => 0,
                1 => magnitude % 256,              // 8-bit dod region
                2 => magnitude % 65_536,           // 16-bit dod region
                3 => magnitude % (1u64 << 32),     // 32-bit dod region
                _ => magnitude % (1u64 << 44),     // 64-bit raw deltas
            };
            t = t.saturating_add(delta).min(T_MAX_US);
            times.push(t);
        }
        dod_roundtrip(&times, "prop");
    }
}
