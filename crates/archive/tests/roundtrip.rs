//! Property tests: random traces → archive → read back identical, and
//! the summary fast paths agree with full decodes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use ps3_archive::{frame_total, index_path_for, Archive, ArchiveFrame, SegmentWriter};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_units::SimTime;

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ps3-archive-rt-{}-{tag}-{n}.ps3a",
        std::process::id()
    ))
}

/// Removes an archive and the sidecars its writer and reader leave.
fn cleanup(path: &Path) {
    for p in [path.to_path_buf(), index_path_for(path)] {
        std::fs::remove_file(p).ok();
    }
}

fn test_configs() -> [SensorConfig; SENSOR_SLOTS] {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
    configs[2] = SensorConfig::new("I1", 3.3, 0.063, true);
    configs[3] = SensorConfig::new("U1", 3.3, 1.0, true);
    configs
}

/// Splitmix64, for deriving per-(frame, slot) raw codes from the spec.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands the proptest spec tuples into a frame sequence: mostly
/// 50 µs cadence with occasional jitter and long gaps, arbitrary
/// presence masks, noisy-ish values, sparse markers.
fn build_frames(spec: &[(u64, u8, u8, u16)]) -> Vec<ArchiveFrame> {
    let mut time_us = 25u64;
    spec.iter()
        .enumerate()
        .map(|(i, &(delta_sel, present, marker_sel, base))| {
            if i > 0 {
                time_us += match delta_sel {
                    0..=69 => 50,
                    70..=89 => 1 + mix(delta_sel ^ i as u64) % 1000,
                    _ => 1_000_000 + mix(delta_sel ^ i as u64) % 1_000_000,
                };
            }
            let mut raw = [0u16; SENSOR_SLOTS];
            for (slot, r) in raw.iter_mut().enumerate() {
                if present & (1 << slot) != 0 {
                    let jitter = (mix(u64::from(base) ^ (i as u64) << 8 ^ slot as u64) % 16) as u16;
                    *r = (base + jitter * u16::try_from(slot + 1).unwrap()) % 1024;
                }
            }
            let marker = (marker_sel % 5 == 0).then(|| char::from(b'a' + marker_sel / 5 % 26));
            ArchiveFrame {
                time: SimTime::from_micros(time_us),
                raw,
                present,
                marker,
            }
        })
        .collect()
}

/// The trace the live acquisition path would have produced for these
/// frames.
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

proptest! {
    #[test]
    fn random_traces_round_trip(
        spec in proptest::collection::vec((0u64..100, 0u8..=255, 0u8..=255, 0u16..1024), 1..300),
        segment_frames in 1usize..70,
    ) {
        let frames = build_frames(&spec);
        let path = temp_path("prop");
        let mut writer = SegmentWriter::create_with(&path, test_configs(), segment_frames).unwrap();
        for &frame in &frames {
            writer.push(frame).unwrap();
        }
        let stats = writer.finish().unwrap();
        prop_assert_eq!(stats.frames, frames.len() as u64);

        let archive = Archive::open(&path).unwrap();
        prop_assert!(archive.recovery().used_index);

        // Frame-level round trip: every stored frame comes back bit-equal.
        let mut decoded = Vec::new();
        for meta in archive.segments() {
            decoded.extend(archive.decode_segment_frames(meta).unwrap());
        }
        prop_assert_eq!(&decoded, &frames);

        // Trace-level: byte-identical to the live acquisition result.
        let trace = archive.read_all().unwrap();
        prop_assert_eq!(&trace, &reference_trace(&frames));

        // Deep verify agrees.
        let report = archive.verify().unwrap();
        prop_assert!(report.is_clean(), "verify: {:?}", report.errors);
        prop_assert_eq!(report.frames, frames.len() as u64);

        // Without the sidecar, the scan recovers the same data.
        std::fs::remove_file(index_path_for(&path)).unwrap();
        let rescanned = Archive::open(&path).unwrap();
        prop_assert!(!rescanned.recovery().used_index);
        prop_assert_eq!(rescanned.recovery().trailing_bytes, 0);
        prop_assert_eq!(&rescanned.read_all().unwrap(), &trace);

        cleanup(&path);
    }

    #[test]
    fn stats_fast_path_is_bit_exact(
        spec in proptest::collection::vec((0u64..100, 0u8..=255, 0u8..=255, 0u16..1024), 2..250),
        cut_lo in 0u64..100,
        cut_hi in 0u64..100,
    ) {
        let frames = build_frames(&spec);
        let path = temp_path("stats");
        // Tiny segments so ranges cut through segment and block edges.
        let mut writer = SegmentWriter::create_with(&path, test_configs(), 25).unwrap();
        for &frame in &frames {
            writer.push(frame).unwrap();
        }
        writer.finish().unwrap();
        let archive = Archive::open(&path).unwrap();

        let t0 = frames[0].time.as_micros();
        let t1 = frames[frames.len() - 1].time.as_micros();
        let span = t1 - t0 + 1;
        let mut lo = t0 + span * cut_lo / 100;
        let mut hi = t0 + span * cut_hi / 100;
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let (start, end) = (SimTime::from_micros(lo), SimTime::from_micros(hi));

        let fast = archive.stats(start, end).unwrap();
        let slow = archive.stats_decoded(start, end).unwrap();
        prop_assert_eq!(fast.count, slow.count);
        prop_assert_eq!(fast.sum_w.to_bits(), slow.sum_w.to_bits());
        prop_assert_eq!(fast.min_w.to_bits(), slow.min_w.to_bits());
        prop_assert_eq!(fast.max_w.to_bits(), slow.max_w.to_bits());

        // And both agree with the reference trace slice.
        let slice = reference_trace(&frames).slice(start, end);
        prop_assert_eq!(fast.count, slice.len() as u64);
        if let Some(mean) = slice.mean_power() {
            let fast_mean = fast.mean_w().unwrap();
            prop_assert!(
                (fast_mean - mean.value()).abs() <= 1e-9 * mean.value().abs().max(1.0),
                "mean {} vs {}", fast_mean, mean.value()
            );
        }

        // Energy fast path tracks the trace's trapezoid integral.
        let e_fast = archive.energy(start, end).unwrap().value();
        let e_ref = slice.energy().value();
        prop_assert!(
            (e_fast - e_ref).abs() <= 1e-9 * e_ref.abs().max(1e-12),
            "energy {} vs {}", e_fast, e_ref
        );

        cleanup(&path);
    }
}

#[test]
fn downsample_matches_manual_bucketing() {
    let spec: Vec<(u64, u8, u8, u16)> = (0..2400)
        .map(|i| (u64::from(i % 97), 0b1111, (i % 251) as u8, 200 + i % 600))
        .collect();
    let frames = build_frames(&spec);
    let path = temp_path("down");
    let mut writer = SegmentWriter::create_with(&path, test_configs(), 500).unwrap();
    for &frame in &frames {
        writer.push(frame).unwrap();
    }
    writer.finish().unwrap();
    let archive = Archive::open(&path).unwrap();
    let reference = reference_trace(&frames);

    for divisor in [1u64, 7, 20, 1000, 2000] {
        let start = archive.start_time().unwrap();
        let end = SimTime::from_micros(archive.end_time().unwrap().as_micros() + 1);
        let down = archive.downsample(start, end, divisor).unwrap();
        // Manual bucketing over the reference trace with the same
        // last-sample-stamped, drop-partial-tail convention.
        let samples = reference.samples();
        let expect: Vec<(u64, f64)> = samples
            .chunks(divisor as usize)
            .filter(|c| c.len() == divisor as usize)
            .map(|c| {
                let sum: f64 = c.iter().map(|s| s.power.value()).sum();
                (c.last().unwrap().time.as_micros(), sum / divisor as f64)
            })
            .collect();
        assert_eq!(down.len(), expect.len(), "divisor {divisor}");
        for (got, want) in down.samples().iter().zip(&expect) {
            assert_eq!(got.time.as_micros(), want.0, "divisor {divisor}");
            assert!(
                (got.power.value() - want.1).abs() <= 1e-12 * want.1.abs().max(1.0),
                "divisor {divisor}: {} vs {}",
                got.power.value(),
                want.1
            );
        }
        // Markers ride along at their original times.
        assert_eq!(down.markers().len(), reference.markers().len());
    }

    cleanup(&path);
}

#[test]
fn energy_between_markers_matches_trace() {
    let spec: Vec<(u64, u8, u8, u16)> = (0..3000)
        .map(|i| {
            // Sparse deterministic markers: 'a' at frame 500, 'f' at 2500.
            let marker_sel = match i {
                500 => 0,   // 'a'
                2500 => 25, // 'f'
                _ => 1,     // none
            };
            (0u64, 0b11, marker_sel, 300 + (i % 11) as u16)
        })
        .collect();
    let frames = build_frames(&spec);
    let path = temp_path("marks");
    let mut writer = SegmentWriter::create_with(&path, test_configs(), 1000).unwrap();
    for &frame in &frames {
        writer.push(frame).unwrap();
    }
    writer.finish().unwrap();
    let archive = Archive::open(&path).unwrap();
    let reference = reference_trace(&frames);

    let window = reference.between_markers('a', 'f').unwrap();
    let e_ref = window.energy().value();
    let e_arc = archive.energy_between('a', 'f').unwrap().value();
    assert!(
        (e_arc - e_ref).abs() <= 1e-9 * e_ref.abs().max(1e-12),
        "{e_arc} vs {e_ref}"
    );

    assert!(matches!(
        archive.energy_between('z', 'f'),
        Err(ps3_archive::ArchiveError::MarkerNotFound('z'))
    ));
    // Reversed order: no 'a' at or after the first 'f'.
    assert!(archive.energy_between('f', 'a').is_err());

    cleanup(&path);
}
