//! Property tests pinning the pyramid exactness contract: for
//! arbitrary captures, markers, and query ranges — including empty and
//! single-frame ones — the pyramid-served `stats`, `energy`,
//! `energy_between`, and `downsample` answers are bit-identical to the
//! `*_ref` reference paths (same decomposition, tiers recomputed from
//! decoded frames), counts/extremes are bit-identical to the flat
//! archive paths, and sums/energies agree with the flat paths to
//! float-regrouping precision.
//!
//! A shrunken fan-out (2 blocks per tier-1 node, 2 tier-1 nodes per
//! tier-2 node) keeps all three tiers in play at test-size captures.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use ps3_archive::{index_path_for, Archive, ArchiveError, ArchiveFrame, SegmentWriter};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_tsdb::{pyramid_path_for, PyramidConfig, Tsdb};
use ps3_units::SimTime;

const SMALL: PyramidConfig = PyramidConfig {
    tier1_blocks: 2,
    tier2_nodes: 2,
};

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ps3-tsdb-px-{}-{tag}-{n}.ps3a", std::process::id()))
}

fn cleanup(path: &Path) {
    for p in [
        path.to_path_buf(),
        index_path_for(path),
        pyramid_path_for(path),
    ] {
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

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic capture expanded from a seed: mostly 50 µs cadence
/// with occasional jitter and long gaps, noisy values, a marker
/// (`a`..`d` cycling) every 97th frame.
fn build_frames(seed: u64, n: usize) -> Vec<ArchiveFrame> {
    let mut time_us = 25u64;
    (0..n)
        .map(|i| {
            let r = mix(seed ^ i as u64);
            if i > 0 {
                time_us += match r % 100 {
                    0..=89 => 50,
                    90..=97 => 1 + r / 100 % 1000,
                    _ => 500_000 + r / 100 % 500_000,
                };
            }
            let present = 0b1111u8 | (r >> 17) as u8 & 0xF0;
            let mut raw = [0u16; SENSOR_SLOTS];
            for (slot, out) in raw.iter_mut().enumerate() {
                if present & (1 << slot) != 0 {
                    *out = (mix(r ^ slot as u64) % 1024) as u16;
                }
            }
            let marker = (i % 97 == 0).then(|| char::from(b'a' + (i / 97 % 4) as u8));
            ArchiveFrame {
                time: SimTime::from_micros(time_us),
                raw,
                present,
                marker,
            }
        })
        .collect()
}

fn write_capture(path: &Path, frames: &[ArchiveFrame], segment_frames: usize) {
    let mut writer = SegmentWriter::create_with(path, test_configs(), segment_frames).unwrap();
    for &frame in frames {
        writer.push(frame).unwrap();
    }
    writer.finish().unwrap();
}

/// Relative agreement to float-regrouping precision.
fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #[test]
    fn pyramid_answers_are_exact(
        seed in 0u64..1 << 48,
        n in 1usize..6000,
        segment_frames in 100usize..4500,
        cut_lo in 0u64..=100,
        cut_hi in 0u64..=100,
        divisor_sel in 0u64..4,
    ) {
        let frames = build_frames(seed, n);
        let path = temp_path("exact");
        write_capture(&path, &frames, segment_frames);

        let tsdb = Tsdb::open_with(&path, SMALL).unwrap();
        let archive = Archive::open(&path).unwrap();

        let t0 = frames[0].time.as_micros();
        let t1 = frames[n - 1].time.as_micros();
        let span = t1 - t0 + 1;
        let mut lo = t0 + span * cut_lo / 100;
        let mut hi = t0 + span * cut_hi / 100;
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        // Exercise empty, partial, and full ranges (+1 pushes past the
        // last sample when cut_hi == 100).
        let (start, end) = (SimTime::from_micros(lo), SimTime::from_micros(hi));

        // stats: bit-equal to the reference path, count/extremes
        // bit-equal to the flat path, sum to regrouping precision.
        let fast = tsdb.stats(start, end).unwrap();
        let reference = tsdb.stats_ref(start, end).unwrap();
        prop_assert_eq!(fast.count, reference.count);
        prop_assert_eq!(fast.sum_w.to_bits(), reference.sum_w.to_bits());
        prop_assert_eq!(fast.min_w.to_bits(), reference.min_w.to_bits());
        prop_assert_eq!(fast.max_w.to_bits(), reference.max_w.to_bits());
        let flat = archive.stats(start, end).unwrap();
        prop_assert_eq!(fast.count, flat.count);
        prop_assert_eq!(fast.min_w.to_bits(), flat.min_w.to_bits());
        prop_assert_eq!(fast.max_w.to_bits(), flat.max_w.to_bits());
        prop_assert!(approx(fast.sum_w, flat.sum_w), "{} vs {}", fast.sum_w, flat.sum_w);

        // energy: bit-equal to reference, regrouping-close to flat.
        let fast_e = tsdb.energy(start, end).unwrap().value();
        let ref_e = tsdb.energy_ref(start, end).unwrap().value();
        prop_assert_eq!(fast_e.to_bits(), ref_e.to_bits());
        let flat_e = archive.energy(start, end).unwrap().value();
        prop_assert!(approx(fast_e, flat_e), "{fast_e} vs {flat_e}");

        // downsample: identical to reference; identical times/counts
        // and regrouping-close means vs flat; identical markers.
        let divisor = [1, 7, 100, 2048][divisor_sel as usize];
        let fast_d = tsdb.downsample(start, end, divisor).unwrap();
        let ref_d = tsdb.downsample_ref(start, end, divisor).unwrap();
        prop_assert_eq!(&fast_d, &ref_d);
        let flat_d = archive.downsample(start, end, divisor).unwrap();
        prop_assert_eq!(fast_d.len(), flat_d.len());
        for (a, b) in fast_d.samples().iter().zip(flat_d.samples()) {
            prop_assert_eq!(a.time, b.time);
            prop_assert!(approx(a.power.value(), b.power.value()));
        }
        prop_assert_eq!(fast_d.markers(), flat_d.markers());

        cleanup(&path);
    }

    #[test]
    fn marker_delimited_energy_matches(
        seed in 0u64..1 << 48,
        n in 98usize..3000,
        segment_frames in 50usize..2500,
    ) {
        let frames = build_frames(seed, n);
        let path = temp_path("marker");
        write_capture(&path, &frames, segment_frames);
        let tsdb = Tsdb::open_with(&path, SMALL).unwrap();
        let archive = Archive::open(&path).unwrap();

        for (lo, hi) in [('a', 'b'), ('a', 'a'), ('b', 'd'), ('c', 'a')] {
            let fast = tsdb.energy_between(lo, hi);
            let reference = tsdb.energy_between_ref(lo, hi);
            let flat = archive.energy_between(lo, hi);
            match (fast, reference, flat) {
                (Ok(f), Ok(r), Ok(a)) => {
                    prop_assert_eq!(f.value().to_bits(), r.value().to_bits());
                    prop_assert!(approx(f.value(), a.value()));
                }
                (
                    Err(ArchiveError::MarkerNotFound(x)),
                    Err(ArchiveError::MarkerNotFound(y)),
                    Err(ArchiveError::MarkerNotFound(z)),
                ) => {
                    prop_assert_eq!(x, y);
                    prop_assert_eq!(x, z);
                }
                (f, r, a) => prop_assert!(false, "diverged: {f:?} {r:?} {a:?}"),
            }
        }

        cleanup(&path);
    }
}

#[test]
fn single_frame_capture_queries() {
    let frames = build_frames(7, 1);
    let path = temp_path("single");
    write_capture(&path, &frames, 10);
    let tsdb = Tsdb::open(&path).unwrap();
    let archive = Archive::open(&path).unwrap();

    let t = frames[0].time;
    let after = SimTime::from_micros(t.as_micros() + 1);
    let stats = tsdb.stats(t, after).unwrap();
    let flat = archive.stats(t, after).unwrap();
    assert_eq!(stats.count, 1);
    assert_eq!(stats.sum_w.to_bits(), flat.sum_w.to_bits());
    assert_eq!(tsdb.energy(t, after).unwrap().value(), 0.0);
    assert_eq!(tsdb.downsample(t, after, 1).unwrap().len(), 1);

    // Empty range on the same capture.
    let empty = tsdb.stats(t, t).unwrap();
    assert_eq!(empty.count, 0);
    assert_eq!(tsdb.energy(t, t).unwrap().value(), 0.0);
    assert!(tsdb.downsample(t, t, 5).unwrap().is_empty());

    cleanup(&path);
}

#[test]
fn sidecar_is_written_and_reused() {
    let frames = build_frames(11, 5000);
    let path = temp_path("sidecar");
    write_capture(&path, &frames, 1200);

    let first = Tsdb::open_with(&path, SMALL).unwrap();
    assert!(!first.from_sidecar(), "no sidecar existed yet");
    drop(first);
    let second = Tsdb::open_with(&path, SMALL).unwrap();
    assert!(second.from_sidecar(), "the rebuilt sidecar should be fresh");
    let counts = second.pyramid().counts();
    assert!(counts.blocks > 0 && counts.tier1 > 0 && counts.tier2 > 0);

    // A different fan-out invalidates the sidecar.
    let other = Tsdb::open_with(&path, PyramidConfig::default()).unwrap();
    assert!(!other.from_sidecar());

    cleanup(&path);
}
