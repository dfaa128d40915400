//! Conservation test of the range-query walk on one seeded capture:
//! summary-block and pyramid aggregates equal a full decode.
//!
//! The capture holds 30 sealed segments of 5 summary blocks each. It is
//! queried through the archive alone (summary blocks only), through the
//! tsdb at the default pyramid fan-out, and through the tsdb at a
//! 2-block / 2-node fan-out, where a 5-block segment is served as one
//! tier-2 node plus a tier-1 tail node. Over empty, sub-block,
//! block-aligned, cross-segment and full ranges:
//!
//! * every served answer (stats, energy, energy_between, downsample) is
//!   bit-identical to the walk's reference mode, which rebuilds every
//!   tier from decoded frames;
//! * against a full decode (`read_range`), every engine's count, min and
//!   max agree bit for bit, its sums, energies and downsampled means
//!   within 1e-9 relative, and its bucket times and markers exactly.

use std::path::PathBuf;

use powersensor3::analysis::Trace;
use powersensor3::archive::format::SUMMARY_FRAMES;
use powersensor3::archive::{
    Archive, ArchiveError, ArchiveFrame, RangeStats, SegmentWriter, Tiers,
};
use powersensor3::firmware::{SensorConfig, SENSOR_SLOTS};
use powersensor3::tsdb::{PyramidConfig, Tsdb};
use powersensor3::units::SimTime;

const SEGMENTS: usize = 30;
const SEGMENT_FRAMES: usize = 5 * SUMMARY_FRAMES;
const SMALL: PyramidConfig = PyramidConfig {
    tier1_blocks: 2,
    tier2_nodes: 2,
};
const DIVISORS: [u64; 4] = [7, 1000, 2000, 5000];
const MARKER_PAIRS: [(char, char); 3] = [('a', 'c'), ('b', 'b'), ('d', 'a')];

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn configs() -> [SensorConfig; SENSOR_SLOTS] {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
    configs[2] = SensorConfig::new("I1", 3.3, 0.063, true);
    configs[3] = SensorConfig::new("U1", 3.3, 1.0, true);
    configs
}

/// A seeded capture: 50 µs cadence with occasional jitter, noisy
/// codes, and a marker (`a`..`d` cycling) every 3001st frame.
fn frames() -> Vec<ArchiveFrame> {
    let mut time_us = 25u64;
    (0..SEGMENTS * SEGMENT_FRAMES)
        .map(|i| {
            let r = mix(0x5EED ^ i as u64);
            if i > 0 {
                time_us += if r.is_multiple_of(50) {
                    1 + r / 50 % 400
                } else {
                    50
                };
            }
            let mut raw = [0u16; SENSOR_SLOTS];
            for (slot, code) in raw.iter_mut().enumerate().take(4) {
                *code = (mix(r ^ slot as u64) % 1024) as u16;
            }
            ArchiveFrame {
                time: SimTime::from_micros(time_us),
                raw,
                present: 0b1111,
                marker: i
                    .is_multiple_of(3001)
                    .then(|| char::from(b'a' + (i / 3001 % 4) as u8)),
            }
        })
        .collect()
}

struct Capture(PathBuf);

impl Capture {
    fn write() -> Self {
        let path =
            std::env::temp_dir().join(format!("ps3-query-exact-{}.ps3a", std::process::id()));
        let mut writer = SegmentWriter::create_with(&path, configs(), SEGMENT_FRAMES).unwrap();
        for frame in frames() {
            writer.push(frame).unwrap();
        }
        writer.finish().unwrap();
        Self(path)
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        for ext in ["", ".ps3x", ".ps3p", ".ps3s"] {
            let mut p = self.0.as_os_str().to_os_string();
            p.push(ext);
            std::fs::remove_file(PathBuf::from(p)).ok();
        }
    }
}

/// One way of answering queries: served and reference.
trait Engine {
    fn stats(&self, reference: bool, s: SimTime, e: SimTime) -> Result<RangeStats, ArchiveError>;
    fn energy(&self, reference: bool, s: SimTime, e: SimTime) -> Result<f64, ArchiveError>;
    fn energy_between(&self, reference: bool, a: char, b: char) -> Result<f64, ArchiveError>;
    fn downsample(&self, reference: bool, s: SimTime, e: SimTime, d: u64) -> Trace;
}

impl Engine for Archive {
    fn stats(&self, reference: bool, s: SimTime, e: SimTime) -> Result<RangeStats, ArchiveError> {
        if reference {
            self.stats_decoded(s, e)
        } else {
            Archive::stats(self, s, e)
        }
    }

    fn energy(&self, reference: bool, s: SimTime, e: SimTime) -> Result<f64, ArchiveError> {
        let joules = if reference {
            self.energy_with(Tiers::Rebuilt(&[]), s, e)?
        } else {
            Archive::energy(self, s, e)?
        };
        Ok(joules.value())
    }

    fn energy_between(&self, reference: bool, a: char, b: char) -> Result<f64, ArchiveError> {
        if reference {
            let (s, e) = self.marker_span(a, b)?;
            Engine::energy(self, true, s, e)
        } else {
            Ok(Archive::energy_between(self, a, b)?.value())
        }
    }

    fn downsample(&self, reference: bool, s: SimTime, e: SimTime, d: u64) -> Trace {
        let mut out = Trace::new();
        let tiers = if reference {
            Tiers::Rebuilt(&[])
        } else {
            Tiers::SUMMARIES
        };
        self.downsample_with(tiers, s, e, d, &mut out).unwrap();
        if !reference {
            assert_eq!(out, Archive::downsample(self, s, e, d).unwrap());
        }
        out
    }
}

impl Engine for Tsdb {
    fn stats(&self, reference: bool, s: SimTime, e: SimTime) -> Result<RangeStats, ArchiveError> {
        if reference {
            self.stats_ref(s, e)
        } else {
            Tsdb::stats(self, s, e)
        }
    }

    fn energy(&self, reference: bool, s: SimTime, e: SimTime) -> Result<f64, ArchiveError> {
        let joules = if reference {
            self.energy_ref(s, e)?
        } else {
            Tsdb::energy(self, s, e)?
        };
        Ok(joules.value())
    }

    fn energy_between(&self, reference: bool, a: char, b: char) -> Result<f64, ArchiveError> {
        let joules = if reference {
            self.energy_between_ref(a, b)?
        } else {
            Tsdb::energy_between(self, a, b)?
        };
        Ok(joules.value())
    }

    fn downsample(&self, reference: bool, s: SimTime, e: SimTime, d: u64) -> Trace {
        if reference {
            self.downsample_ref(s, e, d).unwrap()
        } else {
            Tsdb::downsample(self, s, e, d).unwrap()
        }
    }
}

/// The query ranges, named for failure messages.
fn ranges(archive: &Archive) -> Vec<(&'static str, SimTime, SimTime)> {
    let seg = |i: usize| &archive.segments()[i];
    let block = |i: usize, b: usize| seg(i).summaries[b];
    let us = SimTime::from_micros;
    let mid = block(4, 2);
    vec![
        ("empty", us(mid.first_us + 500), us(mid.first_us + 500)),
        (
            "sub-block",
            us(mid.first_us + 1_234),
            us(mid.last_us - 2_345),
        ),
        (
            "block-aligned",
            us(block(7, 1).first_us),
            us(block(9, 3).first_us),
        ),
        (
            "cross-segment",
            us(block(3, 1).first_us + 777),
            us(block(17, 3).last_us - 999),
        ),
        (
            "full",
            archive.start_time().unwrap(),
            us(archive.end_time().unwrap().as_micros() + 1),
        ),
    ]
}

fn assert_same_trace(what: &str, a: &Trace, b: &Trace) {
    assert_eq!(a.len(), b.len(), "{what}: bucket count");
    for (x, y) in a.samples().iter().zip(b.samples()) {
        assert_eq!(x.time, y.time, "{what}: bucket time");
        assert_eq!(
            x.power.value().to_bits(),
            y.power.value().to_bits(),
            "{what}: bucket mean at {:?}",
            x.time
        );
    }
    assert_eq!(a.markers(), b.markers(), "{what}: markers");
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Served == reference, bit for bit, for every query kind.
fn assert_matches_reference(name: &str, engine: &dyn Engine, ranges: &[(&str, SimTime, SimTime)]) {
    for &(range, s, e) in ranges {
        let what = format!("{name} {range}");
        let (fast, slow) = (
            engine.stats(false, s, e).unwrap(),
            engine.stats(true, s, e).unwrap(),
        );
        assert_eq!(fast.count, slow.count, "{what}: count");
        assert_eq!(fast.sum_w.to_bits(), slow.sum_w.to_bits(), "{what}: sum");
        assert_eq!(fast.min_w.to_bits(), slow.min_w.to_bits(), "{what}: min");
        assert_eq!(fast.max_w.to_bits(), slow.max_w.to_bits(), "{what}: max");
        assert_eq!(
            engine.energy(false, s, e).unwrap().to_bits(),
            engine.energy(true, s, e).unwrap().to_bits(),
            "{what}: energy"
        );
        for divisor in DIVISORS {
            assert_same_trace(
                &format!("{what} /{divisor}"),
                &engine.downsample(false, s, e, divisor),
                &engine.downsample(true, s, e, divisor),
            );
        }
    }
    for (a, b) in MARKER_PAIRS {
        assert_eq!(
            engine.energy_between(false, a, b).unwrap().to_bits(),
            engine.energy_between(true, a, b).unwrap().to_bits(),
            "{name}: energy_between({a}, {b})"
        );
    }
}

#[test]
fn served_aggregates_equal_a_full_decode() {
    let capture = Capture::write();
    let archive = Archive::open(&capture.0).unwrap();
    assert_eq!(archive.segments().len(), SEGMENTS);
    let ranges = ranges(&archive);
    let tsdb = Tsdb::open(&capture.0).unwrap();
    let small = Tsdb::from_archive(Archive::open(&capture.0).unwrap(), SMALL);
    let counts = small.pyramid().counts();
    assert_eq!(
        (counts.tier1, counts.tier2),
        (3 * SEGMENTS as u64, 2 * SEGMENTS as u64)
    );

    assert_matches_reference("archive", &archive, &ranges);
    assert_matches_reference("tsdb", &tsdb, &ranges);
    assert_matches_reference("tsdb-small", &small, &ranges);

    for &(range, s, e) in &ranges {
        // The full decode: every sample in range, as the live trace had it.
        let trace = archive.read_range(s, e).unwrap();
        let watts: Vec<f64> = trace.iter().map(|x| x.power.value()).collect();
        let flat = archive.stats(s, e).unwrap();
        assert_eq!(flat.count, trace.len() as u64, "{range}: count");
        let min = watts.iter().copied().fold(f64::INFINITY, f64::min);
        let max = watts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(flat.min_w.to_bits(), min.to_bits(), "{range}: min");
        assert_eq!(flat.max_w.to_bits(), max.to_bits(), "{range}: max");
        assert!(close(flat.sum_w, watts.iter().sum()), "{range}: sum");
        let flat_energy = archive.energy(s, e).unwrap().value();
        assert!(
            close(flat_energy, trace.energy().value()),
            "{range}: energy"
        );
        for (name, engine) in [("tsdb", &tsdb), ("tsdb-small", &small)] {
            let what = format!("{name} {range}");
            let tiered = engine.stats(s, e).unwrap();
            assert_eq!(tiered.count, flat.count, "{what}: count");
            assert_eq!(tiered.min_w.to_bits(), flat.min_w.to_bits(), "{what}: min");
            assert_eq!(tiered.max_w.to_bits(), flat.max_w.to_bits(), "{what}: max");
            assert!(close(tiered.sum_w, flat.sum_w), "{what}: sum");
            let energy = engine.energy(s, e).unwrap().value();
            assert!(close(energy, flat_energy), "{what}: energy");
        }
        for divisor in DIVISORS {
            let buckets: Vec<_> = trace
                .samples()
                .chunks_exact(divisor as usize)
                .map(|c| {
                    let sum: f64 = c.iter().map(|x| x.power.value()).sum();
                    (c[c.len() - 1].time, sum / divisor as f64)
                })
                .collect();
            for (name, got) in [
                ("archive", archive.downsample(s, e, divisor).unwrap()),
                ("tsdb", tsdb.downsample(s, e, divisor).unwrap()),
                ("tsdb-small", small.downsample(s, e, divisor).unwrap()),
            ] {
                let what = format!("{name} {range} /{divisor}");
                assert_eq!(got.len(), buckets.len(), "{what}: bucket count");
                for (x, &(time, mean)) in got.samples().iter().zip(&buckets) {
                    assert_eq!(x.time, time, "{what}: bucket time");
                    assert!(close(x.power.value(), mean), "{what}: mean at {time:?}");
                }
                assert_eq!(got.markers(), trace.markers(), "{what}: markers");
            }
        }
    }
}
