//! The `tsdb` experiment: query latency of the aggregation pyramid
//! versus a full decode scan, across capture sizes.
//!
//! Each point records a synthetic capture of N frames, opens it once
//! through [`ps3_tsdb::Tsdb`] (pyramid engine) and once through the
//! plain decode path ([`ps3_archive::Archive::stats_decoded`]), then
//! times an identical batch of range queries against both. The
//! deterministic facts — frame/segment/tier-node counts and the
//! exactness of every pyramid answer — go into the report and CSV;
//! the latency curve is machine-dependent and is recorded only as
//! `BENCH_repro.json` metrics, so `repro` output stays bit-identical
//! across `--jobs` values.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ps3_archive::{ArchiveFrame, SegmentWriter};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_tsdb::Tsdb;
use ps3_units::SimTime;

/// Range queries per batch: the full span plus this many seeded
/// subranges, so edge-block decodes and interior tier hits both count.
const SUBRANGES: usize = 16;
/// Timed repetitions of the whole batch per engine.
const REPS: usize = 3;
/// Sample cadence of the synthetic capture, µs.
const CADENCE_US: u64 = 50;
/// Frames per sealed segment. The Rice payload decodes per segment,
/// so this is the granularity a range edge costs; captures aimed at
/// interactive queries keep it small, and the compactor's re-tuned
/// codec keeps the per-segment overhead amortised.
const SEGMENT_FRAMES: usize = 1_000;

/// One capture-size point on the latency curve.
#[derive(Debug, Clone)]
pub struct TsdbPoint {
    /// Frames in the capture.
    pub frames: u64,
    /// Sealed segments the capture spans.
    pub segments: usize,
    /// Summary blocks (tier 0) under the pyramid.
    pub blocks: u64,
    /// Tier-1 pyramid nodes.
    pub tier1: u64,
    /// Tier-2 pyramid nodes.
    pub tier2: u64,
    /// Samples the full-span stats query counted.
    pub count: u64,
    /// Every pyramid stats answer agreed with the decode scan
    /// (count/min/max bit-for-bit, sum within 1e-9 relative).
    pub stats_exact: bool,
    /// Worst relative disagreement of pyramid energy against the
    /// archive's flat energy path across the batch.
    pub energy_rel_err: f64,
    /// Wall-clock seconds for the pyramid engine's batch
    /// (machine-dependent; metrics only).
    pub pyramid_wall_s: f64,
    /// Wall-clock seconds for the decode scan's batch
    /// (machine-dependent; metrics only).
    pub decode_wall_s: f64,
}

impl TsdbPoint {
    /// Decode-scan latency over pyramid latency: how many times
    /// faster the tier walk answers the same batch.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.pyramid_wall_s > 0.0 {
            self.decode_wall_s / self.pyramid_wall_s
        } else {
            0.0
        }
    }
}

fn temp_path(frames: u64, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ps3-bench-tsdb-{}-{frames}-{seed:x}.ps3a",
        std::process::id()
    ))
}

fn bench_configs() -> [SensorConfig; SENSOR_SLOTS] {
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

fn write_capture(path: &Path, frames: u64, seed: u64) {
    let mut writer =
        SegmentWriter::create_with(path, bench_configs(), SEGMENT_FRAMES).expect("create");
    for i in 0..frames {
        let r = mix(seed ^ i);
        let mut raw = [0u16; SENSOR_SLOTS];
        raw[0] = (r % 1024) as u16;
        raw[1] = (r >> 10 & 1023) as u16;
        writer
            .push(ArchiveFrame {
                time: SimTime::from_micros(25 + CADENCE_US * i),
                raw,
                present: 0b0011,
                marker: (i % 8191 == 0).then_some('m'),
            })
            .expect("push");
    }
    writer.finish().expect("seal");
}

/// The query batch for one capture: the full span first, then seeded
/// subranges (a pure function of the seed, so both engines and every
/// `--jobs` value see the same work).
fn ranges(frames: u64, seed: u64) -> Vec<(SimTime, SimTime)> {
    let span_end = 25 + CADENCE_US * frames;
    let mut out = vec![(SimTime::from_micros(0), SimTime::from_micros(span_end))];
    for q in 0..SUBRANGES as u64 {
        let a = mix(seed ^ 0x7151_u64 ^ q) % span_end;
        let b = mix(seed ^ 0xD0DB_u64 ^ q) % span_end;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        out.push((SimTime::from_micros(lo), SimTime::from_micros(hi + 1)));
    }
    out
}

/// Runs the latency curve: one capture per frame count, sequentially
/// (each query batch already fans segment scans out through
/// `rayon::par_map`).
#[must_use]
pub fn run(frame_counts: &[u64], seed: u64) -> Vec<TsdbPoint> {
    frame_counts
        .iter()
        .map(|&frames| run_point(frames, seed))
        .collect()
}

fn run_point(frames: u64, seed: u64) -> TsdbPoint {
    let path = temp_path(frames, seed);
    write_capture(&path, frames, seed);
    let tsdb = Tsdb::open(&path).expect("open tsdb");
    let batch = ranges(frames, seed);

    // Exactness before timing: every pyramid answer against the
    // decode scan, energy against the archive's flat path.
    let mut stats_exact = true;
    let mut energy_rel_err = 0.0f64;
    let mut count = 0;
    for (i, &(start, end)) in batch.iter().enumerate() {
        let pyr = tsdb.stats(start, end).expect("pyramid stats");
        let dec = tsdb.archive().stats_decoded(start, end).expect("decoded");
        let sum_tol = 1e-9 * pyr.sum_w.abs().max(dec.sum_w.abs()).max(1.0);
        stats_exact &= pyr.count == dec.count
            && pyr.min_w.to_bits() == dec.min_w.to_bits()
            && pyr.max_w.to_bits() == dec.max_w.to_bits()
            && (pyr.sum_w - dec.sum_w).abs() <= sum_tol;
        let e_pyr = tsdb.energy(start, end).expect("pyramid energy").value();
        let e_arc = tsdb.archive().energy(start, end).expect("energy").value();
        let rel = (e_pyr - e_arc).abs() / e_arc.abs().max(1e-12);
        energy_rel_err = energy_rel_err.max(rel);
        if i == 0 {
            count = pyr.count;
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock latency metric: measures real elapsed query time, outside the simulated timeline"
    )]
    let start = Instant::now();
    for _ in 0..REPS {
        for &(lo, hi) in &batch {
            let _ = tsdb.stats(lo, hi).expect("pyramid stats");
        }
    }
    let pyramid_wall_s = start.elapsed().as_secs_f64();

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock latency metric: measures real elapsed query time, outside the simulated timeline"
    )]
    let start = Instant::now();
    for _ in 0..REPS {
        for &(lo, hi) in &batch {
            let _ = tsdb.archive().stats_decoded(lo, hi).expect("decoded");
        }
    }
    let decode_wall_s = start.elapsed().as_secs_f64();

    let counts = tsdb.pyramid().counts();
    let point = TsdbPoint {
        frames,
        segments: tsdb.archive().segments().len(),
        blocks: counts.blocks,
        tier1: counts.tier1,
        tier2: counts.tier2,
        count,
        stats_exact,
        energy_rel_err,
        pyramid_wall_s,
        decode_wall_s,
    };
    drop(tsdb);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ps3_archive::index_path_for(&path)).ok();
    std::fs::remove_file(ps3_tsdb::pyramid_path_for(&path)).ok();
    point
}

/// Formats the report section (deterministic facts only — the latency
/// curve lives in `BENCH_repro.json`).
#[must_use]
pub fn render(points: &[TsdbPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ps3-tsdb: pyramid vs full-decode queries, {} ranges x {} reps per point",
        SUBRANGES + 1,
        REPS
    );
    let _ = writeln!(
        out,
        "    frames  segs  blocks  tier1  tier2     count  stats-exact  energy rel err"
    );
    for p in points {
        let _ = writeln!(
            out,
            "  {:>8}  {:>4}  {:>6}  {:>5}  {:>5}  {:>8}  {:>11}  {:.2e}",
            p.frames,
            p.segments,
            p.blocks,
            p.tier1,
            p.tier2,
            p.count,
            if p.stats_exact { "yes" } else { "NO" },
            p.energy_rel_err
        );
    }
    let _ = writeln!(
        out,
        "  latency-vs-capture-size curve recorded in BENCH_repro.json (wall-clock)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_point_is_exact_and_accounted() {
        let points = run(&[3_000, 9_000], 0x7EDB);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.segments >= 1, "frames={}", p.frames);
            assert_eq!(p.count, p.frames, "full span counts every frame");
            assert!(p.stats_exact, "frames={}", p.frames);
            assert!(p.energy_rel_err <= 1e-9, "frames={}", p.frames);
            assert!(p.blocks >= p.frames / 1000, "frames={}", p.frames);
            assert!(p.pyramid_wall_s > 0.0 && p.decode_wall_s > 0.0);
        }
        let text = render(&points);
        assert!(text.contains("yes"), "{text}");
        assert!(!text.contains("NO"), "{text}");
    }
}
