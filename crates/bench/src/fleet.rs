//! The `fleet` experiment: coordinator scaling, 1 → 8 → 32 (→ 100)
//! rigs.
//!
//! Each point stands up a full fleet — N in-process acquisition stacks,
//! per-rig archive shards, the coordinator endpoint — attaches one
//! fleet-wide merged subscriber, captures 100 ms of virtual time, and
//! drains the merged stream. The deterministic facts (frames published,
//! merged-stream accounting, cross-rig energy) go into the report and
//! CSV; wall-clock throughput is machine-dependent and is recorded only
//! as `BENCH_repro.json` metrics, so `repro` output stays bit-identical
//! across `--jobs` values.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ps3_fleet::{parse_shard_name, testbed_rig_factory, Fleet, FleetConfig, FleetQuery};
use ps3_stream::{RigSelector, StreamClient, StreamClientConfig};
use ps3_units::{SimDuration, SimTime};

/// Virtual capture per point: 100 ms at 20 kHz is 2000 frames per rig,
/// under the 8192-slot ring, so the merged subscriber must account for
/// every frame with zero gaps.
const CAPTURE_TICKS: u64 = 20;
/// Virtual tick length.
const TICK: SimDuration = SimDuration::from_millis(5);
/// Frames one rig publishes per tick at 20 kHz.
const FRAMES_PER_TICK: u64 = 100;

/// One rig-count point on the scaling curve.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Rigs in this fleet.
    pub rigs: u16,
    /// Frames the fleet published (deterministic: rigs × 2000).
    pub published: u64,
    /// Frames the merged subscriber received.
    pub received: u64,
    /// Gap events the merged subscriber saw (expected: zero).
    pub gap_events: u64,
    /// Frames the merged subscriber was told were dropped.
    pub dropped: u64,
    /// Samples the archive shards hold over the capture span.
    pub archive_samples: u64,
    /// Fleet-wide energy from the query plane.
    pub energy_j: f64,
    /// Whether the energy query matched a manual per-shard fold
    /// bit-for-bit.
    pub energy_exact: bool,
    /// Wall-clock seconds from first advance until the merged stream
    /// fully drained (machine-dependent; metrics only).
    pub stream_wall_s: f64,
    /// Wall-clock seconds for the cross-rig aggregate queries
    /// (machine-dependent; metrics only).
    pub query_wall_s: f64,
}

impl FleetPoint {
    /// End-to-end merged-stream throughput, frames per wall second.
    #[must_use]
    pub fn frames_per_sec(&self) -> f64 {
        if self.stream_wall_s > 0.0 {
            self.published as f64 / self.stream_wall_s
        } else {
            0.0
        }
    }
}

fn scratch_dir(rigs: u16, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ps3-bench-fleet-{}-{rigs}-{seed:x}",
        std::process::id()
    ))
}

/// Runs the scaling curve: one fleet per rig count, sequentially (each
/// point already fans out internally — per-rig readers, writers, and
/// the query plane's parallel shard scans).
#[must_use]
pub fn run(rig_counts: &[u16], seed: u64) -> Vec<FleetPoint> {
    rig_counts
        .iter()
        .map(|&rigs| run_point(rigs, seed))
        .collect()
}

fn run_point(rigs: u16, seed: u64) -> FleetPoint {
    let dir = scratch_dir(rigs, seed);
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = Fleet::start(
        rigs,
        testbed_rig_factory(seed ^ u64::from(rigs)),
        "127.0.0.1:0",
        FleetConfig::new(&dir),
    )
    .expect("start bench fleet");
    let merged = StreamClient::connect(
        fleet.local_addr(),
        StreamClientConfig {
            rig: Some(RigSelector::All),
            ..StreamClientConfig::default()
        },
    )
    .expect("connect merged subscriber");
    fleet.wait_stats(Duration::from_secs(5), |s| s.active_subscribers == 1);

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock speedup metric: measures real elapsed time of the parallel run, outside the simulated timeline"
    )]
    let start = Instant::now();
    for _ in 0..CAPTURE_TICKS {
        fleet.advance(TICK);
    }
    let published = fleet.stats().frames_published;
    debug_assert_eq!(
        published,
        u64::from(rigs) * CAPTURE_TICKS * FRAMES_PER_TICK,
        "advance is synchronous, so the published count is exact"
    );
    merged.wait_until(Duration::from_secs(30), |c| {
        c.is_evicted() || c.frames_received() + c.dropped_frames() == published
    });
    let stream_wall_s = start.elapsed().as_secs_f64();
    let (received, gap_events, dropped) = (
        merged.frames_received(),
        merged.gap_events(),
        merged.dropped_frames(),
    );
    fleet.shutdown();
    drop(merged);

    let (span_start, span_end) = (SimTime::from_micros(0), SimTime::from_micros(10_000_000));
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock speedup metric: measures real elapsed time of the parallel run, outside the simulated timeline"
    )]
    let start = Instant::now();
    let query = FleetQuery::open(&dir).expect("open fleet shards");
    let energy = query
        .total_energy(span_start, span_end)
        .expect("fleet energy");
    let stats = query
        .fleet_stats(span_start, span_end)
        .expect("fleet stats");
    let query_wall_s = start.elapsed().as_secs_f64();

    // Ground truth for exactness: fold per-shard energies in shard
    // order with independently opened archives.
    let mut shards: Vec<(u16, u32, PathBuf)> = std::fs::read_dir(&dir)
        .expect("list fleet shards")
        .filter_map(|e| {
            let path = e.ok()?.path();
            let (rig, generation) = parse_shard_name(path.file_name()?.to_str()?)?;
            Some((rig, generation, path))
        })
        .collect();
    shards.sort_by_key(|&(rig, generation, _)| (rig, generation));
    let mut folded = 0.0f64;
    for (_, _, path) in shards {
        folded += ps3_archive::Archive::open(&path)
            .expect("reopen shard")
            .energy(span_start, span_end)
            .expect("shard energy")
            .value();
    }

    let _ = std::fs::remove_dir_all(&dir);
    FleetPoint {
        rigs,
        published,
        received,
        gap_events,
        dropped,
        archive_samples: stats.count,
        energy_j: energy.value(),
        energy_exact: energy.value().to_bits() == folded.to_bits(),
        stream_wall_s,
        query_wall_s,
    }
}

/// Formats the report section (deterministic facts only — throughput
/// lives in `BENCH_repro.json`).
#[must_use]
pub fn render(points: &[FleetPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet scaling: {} ms merged capture per point, one subscriber fleet-wide",
        CAPTURE_TICKS * 5
    );
    let _ = writeln!(
        out,
        "  rigs  published  received  gaps  dropped  archive  energy [J]     exact"
    );
    for p in points {
        let _ = writeln!(
            out,
            "  {:>4}  {:>9}  {:>8}  {:>4}  {:>7}  {:>7}  {:>12.6}  {}",
            p.rigs,
            p.published,
            p.received,
            p.gap_events,
            p.dropped,
            p.archive_samples,
            p.energy_j,
            if p.energy_exact { "yes" } else { "NO" }
        );
    }
    let _ = writeln!(
        out,
        "  rigs-vs-throughput curve recorded in BENCH_repro.json (wall-clock)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_points_account_for_every_frame() {
        let points = run(&[1, 3], 0xF1EE7);
        assert_eq!(points.len(), 2);
        for p in &points {
            let expected = u64::from(p.rigs) * CAPTURE_TICKS * FRAMES_PER_TICK;
            assert_eq!(p.published, expected, "rigs={}", p.rigs);
            assert_eq!(p.received + p.dropped, p.published, "rigs={}", p.rigs);
            assert_eq!(p.gap_events, 0, "rigs={}", p.rigs);
            assert_eq!(p.archive_samples, p.published, "rigs={}", p.rigs);
            assert!(p.energy_exact, "rigs={}", p.rigs);
            assert!(p.energy_j > 0.0);
        }
        assert!(points[1].energy_j > points[0].energy_j);
        let text = render(&points);
        assert!(text.contains("yes"), "{text}");
        assert!(!text.contains("NO"), "{text}");
    }
}
