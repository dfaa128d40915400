//! `query`: a closed loop of archive and tsdb queries on one thread.
//!
//! Setup records one virtual second of the GPU riser (20 000 frames)
//! and writes it through [`SegmentWriter`] once per segment with
//! shifted timestamps and one marker per repetition — about 1e7 frames
//! in 500 segments, with realistic compression at an
//! affordable setup cost — then opens it as a [`Tsdb`]. The timed phase
//! runs a seeded query list in whole passes, over and over: range lengths are
//! log-uniform from 1 ms to the whole span, mixing `Tsdb::{stats,
//! energy, energy_between, downsample}` with `Archive::read_range` on
//! spans of at most 1 s. Every distinct query's answer is then checked
//! against the reference paths.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ps3_analysis::Trace;
use ps3_archive::{Archive, ArchiveFrame, RangeStats, SegmentWriter};
use ps3_duts::{GpuKernel, GpuSpec};
use ps3_testbed::setups;
use ps3_tsdb::{Pyramid, PyramidConfig, Tsdb};
use ps3_units::{SimDuration, SimTime};

use crate::common::{cpu_s, percentile, rss_peak_mb, timed, Args, Report, Rng};

/// Repetitions of the recording the archive holds, one segment each:
/// 1e7 frames, about 8 virtual minutes.
const SEGMENTS: u64 = 500;
/// Frames one repetition of the recording holds: one sealed segment.
const SEGMENT_FRAMES: usize = 20_000;
/// Virtual length of one repetition, µs.
const SEGMENT_US: u64 = 1_000_000;
/// Distinct queries in the seeded list.
const QUERIES: usize = 60;
/// Points a downsample query asks for.
const DOWNSAMPLE_POINTS: u64 = 1000;
/// Longest `read_range` span, µs.
const READ_RANGE_MAX_US: f64 = 1e6;
/// Stats ranges the traced run answers through all three stats paths.
const STATS_PATH_RANGES: usize = QUERIES / 5;

#[derive(Debug, Clone, Copy)]
enum Query {
    Stats(SimTime, SimTime),
    Energy(SimTime, SimTime),
    EnergyBetween(char, char),
    Downsample(SimTime, SimTime, u64),
    ReadRange(SimTime, SimTime),
}

impl Query {
    fn kind(&self) -> usize {
        match self {
            Query::Stats(..) => 0,
            Query::Energy(..) => 1,
            Query::EnergyBetween(..) => 2,
            Query::Downsample(..) => 3,
            Query::ReadRange(..) => 4,
        }
    }
}

#[derive(Debug)]
enum Answer {
    Stats(RangeStats),
    Energy(f64),
    Trace(Trace),
}

/// The marker label written at the start of repetition `r`.
fn label(r: u64) -> char {
    char::from_u32(0x4E00 + r as u32).expect("CJK block labels are valid chars")
}

/// The seeded query list over the archive.
///
/// Each kind gets the same number of queries, and their range lengths
/// sit at the midpoints of equal log-width strata between 1 ms and the
/// kind's longest span. Where a range starts within its segment decides
/// how many segments it touches, so those offsets are stratified the
/// same way. Every seed thus sees the same log-uniform length mix and
/// about the same pass cost; the seed picks the segments ranges start
/// in, pairs lengths with offsets, picks the marker pairs, and orders
/// the list.
fn query_list(seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x0E11_u64);
    let span_us = SEGMENTS * SEGMENT_US;
    let per_kind = QUERIES / 5;
    let strata = |j: usize| (j as f64 + 0.5) / per_kind as f64;
    let length = |j: usize, hi: f64| (1e3 * (hi / 1e3).powf(strata(j))) as u64;
    let mut offsets: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..per_kind).map(strata).collect())
        .collect();
    for kind in &mut offsets {
        shuffle(kind, &mut rng);
    }
    let place = |rng: &mut Rng, len: u64, offset: f64| {
        let last = span_us - len;
        let segment = rng.below(last / SEGMENT_US + 1);
        let start = (segment * SEGMENT_US + (offset * SEGMENT_US as f64) as u64).min(last);
        (
            SimTime::from_micros(start),
            SimTime::from_micros(start + len),
        )
    };
    let mut list = Vec::with_capacity(QUERIES);
    for j in 0..per_kind {
        let (a, b) = place(
            &mut rng,
            length(j, span_us as f64),
            offsets[0].pop().unwrap_or(0.5),
        );
        list.push(Query::Stats(a, b));
        let (a, b) = place(
            &mut rng,
            length(j, span_us as f64),
            offsets[1].pop().unwrap_or(0.5),
        );
        list.push(Query::Energy(a, b));
        let (a, b) = place(
            &mut rng,
            length(j, span_us as f64),
            offsets[2].pop().unwrap_or(0.5),
        );
        let frames = (b.as_micros() - a.as_micros()) / 50;
        list.push(Query::Downsample(a, b, (frames / DOWNSAMPLE_POINTS).max(1)));
        let (a, b) = place(
            &mut rng,
            length(j, READ_RANGE_MAX_US),
            offsets[3].pop().unwrap_or(0.5),
        );
        list.push(Query::ReadRange(a, b));
        let reps = (length(j, span_us as f64) / SEGMENT_US).clamp(1, SEGMENTS - 1);
        let first = rng.below(SEGMENTS - reps);
        list.push(Query::EnergyBetween(label(first), label(first + reps)));
    }
    shuffle(&mut list, &mut rng);
    list
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

fn answer(tsdb: &Tsdb, q: Query) -> Result<Answer, ps3_archive::ArchiveError> {
    Ok(match q {
        Query::Stats(a, b) => Answer::Stats(tsdb.stats(a, b)?),
        Query::Energy(a, b) => Answer::Energy(tsdb.energy(a, b)?.value()),
        Query::EnergyBetween(a, b) => Answer::Energy(tsdb.energy_between(a, b)?.value()),
        Query::Downsample(a, b, d) => Answer::Trace(tsdb.downsample(a, b, d)?),
        Query::ReadRange(a, b) => Answer::Trace(tsdb.archive().read_range(a, b)?),
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Count, min and max bit-exact; sum within 1e-9 relative.
fn stats_agree(a: &RangeStats, b: &RangeStats) -> bool {
    a.count == b.count
        && a.min_w.to_bits() == b.min_w.to_bits()
        && a.max_w.to_bits() == b.max_w.to_bits()
        && close(a.sum_w, b.sum_w)
}

/// Checks one answer against the reference path for its query.
fn agrees(tsdb: &Tsdb, q: Query, got: &Answer) -> bool {
    match (q, got) {
        (Query::Stats(a, b), Answer::Stats(s)) => {
            tsdb.stats_ref(a, b).is_ok_and(|r| stats_agree(s, &r))
        }
        (Query::Energy(a, b), Answer::Energy(e)) => {
            tsdb.energy_ref(a, b).is_ok_and(|r| close(*e, r.value()))
        }
        (Query::EnergyBetween(a, b), Answer::Energy(e)) => tsdb
            .energy_between_ref(a, b)
            .is_ok_and(|r| close(*e, r.value())),
        (Query::Downsample(a, b, d), Answer::Trace(t)) => {
            tsdb.downsample_ref(a, b, d).is_ok_and(|r| {
                r.len() == t.len()
                    && r.markers() == t.markers()
                    && r.iter()
                        .zip(t.iter())
                        .all(|(x, y)| x.time == y.time && close(x.power.value(), y.power.value()))
            })
        }
        (Query::ReadRange(a, b), Answer::Trace(t)) => {
            tsdb.archive().stats_decoded(a, b).is_ok_and(|r| {
                let sum: f64 = t.iter().map(|s| s.power.value()).sum();
                let min = t
                    .iter()
                    .map(|s| s.power.value())
                    .fold(f64::INFINITY, f64::min);
                let max = t
                    .iter()
                    .map(|s| s.power.value())
                    .fold(f64::NEG_INFINITY, f64::max);
                r.count == t.len() as u64
                    && (r.count == 0
                        || (min.to_bits() == r.min_w.to_bits()
                            && max.to_bits() == r.max_w.to_bits()
                            && close(sum, r.sum_w)))
            })
        }
        _ => false,
    }
}

/// Records one virtual second of the GPU riser: one segment's frames.
fn record_capture(seed: u64) -> (Vec<ArchiveFrame>, [ps3_firmware::SensorConfig; 8]) {
    let mut tb = setups::gpu_riser(GpuSpec::rtx4000_ada(), seed);
    let gpu = tb.dut();
    let sensor = tb.connect().expect("connect the GPU testbed");
    let frames: Arc<Mutex<Vec<ArchiveFrame>>> = Arc::default();
    {
        let frames = Arc::clone(&frames);
        sensor.add_frame_sink(move |record| {
            frames.lock().expect("capture lock").push(ArchiveFrame {
                time: record.time,
                raw: record.raw,
                present: record.present,
                marker: None,
            });
            true
        });
    }
    gpu.lock()
        .launch(GpuKernel::synthetic_fma(SimDuration::from_millis(600), 8));
    tb.advance_and_sync(&sensor, SimDuration::from_micros(SEGMENT_US))
        .expect("record the capture");
    let configs = sensor.configs();
    drop(sensor);
    let frames = std::mem::take(&mut *frames.lock().expect("capture lock"));
    (frames, configs)
}

/// Writes [`SEGMENTS`] time-shifted repetitions of `capture`, each
/// opened by its own marker.
fn write_archive(path: &Path, capture: &[ArchiveFrame], configs: [ps3_firmware::SensorConfig; 8]) {
    let mut writer = SegmentWriter::create(path, configs).expect("create the query archive");
    for r in 0..SEGMENTS {
        let shift = SimDuration::from_micros(r * SEGMENT_US);
        for (i, frame) in capture.iter().enumerate() {
            writer
                .push(ArchiveFrame {
                    time: frame.time + shift,
                    marker: (i == 0).then(|| label(r)),
                    ..*frame
                })
                .expect("write the query archive");
        }
    }
    writer.finish().expect("seal the query archive");
}

pub fn run(args: &Args, traced: bool) -> Report {
    let mut report = Report::new();
    let dir = args.dir.join("query");
    std::fs::create_dir_all(&dir).expect("create the query directory");
    let path = dir.join("query.ps3a");
    rayon::configure_global(1);

    let setup = Instant::now();
    let setup_cpu = cpu_s();
    let (capture, configs) = record_capture(args.seed);
    report.check(capture.len() == SEGMENT_FRAMES, || {
        format!("recorded {} of {SEGMENT_FRAMES} frames", capture.len())
    });
    write_archive(&path, &capture, configs);
    let tsdb = Tsdb::open(&path).expect("open the query archive");
    let setup_s = cpu_s() - setup_cpu;
    let setup_wall_s = setup.elapsed().as_secs_f64();
    report.check(
        tsdb.archive().frames() == SEGMENTS * SEGMENT_FRAMES as u64
            && tsdb.archive().segments().len() as u64 == SEGMENTS,
        || format!("archive holds {} frames", tsdb.archive().frames()),
    );

    let queries = query_list(args.seed);
    let mut answers: Vec<Option<Result<Answer, String>>> =
        (0..queries.len()).map(|_| None).collect();
    let mut latency_ms = Vec::new();
    let mut by_kind: [Vec<f64>; 5] = Default::default();
    let measure = Duration::from_secs_f64(args.seconds);
    let cpu_start = cpu_s();
    let start = Instant::now();
    let mut executed = 0usize;
    while !executed.is_multiple_of(queries.len()) || start.elapsed() < measure {
        let i = executed % queries.len();
        let q = queries[i];
        let (result, ns) = timed(|| answer(&tsdb, q));
        latency_ms.push(ns / 1e6);
        by_kind[q.kind()].push(ns / 1e6);
        if answers[i].is_none() {
            answers[i] = Some(result.map_err(|e| e.to_string()));
        }
        executed += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu = cpu_s() - cpu_start;

    // Every distinct query of this process's share that ran is checked
    // once; a wrong answer fails each of its executions.
    rayon::configure_global(2);
    let (share, shares) = args.check;
    let mut failed = 0u64;
    for (i, (q, got)) in queries.iter().zip(&answers).enumerate() {
        let Some(got) = got.as_ref().filter(|_| i % shares == share) else {
            continue;
        };
        let ok = match got {
            Ok(a) => agrees(&tsdb, *q, a),
            Err(_) => false,
        };
        if !report.check(ok, || {
            format!("query {i} {q:?} disagrees with its reference")
        }) {
            failed += ((executed - i).div_ceil(queries.len())) as u64;
        }
    }
    rayon::configure_global(1);
    report.ops(executed as u64, failed);

    report.metric("cpu_us_per_op", cpu * 1e6 / executed as f64, "us");
    report.metric("throughput_per_s", executed as f64 / wall_s, "1/s");
    report.metric("latency_p50_ms", percentile(&mut latency_ms, 0.50), "ms");
    report.metric("latency_p90_ms", percentile(&mut latency_ms, 0.90), "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("setup_wall_s", setup_wall_s, "s");

    if traced {
        let [stats, energy, between, downsample, read_range] = &mut by_kind;
        report.metric("tsdb.stats_us", percentile(stats, 0.5) * 1e3, "us");
        report.metric("tsdb.energy_us", percentile(energy, 0.5) * 1e3, "us");
        report.metric(
            "tsdb.energy_between_us",
            percentile(between, 0.5) * 1e3,
            "us",
        );
        report.metric("tsdb.downsample_ms", percentile(downsample, 0.5), "ms");
        report.metric("archive.read_range_ms", percentile(read_range, 0.5), "ms");
        trace_layers(&mut report, &tsdb, &path, &queries);
    }
    drop(tsdb);
    report.metric("rss_peak_mb", rss_peak_mb(), "MiB");
    report
}

/// Median wall time of `reps` calls, in ms.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, ns) = timed(&mut f);
            std::hint::black_box(out);
            ns / 1e6
        })
        .collect();
    percentile(&mut ms, 0.5)
}

/// Open and rebuild costs, raw segment decode, and the mean time of the
/// three stats paths (archive summary blocks, tsdb pyramid, full
/// decode) over the same ranges.
fn trace_layers(report: &mut Report, tsdb: &Tsdb, path: &Path, queries: &[Query]) {
    report.metric(
        "archive.open_ms",
        median_ms(3, || Archive::open(path).is_ok()),
        "ms",
    );
    report.metric(
        "tsdb.open_ms",
        median_ms(3, || Tsdb::open(path).is_ok()),
        "ms",
    );
    report.metric(
        "tsdb.rebuild_ms",
        median_ms(3, || {
            Pyramid::build(tsdb.archive(), PyramidConfig::default())
        }),
        "ms",
    );

    let archive = tsdb.archive();
    let sample = &archive.segments()[..archive.segments().len().min(25)];
    let (frames, ns) = timed(|| {
        sample
            .iter()
            .map(|meta| archive.decode_segment_frames(meta).map_or(0, |f| f.len()))
            .sum::<usize>()
    });
    report.metric(
        "archive.decode_ns_per_frame",
        ns / frames.max(1) as f64,
        "ns",
    );

    let ranges: Vec<(SimTime, SimTime)> = queries
        .iter()
        .filter_map(|q| match *q {
            Query::Stats(a, b) => Some((a, b)),
            _ => None,
        })
        .take(STATS_PATH_RANGES)
        .collect();
    let mut summary_us = Vec::new();
    let mut pyramid_us = Vec::new();
    let mut decoded_ms = Vec::new();
    for &(a, b) in &ranges {
        let (summary, ns) = timed(|| archive.stats(a, b));
        summary_us.push(ns / 1e3);
        let (pyramid, ns) = timed(|| tsdb.stats(a, b));
        pyramid_us.push(ns / 1e3);
        let (decoded, ns) = timed(|| archive.stats_decoded(a, b));
        decoded_ms.push(ns / 1e6);
        let agree = match (summary, pyramid, decoded) {
            (Ok(s), Ok(p), Ok(d)) => stats_agree(&s, &d) && stats_agree(&p, &d),
            _ => false,
        };
        report.check(agree, || format!("stats paths disagree on {a:?}..{b:?}"));
    }
    // Means, not medians: the long ranges are where the paths differ.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    report.metric("archive.summary_stats_us", mean(&summary_us), "us");
    report.metric("tsdb.pyramid_stats_us", mean(&pyramid_us), "us");
    report.metric("archive.decoded_stats_ms", mean(&decoded_ms), "ms");
}
