//! `fleet`: a closed loop through the fleet coordinator.
//!
//! [`Fleet::start`] brings up 4 rigs from `testbed_rig_factory(seed)`.
//! Two raw subscribers read the coordinator: the merged stream over
//! every rig, and one rig at divisor 20. The benchmark advances the
//! fleet's virtual clock in 5 ms ticks for the timed phase, never more
//! than 4 ticks ahead of the merged subscriber, then lets the merged
//! stream drain. A frame's latency runs from the start of the
//! `Fleet::advance` call that released it to its merged delivery.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ps3_fleet::{parse_shard_name, testbed_rig_factory, Fleet, FleetConfig, FleetQuery};
use ps3_stream::RigSelector;
use ps3_tsdb::Tsdb;
use ps3_units::{SimDuration, SimTime};

use crate::common::{
    await_subscribers, cpu_s, ns_since, percentile, read_until_done, rss_peak_mb, timed, Args,
    Report, Subscriber, Tally,
};

const RIGS: u16 = 4;
/// Virtual tick, µs.
const TICK_US: u64 = 5_000;
/// Frames one rig publishes per tick at 20 kHz.
const FRAMES_PER_TICK: u64 = 100;
/// Ticks the generator may run ahead of the merged subscriber.
const WINDOW_TICKS: u64 = 4;
/// Divisor of the single-rig subscriber.
const SLOW_DIVISOR: u64 = 20;

pub fn run(args: &Args, traced: bool) -> Report {
    let mut report = Report::new();
    let dir = args.dir.join("fleet");

    let setup = Instant::now();
    let setup_cpu = cpu_s();
    let mut fleet = Fleet::start(
        RIGS,
        testbed_rig_factory(args.seed),
        "127.0.0.1:0",
        FleetConfig::new(&dir),
    )
    .expect("start the fleet");
    let epoch = Instant::now();
    let rig = (args.seed % u64::from(RIGS)) as u16;
    let mut subs = vec![
        Subscriber::connect(fleet.local_addr(), 0x0F, 1, Some(RigSelector::All))
            .expect("connect the merged subscriber"),
        Subscriber::connect(
            fleet.local_addr(),
            0x0F,
            SLOW_DIVISOR as u32,
            Some(RigSelector::One(rig)),
        )
        .expect("connect the single-rig subscriber"),
    ];
    let registered = await_subscribers(&mut subs, epoch, || fleet.stats().active_subscribers);
    report.check(registered, || "subscribers did not register".into());
    let setup_s = cpu_s() - setup_cpu;
    let setup_wall_s = setup.elapsed().as_secs_f64();

    let per_tick = FRAMES_PER_TICK * u64::from(RIGS);
    let tally = Tally::new(subs.len());
    let mut tick_start: Vec<u64> = Vec::new();
    let mut advance_ms: Vec<f64> = Vec::new();
    let mut last_advance_end = 0;
    let measure = Duration::from_secs_f64(args.seconds);
    let cpu_start = cpu_s();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let deadline = Instant::now() + measure + Duration::from_secs(30);
            read_until_done(&mut subs, &tally, epoch, deadline);
        });
        let start = Instant::now();
        while start.elapsed() < measure {
            let behind = tick_start.len() as u64 * per_tick;
            let floor = behind.saturating_sub(WINDOW_TICKS * per_tick);
            if !tally.wait_for(0, floor, Duration::from_secs(10)) {
                report.check(false, || "the merged subscriber stalled".into());
                break;
            }
            tick_start.push(ns_since(epoch));
            let ((), ns) = timed(|| fleet.advance(SimDuration::from_micros(TICK_US)));
            advance_ms.push(ns / 1e6);
        }
        last_advance_end = ns_since(epoch);
        let ticks = tick_start.len() as u64;
        tally.finish_at(vec![
            ticks * per_tick,
            ticks * FRAMES_PER_TICK / SLOW_DIVISOR,
        ]);
        reader.join().expect("reader thread");
    });

    let cpu = cpu_s() - cpu_start;
    let ticks = tick_start.len() as u64;
    let expected = [ticks * per_tick, ticks * FRAMES_PER_TICK / SLOW_DIVISOR];
    let stats = fleet.stats();
    report.check(stats.frames_published == expected[0], || {
        format!(
            "fleet published {} of {} frames",
            stats.frames_published, expected[0]
        )
    });
    report.check(stats.gap_events == 0 && stats.evicted == 0, || {
        format!(
            "coordinator counted {} gaps, {} evictions",
            stats.gap_events, stats.evicted
        )
    });
    for status in fleet.status() {
        report.check(
            status.alive
                && status.restarts == 0
                && status.writer_dropped == 0
                && status.frames_published == ticks * FRAMES_PER_TICK,
            || format!("rig status {status:?}"),
        );
    }
    let mut missing = 0;
    for (sub, &want) in subs.iter().zip(&expected) {
        missing += want.saturating_sub(sub.frames);
        report.check(sub.frames == want, || {
            format!("a subscriber received {} of {want} frames", sub.frames)
        });
        report.check(sub.gap_events == 0 && !sub.evicted && !sub.broken, || {
            format!(
                "a subscriber saw {} gaps (evicted {}, broken {})",
                sub.gap_events, sub.evicted, sub.broken
            )
        });
    }
    report.ops(expected.iter().sum(), missing);

    let first = tick_start.first().copied().unwrap_or(0);
    let done = subs[0].arrivals().last().map_or(first, |(_, recv)| recv);
    let mut ages_ms: Vec<f64> = subs[0]
        .arrivals()
        .filter_map(|(t, recv)| {
            let release = *tick_start.get((t / TICK_US) as usize)?;
            Some(recv.saturating_sub(release) as f64 / 1e6)
        })
        .collect();
    report.check(ages_ms.len() as u64 == subs[0].frames, || {
        "a merged frame lies outside every tick".into()
    });
    let wall_s = done.saturating_sub(first) as f64 / 1e9;
    report.metric("cpu_us_per_op", cpu * 1e6 / subs[0].frames as f64, "us");
    report.metric("throughput_per_s", subs[0].frames as f64 / wall_s, "1/s");
    report.metric("latency_p50_ms", percentile(&mut ages_ms, 0.50), "ms");
    report.metric("latency_p90_ms", percentile(&mut ages_ms, 0.90), "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("setup_wall_s", setup_wall_s, "s");
    if traced {
        report.metric(
            "fleet.advance_ms_per_tick",
            percentile(&mut advance_ms, 0.5),
            "ms",
        );
        let drain_ms = done.saturating_sub(last_advance_end) as f64 / 1e6;
        report.metric("fleet.drain_ms", drain_ms, "ms");
    }

    drop(subs);
    fleet.shutdown();
    check_energy(&mut report, &dir, ticks * TICK_US, expected[0]);
    drop(fleet);
    report.metric("rss_peak_mb", rss_peak_mb(), "MiB");
    report
}

/// Fleet energy must equal the fold of independently opened per-shard
/// energies bit for bit (and the archive summary path to 1e-9), and the
/// shards must hold every published frame.
fn check_energy(report: &mut Report, dir: &Path, span_us: u64, published: u64) {
    let (start, end) = (SimTime::ZERO, SimTime::from_micros(span_us + 1));
    let query = FleetQuery::open(dir).expect("open the fleet shards");
    let energy = query
        .total_energy(start, end)
        .expect("fleet energy")
        .value();
    let samples = query.fleet_stats(start, end).expect("fleet stats").count;
    let mut shards: Vec<(u16, u32, PathBuf)> = std::fs::read_dir(dir)
        .expect("list the fleet shards")
        .filter_map(|e| {
            let path = e.ok()?.path();
            let (rig, generation) = parse_shard_name(path.file_name()?.to_str()?)?;
            Some((rig, generation, path))
        })
        .collect();
    shards.sort_by_key(|&(rig, generation, _)| (rig, generation));
    let (mut folded, mut summary) = (0.0f64, 0.0f64);
    for (_, _, path) in &shards {
        let shard = Tsdb::open(path).expect("open a fleet shard");
        folded += shard.energy(start, end).expect("shard energy").value();
        summary += shard
            .archive()
            .energy(start, end)
            .expect("shard energy")
            .value();
    }
    report.check(energy.to_bits() == folded.to_bits(), || {
        format!("fleet energy {energy} != per-shard fold {folded}")
    });
    report.check((energy - summary).abs() <= 1e-9 * summary.abs(), || {
        format!("fleet energy {energy} != archive summary fold {summary}")
    });
    report.check(samples == published, || {
        format!("shards hold {samples} of {published} frames")
    });
}
