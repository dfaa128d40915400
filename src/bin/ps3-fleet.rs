//! `ps3-fleet` — many simulated PowerSensor3 rigs behind one
//! coordinator endpoint.
//!
//! ```text
//! ps3-fleet serve  [--rigs N] [--bind HOST:PORT] [--data DIR] [--seed N] [--secs N]
//! ps3-fleet status [--connect HOST:PORT]
//! ps3-fleet watch  [--connect HOST:PORT] [--secs N] [--divisor N]
//! ps3-fleet query  [--data DIR] [--start US] [--end US] [--top K] [--divisor N] [--json]
//!
//!   serve    run N rigs (default 4), archive each to DIR (default ./fleet-data),
//!            and serve rig-routed subscriptions on HOST:PORT
//!            (default $PS3_BIND, else 127.0.0.1:9431)
//!   status   print the per-rig roster of a running coordinator
//!   watch    subscribe fleet-wide to the merged stream for N seconds
//!            (default 2, divisor 20) and report the gap accounting
//!   query    cross-rig aggregates over the archive shards in DIR:
//!            fleet-wide energy/power stats, top-K hottest rigs, and a
//!            rig-joined downsample preview
//! ```

use std::process::ExitCode;
use std::time::{Duration, Instant};

use powersensor3::cli::{done_line, flag, flag_value, progress_line};
use powersensor3::fleet::{testbed_rig_factory, Fleet, FleetConfig, FleetQuery};
use powersensor3::stream::{
    bind_error, resolve_bind, RigSelector, StreamClient, StreamClientConfig,
};
use powersensor3::units::{SimDuration, SimTime};

/// Wall-clock pacing granularity for the virtual fleet clock.
const TICK: Duration = Duration::from_millis(50);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    if cmd.is_none() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: ps3-fleet serve  [--rigs N] [--bind HOST:PORT] [--data DIR] [--seed N] [--secs N]\n\
             \x20      ps3-fleet status [--connect HOST:PORT]\n\
             \x20      ps3-fleet watch  [--connect HOST:PORT] [--secs N] [--divisor N]\n\
             \x20      ps3-fleet query  [--data DIR] [--start US] [--end US] [--top K] [--divisor N] [--json]\n\
             the listen address falls back to $PS3_BIND, then 127.0.0.1:9431"
        );
        return ExitCode::SUCCESS;
    }
    let result = match cmd {
        Some("serve") => serve(&args),
        Some("status") => status(&args),
        Some("watch") => watch(&args),
        Some("query") => query(&args),
        Some(other) => {
            eprintln!("unknown subcommand '{other}' (expected serve|status|watch|query)");
            return ExitCode::FAILURE;
        }
        None => unreachable!("handled above"),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ps3-fleet {}: {e}", args[0]);
        ExitCode::FAILURE
    })
}

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let rigs: u16 = flag(args, "--rigs")?.unwrap_or(4);
    let addr = resolve_bind(flag_value(args, "--bind")?, "127.0.0.1:9431");
    let data = flag_value(args, "--data")?.unwrap_or_else(|| "fleet-data".to_owned());
    let seed: u64 = flag(args, "--seed")?.unwrap_or(42);
    let secs: u64 = flag(args, "--secs")?.unwrap_or(0);
    if rigs == 0 {
        eprintln!("--rigs must be at least 1");
        return Ok(ExitCode::FAILURE);
    }

    let mut fleet = match Fleet::start(
        rigs,
        testbed_rig_factory(seed),
        &addr[..],
        FleetConfig::new(&data),
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{}", bind_error(&addr, &e));
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "ps3-fleet: {rigs} rigs, shards under {data}/, listening on {}",
        fleet.local_addr()
    );

    // Pace the virtual fleet clock against wall time (as ps3-streamd
    // does for its single rig).
    let start = Instant::now();
    let mut ticks = 0u64;
    loop {
        if secs > 0 && start.elapsed() >= Duration::from_secs(secs) {
            break;
        }
        fleet.advance(SimDuration::from_nanos(TICK.as_nanos() as u64));
        if let Err(e) = fleet.supervise() {
            eprintln!("rig restart failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
        ticks += 1;
        let target = TICK * u32::try_from(ticks).unwrap_or(u32::MAX);
        if let Some(lag) = target.checked_sub(start.elapsed()) {
            std::thread::sleep(lag);
        }
        if ticks.is_multiple_of(200) {
            println!("{}", progress_line(ticks / 20, &fleet.stats()));
        }
    }
    let s = fleet.stats();
    print_roster(&fleet.status());
    println!("{}", done_line(&s));
    fleet.shutdown();
    Ok(ExitCode::SUCCESS)
}

fn status(args: &[String]) -> Result<ExitCode, String> {
    let addr = flag_value(args, "--connect")?.unwrap_or_else(|| "127.0.0.1:9431".to_owned());
    // Any subscription works for control queries; pick the lightest
    // (one rig, heavily downsampled).
    let config = StreamClientConfig {
        rig: Some(RigSelector::One(0)),
        divisor: 20_000,
        ..StreamClientConfig::default()
    };
    let mut client = match StreamClient::connect(&addr[..], config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot reach coordinator at {addr}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    Ok(match client.query_fleet(Duration::from_secs(5)) {
        Ok(roster) => {
            print_roster(&roster);
            match client.query_stats(Duration::from_secs(5)) {
                Ok(s) => println!(
                    "stream: {} frames published  {} subscribers (peak {})  {} accepted  {} bytes sent  {} gaps  {} evicted ({} gap-budget, {} stalled-write)",
                    s.frames_published,
                    s.active_subscribers,
                    s.active_peak,
                    s.accepted,
                    s.bytes_sent,
                    s.gap_events,
                    s.evicted,
                    s.evicted_gaps,
                    s.evicted_stalled
                ),
                Err(e) => eprintln!("stream stats query failed: {e}"),
            }
            client.close();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleet status query failed: {e}");
            ExitCode::FAILURE
        }
    })
}

fn watch(args: &[String]) -> Result<ExitCode, String> {
    let addr = flag_value(args, "--connect")?.unwrap_or_else(|| "127.0.0.1:9431".to_owned());
    let secs: u64 = flag(args, "--secs")?.unwrap_or(2);
    let divisor: u32 = flag(args, "--divisor")?.unwrap_or(20).max(1);
    let config = StreamClientConfig {
        rig: Some(RigSelector::All),
        divisor,
        ..StreamClientConfig::default()
    };
    let client = match StreamClient::connect(&addr[..], config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot reach coordinator at {addr}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    std::thread::sleep(Duration::from_secs(secs));
    let mut counts = client.rig_counts();
    counts.sort_by_key(|c| c.rig);
    println!(
        "watched {secs} s at divisor {divisor}: frames={} gaps={} dropped={} rigs={}",
        client.frames_received(),
        client.gap_events(),
        client.dropped_frames(),
        counts.len()
    );
    for c in &counts {
        println!(
            "  rig {:>3}: {:>8} frames  {:>3} gaps  {:>6} dropped",
            c.rig, c.frames, c.gap_events, c.dropped
        );
    }
    if client.is_evicted() {
        eprintln!("evicted by the coordinator: {:?}", client.eviction_reason());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn print_roster(roster: &[powersensor3::stream::RigStatus]) {
    println!("rig   state  restarts  shards      frames  gaps  writer-dropped");
    for rig in roster {
        println!(
            "{:>3}   {:<5}  {:>8}  {:>6}  {:>10}  {:>4}  {:>14}",
            rig.id,
            if rig.alive { "up" } else { "down" },
            rig.restarts,
            rig.shards,
            rig.frames_published,
            rig.gap_events,
            rig.writer_dropped
        );
    }
}

fn query(args: &[String]) -> Result<ExitCode, String> {
    let data = flag_value(args, "--data")?.unwrap_or_else(|| "fleet-data".to_owned());
    let start = SimTime::from_micros(flag(args, "--start")?.unwrap_or(0));
    let end = SimTime::from_micros(flag(args, "--end")?.unwrap_or(u64::MAX / 2_000));
    let top: usize = flag(args, "--top")?.unwrap_or(3);
    let divisor: u64 = flag(args, "--divisor")?.unwrap_or(0);
    let json = args.iter().any(|a| a == "--json");

    let fq = match FleetQuery::open(&data) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("cannot open fleet data dir {data}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let (energy, stats, hottest) = match (|| {
        Ok::<_, powersensor3::archive::ArchiveError>((
            fq.total_energy(start, end)?,
            fq.fleet_stats(start, end)?,
            fq.top_k(top, start, end)?,
        ))
    })() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("query failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };

    if json {
        let rigs = fq
            .rigs()
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let tops = hottest
            .iter()
            .map(|r| {
                format!(
                    r#"{{"rig":{},"mean_w":{},"samples":{}}}"#,
                    r.rig,
                    r.mean.value(),
                    r.samples
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        println!(
            r#"{{"shards":{},"rigs":[{rigs}],"energy_j":{},"samples":{},"mean_w":{},"min_w":{},"max_w":{},"top":[{tops}]}}"#,
            fq.shard_count(),
            energy.value(),
            stats.count,
            stats.mean_w().unwrap_or(0.0),
            stats.min_w,
            stats.max_w,
        );
        return Ok(ExitCode::SUCCESS);
    }

    println!(
        "fleet of {} rig(s), {} shard(s) under {data}/",
        fq.rigs().len(),
        fq.shard_count()
    );
    println!(
        "energy {:.6} J over {} samples (mean {:.3} W, min {:.3} W, max {:.3} W)",
        energy.value(),
        stats.count,
        stats.mean_w().unwrap_or(0.0),
        stats.min_w,
        stats.max_w
    );
    println!("top {} rigs by mean power:", hottest.len());
    for r in &hottest {
        println!(
            "  rig {:>3}: {:>9.3} W over {} samples",
            r.rig,
            r.mean.value(),
            r.samples
        );
    }
    if divisor > 0 {
        match fq.joined_downsample(start, end, divisor) {
            Ok(joined) => {
                println!(
                    "joined downsample (divisor {divisor}): {} rows x {} rigs",
                    joined.rows.len(),
                    joined.rigs.len()
                );
                for row in joined.rows.iter().take(5) {
                    let cells = row
                        .power
                        .iter()
                        .map(|p| p.map_or("     -".to_owned(), |w| format!("{:6.2}", w.value())))
                        .collect::<Vec<_>>()
                        .join(" ");
                    println!("  t={:>12} us  {cells}", row.time.as_micros());
                }
            }
            Err(e) => {
                eprintln!("joined downsample failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}
