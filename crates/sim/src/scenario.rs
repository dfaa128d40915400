//! End-to-end scenarios: each wires a slice of the real stack —
//! emulated device, fault injector, host reader, stream daemon with
//! subscribers, archive writer — runs it under a [`SimPlan`], quiesces,
//! and checks the invariant catalogue.
//!
//! The streaming scenarios (pipeline, device-crash, tcp-faults, c10k)
//! each drive one [`Rig`]: connect, settle, and (all but c10k) capture.
//! The other shared steps are written once here: the archive
//! finish-and-verify step (pipeline, device-crash), the post-shutdown
//! `evict-reason` check (pipeline, tcp-faults, fleet) and the seeded
//! random frames (archive-crash, tsdb).
//!
//! Every fact a scenario reports (and folds into its fingerprint) is a
//! pure function of `(seed, plan, sabotage)`. Wall-clock-dependent
//! quantities (client counters mid-flight, queue depths) feed
//! *inequalities* or bounded-convergence checks only.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ps3_analysis::Trace;
use ps3_archive::{
    frame_total, index_path_for, Archive, ArchiveError, ArchiveFrame, ArchiveWriter,
    ArchiveWriterOptions, SegmentWriter, WriterStats,
};
use ps3_core::PowerSensorError;
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_fleet::{
    parse_shard_name, testbed_rig_factory, Fleet, FleetConfig, FleetQuery, RigFactory,
};
use ps3_stream::{RigSelector, StreamClient, StreamClientConfig, StreamDaemon, StreamDaemonConfig};
use ps3_transport::TransportError;
use ps3_tsdb::{
    compact_archive, compact_tmp_path_for, pyramid_path_for, stage_compacted, CompactOptions,
    PyramidConfig, Retention, Tsdb, TsdbWriter, TsdbWriterOptions,
};
use ps3_units::{SimDuration, SimTime};

use crate::inject::FaultProxy;
use crate::invariant::{Checker, Fingerprint, Violation};
use crate::plan::{splitmix64, FaultKind, PlanOptions, SimPlan};
use crate::world::{sim_eeprom, Rig};

/// Every scenario the harness knows, in sweep order.
pub const SCENARIOS: [&str; 8] = [
    "pipeline",
    "device-crash",
    "tcp-faults",
    "archive-crash",
    "tsdb",
    "fleet",
    "c10k",
    "probes",
];

/// Virtual time the streaming scenarios run for: 250 ms at 20 kHz is
/// 5000 frames — past every generated plan's fault horizon, and small
/// enough that the broadcast ring (8192 slots) can never lap a
/// subscriber, which is what makes the client counters deterministic.
const STREAM_MS: u64 = 250;

/// Frames the archive-crash scenario writes before damaging the file.
const ARCHIVE_FRAMES: u64 = 600;

/// Keep-up subscribers in the c10k scenario (the full-scale sweep
/// lives in the bench `stream` experiment; here the point is the
/// invariants, so the count stays test-suite friendly).
const C10K_SUBS: usize = 96;
/// Block-averaging divisors cycled across the c10k subscribers. Every
/// entry divides the published frame count exactly, so each keep-up
/// subscriber's delivery count is a closed-form fact.
const C10K_DIVISORS: [u32; 4] = [1, 2, 4, 8];
/// Virtual time the c10k scenario streams: 1 s at 20 kHz.
const C10K_MS: u64 = 1000;
/// Frames the c10k scenario publishes.
const C10K_FRAMES: u64 = C10K_MS * 20;

/// Seed mix for the device-crash time ("DEVCRASH").
const CRASH_SALT: u64 = 0x4445_5643_5241_5348;
/// Seed mix for the archive-crash payload ("ARCHIVE_").
const ARCHIVE_SALT: u64 = 0x4152_4348_4956_455F;
/// Seed mix for the fleet crash point ("FLEETSIM").
const FLEET_SALT: u64 = 0x464C_4545_5453_494D;
/// Seed mix for the tsdb scenario payload ("TSDBQRY_").
const TSDB_SALT: u64 = 0x5453_4442_5152_595F;

/// Frames the tsdb scenario captures: several summary blocks across
/// many small segments, so compaction has segments to merge and the
/// pyramid has more than one tier in play.
const TSDB_FRAMES: u64 = 6000;
/// Frames per sealed segment in the tsdb scenario.
const TSDB_SEGMENT_FRAMES: usize = 400;
/// Sealed segments that trigger a background compaction.
const TSDB_COMPACT_AFTER: usize = 6;
/// Frames per merged segment after compaction.
const TSDB_COMPACT_TARGET: usize = 2400;

/// Rigs in the fleet scenario — enough fan-in to make the k-way merge
/// earn its keep.
const FLEET_RIGS: u16 = 32;
/// Virtual-time ticks the fleet scenario advances, 5 ms each: 100 ms
/// total is 2000 frames per healthy rig, well under the 8192-slot
/// broadcast ring, so zero gaps is a hard requirement, not a hope.
const FLEET_TICKS: u64 = 20;
/// Frames one rig publishes per 5 ms tick at 20 kHz.
const FLEET_FRAMES_PER_TICK: u64 = 100;

/// A deliberately planted defect, used to prove the harness catches
/// real violations (and that shrinking converges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// No planted defect.
    #[default]
    None,
    /// The archive sink silently skips every 5th frame without
    /// counting it — `archive-matches-live` must fire.
    UncountedDrop,
    /// The last byte of the finished archive is flipped, as if the
    /// final seal never hit disk — `archive-seal` must fire.
    UnsealedTail,
}

impl Sabotage {
    /// Every mode, in the order the CLI lists them.
    pub const ALL: [Sabotage; 3] = [
        Sabotage::None,
        Sabotage::UncountedDrop,
        Sabotage::UnsealedTail,
    ];

    /// Every mode's [`Sabotage::name`], comma-separated.
    #[must_use]
    pub fn names() -> String {
        Self::ALL.map(Sabotage::name).join(", ")
    }

    /// Stable name for artifacts and the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Sabotage::None => "none",
            Sabotage::UncountedDrop => "uncounted-drop",
            Sabotage::UnsealedTail => "unsealed-tail",
        }
    }

    /// Parses [`Sabotage::name`] output.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|mode| mode.name() == text)
    }
}

/// Everything one scenario run produced.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Which scenario ran.
    pub scenario: &'static str,
    /// Seed the run derives from.
    pub seed: u64,
    /// The fault plan that was applied.
    pub plan: SimPlan,
    /// Frames the host decoded (0 where not applicable).
    pub frames: u64,
    /// Digest over every deterministic fact; equal across replays of
    /// the same `(seed, plan, sabotage)`.
    pub fingerprint: u64,
    /// Deterministic facts, for artifacts and the bench report.
    pub facts: Vec<(String, String)>,
    /// Invariant violations (empty on a healthy stack).
    pub violations: Vec<Violation>,
}

/// Plan-generation knobs appropriate for `scenario`.
#[must_use]
pub fn default_options(scenario: &str) -> PlanOptions {
    match scenario {
        // The device crash is the scenario's crash; a link crash on
        // top would mask the frame-count law.
        "device-crash" => PlanOptions {
            allow_crash: false,
            ..PlanOptions::default()
        },
        // Offsets are taken modulo the file length, so the whole file
        // is in scope and the guard is meaningless.
        "archive-crash" => PlanOptions {
            guard: 0,
            horizon: 1 << 20,
            max_events: 4,
            allow_crash: true,
        },
        // Same regime: the plan's first event picks where the
        // in-flight compaction's staging write tears.
        "tsdb" => PlanOptions {
            guard: 0,
            horizon: 1 << 20,
            max_events: 4,
            allow_crash: true,
        },
        // No proxy in the loop: the scenario is about the event loop
        // multiplexing many healthy subscribers, so fault plans would
        // only add noise. The plan still seeds the fingerprint.
        "c10k" => PlanOptions {
            max_events: 0,
            allow_crash: false,
            ..PlanOptions::default()
        },
        // Offsets index the scenario's poll schedule (taken modulo the
        // poll count), so the byte guard is meaningless; a crash maps
        // to one probe going silent, which the invariants tolerate.
        "probes" => PlanOptions {
            guard: 0,
            horizon: 1 << 14,
            max_events: 4,
            allow_crash: true,
        },
        _ => PlanOptions::default(),
    }
}

/// Runs one scenario.
///
/// # Errors
///
/// An unknown scenario name.
pub fn run(
    scenario: &str,
    seed: u64,
    plan: &SimPlan,
    sabotage: Sabotage,
) -> Result<ScenarioReport, String> {
    match scenario {
        "pipeline" => Ok(run_pipeline(seed, plan, sabotage)),
        "device-crash" => Ok(run_device_crash(seed, plan)),
        "tcp-faults" => Ok(run_tcp_faults(seed, plan)),
        "archive-crash" => Ok(run_archive_crash(seed, plan)),
        "tsdb" => Ok(run_tsdb(seed, plan)),
        "fleet" => Ok(run_fleet(seed, plan)),
        "c10k" => Ok(run_c10k(seed, plan)),
        "probes" => Ok(crate::probes::run_probes(seed, plan)),
        other => Err(format!(
            "unknown scenario '{other}' (known: {})",
            SCENARIOS.join(", ")
        )),
    }
}

/// Virtual time at which the device-crash scenario's board dies
/// (5–35 ms, seed-derived).
#[must_use]
pub fn crash_time_us(seed: u64) -> u64 {
    let mut rng = seed ^ CRASH_SALT;
    5_000 + splitmix64(&mut rng) % 30_000
}

fn scratch_path(tag: &str, seed: u64) -> PathBuf {
    scratch_dir(tag, seed).with_extension("ps3a")
}

fn scratch_dir(tag: &str, seed: u64) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("ps3-sim-{}-{tag}-{seed}-{n}", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(index_path_for(path));
    let _ = std::fs::remove_file(pyramid_path_for(path));
    let _ = std::fs::remove_file(compact_tmp_path_for(path));
}

/// Waits up to `timeout` for `client` to account for all `published`
/// frames or be evicted. Unless it was evicted, checks its gap
/// accounting and returns `true`.
fn check_drained(
    checker: &mut Checker,
    client: &StreamClient,
    published: u64,
    timeout: Duration,
) -> bool {
    client.wait_until(timeout, |c| {
        c.is_evicted() || c.frames_received() + c.dropped_frames() == published
    });
    if client.is_evicted() {
        return false;
    }
    checker.check_gap_accounting(published, client.frames_received(), client.dropped_frames());
    true
}

/// `evict-reason` once the server has shut down: waits up to 5 s for
/// each named client to die, then requires an evicted client to carry
/// its reason and, with `must_die`, every client to have died.
fn check_evict_reasons<'a>(
    checker: &mut Checker,
    clients: impl IntoIterator<Item = (&'a str, &'a StreamClient)>,
    must_die: bool,
) {
    for (name, client) in clients {
        let dead = client.wait_until(Duration::from_secs(5), |c| !c.is_alive());
        if must_die {
            checker.expect("evict-reason", dead, || {
                format!("{name} client still alive after daemon shutdown")
            });
        }
        checker.expect(
            "evict-reason",
            !client.is_evicted() || client.eviction_reason().is_some(),
            || format!("{name} client evicted without a reason"),
        );
    }
}

/// Finishes a live capture's archive and checks it against the
/// capture's `trace`: no queue drops (`archive-accounting`), every
/// segment sealed and the archive equal to the trace. `sabotage` may
/// damage the file between finish and reopen. Returns the writer's
/// totals when it finished.
fn finish_archive(
    checker: &mut Checker,
    writer: ArchiveWriter,
    path: &Path,
    trace: &Trace,
    sabotage: Sabotage,
) -> Option<WriterStats> {
    // The queue (65536) dwarfs either run (at most 5000 frames): any
    // drop here is an accounting bug, not backpressure.
    let dropped = writer.dropped();
    checker.expect("archive-accounting", dropped == 0, || {
        format!("archive writer dropped {dropped} frames with an oversized queue")
    });
    let stats = match writer.finish() {
        Ok(stats) => Some(stats),
        Err(e) => {
            checker.expect("archive-accounting", false, || {
                format!("archive writer failed: {e:?}")
            });
            None
        }
    };
    if sabotage == Sabotage::UnsealedTail {
        // Never empty: the writer wrote the file header at spawn.
        let len = std::fs::metadata(path).expect("stat archive").len();
        flip_byte(path, len - 1, 0);
    }
    match Archive::open(path) {
        Ok(archive) => {
            checker.check_archive_sealed(&archive);
            checker.check_archive_matches(&archive, trace, dropped);
        }
        Err(e) => checker.expect("archive-seal", false, || {
            format!("finished archive failed to reopen: {e:?}")
        }),
    }
    stats
}

/// The report of a run whose handshake the plan killed: a legal,
/// replayable outcome, not a violation.
fn connect_failed(
    scenario: &'static str,
    seed: u64,
    plan: &SimPlan,
    error: &PowerSensorError,
) -> ScenarioReport {
    let facts = vec![("connect_error".into(), format!("{error:?}"))];
    finish_report(scenario, seed, plan, 0, facts, Checker::new())
}

pub(crate) fn finish_report(
    scenario: &'static str,
    seed: u64,
    plan: &SimPlan,
    frames: u64,
    facts: Vec<(String, String)>,
    checker: Checker,
) -> ScenarioReport {
    let mut fp = Fingerprint::new();
    fp.update(scenario.as_bytes());
    fp.update_u64(seed);
    fp.update(plan.to_compact().as_bytes());
    fp.update_u64(frames);
    for (k, v) in &facts {
        fp.update(k.as_bytes());
        fp.update(v.as_bytes());
    }
    ScenarioReport {
        scenario,
        seed,
        plan: plan.clone(),
        frames,
        fingerprint: fp.finish(),
        facts,
        violations: checker.into_violations(),
    }
}

/// The full stack: device → faulted serial → `PowerSensor` (trace +
/// energy) → archive writer and stream daemon → two TCP subscribers
/// (native rate and divisor 4).
fn run_pipeline(seed: u64, plan: &SimPlan, sabotage: Sabotage) -> ScenarioReport {
    let mut checker = Checker::new();
    let mut facts: Vec<(String, String)> = Vec::new();
    let path = scratch_path("pipeline", seed);

    let rig = match Rig::connect(seed, None, plan) {
        Ok(rig) => rig,
        Err(e) => return connect_failed("pipeline", seed, plan, &e),
    };
    let ps = &rig.ps;

    let writer = ArchiveWriter::spawn(&path, ps.configs(), ArchiveWriterOptions::default())
        .expect("create sim archive");
    if sabotage == Sabotage::UncountedDrop {
        let mut inner = writer.sink();
        let mut count = 0u64;
        let mut kept = Vec::new();
        ps.add_chunk_sink(move |frames| {
            kept.clear();
            for record in frames {
                count += 1;
                // Swallow every fifth frame without telling anyone.
                if !count.is_multiple_of(5) {
                    kept.push(*record);
                }
            }
            inner(&kept)
        });
    } else {
        writer.attach(ps);
    }

    let mut daemon = StreamDaemon::start(ps.clone(), "127.0.0.1:0", StreamDaemonConfig::default())
        .expect("start sim stream daemon");
    let c1 = StreamClient::connect(daemon.local_addr(), StreamClientConfig::default())
        .expect("connect div-1 client");
    let c4 = StreamClient::connect(
        daemon.local_addr(),
        StreamClientConfig {
            pair_mask: 0x0F,
            divisor: 4,
            ..StreamClientConfig::default()
        },
    )
    .expect("connect div-4 client");
    // A subscriber counts as up only once its ring cursor is pinned;
    // the device is still parked, so both cursors pin at head 0 and no
    // frame can slip past an unpinned subscriber.
    let subscribed = daemon.wait_stats(Duration::from_secs(5), |s| s.active_subscribers == 2);
    checker.expect("harness-quiesce", subscribed, || {
        "subscribers failed to register within 5 s".into()
    });

    rig.settle(&mut checker, "pipeline", STREAM_MS);
    // Every sink attached while the device was parked, so the trace,
    // the daemon and the archive all saw every decoded frame.
    let capture = rig.capture(&mut checker);
    let frames = capture.frames;
    let published = daemon.stats().frames_published;
    checker.expect("gap-accounting", published == frames, || {
        format!("daemon published {published} of {frames} decoded frames")
    });

    // The ring never laps (5000 frames < 8192 slots), so both clients
    // converge on exact counts; give them bounded wall time to drain.
    check_drained(&mut checker, &c1, published, Duration::from_secs(10));
    c4.wait_until(Duration::from_secs(10), |c| {
        c.is_evicted() || c.frames_received() == published / 4
    });
    if !c4.is_evicted() {
        checker.check_divided_bounds(published, c4.frames_received(), c4.dropped_frames(), 4);
    }

    daemon.shutdown();
    check_evict_reasons(&mut checker, [("div1", &c1), ("div4", &c4)], true);

    if let Some(stats) = finish_archive(&mut checker, writer, &path, &capture.trace, sabotage) {
        facts.push(("archive_frames".into(), stats.frames.to_string()));
        facts.push(("archive_segments".into(), stats.segments.to_string()));
    }

    facts.push(("published".into(), published.to_string()));
    facts.push(capture.energy_bits);
    facts.push((
        "faults_applied".into(),
        rig.tap.faults_applied().to_string(),
    ));
    facts.push(capture.trace_fp);

    drop(daemon);
    drop(rig);
    cleanup(&path);
    finish_report("pipeline", seed, plan, frames, facts, checker)
}

/// The board dies mid-capture: the host must notice (dead link,
/// `Disconnected`), keep exactly the pre-crash frames, and the archive
/// must close cleanly over the truncated capture.
fn run_device_crash(seed: u64, plan: &SimPlan) -> ScenarioReport {
    let mut checker = Checker::new();
    let mut facts: Vec<(String, String)> = Vec::new();
    let path = scratch_path("crash", seed);
    let crash_us = crash_time_us(seed);

    let rig = match Rig::connect(seed, Some(SimTime::from_micros(crash_us)), plan) {
        Ok(rig) => rig,
        Err(e) => return connect_failed("device-crash", seed, plan, &e),
    };
    let ps = &rig.ps;
    let writer = ArchiveWriter::spawn(&path, ps.configs(), ArchiveWriterOptions::default())
        .expect("create sim archive");
    writer.attach(ps);

    // Advance well past the crash time; the device dies on the way.
    rig.settle(&mut checker, "device-crash", 40);
    // No frame count is ever reached: the wait ends when the reader
    // exits on the dead link.
    let noticed =
        ps.wait_for_frames(u64::MAX, Duration::from_secs(5)) == Err(PowerSensorError::Shutdown);
    checker.expect("crash-detected", noticed, || {
        "host reader still alive after the board crashed".into()
    });
    checker.expect(
        "crash-detected",
        matches!(ps.link_error(), Some(TransportError::Disconnected)),
        || {
            format!(
                "expected a Disconnected link error, got {:?}",
                ps.link_error()
            )
        },
    );

    let capture = rig.capture(&mut checker);
    let frames = capture.frames;
    if plan.is_empty() {
        // 50 µs frames from clock zero, batches overshoot the crash by
        // less than one frame: the count is exact.
        let expected = crash_us.div_ceil(50);
        checker.expect("crash-frame-count", frames == expected, || {
            format!("crash at {crash_us} µs: decoded {frames} frames, expected {expected}")
        });
    }

    finish_archive(&mut checker, writer, &path, &capture.trace, Sabotage::None);

    facts.push(("crash_us".into(), crash_us.to_string()));
    facts.push(capture.energy_bits);
    facts.push(capture.trace_fp);

    drop(rig);
    cleanup(&path);
    finish_report("device-crash", seed, plan, frames, facts, checker)
}

/// Clean acquisition, hostile network: one subscriber connects
/// directly, a second through a TCP proxy that applies the plan to the
/// daemon→client bytes. Faults past the proxy must never corrupt the
/// daemon-side facts.
fn run_tcp_faults(seed: u64, plan: &SimPlan) -> ScenarioReport {
    let mut checker = Checker::new();
    let mut facts: Vec<(String, String)> = Vec::new();

    // Clean USB: the injector carries an empty plan.
    let rig = Rig::connect(seed, None, &SimPlan::empty()).expect("connect over clean serial");

    let mut daemon =
        StreamDaemon::start(rig.ps.clone(), "127.0.0.1:0", StreamDaemonConfig::default())
            .expect("start sim stream daemon");
    let direct = StreamClient::connect(daemon.local_addr(), StreamClientConfig::default())
        .expect("connect direct client");
    let proxy = FaultProxy::start(daemon.local_addr(), plan).expect("start fault proxy");
    let faulted = StreamClient::connect(proxy.addr(), StreamClientConfig::default())
        .expect("connect faulted client");

    // Both cursors are pinned at head 0 once both subscribers are up.
    let subscribed = daemon.wait_stats(Duration::from_secs(5), |s| s.active_subscribers == 2);
    checker.expect("harness-quiesce", subscribed, || {
        "subscribers failed to register within 5 s".into()
    });

    rig.settle(&mut checker, "tcp-faults", STREAM_MS);
    // The serial link is clean here, so the capture's timestamps are
    // strictly monotonic no matter what the TCP plan does.
    let capture = rig.capture(&mut checker);
    let frames = capture.frames;
    let published = daemon.stats().frames_published;
    checker.expect("gap-accounting", published == frames, || {
        format!("daemon published {published} of {frames} frames decoded on a clean link")
    });

    check_drained(&mut checker, &direct, published, Duration::from_secs(10));
    // The faulted client's exact counts depend on what the plan did to
    // its bytes; only scheduling-independent claims are checked.
    if plan.crashes() {
        let died = faulted.wait_until(Duration::from_secs(10), |c| !c.is_alive());
        checker.expect("gap-accounting", died, || {
            "faulted client survived a severed proxy".into()
        });
    } else if !plan.mutates_bytes() {
        // Stalls and short reads only delay bytes; the client still
        // converges on full accounting.
        check_drained(&mut checker, &faulted, published, Duration::from_secs(10));
    }

    daemon.shutdown();
    check_evict_reasons(
        &mut checker,
        [("direct", &direct), ("faulted", &faulted)],
        false,
    );

    facts.push(("published".into(), published.to_string()));
    facts.push(capture.energy_bits);
    facts.push(capture.trace_fp);

    drop(daemon);
    drop(rig);
    finish_report("tcp-faults", seed, plan, frames, facts, checker)
}

/// One event-loop thread, many subscribers: 96 keep-up clients at
/// mixed downsampling rates plus one that subscribes and never reads a
/// byte, all multiplexed by the daemon's single readiness loop. The
/// ring is sized so it can never lap a subscriber, which turns the
/// facts into closed forms: every keep-up client receives exactly
/// `published / divisor` frames with zero drops, and the stalled
/// client is evicted for `StalledWrite` — never for gaps.
fn run_c10k(seed: u64, plan: &SimPlan) -> ScenarioReport {
    let mut checker = Checker::new();
    let mut facts: Vec<(String, String)> = Vec::new();

    // Clean USB: the injector carries an empty plan.
    let rig = Rig::connect(seed, None, &SimPlan::empty()).expect("connect over clean serial");

    let daemon = StreamDaemon::start(
        rig.ps.clone(),
        "127.0.0.1:0",
        StreamDaemonConfig {
            // Never laps a C10K_FRAMES capture: keep-up clients are
            // guaranteed gap-free no matter how the burst is paced.
            ring_capacity: 32768,
            // Small bound so the stalled subscriber's kernel + queue
            // budget is well under the capture size and the stall
            // detector provably fires.
            send_buffer_bytes: 32 * 1024,
            ..StreamDaemonConfig::default()
        },
    )
    .expect("start sim stream daemon");
    let addr = daemon.local_addr();

    let clients: Vec<StreamClient> = (0..C10K_SUBS)
        .map(|i| {
            StreamClient::connect(
                addr,
                StreamClientConfig {
                    divisor: C10K_DIVISORS[i % C10K_DIVISORS.len()],
                    ..StreamClientConfig::default()
                },
            )
            .expect("connect keep-up client")
        })
        .collect();
    let mut stalled = std::net::TcpStream::connect(addr).expect("connect stalled client");
    stalled
        .write_all(
            &ps3_stream::ClientMsg::Subscribe {
                pair_mask: 0x0F,
                divisor: 1,
                rig: None,
            }
            .encode(),
        )
        .expect("subscribe stalled client");

    let expected_subs = C10K_SUBS as u64 + 1;
    let subscribed = daemon.wait_stats(Duration::from_secs(10), |s| {
        s.active_subscribers == expected_subs
    });
    checker.expect("harness-quiesce", subscribed, || {
        format!("{expected_subs} subscribers failed to register within 10 s")
    });

    rig.settle(&mut checker, "c10k", C10K_MS);

    let published = daemon.stats().frames_published;
    checker.expect("gap-accounting", published == C10K_FRAMES, || {
        format!("published {published} frames, expected {C10K_FRAMES}")
    });

    // Every keep-up client converges on its closed-form delivery count
    // with zero gaps — the ring never wrapped, so a single dropped
    // frame anywhere is an accounting bug, not scheduling noise.
    let mut received_total = 0u64;
    for (i, client) in clients.iter().enumerate() {
        let want = published / u64::from(C10K_DIVISORS[i % C10K_DIVISORS.len()]);
        client.wait_until(Duration::from_secs(30), |c| {
            c.is_evicted() || c.frames_received() >= want
        });
        checker.expect("gap-accounting", !client.is_evicted(), || {
            format!(
                "keep-up client {i} was evicted: {:?}",
                client.eviction_reason()
            )
        });
        checker.expect(
            "gap-accounting",
            client.frames_received() == want && client.dropped_frames() == 0,
            || {
                format!(
                    "client {i} (divisor {}) received {} frames / {} dropped, expected {want} / 0",
                    C10K_DIVISORS[i % C10K_DIVISORS.len()],
                    client.frames_received(),
                    client.dropped_frames()
                )
            },
        );
        received_total += client.frames_received();
    }

    // The stalled subscriber blocks until the write timeout, then is
    // evicted — and for the stall, never for gaps (nothing lapped).
    let evicted = daemon.wait_stats(Duration::from_secs(20), |s| s.evicted == 1);
    let stats = daemon.stats();
    checker.expect("evict-reason", evicted, || {
        format!(
            "stalled subscriber not evicted within 20 s (evicted={})",
            stats.evicted
        )
    });
    checker.expect(
        "evict-reason",
        stats.evicted_stalled == 1 && stats.evicted_gaps == 0,
        || {
            format!(
                "eviction misattributed: stalled={} gaps={}, expected 1 / 0",
                stats.evicted_stalled, stats.evicted_gaps
            )
        },
    );
    checker.expect(
        "gap-accounting",
        stats.accepted == expected_subs && stats.active_peak == expected_subs,
        || {
            format!(
                "lifetime counters accepted={} peak={}, expected {expected_subs} each",
                stats.accepted, stats.active_peak
            )
        },
    );
    checker.expect("gap-accounting", stats.gap_events == 0, || {
        format!("{} gap events on a ring that never laps", stats.gap_events)
    });

    facts.push(("published".into(), published.to_string()));
    facts.push(("received_total".into(), received_total.to_string()));
    facts.push(("accepted".into(), stats.accepted.to_string()));
    facts.push(("evicted_stalled".into(), stats.evicted_stalled.to_string()));

    drop(stalled);
    drop(clients);
    drop(daemon);
    drop(rig);
    finish_report("c10k", seed, plan, published, facts, checker)
}

/// Many rigs behind one coordinator: 32 simulated rigs stream through
/// the fleet endpoint to one merged subscriber, eight per-rig
/// subscribers and one merged subscriber behind a fault proxy, while a
/// seed-chosen rig crashes mid-capture and is restarted into a fresh
/// archive shard. The headline invariants: the merged stream's gap
/// accounting equals the sum of its per-rig accounting, and the
/// cross-rig energy query equals the per-shard energies folded in
/// shard order, bit-exactly.
fn run_fleet(seed: u64, plan: &SimPlan) -> ScenarioReport {
    let mut checker = Checker::new();
    let mut facts: Vec<(String, String)> = Vec::new();
    let data_dir = scratch_dir("fleet", seed);

    let mut rng = seed ^ FLEET_SALT;
    let crash_rig = (splitmix64(&mut rng) % u64::from(FLEET_RIGS)) as u16;
    let crash_tick = 5 + splitmix64(&mut rng) % 10;

    // Generation 0 of the chosen rig reports crashed once the flag
    // flips; every other rig — and the restarted generation — stays
    // healthy.
    let crash_flag = Arc::new(AtomicBool::new(false));
    let factory: RigFactory = {
        let flag = Arc::clone(&crash_flag);
        let mut base = testbed_rig_factory(seed);
        Box::new(move |id, generation| {
            let mut parts = base(id, generation)?;
            if id == crash_rig && generation == 0 {
                let flag = Arc::clone(&flag);
                parts.crashed = Box::new(move || flag.load(Ordering::SeqCst));
            }
            Ok(parts)
        })
    };

    let mut fleet = Fleet::start(
        FLEET_RIGS,
        factory,
        "127.0.0.1:0",
        FleetConfig::new(&data_dir),
    )
    .expect("start sim fleet");

    let subscribe = |addr, rig| {
        let config = StreamClientConfig {
            rig: Some(rig),
            ..StreamClientConfig::default()
        };
        StreamClient::connect(addr, config).expect("connect fleet client")
    };
    let merged = subscribe(fleet.local_addr(), RigSelector::All);
    let per_rig: Vec<StreamClient> = (0..8u16)
        .map(|r| subscribe(fleet.local_addr(), RigSelector::One(r)))
        .collect();
    let proxy = FaultProxy::start(fleet.local_addr(), plan).expect("start fault proxy");
    let faulted = subscribe(proxy.addr(), RigSelector::All);

    // Every session's cursors are pinned once all ten are up.
    let subscribed = fleet.wait_stats(Duration::from_secs(5), |s| s.active_subscribers == 10);
    checker.expect("harness-quiesce", subscribed, || {
        "fleet subscribers failed to register within 5 s".into()
    });

    let mut restarts = 0u32;
    for tick in 0..FLEET_TICKS {
        if tick == crash_tick {
            crash_flag.store(true, Ordering::SeqCst);
        }
        fleet.advance(SimDuration::from_millis(5));
        restarts += fleet.supervise().expect("restart crashed rig");
    }
    checker.expect("fleet-supervision", restarts == 1, || {
        format!("expected exactly one restart, supervisor performed {restarts}")
    });

    // `advance` is synchronous through the acquisition stack, so the
    // published totals are final here and purely seed-derived: the
    // crashed rig loses exactly the one tick it spent dead between its
    // two generations.
    let expected_total = (u64::from(FLEET_RIGS) * FLEET_TICKS - 1) * FLEET_FRAMES_PER_TICK;
    let roster = fleet.status();
    let published: u64 = roster.iter().map(|r| r.frames_published).sum();
    checker.expect("gap-accounting", published == expected_total, || {
        format!("fleet published {published} frames, expected {expected_total}")
    });
    for rig in &roster {
        let (want_restarts, want_shards, want_frames) = if rig.id == crash_rig {
            (1, 2, (FLEET_TICKS - 1) * FLEET_FRAMES_PER_TICK)
        } else {
            (0, 1, FLEET_TICKS * FLEET_FRAMES_PER_TICK)
        };
        checker.expect(
            "fleet-supervision",
            rig.alive
                && rig.restarts == want_restarts
                && rig.shards == want_shards
                && rig.frames_published == want_frames,
            || {
                format!(
                    "rig {}: alive={} restarts={} shards={} frames={}, expected alive \
                     restarts={want_restarts} shards={want_shards} frames={want_frames}",
                    rig.id, rig.alive, rig.restarts, rig.shards, rig.frames_published
                )
            },
        );
        checker.expect("archive-accounting", rig.writer_dropped == 0, || {
            format!(
                "rig {} writer dropped {} frames with an oversized queue",
                rig.id, rig.writer_dropped
            )
        });
    }

    // No ring ever holds more than 2000 frames, so the merged stream
    // must account for every published frame with zero gaps — and its
    // session totals must equal its per-rig attribution.
    if check_drained(&mut checker, &merged, published, Duration::from_secs(20)) {
        checker.check_merged_gap_sum(
            merged.gap_events(),
            merged.dropped_frames(),
            &merged.rig_counts(),
        );
        checker.expect(
            "gap-accounting",
            merged.gap_events() == 0 && merged.dropped_frames() == 0,
            || {
                format!(
                    "merged subscriber saw {} gap events / {} dropped frames on rings that \
                     never lap",
                    merged.gap_events(),
                    merged.dropped_frames()
                )
            },
        );
        let counts = merged.rig_counts();
        checker.expect(
            "merged-gap-sum",
            counts.len() == usize::from(FLEET_RIGS),
            || {
                format!(
                    "merged subscriber heard from {} rigs, expected {FLEET_RIGS}",
                    counts.len()
                )
            },
        );
        for c in &counts {
            let want = roster
                .iter()
                .find(|r| r.id == c.rig)
                .map_or(0, |r| r.frames_published);
            checker.expect("gap-accounting", c.frames == want, || {
                format!(
                    "merged subscriber received {} frames from rig {}, which published {want}",
                    c.frames, c.rig
                )
            });
        }
    }

    for (r, client) in per_rig.iter().enumerate() {
        let want = roster[r].frames_published;
        check_drained(&mut checker, client, want, Duration::from_secs(10));
    }

    // The faulted merged subscriber mirrors tcp-faults: coordinator
    // facts never depend on what the proxy did to its bytes.
    if plan.crashes() {
        let died = faulted.wait_until(Duration::from_secs(10), |c| !c.is_alive());
        checker.expect("gap-accounting", died, || {
            "faulted client survived a severed proxy".into()
        });
    } else if !plan.mutates_bytes()
        && check_drained(&mut checker, &faulted, published, Duration::from_secs(20))
    {
        checker.check_merged_gap_sum(
            faulted.gap_events(),
            faulted.dropped_frames(),
            &faulted.rig_counts(),
        );
    }

    // The roster over the wire must agree with the coordinator's own.
    if merged.is_alive() && !merged.is_evicted() {
        match merged.query_fleet(Duration::from_secs(5)) {
            Ok(wire) => {
                let wire_total: u64 = wire.iter().map(|r| r.frames_published).sum();
                checker.expect(
                    "fleet-supervision",
                    wire.len() == usize::from(FLEET_RIGS) && wire_total == published,
                    || {
                        format!(
                            "wire roster lists {} rigs / {wire_total} frames, coordinator \
                             holds {FLEET_RIGS} / {published}",
                            wire.len()
                        )
                    },
                );
            }
            Err(e) => checker.expect("fleet-supervision", false, || {
                format!("fleet status query failed: {e}")
            }),
        }
    }

    fleet.shutdown();
    let clients = per_rig.iter().chain([&merged, &faulted]);
    check_evict_reasons(&mut checker, clients.map(|c| ("fleet", c)), false);

    // Shutdown sealed every shard; the query plane must now agree with
    // per-shard ground truth to the last bit.
    let (start, end) = (SimTime::from_micros(0), SimTime::from_micros(10_000_000));
    match FleetQuery::open(&data_dir) {
        Ok(query) => {
            checker.expect(
                "fleet-supervision",
                query.shard_count() == usize::from(FLEET_RIGS) + 1
                    && query.rigs().len() == usize::from(FLEET_RIGS),
                || {
                    format!(
                        "query plane found {} shards / {} rigs, expected {} / {FLEET_RIGS}",
                        query.shard_count(),
                        query.rigs().len(),
                        usize::from(FLEET_RIGS) + 1
                    )
                },
            );
            match (
                query.total_energy(start, end),
                fold_shard_energies(&data_dir, start, end),
            ) {
                (Ok(total), Ok(folded)) => {
                    checker.check_cross_rig_energy(total.value(), folded);
                    facts.push((
                        "energy_bits".into(),
                        format!("{:016x}", total.value().to_bits()),
                    ));
                }
                (q, f) => checker.expect("cross-rig-energy", false, || {
                    format!("energy queries failed: query={q:?} fold={f:?}")
                }),
            }
            match query.fleet_stats(start, end) {
                Ok(stats) => checker.expect("archive-accounting", stats.count == published, || {
                    format!(
                        "archive shards hold {} samples, fleet published {published}",
                        stats.count
                    )
                }),
                Err(e) => checker.expect("archive-accounting", false, || {
                    format!("fleet stats query failed: {e:?}")
                }),
            }
        }
        Err(e) => checker.expect("fleet-supervision", false, || {
            format!("fleet data dir failed to open: {e:?}")
        }),
    }

    facts.push(("crash_rig".into(), crash_rig.to_string()));
    facts.push(("crash_tick".into(), crash_tick.to_string()));
    facts.push(("published".into(), published.to_string()));

    drop(per_rig);
    drop(merged);
    drop(faulted);
    drop(proxy);
    let _ = std::fs::remove_dir_all(&data_dir);
    finish_report("fleet", seed, plan, published, facts, checker)
}

/// Ground truth for [`Checker::check_cross_rig_energy`]: open every
/// shard independently — through the same tier-serving engine the
/// query plane uses, so the arithmetic is the same terms in the same
/// order — and fold the per-shard energies in shard order (rig, then
/// generation), the order the query plane documents.
fn fold_shard_energies(dir: &Path, start: SimTime, end: SimTime) -> Result<f64, ArchiveError> {
    let mut shards: Vec<(u16, u32, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some((rig, generation)) = parse_shard_name(name) {
            shards.push((rig, generation, path));
        }
    }
    shards.sort_by_key(|&(rig, generation, _)| (rig, generation));
    let mut total = 0.0f64;
    for (_, _, path) in shards {
        total += Tsdb::open(&path)?.energy(start, end)?.value();
    }
    Ok(total)
}

/// Crash-consistency of the archive alone: write a capture, damage the
/// file the way a power cut or bad sector would (truncation or a
/// flipped bit, derived from the plan's first event), reopen, and
/// demand the recovered data is an exact, declared prefix — never torn
/// garbage, never silently wrong.
fn run_archive_crash(seed: u64, plan: &SimPlan) -> ScenarioReport {
    let mut checker = Checker::new();
    let mut facts: Vec<(String, String)> = Vec::new();
    let path = scratch_path("archive", seed);

    let mut writer =
        SegmentWriter::create_with(&path, sim_configs(), 100).expect("create sim archive");
    let mut rng = seed ^ ARCHIVE_SALT;
    for i in 0..ARCHIVE_FRAMES {
        writer
            .push(random_frame(&mut rng, i))
            .expect("push sim frame");
    }
    writer.finish().expect("finish sim archive");

    let original = Archive::open(&path)
        .expect("reopen undamaged archive")
        .read_all()
        .expect("read undamaged archive");
    let file_len = std::fs::metadata(&path).expect("stat archive").len();

    // The plan's first event picks the damage; shrinking to the empty
    // plan removes it.
    let damage = plan.events().first().map(|e| (e.offset, e.kind));
    let damage_desc = match damage {
        None => "none".to_owned(),
        Some((offset, kind)) => match kind {
            FaultKind::Crash | FaultKind::Drop | FaultKind::ShortRead => {
                let cut = offset % (file_len - 1) + 1;
                OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(cut))
                    .expect("truncate archive");
                format!("truncate@{cut}")
            }
            FaultKind::BitFlip(bit) => {
                flip_byte(&path, offset % file_len, bit);
                format!("flip@{}:{bit}", offset % file_len)
            }
            FaultKind::Duplicate => {
                flip_byte(&path, offset % file_len, 0);
                format!("flip@{}:0", offset % file_len)
            }
            FaultKind::Stall(_) => "none".to_owned(),
        },
    };
    let truncated = damage_desc.starts_with("truncate");
    let damaged = damage_desc != "none";

    let mut recovered_frames = 0u64;
    let mut recovered_fp = 0u64;
    match Archive::open(&path) {
        Ok(archive) => {
            recovered_frames = archive.frames();
            match archive.read_all() {
                Ok(trace) => {
                    let mut fp = Fingerprint::new();
                    fp.update_trace(&trace);
                    recovered_fp = fp.finish();
                    if !damaged {
                        checker.expect(
                            "archive-seal",
                            recovered_frames == ARCHIVE_FRAMES && trace == original,
                            || {
                                format!(
                                    "undamaged archive recovered {recovered_frames}/{ARCHIVE_FRAMES} frames"
                                )
                            },
                        );
                        match archive.verify() {
                            Ok(report) => checker.expect("archive-seal", report.is_clean(), || {
                                format!("undamaged archive verifies dirty: {report:?}")
                            }),
                            Err(e) => checker.expect("archive-seal", false, || {
                                format!("undamaged archive verify failed: {e:?}")
                            }),
                        }
                    } else if truncated {
                        checker.expect("archive-recovery", is_prefix(&trace, &original), || {
                            format!(
                                "truncated archive returned {} frames that are not a prefix \
                                     of the original capture",
                                trace.len()
                            )
                        });
                    } else {
                        // A flipped byte: the archive may lose data but
                        // must never serve wrong data while claiming to
                        // be clean and complete.
                        let clean = archive.verify().map(|r| r.is_clean()).unwrap_or(false);
                        if clean && recovered_frames == ARCHIVE_FRAMES {
                            checker.expect("archive-recovery", trace == original, || {
                                "corrupted archive verifies clean and complete but returns \
                                 different data"
                                    .to_owned()
                            });
                        }
                    }
                }
                Err(e) => checker.expect("archive-recovery", damaged, || {
                    format!("undamaged archive unreadable: {e:?}")
                }),
            }
        }
        Err(e) => checker.expect("archive-recovery", damaged, || {
            format!("undamaged archive failed to open: {e:?}")
        }),
    }

    facts.push(("damage".into(), damage_desc));
    facts.push(("recovered_frames".into(), recovered_frames.to_string()));
    facts.push(("recovered_fp".into(), format!("{recovered_fp:016x}")));

    cleanup(&path);
    finish_report(
        "archive-crash",
        seed,
        plan,
        recovered_frames,
        facts,
        checker,
    )
}

/// The time-series engine under fire: a live maintained writer whose
/// seal-time hook compacts small segments and keeps the pyramid
/// sidecar fresh; a second capture with a retention window; and an
/// in-flight compaction torn at a plan-derived byte, which must never
/// damage the original capture.
fn run_tsdb(seed: u64, plan: &SimPlan) -> ScenarioReport {
    let mut checker = Checker::new();
    let mut facts: Vec<(String, String)> = Vec::new();
    let path = scratch_path("tsdb", seed);
    // A shrunken fan-out keeps every tier populated at sim scale.
    let config = PyramidConfig {
        tier1_blocks: 2,
        tier2_nodes: 2,
    };

    let configs = sim_configs();
    let adc = ps3_sensors::AdcSpec::POWERSENSOR3;

    // Phase A — live capture with seal-time compaction. The live trace
    // is the independent ground truth every later check folds against.
    let writer = TsdbWriter::spawn(
        &path,
        configs.clone(),
        TsdbWriterOptions {
            segment_frames: TSDB_SEGMENT_FRAMES,
            config,
            compact_after_segments: Some(TSDB_COMPACT_AFTER),
            compact_target_frames: TSDB_COMPACT_TARGET,
            ..TsdbWriterOptions::default()
        },
    )
    .expect("spawn tsdb writer");
    let mut live = Trace::with_capacity(TSDB_FRAMES as usize);
    let mut rng = seed ^ TSDB_SALT;
    for i in 0..TSDB_FRAMES {
        let frame = random_frame(&mut rng, i);
        live.push(frame.time, frame_total(&configs, &adc, &frame));
        if let Some(label) = frame.marker {
            live.mark(frame.time, label);
        }
        checker.expect("archive-accounting", writer.push(&[frame]), || {
            format!("tsdb writer queue rejected frame {i}")
        });
    }
    let stats = writer.finish().expect("finish tsdb writer");
    checker.expect(
        "archive-accounting",
        stats.frames == TSDB_FRAMES && stats.dropped == 0,
        || {
            format!(
                "tsdb writer accepted {}/{TSDB_FRAMES} frames, dropped {}",
                stats.frames, stats.dropped
            )
        },
    );

    let naive_segments = TSDB_FRAMES as usize / TSDB_SEGMENT_FRAMES;
    let t0 = 25u64;
    let t1 = 25 + 50 * (TSDB_FRAMES - 1);
    // The whole capture.
    let (start, end) = (SimTime::ZERO, SimTime::from_micros(t1 + 1));
    let mut segments_live = 0usize;
    // Decode-path energy over the whole capture, before compaction.
    // Compaction regroups the same trapezoid terms by the new segment
    // and block structure, so the low bits legitimately move; the
    // invariant is agreement within the crate's 1e-9 relative
    // contract, not bit equality.
    let mut flat_energy_bits = 0u64;
    match Archive::open(&path) {
        Ok(archive) => {
            segments_live = archive.segments().len();
            if let Ok(e) = archive.energy(start, end) {
                flat_energy_bits = e.value().to_bits();
            }
            checker.check_archive_matches(&archive, &live, 0);
            checker.check_archive_sealed(&archive);
            checker.expect("tsdb-compaction", segments_live < naive_segments, || {
                format!(
                    "seal-time compaction never ran: {segments_live} segments, naive \
                         capture would hold {naive_segments}"
                )
            });
        }
        Err(e) => checker.expect("archive-recovery", false, || {
            format!("maintained archive failed to open: {e:?}")
        }),
    }

    // The maintained sidecar must be fresh (loaded, not rebuilt), and
    // tier-served answers bit-exact over plan-independent, seed-derived
    // ranges plus the full and empty ones.
    let mut energy_bits = 0u64;
    match Tsdb::open_with(&path, config) {
        Ok(tsdb) => {
            checker.expect("tsdb-sidecar", tsdb.from_sidecar(), || {
                "the seal-time pyramid sidecar was stale or damaged at open".into()
            });
            let span = t1 - t0 + 1;
            for _ in 0..4 {
                let mut lo = t0 + splitmix64(&mut rng) % span;
                let mut hi = t0 + splitmix64(&mut rng) % span;
                if lo > hi {
                    core::mem::swap(&mut lo, &mut hi);
                }
                checker.check_pyramid_exact(
                    &tsdb,
                    SimTime::from_micros(lo),
                    SimTime::from_micros(hi),
                );
            }
            checker.check_pyramid_exact(&tsdb, start, end);
            checker.check_pyramid_exact(&tsdb, SimTime::from_micros(t0), SimTime::from_micros(t0));
            if let Ok(e) = tsdb.energy(start, end) {
                energy_bits = e.value().to_bits();
            }
        }
        Err(e) => checker.expect("tsdb-sidecar", false, || format!("tsdb open failed: {e:?}")),
    }

    // Phase B — tear an in-flight compaction at a plan-derived byte.
    // The staging protocol never touches the original before the
    // rename, so the capture must stay verifiable and bit-identical.
    let mut cut_desc = "none".to_owned();
    match Archive::open(&path) {
        Ok(archive) => {
            let tmp = compact_tmp_path_for(&path);
            let staged_ok = stage_compacted(&archive, TSDB_FRAMES as usize, &tmp).is_ok();
            drop(archive);
            let staged = std::fs::read(&tmp).unwrap_or_default();
            let _ = std::fs::remove_file(&tmp);
            checker.expect("tsdb-compaction", staged_ok && !staged.is_empty(), || {
                "staging the compaction rewrite failed".into()
            });
            if !staged.is_empty() {
                let cut = plan
                    .events()
                    .first()
                    .map_or(staged.len() as u64 / 2, |e| e.offset)
                    % staged.len() as u64;
                std::fs::write(&tmp, &staged[..cut as usize]).expect("write torn staging file");
                cut_desc = format!("truncate@{cut}/{}", staged.len());

                match Archive::open(&path) {
                    Ok(archive) => {
                        let clean = archive.verify().map(|r| r.is_clean()).unwrap_or(false);
                        let trace = archive.read_all().ok();
                        checker.expect(
                            "tsdb-compaction-crash",
                            clean && trace.as_ref() == Some(&live),
                            || {
                                format!(
                                    "a compaction torn at byte {cut} damaged the original \
                                     capture (clean={clean})"
                                )
                            },
                        );
                    }
                    Err(e) => checker.expect("tsdb-compaction-crash", false, || {
                        format!("original capture unreadable after torn staging write: {e:?}")
                    }),
                }

                // The stale torn staging file must not stop the next
                // attempt, and completing it changes no answer.
                match compact_archive(
                    &path,
                    CompactOptions {
                        target_frames: TSDB_FRAMES as usize,
                        config,
                    },
                ) {
                    Ok(report) => {
                        checker.expect("tsdb-compaction", report.segments_after == 1, || {
                            format!(
                                "full-capture compaction left {} segments",
                                report.segments_after
                            )
                        });
                        match (Archive::open(&path), Tsdb::open_with(&path, config)) {
                            (Ok(archive), Ok(tsdb)) => {
                                checker.check_archive_matches(&archive, &live, 0);
                                checker.expect("tsdb-sidecar", tsdb.from_sidecar(), || {
                                    "compaction left a stale pyramid sidecar".into()
                                });
                                checker.check_pyramid_exact(&tsdb, start, end);
                                if let Ok(e) = archive.energy(start, end) {
                                    let before = f64::from_bits(flat_energy_bits);
                                    let after = e.value();
                                    let tol = 1e-9 * after.abs().max(before.abs()).max(1.0);
                                    checker.expect(
                                        "tsdb-compaction",
                                        (after - before).abs() <= tol,
                                        || {
                                            format!(
                                                "compaction moved the capture energy beyond \
                                                 tolerance: {before} -> {after}"
                                            )
                                        },
                                    );
                                }
                            }
                            (a, t) => checker.expect("tsdb-compaction", false, || {
                                format!("reopen after completed compaction failed: {a:?} {t:?}")
                            }),
                        }
                    }
                    Err(e) => checker.expect("tsdb-compaction", false, || {
                        format!("compaction over a stale staging file failed: {e:?}")
                    }),
                }
            }
        }
        Err(e) => checker.expect("tsdb-compaction", false, || {
            format!("archive failed to reopen for compaction: {e:?}")
        }),
    }

    // Phase C — a second capture with a retention window racing the
    // same live writer: expired segments (and their pyramid subtrees)
    // disappear between seals; the surviving tail is bit-identical to
    // the live capture's tail.
    let retain_path = scratch_path("tsdb-retain", seed);
    let window_us = 60_000 + splitmix64(&mut rng) % 120_000;
    let writer = TsdbWriter::spawn(
        &retain_path,
        configs.clone(),
        TsdbWriterOptions {
            segment_frames: TSDB_SEGMENT_FRAMES,
            config,
            retention: Some(Retention::Duration(window_us)),
            ..TsdbWriterOptions::default()
        },
    )
    .expect("spawn retained tsdb writer");
    let mut replay = seed ^ TSDB_SALT;
    for i in 0..TSDB_FRAMES {
        writer.push(&[random_frame(&mut replay, i)]);
    }
    writer.finish().expect("finish retained tsdb writer");

    let mut retained_segments = 0usize;
    match (
        Archive::open(&retain_path),
        Tsdb::open_with(&retain_path, config),
    ) {
        (Ok(archive), Ok(tsdb)) => {
            retained_segments = archive.segments().len();
            let first_kept = archive.segments().first().map_or(0, |s| s.header.start_us);
            checker.expect("tsdb-retention", first_kept > t0, || {
                format!(
                    "a {window_us} µs window over a {} µs capture dropped nothing",
                    t1 - t0
                )
            });
            let mut tail = Trace::new();
            for sample in live.samples() {
                if sample.time.as_micros() >= first_kept {
                    tail.push(sample.time, sample.power);
                }
            }
            for marker in live.markers() {
                if marker.time.as_micros() >= first_kept {
                    tail.mark(marker.time, marker.label);
                }
            }
            checker.check_archive_matches(&archive, &tail, 0);
            checker.expect("tsdb-sidecar", tsdb.from_sidecar(), || {
                "retention left a stale pyramid sidecar".into()
            });
            checker.check_pyramid_exact(&tsdb, start, end);
        }
        (a, t) => checker.expect("tsdb-retention", false, || {
            format!("retained capture failed to open: {a:?} {t:?}")
        }),
    }

    facts.push(("segments_live".into(), segments_live.to_string()));
    facts.push(("compaction_cut".into(), cut_desc));
    facts.push(("window_us".into(), window_us.to_string()));
    facts.push(("retained_segments".into(), retained_segments.to_string()));
    facts.push(("energy_bits".into(), format!("{energy_bits:016x}")));

    cleanup(&path);
    cleanup(&retain_path);
    finish_report("tsdb", seed, plan, TSDB_FRAMES, facts, checker)
}

/// The sim board's sensor configuration ([`sim_eeprom`]).
fn sim_configs() -> [SensorConfig; SENSOR_SLOTS] {
    let eeprom = sim_eeprom();
    std::array::from_fn(|slot| eeprom.read(slot).clone())
}

/// Frame `i` of a seeded random capture: both populated slots draw a
/// raw code from `rng`, frames sit 50 µs apart from 25 µs, and every
/// 127th carries marker `m`.
fn random_frame(rng: &mut u64, i: u64) -> ArchiveFrame {
    let mut raw = [0u16; SENSOR_SLOTS];
    raw[0] = (splitmix64(rng) % 1024) as u16;
    raw[1] = (splitmix64(rng) % 1024) as u16;
    ArchiveFrame {
        time: SimTime::from_micros(25 + 50 * i),
        raw,
        present: 0b11,
        marker: i.is_multiple_of(127).then_some('m'),
    }
}

/// `shorter` is an exact frame-and-marker prefix of `longer`.
fn is_prefix(shorter: &Trace, longer: &Trace) -> bool {
    let k = shorter.samples().len();
    if k > longer.samples().len() || shorter.samples() != &longer.samples()[..k] {
        return false;
    }
    let cutoff = shorter.samples().last().map(|s| s.time);
    shorter.markers().iter().eq(longer
        .markers()
        .iter()
        .filter(|m| cutoff.is_some_and(|c| m.time <= c)))
}

fn flip_byte(path: &Path, offset: u64, bit: u8) {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("open archive for damage");
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(offset)).expect("seek");
    file.read_exact(&mut byte).expect("read byte");
    byte[0] ^= 1 << (bit & 7);
    file.seek(SeekFrom::Start(offset)).expect("seek");
    file.write_all(&byte).expect("write byte");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sabotage_name_parses_back() {
        for mode in Sabotage::ALL {
            assert_eq!(Sabotage::parse(mode.name()), Some(mode));
        }
        assert_eq!(Sabotage::parse("bogus"), None);
        assert_eq!(Sabotage::names(), "none, uncounted-drop, unsealed-tail");
    }
}
