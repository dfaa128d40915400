//! The `stream` experiment: the C10k curve — subscribers vs delivery
//! latency and throughput on one daemon event-loop thread.
//!
//! Each point stands up one [`StreamDaemon`] over a virtual testbed
//! sensor, attaches N raw TCP subscribers (all downsampled to 1 kHz so
//! the client side stays cheap; the daemon still ingests native
//! 20 kHz), then publishes a fixed capture in bursts of virtual time.
//! All N subscriber sockets are driven non-blocking by a single bench
//! thread, so the measured side — the daemon — is the only event loop
//! whose scaling is under test.
//!
//! Deterministic facts (frames published, per-subscriber deliveries,
//! gap/eviction counts — all exactly zero gaps because the ring is
//! sized to never lap) go into the report and `stream.csv`; per-burst
//! delivery latency percentiles and throughput are wall-clock and are
//! recorded only as `BENCH_repro.json` metrics, so `repro` output
//! stays bit-identical across `--jobs` values.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ps3_core::SharedPowerSensor;
use ps3_duts::{BenchSetup, LoadProgram, RailId};
use ps3_sensors::ModuleKind;
use ps3_stream::event_loop::take_frame;
use ps3_stream::{ClientMsg, ServerMsg, StreamDaemon, StreamDaemonConfig};
use ps3_testbed::{Testbed, TestbedBuilder};
use ps3_units::{Amps, SimDuration};

/// Block-averaging divisor every subscriber asks for: 20 device frames
/// per delivered frame (1 kHz), keeping N× fan-out affordable while the
/// daemon still runs the full 20 kHz ingest path.
const DIVISOR: u64 = 20;
/// Virtual-time bursts per point.
const TICKS: u64 = 10;
/// Virtual length of one burst: 50 ms at 20 kHz is 1000 device frames.
const TICK: SimDuration = SimDuration::from_millis(50);
/// Device frames one burst publishes.
const FRAMES_PER_TICK: u64 = 1000;

/// One subscriber-count point on the C10k curve.
#[derive(Debug, Clone)]
pub struct StreamPoint {
    /// Concurrent subscribers at this point.
    pub subscribers: usize,
    /// Device frames the daemon published (deterministic).
    pub published: u64,
    /// Downsampled frames each keep-up subscriber must receive.
    pub expected_per_sub: u64,
    /// Frames delivered across all subscribers (deterministic:
    /// `subscribers × expected_per_sub` when nothing gapped).
    pub delivered: u64,
    /// Gap events across all subscribers (expected: zero — the ring
    /// never laps at this capture size).
    pub gap_events: u64,
    /// Frames any subscriber was told it lost (expected: zero).
    pub dropped: u64,
    /// Subscribers the daemon evicted (expected: zero).
    pub evicted: u64,
    /// Wall-clock seconds to connect and register every subscriber
    /// (machine-dependent; metrics only).
    pub connect_wall_s: f64,
    /// Wall-clock seconds from first burst until every subscriber
    /// fully drained (machine-dependent; metrics only).
    pub stream_wall_s: f64,
    /// Median per-subscriber burst delivery latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-subscriber burst delivery latency.
    pub p99_ms: f64,
}

impl StreamPoint {
    /// Device-frame ingest throughput over the streaming phase.
    #[must_use]
    pub fn frames_per_sec(&self) -> f64 {
        if self.stream_wall_s > 0.0 {
            self.published as f64 / self.stream_wall_s
        } else {
            0.0
        }
    }

    /// Delivered-frame fan-out throughput over the streaming phase.
    #[must_use]
    pub fn deliveries_per_sec(&self) -> f64 {
        if self.stream_wall_s > 0.0 {
            self.delivered as f64 / self.stream_wall_s
        } else {
            0.0
        }
    }
}

/// One raw subscriber socket, driven non-blocking by the bench thread.
struct ClientConn {
    sock: TcpStream,
    buf: Vec<u8>,
    frames: u64,
    gap_events: u64,
    dropped: u64,
    evicted: bool,
    saw_hello: bool,
}

impl ClientConn {
    /// Reads whatever the socket has and folds complete messages into
    /// the counters. Returns `true` if any byte arrived.
    fn pump(&mut self) -> bool {
        let mut progressed = false;
        let mut chunk = [0u8; 4096];
        loop {
            match self.sock.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    progressed = true;
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        while let Ok(Some(body)) = take_frame(&mut self.buf) {
            match ServerMsg::decode(&body) {
                Ok(ServerMsg::Hello { .. }) => self.saw_hello = true,
                Ok(ServerMsg::Batch { frames }) => self.frames += frames.len() as u64,
                Ok(ServerMsg::Gap { dropped }) => {
                    self.gap_events += 1;
                    self.dropped += dropped;
                }
                Ok(ServerMsg::Evicted { .. }) => self.evicted = true,
                _ => {}
            }
        }
        progressed
    }
}

fn bench_testbed(seed: u64) -> Testbed<BenchSetup> {
    TestbedBuilder::new(BenchSetup::twelve_volt(LoadProgram::Constant(Amps::new(
        2.0,
    ))))
    .attach(ModuleKind::Slot10A12V, RailId::Ext12V)
    .seed(seed)
    .build()
}

/// Runs the curve: one daemon per subscriber count, sequentially.
#[must_use]
pub fn run(sub_counts: &[usize], seed: u64) -> Vec<StreamPoint> {
    sub_counts
        .iter()
        .map(|&subs| run_point(subs, seed))
        .collect()
}

#[allow(clippy::too_many_lines)]
fn run_point(subs: usize, seed: u64) -> StreamPoint {
    let mut tb = bench_testbed(seed);
    let sensor = SharedPowerSensor::new(tb.connect().expect("connect bench testbed"));
    let daemon = StreamDaemon::start(
        sensor.clone(),
        "127.0.0.1:0",
        StreamDaemonConfig {
            // Never laps a TICKS × FRAMES_PER_TICK capture, so zero
            // gaps is an invariant of the point, not a race outcome.
            ring_capacity: 32768,
            ..StreamDaemonConfig::default()
        },
    )
    .expect("start bench stream daemon");
    let addr = daemon.local_addr();

    let subscribe = ClientMsg::Subscribe {
        pair_mask: 0x0F,
        divisor: DIVISOR as u32,
        rig: None,
    }
    .encode();
    let start = Instant::now(); // ps3-lint: allow(determinism) reason="wall-clock latency/throughput metric of the real event loop, outside the simulated timeline"
    let mut conns: Vec<ClientConn> = (0..subs)
        .map(|_| {
            let mut sock = TcpStream::connect(addr).expect("connect bench subscriber");
            sock.write_all(&subscribe).expect("send subscribe");
            sock.set_nonblocking(true).expect("set nonblocking");
            ClientConn {
                sock,
                buf: Vec::new(),
                frames: 0,
                gap_events: 0,
                dropped: 0,
                evicted: false,
                saw_hello: false,
            }
        })
        .collect();
    let registered = daemon.wait_stats(Duration::from_secs(60), |s| {
        s.active_subscribers == subs as u64
    });
    assert!(
        registered,
        "{subs} subscribers failed to register: {:?}",
        daemon.stats()
    );
    let connect_wall_s = start.elapsed().as_secs_f64();

    // Publish TICKS bursts; after each, drive every socket until all
    // subscribers drained the burst, recording per-subscriber latency
    // from burst start to its final frame.
    let expected_per_tick = FRAMES_PER_TICK / DIVISOR;
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(subs * TICKS as usize);
    let start = Instant::now(); // ps3-lint: allow(determinism) reason="wall-clock latency/throughput metric of the real event loop, outside the simulated timeline"
    for tick in 0..TICKS {
        let target = (tick + 1) * expected_per_tick;
        let burst = Instant::now(); // ps3-lint: allow(determinism) reason="wall-clock latency/throughput metric of the real event loop, outside the simulated timeline"
        tb.advance_and_sync(&sensor, TICK).expect("advance testbed");
        let mut done = 0usize;
        let mut reached = vec![false; subs];
        let deadline = burst + Duration::from_secs(60);
        while done < subs {
            let mut progressed = false;
            for (i, conn) in conns.iter_mut().enumerate() {
                progressed |= conn.pump();
                if !reached[i] && conn.frames >= target {
                    reached[i] = true;
                    done += 1;
                    latencies_ms.push(burst.elapsed().as_secs_f64() * 1e3);
                }
            }
            // ps3-lint: allow(determinism) reason="wall-clock latency/throughput metric of the real event loop, outside the simulated timeline"
            if done < subs && Instant::now() >= deadline {
                break;
            }
            if !progressed {
                std::thread::sleep(Duration::from_micros(200)); // ps3-lint: allow(determinism) reason="harness pacing: yields while the daemon thread fills subscriber sockets"
            }
        }
        assert_eq!(
            done, subs,
            "burst {tick}: only {done}/{subs} subscribers drained within 60 s"
        );
    }
    let stream_wall_s = start.elapsed().as_secs_f64();

    let stats = daemon.stats();
    let published = stats.frames_published;
    let delivered: u64 = conns.iter().map(|c| c.frames).sum();
    let gap_events: u64 = conns.iter().map(|c| c.gap_events).sum();
    let dropped: u64 = conns.iter().map(|c| c.dropped).sum();
    let client_evicted = conns.iter().filter(|c| c.evicted).count() as u64;
    debug_assert!(conns.iter().all(|c| c.saw_hello), "hello precedes frames");

    drop(daemon);
    drop(conns);
    latencies_ms.sort_by(f64::total_cmp);
    StreamPoint {
        subscribers: subs,
        published,
        expected_per_sub: TICKS * expected_per_tick,
        delivered,
        gap_events,
        dropped,
        evicted: stats.evicted.max(client_evicted),
        connect_wall_s,
        stream_wall_s,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
    }
}

/// Nearest-rank percentile of an already-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Formats the report section (deterministic facts only — the latency
/// and throughput curve lives in `BENCH_repro.json`).
#[must_use]
pub fn render(points: &[StreamPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "stream C10k: {} bursts x {} device frames per point, all subscribers at 1 kHz",
        TICKS, FRAMES_PER_TICK
    );
    let _ = writeln!(
        out,
        "  subscribers  published  per-sub  delivered  gaps  dropped  evicted"
    );
    for p in points {
        let _ = writeln!(
            out,
            "  {:>11}  {:>9}  {:>7}  {:>9}  {:>4}  {:>7}  {:>7}",
            p.subscribers,
            p.published,
            p.expected_per_sub,
            p.delivered,
            p.gap_events,
            p.dropped,
            p.evicted
        );
    }
    let _ = writeln!(
        out,
        "  subscribers-vs-p99-latency/throughput curve recorded in BENCH_repro.json (wall-clock)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_points_deliver_every_frame_gap_free() {
        let points = run(&[8, 32], 0xC10C);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(
                p.published,
                TICKS * FRAMES_PER_TICK,
                "subs={}",
                p.subscribers
            );
            assert_eq!(
                p.delivered,
                p.subscribers as u64 * p.expected_per_sub,
                "subs={}",
                p.subscribers
            );
            assert_eq!(p.gap_events, 0, "subs={}", p.subscribers);
            assert_eq!(p.dropped, 0, "subs={}", p.subscribers);
            assert_eq!(p.evicted, 0, "subs={}", p.subscribers);
            assert!(p.p99_ms >= p.p50_ms);
        }
        let text = render(&points);
        assert!(text.contains("BENCH_repro.json"), "{text}");
    }
}
