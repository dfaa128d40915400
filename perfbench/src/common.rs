//! Plumbing shared by the workloads: seeded inputs, percentiles, the
//! result record every process prints, and the raw stream subscriber
//! the `serve` and `fleet` workloads read with.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token};
use ps3_stream::event_loop::take_frame;
use ps3_stream::{ClientMsg, RigSelector, ServerMsg};

/// What one benchmark process was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    /// Seeds every generated input of the workload.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Scratch directory for archives and shards (removed by the caller).
    pub dir: PathBuf,
    /// `(k, n)`: `query` checks only the queries whose list index is
    /// `k` modulo `n`, so `n` processes on one seed check each query once.
    pub check: (usize, usize),
}

/// SplitMix64: the benchmark's one source of randomness, so a seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE4C_0DD5_1DE5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Nearest-rank percentile of a sample; sorts it in place. `NaN` for an
/// empty sample, which [`Report::metric`] rejects.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() - 1) as f64 * q).round() as usize;
    values[rank.min(values.len() - 1)]
}

/// Nanoseconds since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Times `f` and returns its result with the elapsed nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock of the CPU time used by every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) this process has used so far, exited
/// threads included, in seconds, to the nanosecond. The kernel charges
/// a thread only while it runs, so waiting and time stolen by other
/// tenants of the host do not count, unlike wall time.
#[allow(unsafe_code)]
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout of
    // 64-bit Linux, and clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The record one benchmark process prints as its last line: whether
/// every correctness check held, the operations attempted and failed,
/// and the metrics with their units.
#[derive(Debug)]
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Records a metric. A value that is not finite fails the run: it
    /// means a sample the workload should have produced is missing.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            eprintln!("perfbench: check failed: {}", what());
            self.correct = false;
        }
        ok
    }

    /// Adds operations to the attempted/failed tally.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The record as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One batch as it arrived: its first and last frame times and frame
/// count, and when it was decoded (µs since the workload's epoch).
/// Frames within a batch are consecutive, so equally spaced.
struct Arrival {
    first_us: u32,
    last_us: u32,
    frames: u32,
    recv_us: u32,
}

/// One raw TCP subscriber. Arrivals are recorded per batch, so frame
/// ages are computed after the run, off the read path, and the record
/// stays small whatever the throughput.
pub struct Subscriber {
    sock: TcpStream,
    buf: Vec<u8>,
    pub frames: u64,
    pub gap_events: u64,
    pub evicted: bool,
    pub broken: bool,
    arrived: Vec<Arrival>,
}

impl Subscriber {
    /// Connects and subscribes to `pair_mask` at `divisor`, optionally
    /// routed to fleet rigs.
    pub fn connect(
        addr: SocketAddr,
        pair_mask: u8,
        divisor: u32,
        rig: Option<RigSelector>,
    ) -> io::Result<Self> {
        let mut sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.write_all(
            &ClientMsg::Subscribe {
                pair_mask,
                divisor,
                rig,
            }
            .encode(),
        )?;
        sock.set_nonblocking(true)?;
        Ok(Self {
            sock,
            buf: Vec::new(),
            frames: 0,
            gap_events: 0,
            evicted: false,
            broken: false,
            arrived: Vec::new(),
        })
    }

    /// Reads whatever the socket holds and folds every complete message
    /// into the counters.
    pub fn pump(&mut self, epoch: Instant) {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.sock.read(&mut chunk) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        loop {
            let body = match take_frame(&mut self.buf) {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            };
            let recv_us = (ns_since(epoch) / 1000) as u32;
            match ServerMsg::decode(&body) {
                Ok(ServerMsg::Batch { frames } | ServerMsg::RigBatch { frames, .. }) => {
                    self.frames += frames.len() as u64;
                    if let (Some(first), Some(last)) = (frames.first(), frames.last()) {
                        self.arrived.push(Arrival {
                            first_us: first.time.as_micros() as u32,
                            last_us: last.time.as_micros() as u32,
                            frames: frames.len() as u32,
                            recv_us,
                        });
                    }
                }
                Ok(ServerMsg::Gap { .. } | ServerMsg::RigGap { .. }) => self.gap_events += 1,
                Ok(ServerMsg::Evicted { .. }) => self.evicted = true,
                Ok(_) => {}
                Err(_) => self.broken = true,
            }
        }
    }

    /// Every delivered frame as (frame time µs, receive time ns since
    /// the epoch), in arrival order.
    pub fn arrivals(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.arrived.iter().flat_map(|a| {
            let (first, last, n) = (
                u64::from(a.first_us),
                u64::from(a.last_us),
                u64::from(a.frames),
            );
            let step = (last - first) / (n - 1).max(1);
            (0..n).map(move |i| (first + i * step, u64::from(a.recv_us) * 1000))
        })
    }

    fn failed(&self) -> bool {
        self.evicted || self.broken
    }
}

/// Frames each subscriber has received, shared between the reader
/// thread and the thread generating load, plus the totals the reader
/// must reach before it stops.
pub struct Tally {
    state: Mutex<TallyState>,
    changed: Condvar,
}

struct TallyState {
    received: Vec<u64>,
    targets: Option<Vec<u64>>,
    failed: bool,
}

impl Tally {
    pub fn new(subscribers: usize) -> Self {
        Self {
            state: Mutex::new(TallyState {
                received: vec![0; subscribers],
                targets: None,
                failed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Tells the reader how many frames each subscriber must receive.
    pub fn finish_at(&self, targets: Vec<u64>) {
        self.state.lock().expect("tally lock").targets = Some(targets);
        self.changed.notify_all();
    }

    /// Blocks until subscriber `i` has received at least `frames`, the
    /// reader gave up, or `timeout` passed. Returns whether it got there.
    pub fn wait_for(&self, i: usize, frames: u64, timeout: Duration) -> bool {
        let state = self.state.lock().expect("tally lock");
        let (state, _) = self
            .changed
            .wait_timeout_while(state, timeout, |s| s.received[i] < frames && !s.failed)
            .expect("tally lock");
        state.received[i] >= frames
    }

    fn update(&self, subs: &[Subscriber]) -> bool {
        let mut state = self.state.lock().expect("tally lock");
        for (slot, sub) in state.received.iter_mut().zip(subs) {
            *slot = sub.frames;
        }
        state.failed |= subs.iter().any(Subscriber::failed);
        let done = state.failed
            || state
                .targets
                .as_ref()
                .is_some_and(|targets| targets.iter().zip(subs).all(|(&t, sub)| sub.frames >= t));
        drop(state);
        self.changed.notify_all();
        done
    }
}

/// Reads every subscriber as data arrives until each reaches its target
/// (see [`Tally::finish_at`]), one fails, or `deadline` passes. Blocks
/// in epoll between reads, so an arrival is stamped when it lands.
pub fn read_until_done(subs: &mut [Subscriber], tally: &Tally, epoch: Instant, deadline: Instant) {
    let mut poll = Poll::new().expect("create epoll instance");
    for (i, sub) in subs.iter().enumerate() {
        poll.registry()
            .register(&sub.sock, Token(i), Interest::READABLE)
            .expect("register subscriber socket");
    }
    let mut events = Events::with_capacity(8);
    loop {
        if poll
            .poll(&mut events, Some(Duration::from_millis(5)))
            .is_err()
        {
            break;
        }
        for event in &events {
            subs[event.token().0].pump(epoch);
        }
        if tally.update(subs) || Instant::now() >= deadline {
            break;
        }
    }
}

/// Drives `subs` until `active` (the server's count of registered
/// subscribers) covers every one of them, for at most 10 s.
pub fn await_subscribers(
    subs: &mut [Subscriber],
    epoch: Instant,
    mut active: impl FnMut() -> u64,
) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        for sub in subs.iter_mut() {
            sub.pump(epoch);
        }
        if active() == subs.len() as u64 {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}
