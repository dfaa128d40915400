//! The streaming daemon: owns a [`SharedPowerSensor`], taps its frame
//! stream into a [`BroadcastRing`], and serves any number of TCP
//! subscribers at their own rates — all from **one event-loop
//! thread**.
//!
//! Design invariant: **a subscriber can never slow down acquisition.**
//! The acquisition tap only publishes into the ring (lock-free, never
//! blocks on consumers) and nudges the loop's waker. Each subscriber
//! is a one-ring [`Session`] with untagged `Batch`/`Gap` framing (a
//! `RigSelector` in its `Subscribe` is ignored), pumped by the loop
//! into a bounded per-connection write queue; a subscriber that falls
//! behind is lapped by the ring (drop-oldest, reported as
//! [`ServerMsg::Gap`]); one that keeps falling behind — or stalls
//! entirely so its socket accepts nothing for the write timeout — is
//! evicted. The earlier implementation spent two OS threads per
//! subscriber on exactly these semantics; the event loop preserves
//! them (same eviction reasons, same gap accounting) at C10k
//! subscriber counts.
//!
//! [`BroadcastRing`]: crate::BroadcastRing

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ps3_archive::Archive;
use ps3_core::SharedPowerSensor;
use ps3_firmware::FRAME_INTERVAL;
use ps3_units::SimTime;

use crate::event_loop::{bring_up, spawn_loop, Control, Handler, LoopStats, LoopWaker, OutQueue};
use crate::proto::{ClientMsg, RigSelector, ServerMsg, StreamFrame, StreamStats};
use crate::session::{Feed, Session};

/// Tuning knobs for [`StreamDaemon::start`].
#[derive(Debug, Clone)]
pub struct StreamDaemonConfig {
    /// Broadcast ring capacity in frames (rounded up to a power of
    /// two). At 20 kHz the default of 8192 buffers ~0.4 s.
    pub ring_capacity: usize,
    /// A subscriber whose socket accepts no bytes for this long while
    /// output is pending is considered stalled and evicted.
    pub write_timeout: Duration,
    /// A subscriber lapped more than this many times is evicted.
    pub max_gap_events: u64,
    /// How long the handshake (`Subscribe`) may take.
    pub handshake_timeout: Duration,
    /// Per-subscriber send bound: both the socket's kernel buffer
    /// (`SO_SNDBUF`) and the in-process write queue, 0 to leave the OS
    /// default. Kernel autotuning can grow TCP buffers to tens of
    /// megabytes, which would let a stalled subscriber absorb minutes
    /// of data before the stall detector ever fires; bounding the
    /// buffer keeps eviction timely.
    pub send_buffer_bytes: usize,
}

impl Default for StreamDaemonConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 8192,
            write_timeout: Duration::from_millis(500),
            max_gap_events: 16,
            handshake_timeout: Duration::from_secs(5),
            send_buffer_bytes: 128 * 1024,
        }
    }
}

/// Where a daemon's frames come from.
enum FrameSource {
    /// Live acquisition: a tap on the sensor's reader thread.
    Live(SharedPowerSensor),
    /// Replay: a pump thread publishing an archived range.
    Replay,
}

/// Handle to a running streaming daemon. Dropping it shuts the daemon
/// down and joins all its threads.
pub struct StreamDaemon {
    shared: Arc<DaemonShared>,
    local_addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

struct DaemonShared {
    feed: Arc<Feed>,
    source: FrameSource,
    /// Pre-encoded `Hello`, identical for every subscriber.
    hello: Vec<u8>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<LoopStats>,
    waker: Arc<LoopWaker>,
}

impl DaemonShared {
    fn stats_snapshot(&self) -> StreamStats {
        self.stats.snapshot(self.feed.ring.head())
    }
}

impl StreamDaemon {
    /// Starts a daemon for `sensor`, listening on `addr` (use port 0
    /// for an ephemeral port; see [`StreamDaemon::local_addr`]).
    ///
    /// # Errors
    ///
    /// Socket bind errors.
    pub fn start<A: ToSocketAddrs>(
        sensor: SharedPowerSensor,
        addr: A,
        config: StreamDaemonConfig,
    ) -> io::Result<Self> {
        let hello = ServerMsg::Hello {
            frame_interval_us: FRAME_INTERVAL.as_micros() as u32,
            configs: Box::new(sensor.configs()),
            fleet: None,
        }
        .encode();
        let (shared, local_addr, event_loop) =
            launch(addr, config, hello, FrameSource::Live(sensor.clone()))?;

        // The acquisition tap: runs on the sensor's reader thread, so
        // it must only do the (non-blocking) ring publishes plus one
        // coalesced waker nudge per read chunk.
        {
            let feed = Arc::clone(&shared.feed);
            let shutdown = Arc::clone(&shared.shutdown);
            let waker = Arc::clone(&shared.waker);
            sensor.add_chunk_sink(move |frames| {
                if shutdown.load(Ordering::SeqCst) {
                    feed.ring.close();
                    waker.wake();
                    return false;
                }
                for record in frames {
                    feed.ring.publish(&StreamFrame::from(record));
                }
                waker.wake();
                true
            });
        }

        Ok(Self {
            shared,
            local_addr,
            event_loop: Some(event_loop),
            pump: None,
        })
    }

    /// Starts a daemon that replays an archived capture instead of
    /// tapping a live sensor.
    ///
    /// The replay covers `range` (half-open, `None` for the whole
    /// archive) and begins once the first subscriber attaches. `speed`
    /// scales the pacing: `1.0` replays at the recorded rate, `2.0`
    /// twice as fast, and `0.0` (or any non-positive value) publishes
    /// as fast as subscribers can drain. When the range is exhausted
    /// the stream closes and subscribers observe end-of-stream.
    ///
    /// Marker *bits* ride along at their archived positions;
    /// [`ClientMsg::InjectMarker`] is ignored (there is no live sensor
    /// to mark).
    ///
    /// # Errors
    ///
    /// Socket bind errors.
    pub fn start_replay<A: ToSocketAddrs>(
        archive: Arc<Archive>,
        range: Option<(SimTime, SimTime)>,
        speed: f64,
        addr: A,
        config: StreamDaemonConfig,
    ) -> io::Result<Self> {
        let hello = ServerMsg::Hello {
            frame_interval_us: FRAME_INTERVAL.as_micros() as u32,
            configs: Box::new(archive.configs().clone()),
            fleet: None,
        }
        .encode();
        let (shared, local_addr, event_loop) = launch(addr, config, hello, FrameSource::Replay)?;

        let pump = {
            let pump_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name("ps3-stream-replay".into())
                .spawn(move || replay_pump(&pump_shared, &archive, range, speed));
            match spawned {
                Ok(handle) => handle,
                Err(e) => {
                    // The loop thread is already up; signal shutdown
                    // and reap it rather than serve a pumpless daemon.
                    shared.shutdown.store(true, Ordering::SeqCst);
                    shared.waker.wake();
                    let _ = event_loop.join();
                    return Err(e);
                }
            }
        };

        Ok(Self {
            shared,
            local_addr,
            event_loop: Some(event_loop),
            pump: Some(pump),
        })
    }

    /// The address the daemon is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live daemon counters.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        self.shared.stats_snapshot()
    }

    /// Blocks until `f` holds for the daemon's counters (returns `true`)
    /// or `timeout` passes; [`LoopStats::wait_until`] says when `f` is
    /// re-tested.
    pub fn wait_stats(&self, timeout: Duration, mut f: impl FnMut(&StreamStats) -> bool) -> bool {
        let s = &self.shared;
        s.stats.wait_until(timeout, || f(&s.stats_snapshot()))
    }

    /// The sensor this daemon is serving, or `None` in replay mode.
    #[must_use]
    pub fn sensor(&self) -> Option<&SharedPowerSensor> {
        match &self.shared.source {
            FrameSource::Live(sensor) => Some(sensor),
            FrameSource::Replay => None,
        }
    }

    /// Whether this daemon replays an archive rather than serving a
    /// live sensor.
    #[must_use]
    pub fn is_replay(&self) -> bool {
        matches!(self.shared.source, FrameSource::Replay)
    }

    /// Stops accepting, disconnects all subscribers, and joins every
    /// daemon thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.feed.ring.close();
        self.shared.waker.wake();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.pump.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for StreamDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl core::fmt::Debug for StreamDaemon {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StreamDaemon")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// The shared bring-up path for live and replay daemons: bind, build
/// the ring and shared state, spawn the event loop.
fn launch<A: ToSocketAddrs>(
    addr: A,
    config: StreamDaemonConfig,
    hello: Vec<u8>,
    source: FrameSource,
) -> io::Result<(Arc<DaemonShared>, SocketAddr, JoinHandle<()>)> {
    let parts = bring_up(addr)?;
    let local_addr = parts.local_addr();
    let shared = Arc::new(DaemonShared {
        feed: Arc::new(Feed::new(config.ring_capacity)),
        source,
        hello,
        shutdown: Arc::new(AtomicBool::new(false)),
        stats: Arc::new(LoopStats::default()),
        waker: parts.waker(),
    });
    let event_loop = spawn_loop(
        "ps3-stream-loop",
        "ps3-stream",
        parts,
        DaemonHandler {
            shared: Arc::clone(&shared),
        },
        config,
        Arc::clone(&shared.shutdown),
        Arc::clone(&shared.stats),
    )?;
    Ok((shared, local_addr, event_loop))
}

/// The plain daemon's event-loop personality: every subscriber gets a
/// one-ring session over the daemon's feed, with untagged framing.
struct DaemonHandler {
    shared: Arc<DaemonShared>,
}

impl Handler for DaemonHandler {
    fn begin(
        &self,
        pair_mask: u8,
        divisor: u32,
        // A plain single-rig daemon serves the same stream whatever
        // rig the client asked for; routing lives in `ps3-fleet`.
        _rig: Option<RigSelector>,
    ) -> io::Result<(Vec<u8>, Session)> {
        let feed = Arc::clone(&self.shared.feed);
        Ok((
            self.shared.hello.clone(),
            Session::new(vec![(0, feed)], false, pair_mask, divisor),
        ))
    }

    fn control(&self, msg: ClientMsg, out: &mut OutQueue) -> Control {
        match msg {
            ClientMsg::InjectMarker { label } => {
                // Markers only make sense against a live sensor; in
                // replay mode the archived marker bits are replayed
                // as-is and injections are ignored.
                if let FrameSource::Live(sensor) = &self.shared.source {
                    let _ = sensor.mark(label);
                }
                Control::Continue
            }
            ClientMsg::QueryStats => {
                out.push(&ServerMsg::Stats(self.shared.stats_snapshot()));
                Control::Continue
            }
            ClientMsg::QueryFleet => {
                // Not a coordinator: answer with an empty roster so
                // fleet-aware tools degrade gracefully.
                out.push(&ServerMsg::FleetStatus { rigs: Vec::new() });
                Control::Continue
            }
            ClientMsg::Bye => Control::Disconnect,
            ClientMsg::Subscribe { .. } => Control::Disconnect, // protocol violation
        }
    }
}

/// Publishes an archived range into the ring, paced against wall
/// clock, then closes the ring so subscribers see end-of-stream.
///
/// Blocks until the first subscriber is up (its cursor pinned at the
/// ring head) before starting — a replay nobody watches would
/// otherwise finish before anyone could attach.
fn replay_pump(
    shared: &Arc<DaemonShared>,
    archive: &Archive,
    range: Option<(SimTime, SimTime)>,
    speed: f64,
) {
    shared.stats.wait_until(Duration::MAX, || {
        shared.stats.active_subscribers.load(Ordering::SeqCst) > 0
            || shared.shutdown.load(Ordering::SeqCst)
    });

    let start_wall = Instant::now();
    let mut first_time: Option<SimTime> = None;
    'outer: for meta in archive.segments() {
        if let Some((start, end)) = range {
            if meta.header.end_us < start.as_micros() || meta.header.start_us >= end.as_micros() {
                continue;
            }
        }
        // A segment that was readable at open time can only fail here
        // if the file changed underneath us; end the replay cleanly.
        let Ok(frames) = archive.decode_segment_frames(meta) else {
            break;
        };
        for frame in frames {
            if shared.shutdown.load(Ordering::SeqCst) {
                break 'outer;
            }
            if let Some((start, end)) = range {
                if frame.time < start {
                    continue;
                }
                if frame.time >= end {
                    break 'outer;
                }
            }
            let t0 = *first_time.get_or_insert(frame.time);
            if speed > 0.0 {
                let offset = frame.time.saturating_duration_since(t0);
                let target = Duration::from_secs_f64(offset.as_secs_f64() / speed);
                loop {
                    let elapsed = start_wall.elapsed();
                    if elapsed >= target {
                        break;
                    }
                    std::thread::sleep((target - elapsed).min(Duration::from_millis(50)));
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break 'outer;
                    }
                }
            }
            shared.feed.ring.publish(&StreamFrame::from(&frame));
            shared.waker.wake();
        }
    }
    shared.feed.ring.close();
    shared.waker.wake();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_sane() {
        let config = StreamDaemonConfig::default();
        assert!(config.ring_capacity >= 1024);
        assert!(config.write_timeout >= Duration::from_millis(100));
        assert!(config.max_gap_events >= 1);
    }
}
