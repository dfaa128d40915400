//! TCP subscriber to a [`StreamDaemon`](crate::StreamDaemon) or a
//! `ps3-fleet` coordinator.
//!
//! A [`StreamClient`] subscribes with a pair mask and a rate divisor,
//! converts raw codes to physical readings locally (using the sensor
//! configuration carried in the `Hello` message and the same
//! [`ps3_core::pair_readings`] math the host library uses), and
//! implements [`ps3_pmt::PowerMeter`] so a networked sensor plugs into
//! everything PMT-based.
//!
//! Against a fleet coordinator the client can additionally route its
//! subscription to one rig, a rig set, or the fleet-wide merged stream
//! (see [`RigSelector`]); merged frames arrive rig-tagged and the
//! client keeps per-rig gap accounting alongside the totals.
//!
//! # Reconnect semantics
//!
//! With [`StreamClientConfig::reconnect`] set, a client whose
//! connection is lost (network error, daemon restart, clean daemon
//! shutdown) redials with exponential backoff and re-sends its
//! original subscription. The new subscription attaches at the
//! server's **live head** — there is no server-side replay cursor, so
//! frames published while the client was disconnected are simply never
//! seen: they are *not* counted in [`StreamClient::dropped_frames`]
//! (that counter is reserved for ring laps the server reported). The
//! discontinuity is visible to the application as a jump in frame
//! timestamps and a bump of [`StreamClient::reconnects`]. An eviction
//! *for cause* (too many gaps, stalled write) is not retried.

use std::collections::BTreeMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use ps3_core::pair_readings;
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_pmt::PowerMeter;
use ps3_sensors::AdcSpec;
use ps3_units::{SimDuration, SimTime, Watts};

use crate::proto::{
    read_msg_body, write_msg, ClientMsg, EvictReason, FleetHello, RigSelector, RigStatus,
    ServerMsg, StreamFrame, StreamStats,
};
use crate::signal::Signal;

/// Bounded-retry reconnect behaviour for [`StreamClientConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Redial attempts per disconnect before giving up.
    pub max_retries: u32,
    /// Delay before the first redial; doubles per failed attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// Subscription parameters for [`StreamClient::connect`].
#[derive(Debug, Clone)]
pub struct StreamClientConfig {
    /// Bit `p` selects sensor pair `p`. Default: all four pairs.
    pub pair_mask: u8,
    /// Device frames averaged per delivered frame (1 = native 20 kHz,
    /// 20 = 1 kHz, 2000 = 10 Hz).
    pub divisor: u32,
    /// Rig routing against a fleet coordinator. `None` (default) is a
    /// plain legacy subscription — a coordinator serves it from rig 0,
    /// a plain daemon ignores the distinction entirely.
    pub rig: Option<RigSelector>,
    /// Redial on connection loss. `None` (default): a lost connection
    /// ends the stream, as before.
    pub reconnect: Option<ReconnectPolicy>,
}

impl Default for StreamClientConfig {
    fn default() -> Self {
        Self {
            pair_mask: 0x0F,
            divisor: 1,
            rig: None,
            reconnect: None,
        }
    }
}

/// Per-frame observer; runs on the client's reader thread.
pub type FrameCallback = Box<dyn FnMut(&StreamFrame) + Send>;

/// Rig-tagged observer for merged streams; runs on the reader thread.
pub type RigFrameCallback = Box<dyn FnMut(u16, &StreamFrame) + Send>;

/// Per-rig delivery accounting for a rig-routed subscription.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RigCounts {
    pub rig: u16,
    pub frames: u64,
    pub gap_events: u64,
    pub dropped: u64,
}

struct ClientShared {
    frames_received: AtomicU64,
    gap_events: AtomicU64,
    dropped_frames: AtomicU64,
    reconnects: AtomicU64,
    evicted: AtomicBool,
    eviction: Mutex<Option<EvictReason>>,
    alive: AtomicBool,
    /// Set by `close()` so the reader never redials a socket we shut
    /// down on purpose.
    closing: AtomicBool,
    /// Latest frame with its converted total power.
    last: Mutex<Option<(StreamFrame, Watts)>>,
    callback: Mutex<Option<FrameCallback>>,
    rig_callback: Mutex<Option<RigFrameCallback>>,
    /// Per-rig counters, keyed by rig id (rig-tagged messages only).
    rig_counts: Mutex<BTreeMap<u16, RigCounts>>,
    stats_reply: Mutex<Option<StreamStats>>,
    fleet_reply: Mutex<Option<Vec<RigStatus>>>,
    /// Notified after every message (query replies included),
    /// eviction, reconnect and reader exit, and by `close()`.
    changed: Signal,
}

/// A connected stream subscriber.
pub struct StreamClient {
    writer: Arc<Mutex<TcpStream>>,
    shared: Arc<ClientShared>,
    reader: Option<JoinHandle<()>>,
    configs: Box<[SensorConfig; SENSOR_SLOTS]>,
    fleet: Option<FleetHello>,
    frame_interval: SimDuration,
    divisor: u32,
}

impl StreamClient {
    /// Connects and subscribes.
    ///
    /// # Errors
    ///
    /// Connection failures, or a malformed daemon handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A, config: StreamClientConfig) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let subscribe = ClientMsg::Subscribe {
            pair_mask: config.pair_mask,
            divisor: config.divisor,
            rig: config.rig.clone(),
        }
        .encode();
        let (stream, frame_interval_us, configs, fleet) = handshake(&addrs, &subscribe)?;

        let shared = Arc::new(ClientShared {
            frames_received: AtomicU64::new(0),
            gap_events: AtomicU64::new(0),
            dropped_frames: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            evicted: AtomicBool::new(false),
            eviction: Mutex::new(None),
            alive: AtomicBool::new(true),
            closing: AtomicBool::new(false),
            last: Mutex::new(None),
            callback: Mutex::new(None),
            rig_callback: Mutex::new(None),
            rig_counts: Mutex::new(BTreeMap::new()),
            stats_reply: Mutex::new(None),
            fleet_reply: Mutex::new(None),
            changed: Signal::default(),
        });

        let writer = Arc::new(Mutex::new(stream.try_clone()?));
        let reader = {
            let shared = Arc::clone(&shared);
            let configs = configs.clone();
            let writer = Arc::clone(&writer);
            let reconnect = config.reconnect;
            std::thread::Builder::new()
                .name("ps3-stream-client".into())
                .spawn(move || {
                    reader_thread(
                        stream, &shared, &configs, &writer, &subscribe, &addrs, reconnect,
                    );
                })
                .expect("spawn client reader")
        };

        Ok(Self {
            writer,
            shared,
            reader: Some(reader),
            configs,
            fleet,
            frame_interval: SimDuration::from_micros(u64::from(frame_interval_us)),
            divisor: config.divisor,
        })
    }

    /// Registers an observer called with every delivered frame, on the
    /// reader thread. Replaces any previous callback.
    pub fn set_frame_callback<F: FnMut(&StreamFrame) + Send + 'static>(&self, callback: F) {
        *self.shared.callback.lock() = Some(Box::new(callback));
    }

    /// Registers a rig-tagged observer for merged-stream frames
    /// ([`ServerMsg::RigBatch`]), on the reader thread. Plain batches
    /// do not reach it. Replaces any previous rig callback.
    pub fn set_rig_frame_callback<F: FnMut(u16, &StreamFrame) + Send + 'static>(
        &self,
        callback: F,
    ) {
        *self.shared.rig_callback.lock() = Some(Box::new(callback));
    }

    /// Sensor configuration announced by the daemon.
    #[must_use]
    pub fn configs(&self) -> &[SensorConfig; SENSOR_SLOTS] {
        &self.configs
    }

    /// The coordinator's fleet extension announcement, when the
    /// subscription was rig-routed and the server understood it.
    #[must_use]
    pub fn fleet(&self) -> Option<FleetHello> {
        self.fleet
    }

    /// Frames delivered to this subscriber so far (after downsampling).
    #[must_use]
    pub fn frames_received(&self) -> u64 {
        self.shared.frames_received.load(Ordering::SeqCst)
    }

    /// Times this subscriber's stream gapped (ring laps on the daemon).
    #[must_use]
    pub fn gap_events(&self) -> u64 {
        self.shared.gap_events.load(Ordering::SeqCst)
    }

    /// Total device frames lost across all gaps.
    #[must_use]
    pub fn dropped_frames(&self) -> u64 {
        self.shared.dropped_frames.load(Ordering::SeqCst)
    }

    /// Successful redials so far (see the module docs for what a
    /// reconnect means for the frame cursor).
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::SeqCst)
    }

    /// Per-rig delivery accounting, one entry per rig that has sent
    /// this subscriber a rig-tagged batch or gap, ordered by rig id.
    #[must_use]
    pub fn rig_counts(&self) -> Vec<RigCounts> {
        self.shared.rig_counts.lock().values().copied().collect()
    }

    /// `true` once the daemon has evicted this subscriber *for cause*
    /// (too many gaps or a stalled write). A clean daemon shutdown
    /// ends the stream without setting this; see
    /// [`StreamClient::eviction_reason`].
    #[must_use]
    pub fn is_evicted(&self) -> bool {
        self.shared.evicted.load(Ordering::SeqCst)
    }

    /// Why the daemon closed this subscription, once it has (including
    /// [`EvictReason::Shutdown`] for a clean daemon shutdown).
    #[must_use]
    pub fn eviction_reason(&self) -> Option<EvictReason> {
        *self.shared.eviction.lock()
    }

    /// `false` once the connection is gone (eviction, daemon shutdown,
    /// or network error) and any configured reconnect attempts have
    /// been exhausted.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::SeqCst)
    }

    /// Blocks until `done(self)` holds or `timeout` passes, and returns
    /// whether it held. `done` is re-tested after every message from
    /// the server, on eviction, reconnect and connection loss — e.g.
    /// `|c| c.frames_received() + c.dropped_frames() == published`.
    pub fn wait_until(&self, timeout: Duration, mut done: impl FnMut(&Self) -> bool) -> bool {
        self.shared.changed.wait_until(timeout, || done(self))
    }

    /// The most recent frame, if any arrived yet.
    #[must_use]
    pub fn last_frame(&self) -> Option<StreamFrame> {
        self.shared.last.lock().map(|(frame, _)| frame)
    }

    /// Total power of the most recent frame (zero before any frame).
    #[must_use]
    pub fn last_watts(&self) -> Watts {
        self.shared
            .last
            .lock()
            .map_or(Watts::zero(), |(_, watts)| watts)
    }

    /// Asks the daemon to inject a time-synced marker.
    ///
    /// # Errors
    ///
    /// Write failure if the connection is gone.
    pub fn inject_marker(&self, label: char) -> io::Result<()> {
        write_msg(
            &mut *self.writer.lock(),
            &ClientMsg::InjectMarker { label }.encode(),
        )
    }

    /// Round-trips a statistics query to the daemon.
    ///
    /// # Errors
    ///
    /// Write failure, or [`io::ErrorKind::TimedOut`] when no reply
    /// arrives in time.
    pub fn query_stats(&self, timeout: Duration) -> io::Result<StreamStats> {
        self.round_trip(
            &ClientMsg::QueryStats,
            &self.shared.stats_reply,
            "stats",
            timeout,
        )
    }

    /// Round-trips a fleet roster query. A plain (non-fleet) daemon
    /// answers with an empty roster.
    ///
    /// # Errors
    ///
    /// Write failure, or [`io::ErrorKind::TimedOut`] when no reply
    /// arrives in time.
    pub fn query_fleet(&self, timeout: Duration) -> io::Result<Vec<RigStatus>> {
        self.round_trip(
            &ClientMsg::QueryFleet,
            &self.shared.fleet_reply,
            "fleet",
            timeout,
        )
    }

    /// Sends `query`, then blocks until the reader parks the reply in
    /// `slot` or the connection is lost.
    fn round_trip<T>(
        &self,
        query: &ClientMsg,
        slot: &Mutex<Option<T>>,
        what: &str,
        timeout: Duration,
    ) -> io::Result<T> {
        *slot.lock() = None;
        write_msg(&mut *self.writer.lock(), &query.encode())?;
        let mut reply = None;
        self.shared.changed.wait_until(timeout, || {
            reply = slot.lock().take();
            reply.is_some() || !self.is_alive()
        });
        match reply {
            Some(reply) => Ok(reply),
            None if !self.is_alive() => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "stream connection lost",
            )),
            None => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no {what} reply from daemon"),
            )),
        }
    }

    /// Says goodbye and closes the connection. Also runs on drop.
    pub fn close(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        self.shared.changed.notify();
        {
            let mut writer = self.writer.lock();
            let _ = write_msg(&mut *writer, &ClientMsg::Bye.encode());
            let _ = writer.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for StreamClient {
    fn drop(&mut self) {
        self.close();
    }
}

impl core::fmt::Debug for StreamClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StreamClient")
            .field("frames_received", &self.frames_received())
            .field("gap_events", &self.gap_events())
            .field("alive", &self.is_alive())
            .finish_non_exhaustive()
    }
}

impl PowerMeter for StreamClient {
    fn name(&self) -> &str {
        "PowerSensor3-stream"
    }

    fn read_watts(&mut self, _now: SimTime) -> Watts {
        self.last_watts()
    }

    fn native_interval(&self) -> SimDuration {
        SimDuration::from_nanos(self.frame_interval.as_nanos() * u64::from(self.divisor))
    }
}

/// Total power over the pairs present in `frame`, converted with the
/// announced configuration — the same math as the host library.
fn frame_watts(frame: &StreamFrame, configs: &[SensorConfig; SENSOR_SLOTS]) -> Watts {
    let adc = AdcSpec::POWERSENSOR3;
    let mut total = Watts::zero();
    for pair in 0..SENSOR_SLOTS / 2 {
        let (i_slot, u_slot) = (2 * pair, 2 * pair + 1);
        let pair_bits = (1 << i_slot) | (1 << u_slot);
        if frame.present & pair_bits != pair_bits {
            continue;
        }
        let i_cfg = &configs[i_slot];
        let u_cfg = &configs[u_slot];
        if !(i_cfg.enabled && u_cfg.enabled) {
            continue;
        }
        let (_, _, watts) = pair_readings(i_cfg, u_cfg, &adc, frame.raw[i_slot], frame.raw[u_slot]);
        total += watts;
    }
    total
}

/// Dials the first address that answers and completes the
/// Subscribe → Hello handshake.
#[allow(clippy::type_complexity)]
fn handshake(
    addrs: &[SocketAddr],
    subscribe: &[u8],
) -> io::Result<(
    TcpStream,
    u32,
    Box<[SensorConfig; SENSOR_SLOTS]>,
    Option<FleetHello>,
)> {
    let mut stream = TcpStream::connect(addrs)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write_msg(&mut stream, subscribe)?;
    let body = read_msg_body(&mut stream)?;
    let ServerMsg::Hello {
        frame_interval_us,
        configs,
        fleet,
    } = ServerMsg::decode(&body)?
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "daemon did not send Hello",
        ));
    };
    stream.set_read_timeout(None)?;
    Ok((stream, frame_interval_us, configs, fleet))
}

/// How one reader session ended.
enum SessionEnd {
    /// For-cause eviction: never redialled.
    Closed,
    /// Network loss or clean server shutdown: redialled when a
    /// [`ReconnectPolicy`] is configured.
    Lost,
}

fn reader_thread(
    mut stream: TcpStream,
    shared: &Arc<ClientShared>,
    configs: &[SensorConfig; SENSOR_SLOTS],
    writer: &Arc<Mutex<TcpStream>>,
    subscribe: &[u8],
    addrs: &[SocketAddr],
    reconnect: Option<ReconnectPolicy>,
) {
    loop {
        let end = reader_loop(&mut stream, shared, configs);
        let lost = matches!(end, SessionEnd::Lost) && !shared.closing.load(Ordering::SeqCst);
        let Some(policy) = reconnect.filter(|_| lost) else {
            break;
        };
        match redial(&policy, addrs, subscribe, shared) {
            Some(new_stream) => {
                let Ok(clone) = new_stream.try_clone() else {
                    break;
                };
                *writer.lock() = clone;
                stream = new_stream;
                shared.reconnects.fetch_add(1, Ordering::SeqCst);
                shared.changed.notify();
            }
            None => break,
        }
    }
    shared.alive.store(false, Ordering::SeqCst);
    shared.changed.notify();
}

/// Bounded exponential-backoff redial; `None` when retries are
/// exhausted or the client is closing.
fn redial(
    policy: &ReconnectPolicy,
    addrs: &[SocketAddr],
    subscribe: &[u8],
    shared: &ClientShared,
) -> Option<TcpStream> {
    let mut backoff = policy.initial_backoff;
    for _ in 0..policy.max_retries {
        // close() notifies, so it never waits out a long backoff.
        if shared
            .changed
            .wait_until(backoff, || shared.closing.load(Ordering::SeqCst))
        {
            return None;
        }
        if let Ok((stream, _, _, _)) = handshake(addrs, subscribe) {
            return Some(stream);
        }
        backoff = (backoff * 2).min(policy.max_backoff);
    }
    None
}

fn reader_loop(
    stream: &mut TcpStream,
    shared: &ClientShared,
    configs: &[SensorConfig; SENSOR_SLOTS],
) -> SessionEnd {
    while let Ok(msg) = read_msg_body(stream).and_then(|b| ServerMsg::decode(&b)) {
        match msg {
            ServerMsg::Batch { frames } => {
                deliver(shared, configs, None, &frames);
            }
            ServerMsg::RigBatch { rig, frames } => {
                deliver(shared, configs, Some(rig), &frames);
            }
            ServerMsg::Gap { dropped } => {
                shared.gap_events.fetch_add(1, Ordering::SeqCst);
                shared.dropped_frames.fetch_add(dropped, Ordering::SeqCst);
            }
            ServerMsg::RigGap { rig, dropped } => {
                shared.gap_events.fetch_add(1, Ordering::SeqCst);
                shared.dropped_frames.fetch_add(dropped, Ordering::SeqCst);
                let mut counts = shared.rig_counts.lock();
                let entry = counts.entry(rig).or_insert(RigCounts {
                    rig,
                    ..RigCounts::default()
                });
                entry.gap_events += 1;
                entry.dropped += dropped;
            }
            ServerMsg::Stats(stats) => *shared.stats_reply.lock() = Some(stats),
            ServerMsg::FleetStatus { rigs } => *shared.fleet_reply.lock() = Some(rigs),
            ServerMsg::Evicted { reason } => {
                *shared.eviction.lock() = Some(reason);
                let end = if reason == EvictReason::Shutdown {
                    SessionEnd::Lost
                } else {
                    shared.evicted.store(true, Ordering::SeqCst);
                    SessionEnd::Closed
                };
                shared.changed.notify();
                return end;
            }
            ServerMsg::Hello { .. } => { /* duplicate hello: ignore */ }
        }
        shared.changed.notify();
    }
    SessionEnd::Lost
}

/// Runs the callbacks and counters for one batch of frames.
fn deliver(
    shared: &ClientShared,
    configs: &[SensorConfig; SENSOR_SLOTS],
    rig: Option<u16>,
    frames: &[StreamFrame],
) {
    {
        let mut callback = shared.callback.lock();
        let mut rig_callback = shared.rig_callback.lock();
        for frame in frames {
            if let Some(cb) = callback.as_mut() {
                cb(frame);
            }
            if let (Some(rig), Some(cb)) = (rig, rig_callback.as_mut()) {
                cb(rig, frame);
            }
        }
    }
    if let Some(frame) = frames.last() {
        *shared.last.lock() = Some((*frame, frame_watts(frame, configs)));
    }
    if let Some(rig) = rig {
        let mut counts = shared.rig_counts.lock();
        let entry = counts.entry(rig).or_insert(RigCounts {
            rig,
            ..RigCounts::default()
        });
        entry.frames += frames.len() as u64;
    }
    // Counted last, so `frames_received` only covers frames the
    // callback has already observed.
    shared
        .frames_received
        .fetch_add(frames.len() as u64, Ordering::SeqCst);
}
