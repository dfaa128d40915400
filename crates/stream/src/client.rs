//! TCP subscriber to a [`StreamDaemon`](crate::StreamDaemon) or a
//! `ps3-fleet` coordinator.
//!
//! A [`StreamClient`] subscribes with a pair mask and a rate divisor,
//! converts raw codes to physical readings locally (using the sensor
//! configuration carried in the `Hello` message and the same
//! [`ps3_firmware::fold_pairs`] the host library uses).
//!
//! Against a fleet coordinator the client can additionally route its
//! subscription to one rig, a rig set, or the fleet-wide merged stream
//! (see [`RigSelector`]); merged frames arrive rig-tagged and the
//! client keeps per-rig gap accounting alongside the totals.
//!
//! A lost connection (eviction, daemon shutdown, network error) ends
//! the stream.

use std::collections::BTreeMap;
use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use ps3_firmware::{fold_pairs, SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_units::Watts;

use crate::proto::{
    read_msg_body, write_msg, ClientMsg, EvictReason, FleetHello, RigSelector, RigStatus,
    ServerMsg, StreamFrame, StreamStats,
};
use crate::signal::Signal;

/// Subscription parameters for [`StreamClient::connect`], and the
/// observers that see its frames.
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
    /// Called with every delivered frame, on the reader thread. It is
    /// in place before the reader starts, so it sees every frame
    /// [`StreamClient::frames_received`] counts.
    pub on_frame: Option<FrameCallback>,
    /// Called with every rig-tagged frame of a merged stream
    /// ([`ServerMsg::RigBatch`]), on the reader thread, from the first
    /// frame on. Plain batches do not reach it.
    pub on_rig_frame: Option<RigFrameCallback>,
}

impl Default for StreamClientConfig {
    fn default() -> Self {
        Self {
            pair_mask: 0x0F,
            divisor: 1,
            rig: None,
            on_frame: None,
            on_rig_frame: None,
        }
    }
}

impl core::fmt::Debug for StreamClientConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StreamClientConfig")
            .field("pair_mask", &self.pair_mask)
            .field("divisor", &self.divisor)
            .field("rig", &self.rig)
            .field("on_frame", &self.on_frame.is_some())
            .field("on_rig_frame", &self.on_rig_frame.is_some())
            .finish()
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
    evicted: AtomicBool,
    eviction: Mutex<Option<EvictReason>>,
    alive: AtomicBool,
    /// Total power of the latest frame.
    last_watts: Mutex<Watts>,
    /// Per-rig counters, keyed by rig id (rig-tagged messages only).
    rig_counts: Mutex<BTreeMap<u16, RigCounts>>,
    stats_reply: Mutex<Option<StreamStats>>,
    fleet_reply: Mutex<Option<Vec<RigStatus>>>,
    /// Notified after every message (query replies included),
    /// eviction and reader exit.
    changed: Signal,
}

/// A connected stream subscriber.
pub struct StreamClient {
    writer: Mutex<TcpStream>,
    shared: Arc<ClientShared>,
    reader: Option<JoinHandle<()>>,
    configs: Box<[SensorConfig; SENSOR_SLOTS]>,
    fleet: Option<FleetHello>,
}

impl StreamClient {
    /// Connects and subscribes.
    ///
    /// # Errors
    ///
    /// Connection failures, or a malformed daemon handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A, config: StreamClientConfig) -> io::Result<Self> {
        let subscribe = ClientMsg::Subscribe {
            pair_mask: config.pair_mask,
            divisor: config.divisor,
            rig: config.rig,
        }
        .encode();
        let (stream, configs, fleet) = handshake(addr, &subscribe)?;

        let shared = Arc::new(ClientShared {
            frames_received: AtomicU64::new(0),
            gap_events: AtomicU64::new(0),
            dropped_frames: AtomicU64::new(0),
            evicted: AtomicBool::new(false),
            eviction: Mutex::new(None),
            alive: AtomicBool::new(true),
            last_watts: Mutex::new(Watts::zero()),
            rig_counts: Mutex::new(BTreeMap::new()),
            stats_reply: Mutex::new(None),
            fleet_reply: Mutex::new(None),
            changed: Signal::default(),
        });

        let writer = Mutex::new(stream.try_clone()?);
        let reader = {
            let shared = Arc::clone(&shared);
            let configs = configs.clone();
            let mut sinks = Sinks {
                frame: config.on_frame,
                rig: config.on_rig_frame,
            };
            std::thread::Builder::new()
                .name("ps3-stream-client".into())
                .spawn(move || {
                    reader_loop(stream, &shared, &configs, &mut sinks);
                    shared.alive.store(false, Ordering::SeqCst);
                    shared.changed.notify();
                })
                .expect("spawn client reader")
        };

        Ok(Self {
            writer,
            shared,
            reader: Some(reader),
            configs,
            fleet,
        })
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
    /// or network error).
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::SeqCst)
    }

    /// Blocks until `done(self)` holds or `timeout` passes, and returns
    /// whether it held. `done` is re-tested after every message from
    /// the server, on eviction and on connection loss — e.g.
    /// `|c| c.frames_received() + c.dropped_frames() == published`.
    pub fn wait_until(&self, timeout: Duration, mut done: impl FnMut(&Self) -> bool) -> bool {
        self.shared.changed.wait_until(timeout, || done(self))
    }

    /// Total power of the most recent frame (zero before any frame).
    #[must_use]
    pub fn last_watts(&self) -> Watts {
        *self.shared.last_watts.lock()
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

/// Dials the first address that answers and completes the
/// Subscribe → Hello handshake.
fn handshake<A: ToSocketAddrs>(
    addr: A,
    subscribe: &[u8],
) -> io::Result<(
    TcpStream,
    Box<[SensorConfig; SENSOR_SLOTS]>,
    Option<FleetHello>,
)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write_msg(&mut stream, subscribe)?;
    let body = read_msg_body(&mut stream)?;
    let ServerMsg::Hello { configs, fleet, .. } = ServerMsg::decode(&body)? else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "daemon did not send Hello",
        ));
    };
    stream.set_read_timeout(None)?;
    Ok((stream, configs, fleet))
}

/// The subscription's frame observers, owned by its reader thread.
struct Sinks {
    frame: Option<FrameCallback>,
    rig: Option<RigFrameCallback>,
}

/// Reads server messages until the stream ends or the daemon closes
/// the subscription.
fn reader_loop(
    mut stream: TcpStream,
    shared: &ClientShared,
    configs: &[SensorConfig; SENSOR_SLOTS],
    sinks: &mut Sinks,
) {
    while let Ok(msg) = read_msg_body(&mut stream).and_then(|b| ServerMsg::decode(&b)) {
        match msg {
            ServerMsg::Batch { frames } => {
                deliver(shared, configs, sinks, None, &frames);
            }
            ServerMsg::RigBatch { rig, frames } => {
                deliver(shared, configs, sinks, Some(rig), &frames);
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
                if reason != EvictReason::Shutdown {
                    shared.evicted.store(true, Ordering::SeqCst);
                }
                return;
            }
            ServerMsg::Hello { .. } => { /* duplicate hello: ignore */ }
        }
        shared.changed.notify();
    }
}

/// Runs the callbacks and counters for one batch of frames.
fn deliver(
    shared: &ClientShared,
    configs: &[SensorConfig; SENSOR_SLOTS],
    sinks: &mut Sinks,
    rig: Option<u16>,
    frames: &[StreamFrame],
) {
    for frame in frames {
        if let Some(cb) = sinks.frame.as_mut() {
            cb(frame);
        }
        if let (Some(rig), Some(cb)) = (rig, sinks.rig.as_mut()) {
            cb(rig, frame);
        }
    }
    if let Some(frame) = frames.last() {
        let watts = fold_pairs(
            configs,
            &AdcSpec::POWERSENSOR3,
            &frame.raw,
            frame.present,
            |_, _, _, _| {},
        );
        *shared.last_watts.lock() = watts;
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
