//! The streaming wire protocol.
//!
//! Every message is length-prefixed: `[u32 LE length][u8 tag][payload]`
//! where `length` counts the tag byte plus the payload. Sample data
//! rides inside [`ServerMsg::Batch`] as the device's native 2-byte
//! sensor packets (see [`ps3_firmware::protocol::Packet`]), so the
//! encoder and decoder of the USB protocol are reused verbatim on the
//! network path; only the timestamp is lifted out of the 10-bit
//! wrapping scheme into an absolute µs header per frame.
//!
//! # Fleet routing extension
//!
//! A fleet coordinator multiplexes many rigs behind one endpoint. The
//! extension is negotiated per connection and fully backward
//! compatible in both directions:
//!
//! * A fleet-aware client appends a [`RigSelector`] suffix (led by a
//!   version byte) to its `Subscribe` payload. Pre-fleet daemons
//!   ignore trailing `Subscribe` bytes, so the same client can talk to
//!   a plain single-rig daemon unchanged.
//! * A coordinator answers a rig-routed `Subscribe` with a
//!   [`FleetHello`] suffix on its `Hello` and then frames samples as
//!   [`ServerMsg::RigBatch`]/[`ServerMsg::RigGap`]. A legacy
//!   `Subscribe` (no suffix) gets a plain `Hello` and untagged
//!   `Batch`/`Gap` messages for the coordinator's default rig 0, so
//!   pre-fleet clients keep working against a coordinator.

use std::io::{self, Read, Write};

use ps3_core::FrameRecord;
use ps3_firmware::protocol::Packet;
use ps3_firmware::{SensorConfig, CONFIG_WIRE_SIZE, SENSOR_SLOTS};
use ps3_units::SimTime;

/// Upper bound on a single message body, as a corruption guard.
pub const MAX_MSG_LEN: usize = 1 << 20;

/// Frames per [`ServerMsg::Batch`] cap (keeps messages bounded).
pub const MAX_BATCH_FRAMES: usize = 512;

/// One sample frame as it travels the stream: absolute time, the raw
/// 10-bit code per slot, a mask of slots that are present, and the
/// marker flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFrame {
    /// Absolute device timestamp.
    pub time: SimTime,
    /// Raw ADC code per sensor slot (only `present` slots meaningful).
    pub raw: [u16; SENSOR_SLOTS],
    /// Bit `i` set when slot `i` carries a sample.
    pub present: u8,
    /// Whether a marker is attached to this frame.
    pub marker: bool,
}

impl StreamFrame {
    /// A frame with no samples at the epoch.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            time: SimTime::ZERO,
            raw: [0; SENSOR_SLOTS],
            present: 0,
            marker: false,
        }
    }
}

/// The acquisition tap's conversion: a host frame as it enters the
/// broadcast ring (the marker label stays host-side; the wire carries
/// only the flag).
impl From<&FrameRecord> for StreamFrame {
    fn from(record: &FrameRecord) -> Self {
        Self {
            time: record.time,
            raw: record.raw,
            present: record.present,
            marker: record.marker.is_some(),
        }
    }
}

/// Version of the fleet routing extension this build speaks.
pub const FLEET_PROTO_VERSION: u8 = 1;

/// Cap on explicit rig-set sizes on the wire (corruption guard).
pub const MAX_RIG_SET: usize = 4096;

/// Which rigs a fleet subscription attaches to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RigSelector {
    /// The fleet-wide merged stream over every rig.
    All,
    /// A single rig by id.
    One(u16),
    /// An explicit set of rig ids.
    Set(Vec<u16>),
}

mod rig_kind {
    pub const ALL: u8 = 0;
    pub const ONE: u8 = 1;
    pub const SET: u8 = 2;
}

impl RigSelector {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(FLEET_PROTO_VERSION);
        match self {
            Self::All => {
                out.push(rig_kind::ALL);
                out.extend_from_slice(&0u16.to_le_bytes());
            }
            Self::One(id) => {
                out.push(rig_kind::ONE);
                out.extend_from_slice(&1u16.to_le_bytes());
                out.extend_from_slice(&id.to_le_bytes());
            }
            Self::Set(ids) => {
                out.push(rig_kind::SET);
                out.extend_from_slice(&(ids.len() as u16).to_le_bytes());
                for id in ids {
                    out.extend_from_slice(&id.to_le_bytes());
                }
            }
        }
    }

    /// Decodes the optional rig-selector suffix of a `Subscribe`.
    ///
    /// No suffix means a legacy subscription (`None`). A suffix with a
    /// version this build does not speak is *ignored*, not rejected:
    /// the connection negotiates down to the legacy protocol, exactly
    /// as a pre-fleet daemon would behave.
    fn decode_suffix(bytes: &[u8]) -> io::Result<Option<Self>> {
        if bytes.is_empty() {
            return Ok(None);
        }
        let (version, bytes) = split(bytes, 1)?;
        if version[0] != FLEET_PROTO_VERSION {
            return Ok(None);
        }
        let (kind, bytes) = split(bytes, 1)?;
        let (count, bytes) = get_u16(bytes)?;
        let count = count as usize;
        if count > MAX_RIG_SET {
            return Err(malformed("oversized rig set"));
        }
        let (id_bytes, _) = split(bytes, 2 * count)?;
        let ids: Vec<u16> = id_bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        match kind[0] {
            rig_kind::ALL => Ok(Some(Self::All)),
            rig_kind::ONE => {
                let &[id] = ids.as_slice() else {
                    return Err(malformed("rig selector One needs exactly one id"));
                };
                Ok(Some(Self::One(id)))
            }
            rig_kind::SET => {
                if ids.is_empty() {
                    return Err(malformed("empty rig set"));
                }
                Ok(Some(Self::Set(ids)))
            }
            k => Err(malformed(&format!("unknown rig selector kind {k:#x}"))),
        }
    }
}

/// The coordinator's half of the fleet negotiation, appended to
/// `Hello` when (and only when) the client's `Subscribe` carried a
/// [`RigSelector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetHello {
    /// Extension version the coordinator speaks.
    pub version: u8,
    /// Rigs behind this coordinator.
    pub rigs: u16,
}

/// Per-rig health snapshot carried by [`ServerMsg::FleetStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RigStatus {
    /// Rig id (0-based).
    pub id: u16,
    /// `true` while the rig's acquisition stack is up.
    pub alive: bool,
    /// Times the supervisor restarted this rig after a crash.
    pub restarts: u32,
    /// Archive shards written so far (one per rig generation).
    pub shards: u32,
    /// Frames this rig has published into the coordinator.
    pub frames_published: u64,
    /// Gap events reported to this rig's subscribers.
    pub gap_events: u64,
    /// Frames the rig's archive writers dropped (queue overflow).
    pub writer_dropped: u64,
}

/// Messages a subscriber sends to the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Opens the stream: which sensor pairs, and how many device frames
    /// to average per delivered frame (1 = native 20 kHz).
    Subscribe {
        /// Bit `p` set selects sensor pair `p` (slots `2p` and `2p+1`).
        pair_mask: u8,
        /// Block-averaging divisor (≥ 1).
        divisor: u32,
        /// Fleet routing: which rigs to attach to. `None` is a legacy
        /// single-rig subscription (a coordinator serves its rig 0).
        rig: Option<RigSelector>,
    },
    /// Asks the daemon to inject a time-synced marker at the device.
    InjectMarker {
        /// Label paired with the marker in traces and dumps.
        label: char,
    },
    /// Requests a [`ServerMsg::Stats`] reply.
    QueryStats,
    /// Requests a [`ServerMsg::FleetStatus`] reply (a plain daemon
    /// answers with an empty rig list).
    QueryFleet,
    /// Clean goodbye before closing the connection.
    Bye,
}

/// Messages the daemon sends to a subscriber.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// First message on a stream: acquisition cadence and the sensor
    /// configuration, so the client can convert raw codes locally.
    Hello {
        /// Device frame interval in microseconds (50 at 20 kHz).
        frame_interval_us: u32,
        /// EEPROM configuration per sensor slot.
        configs: Box<[SensorConfig; SENSOR_SLOTS]>,
        /// Fleet negotiation reply; present iff the `Subscribe` carried
        /// a [`RigSelector`] and the server is a fleet coordinator.
        fleet: Option<FleetHello>,
    },
    /// A run of consecutive sample frames.
    Batch {
        /// The frames, oldest first.
        frames: Vec<StreamFrame>,
    },
    /// A run of consecutive sample frames from one rig of a fleet
    /// (rig-routed subscriptions only; rigs interleave at batch
    /// granularity in a merged stream).
    RigBatch {
        /// Rig the frames came from.
        rig: u16,
        /// The frames, oldest first.
        frames: Vec<StreamFrame>,
    },
    /// The subscriber fell behind and frames were dropped (drop-oldest
    /// policy); the stream resumes after the gap.
    Gap {
        /// Number of frames this subscriber missed.
        dropped: u64,
    },
    /// A gap on one rig of a merged fleet stream. The merged stream's
    /// total drop accounting is exactly the sum of its per-rig gaps.
    RigGap {
        /// Rig whose frames were lost.
        rig: u16,
        /// Number of that rig's frames this subscriber missed.
        dropped: u64,
    },
    /// Daemon statistics, answering [`ClientMsg::QueryStats`].
    Stats(StreamStats),
    /// Per-rig fleet health, answering [`ClientMsg::QueryFleet`].
    FleetStatus {
        /// One entry per rig, in rig-id order.
        rigs: Vec<RigStatus>,
    },
    /// The daemon is closing this subscription; the reason says why,
    /// so clients (and the simulation harness) can distinguish a
    /// for-cause eviction from a clean shutdown.
    Evicted {
        /// Why the subscription ended.
        reason: EvictReason,
    },
}

/// Why the daemon closed a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// The subscriber was lapped by the ring more often than the
    /// daemon's configured `max_gap_events`.
    TooManyGaps {
        /// Gap events this subscriber accumulated.
        gaps: u64,
        /// The configured limit it exceeded.
        limit: u64,
    },
    /// A TCP write to the subscriber hit the stall timeout: the peer
    /// stopped reading.
    StalledWrite,
    /// The daemon shut down (or the replayed range ended).
    Shutdown,
}

impl core::fmt::Display for EvictReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::TooManyGaps { gaps, limit } => {
                write!(f, "too many gaps ({gaps} > limit {limit})")
            }
            Self::StalledWrite => write!(f, "stalled write"),
            Self::Shutdown => write!(f, "daemon shutdown"),
        }
    }
}

mod reason_code {
    pub const TOO_MANY_GAPS: u8 = 0;
    pub const STALLED_WRITE: u8 = 1;
    pub const SHUTDOWN: u8 = 2;
}

/// Daemon-side counters, exposed over the wire and via
/// `StreamDaemon::stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames published into the broadcast ring since start.
    pub frames_published: u64,
    /// Currently connected subscribers.
    pub active_subscribers: u64,
    /// Subscribers evicted for falling behind or stalling.
    pub evicted: u64,
    /// Total gap events across all subscribers.
    pub gap_events: u64,
    /// TCP connections accepted since start (whether or not they
    /// completed a handshake).
    pub accepted: u64,
    /// High-water mark of concurrently active subscribers.
    pub active_peak: u64,
    /// Payload bytes handed to subscriber sockets.
    pub bytes_sent: u64,
    /// Evictions caused by exceeding the gap limit.
    pub evicted_gaps: u64,
    /// Evictions caused by a stalled TCP write.
    pub evicted_stalled: u64,
}

mod tag {
    pub const SUBSCRIBE: u8 = b'S';
    pub const MARKER: u8 = b'M';
    pub const QUERY_STATS: u8 = b'Q';
    pub const QUERY_FLEET: u8 = b'F';
    pub const BYE: u8 = b'B';
    pub const HELLO: u8 = b'H';
    pub const BATCH: u8 = b'D';
    pub const RIG_BATCH: u8 = b'R';
    pub const GAP: u8 = b'G';
    pub const RIG_GAP: u8 = b'g';
    pub const STATS: u8 = b'T';
    pub const FLEET_STATUS: u8 = b'f';
    pub const EVICTED: u8 = b'E';
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u16(bytes: &[u8]) -> io::Result<(u16, &[u8])> {
    let (head, rest) = split(bytes, 2)?;
    Ok((u16::from_le_bytes(head.try_into().expect("size")), rest))
}

fn get_u32(bytes: &[u8]) -> io::Result<(u32, &[u8])> {
    let (head, rest) = split(bytes, 4)?;
    Ok((u32::from_le_bytes(head.try_into().expect("size")), rest))
}

fn get_u64(bytes: &[u8]) -> io::Result<(u64, &[u8])> {
    let (head, rest) = split(bytes, 8)?;
    Ok((u64::from_le_bytes(head.try_into().expect("size")), rest))
}

fn split(bytes: &[u8], n: usize) -> io::Result<(&[u8], &[u8])> {
    if bytes.len() < n {
        return Err(malformed("message truncated"));
    }
    Ok(bytes.split_at(n))
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("stream protocol: {what}"),
    )
}

/// Encodes one frame into `out`: `[t_us u64 LE][n u8][n × 2-byte
/// sensor packets]`.
fn encode_frame(frame: &StreamFrame, out: &mut Vec<u8>) {
    put_u64(out, frame.time.as_micros());
    let count_at = out.len();
    out.push(0);
    let mut n = 0u8;
    let mut marker_pending = frame.marker;
    for slot in 0..SENSOR_SLOTS {
        if frame.present & (1 << slot) == 0 {
            continue;
        }
        // The marker rides the first present slot. Slot 7 with the
        // marker bit would alias the timestamp packet encoding, so it
        // never carries one.
        let marker = marker_pending && slot != 7;
        if marker {
            marker_pending = false;
        }
        let packet = Packet::Sample {
            sensor: slot as u8,
            marker,
            value: frame.raw[slot],
        };
        out.extend_from_slice(&packet.encode());
        n += 1;
    }
    out[count_at] = n;
}

/// Decodes one frame, returning it and the remaining bytes.
fn decode_frame(bytes: &[u8]) -> io::Result<(StreamFrame, &[u8])> {
    let (t_us, bytes) = get_u64(bytes)?;
    let (n, bytes) = split(bytes, 1)?;
    let n = n[0] as usize;
    if n > SENSOR_SLOTS {
        return Err(malformed("too many packets in frame"));
    }
    let (packet_bytes, rest) = split(bytes, 2 * n)?;
    let time = SimTime::checked_from_micros(t_us)
        .ok_or_else(|| malformed("frame timestamp past the clock range"))?;
    let mut frame = StreamFrame {
        time,
        raw: [0; SENSOR_SLOTS],
        present: 0,
        marker: false,
    };
    for chunk in packet_bytes.chunks_exact(2) {
        let packet = Packet::decode([chunk[0], chunk[1]])
            .map_err(|e| malformed(&format!("bad sensor packet: {e}")))?;
        match packet {
            Packet::Sample {
                sensor,
                marker,
                value,
            } => {
                frame.raw[sensor as usize] = value;
                frame.present |= 1 << sensor;
                frame.marker |= marker;
            }
            Packet::Timestamp { .. } => {
                return Err(malformed("timestamp packet inside stream frame"))
            }
        }
    }
    Ok((frame, rest))
}

impl ClientMsg {
    /// Serialises the message, including the length prefix.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Self::Subscribe {
                pair_mask,
                divisor,
                rig,
            } => {
                body.push(tag::SUBSCRIBE);
                body.push(*pair_mask);
                put_u32(&mut body, *divisor);
                // The rig selector is a suffix precisely because old
                // daemons ignore trailing Subscribe bytes.
                if let Some(selector) = rig {
                    selector.encode(&mut body);
                }
            }
            Self::InjectMarker { label } => {
                body.push(tag::MARKER);
                put_u32(&mut body, *label as u32);
            }
            Self::QueryStats => body.push(tag::QUERY_STATS),
            Self::QueryFleet => body.push(tag::QUERY_FLEET),
            Self::Bye => body.push(tag::BYE),
        }
        with_length_prefix(body)
    }

    /// Parses a message body (tag + payload, no length prefix).
    pub fn decode(body: &[u8]) -> io::Result<Self> {
        let (tag_byte, payload) = split(body, 1)?;
        match tag_byte[0] {
            tag::SUBSCRIBE => {
                let (mask, payload) = split(payload, 1)?;
                let (divisor, payload) = get_u32(payload)?;
                if divisor == 0 {
                    return Err(malformed("zero divisor"));
                }
                Ok(Self::Subscribe {
                    pair_mask: mask[0],
                    divisor,
                    rig: RigSelector::decode_suffix(payload)?,
                })
            }
            tag::MARKER => {
                let (code, _) = get_u32(payload)?;
                let label = char::from_u32(code).ok_or_else(|| malformed("bad marker char"))?;
                Ok(Self::InjectMarker { label })
            }
            tag::QUERY_STATS => Ok(Self::QueryStats),
            tag::QUERY_FLEET => Ok(Self::QueryFleet),
            tag::BYE => Ok(Self::Bye),
            t => Err(malformed(&format!("unknown client tag {t:#x}"))),
        }
    }
}

impl ServerMsg {
    /// Serialises the message, including the length prefix.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Self::Hello {
                frame_interval_us,
                configs,
                fleet,
            } => {
                body.push(tag::HELLO);
                put_u32(&mut body, *frame_interval_us);
                for cfg in configs.iter() {
                    body.extend_from_slice(&cfg.to_wire());
                }
                // Suffix only for clients that asked (rig-routed
                // Subscribe): legacy clients never see it.
                if let Some(fleet) = fleet {
                    body.push(fleet.version);
                    body.extend_from_slice(&fleet.rigs.to_le_bytes());
                }
            }
            Self::Batch { frames } => {
                body.push(tag::BATCH);
                put_u32(&mut body, frames.len() as u32);
                for frame in frames {
                    encode_frame(frame, &mut body);
                }
            }
            Self::RigBatch { rig, frames } => {
                body.push(tag::RIG_BATCH);
                body.extend_from_slice(&rig.to_le_bytes());
                put_u32(&mut body, frames.len() as u32);
                for frame in frames {
                    encode_frame(frame, &mut body);
                }
            }
            Self::Gap { dropped } => {
                body.push(tag::GAP);
                put_u64(&mut body, *dropped);
            }
            Self::RigGap { rig, dropped } => {
                body.push(tag::RIG_GAP);
                body.extend_from_slice(&rig.to_le_bytes());
                put_u64(&mut body, *dropped);
            }
            Self::FleetStatus { rigs } => {
                body.push(tag::FLEET_STATUS);
                put_u32(&mut body, rigs.len() as u32);
                for r in rigs {
                    body.extend_from_slice(&r.id.to_le_bytes());
                    body.push(u8::from(r.alive));
                    put_u32(&mut body, r.restarts);
                    put_u32(&mut body, r.shards);
                    put_u64(&mut body, r.frames_published);
                    put_u64(&mut body, r.gap_events);
                    put_u64(&mut body, r.writer_dropped);
                }
            }
            Self::Stats(stats) => {
                body.push(tag::STATS);
                put_u64(&mut body, stats.frames_published);
                put_u64(&mut body, stats.active_subscribers);
                put_u64(&mut body, stats.evicted);
                put_u64(&mut body, stats.gap_events);
                // Cumulative-counter suffix (added with the event-loop
                // daemon); older decoders ignore trailing bytes, and
                // this decoder reads it as zeros when absent.
                put_u64(&mut body, stats.accepted);
                put_u64(&mut body, stats.active_peak);
                put_u64(&mut body, stats.bytes_sent);
                put_u64(&mut body, stats.evicted_gaps);
                put_u64(&mut body, stats.evicted_stalled);
            }
            Self::Evicted { reason } => {
                body.push(tag::EVICTED);
                let (code, gaps, limit) = match reason {
                    EvictReason::TooManyGaps { gaps, limit } => {
                        (reason_code::TOO_MANY_GAPS, *gaps, *limit)
                    }
                    EvictReason::StalledWrite => (reason_code::STALLED_WRITE, 0, 0),
                    EvictReason::Shutdown => (reason_code::SHUTDOWN, 0, 0),
                };
                body.push(code);
                put_u64(&mut body, gaps);
                put_u64(&mut body, limit);
            }
        }
        with_length_prefix(body)
    }

    /// Parses a message body (tag + payload, no length prefix).
    pub fn decode(body: &[u8]) -> io::Result<Self> {
        let (tag_byte, payload) = split(body, 1)?;
        match tag_byte[0] {
            tag::HELLO => {
                let (frame_interval_us, mut payload) = get_u32(payload)?;
                let mut configs: Box<[SensorConfig; SENSOR_SLOTS]> =
                    Box::new(core::array::from_fn(|_| SensorConfig::unpopulated()));
                for cfg in configs.iter_mut() {
                    let (record, rest) = split(payload, CONFIG_WIRE_SIZE)?;
                    *cfg = SensorConfig::from_wire(record.try_into().expect("size"))
                        .map_err(|e| malformed(&format!("bad sensor config: {e}")))?;
                    payload = rest;
                }
                // Optional fleet-negotiation suffix.
                let fleet = if payload.is_empty() {
                    None
                } else {
                    let (version, payload) = split(payload, 1)?;
                    let (rigs, _) = get_u16(payload)?;
                    Some(FleetHello {
                        version: version[0],
                        rigs,
                    })
                };
                Ok(Self::Hello {
                    frame_interval_us,
                    configs,
                    fleet,
                })
            }
            tag::BATCH => {
                let (count, mut payload) = get_u32(payload)?;
                if count as usize > MAX_BATCH_FRAMES {
                    return Err(malformed("oversized batch"));
                }
                let mut frames = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let (frame, rest) = decode_frame(payload)?;
                    frames.push(frame);
                    payload = rest;
                }
                Ok(Self::Batch { frames })
            }
            tag::RIG_BATCH => {
                let (rig, payload) = get_u16(payload)?;
                let (count, mut payload) = get_u32(payload)?;
                if count as usize > MAX_BATCH_FRAMES {
                    return Err(malformed("oversized batch"));
                }
                let mut frames = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let (frame, rest) = decode_frame(payload)?;
                    frames.push(frame);
                    payload = rest;
                }
                Ok(Self::RigBatch { rig, frames })
            }
            tag::GAP => {
                let (dropped, _) = get_u64(payload)?;
                Ok(Self::Gap { dropped })
            }
            tag::RIG_GAP => {
                let (rig, payload) = get_u16(payload)?;
                let (dropped, _) = get_u64(payload)?;
                Ok(Self::RigGap { rig, dropped })
            }
            tag::FLEET_STATUS => {
                let (count, mut payload) = get_u32(payload)?;
                if count as usize > MAX_RIG_SET {
                    return Err(malformed("oversized fleet status"));
                }
                let mut rigs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let (id, rest) = get_u16(payload)?;
                    let (alive, rest) = split(rest, 1)?;
                    let (restarts, rest) = get_u32(rest)?;
                    let (shards, rest) = get_u32(rest)?;
                    let (frames_published, rest) = get_u64(rest)?;
                    let (gap_events, rest) = get_u64(rest)?;
                    let (writer_dropped, rest) = get_u64(rest)?;
                    rigs.push(RigStatus {
                        id,
                        alive: alive[0] != 0,
                        restarts,
                        shards,
                        frames_published,
                        gap_events,
                        writer_dropped,
                    });
                    payload = rest;
                }
                Ok(Self::FleetStatus { rigs })
            }
            tag::STATS => {
                let (frames_published, payload) = get_u64(payload)?;
                let (active_subscribers, payload) = get_u64(payload)?;
                let (evicted, payload) = get_u64(payload)?;
                let (gap_events, payload) = get_u64(payload)?;
                // Optional suffix from event-loop daemons; a pre-suffix
                // peer's message simply reads as zeros.
                let mut suffix = [0u64; 5];
                let mut payload = payload;
                for slot in &mut suffix {
                    if payload.len() < 8 {
                        break;
                    }
                    let (v, rest) = get_u64(payload)?;
                    *slot = v;
                    payload = rest;
                }
                Ok(Self::Stats(StreamStats {
                    frames_published,
                    active_subscribers,
                    evicted,
                    gap_events,
                    accepted: suffix[0],
                    active_peak: suffix[1],
                    bytes_sent: suffix[2],
                    evicted_gaps: suffix[3],
                    evicted_stalled: suffix[4],
                }))
            }
            tag::EVICTED => {
                // A payload-less Evicted (the pre-reason wire form) is
                // read as a shutdown notice.
                if payload.is_empty() {
                    return Ok(Self::Evicted {
                        reason: EvictReason::Shutdown,
                    });
                }
                let (code, payload) = split(payload, 1)?;
                let (gaps, payload) = get_u64(payload)?;
                let (limit, _) = get_u64(payload)?;
                let reason = match code[0] {
                    reason_code::TOO_MANY_GAPS => EvictReason::TooManyGaps { gaps, limit },
                    reason_code::STALLED_WRITE => EvictReason::StalledWrite,
                    reason_code::SHUTDOWN => EvictReason::Shutdown,
                    c => return Err(malformed(&format!("unknown evict reason {c:#x}"))),
                };
                Ok(Self::Evicted { reason })
            }
            t => Err(malformed(&format!("unknown server tag {t:#x}"))),
        }
    }
}

fn with_length_prefix(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Reads one length-prefixed message body from `reader`.
///
/// # Errors
///
/// I/O errors from the underlying reader;
/// [`io::ErrorKind::InvalidData`] on an oversized or empty length.
pub fn read_msg_body<R: Read>(reader: &mut R) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_MSG_LEN {
        return Err(malformed("bad message length"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Writes pre-encoded message bytes to `writer` and flushes.
///
/// # Errors
///
/// I/O errors from the underlying writer.
pub fn write_msg<W: Write>(writer: &mut W, encoded: &[u8]) -> io::Result<()> {
    writer.write_all(encoded)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(t_us: u64, present: u8, marker: bool) -> StreamFrame {
        let mut raw = [0u16; SENSOR_SLOTS];
        for (slot, code) in raw.iter_mut().enumerate() {
            *code = (100 * slot as u16 + t_us as u16) & 0x3FF;
        }
        StreamFrame {
            time: SimTime::from_micros(t_us),
            raw,
            present,
            marker,
        }
    }

    fn roundtrip_server(msg: &ServerMsg) -> ServerMsg {
        let bytes = msg.encode();
        let mut cursor = io::Cursor::new(bytes);
        let body = read_msg_body(&mut cursor).unwrap();
        ServerMsg::decode(&body).unwrap()
    }

    #[test]
    fn client_messages_roundtrip() {
        for msg in [
            ClientMsg::Subscribe {
                pair_mask: 0b0101,
                divisor: 2000,
                rig: None,
            },
            ClientMsg::Subscribe {
                pair_mask: 0x0F,
                divisor: 1,
                rig: Some(RigSelector::All),
            },
            ClientMsg::Subscribe {
                pair_mask: 0x0F,
                divisor: 4,
                rig: Some(RigSelector::One(31)),
            },
            ClientMsg::Subscribe {
                pair_mask: 0x01,
                divisor: 20,
                rig: Some(RigSelector::Set(vec![0, 7, 99])),
            },
            ClientMsg::InjectMarker { label: 'λ' },
            ClientMsg::QueryStats,
            ClientMsg::QueryFleet,
            ClientMsg::Bye,
        ] {
            let bytes = msg.encode();
            let mut cursor = io::Cursor::new(bytes);
            let body = read_msg_body(&mut cursor).unwrap();
            assert_eq!(ClientMsg::decode(&body).unwrap(), msg);
        }
    }

    #[test]
    fn rig_selector_negotiates_down() {
        // Legacy wire form (no suffix) decodes as a legacy subscribe.
        let legacy = [tag::SUBSCRIBE, 0x0F, 1, 0, 0, 0];
        assert_eq!(
            ClientMsg::decode(&legacy).unwrap(),
            ClientMsg::Subscribe {
                pair_mask: 0x0F,
                divisor: 1,
                rig: None,
            }
        );
        // A future extension version is ignored, not rejected: the
        // connection falls back to the legacy protocol.
        let future = [tag::SUBSCRIBE, 0x0F, 1, 0, 0, 0, 99, 0, 0, 0];
        assert_eq!(
            ClientMsg::decode(&future).unwrap(),
            ClientMsg::Subscribe {
                pair_mask: 0x0F,
                divisor: 1,
                rig: None,
            }
        );
        // A version-1 suffix with garbage inside is an error.
        let bad = [
            tag::SUBSCRIBE,
            0x0F,
            1,
            0,
            0,
            0,
            FLEET_PROTO_VERSION,
            9,
            0,
            0,
        ];
        assert!(ClientMsg::decode(&bad).is_err());
    }

    #[test]
    fn fleet_messages_roundtrip() {
        // Masked slots carry no wire data, so use frames whose masked
        // raw codes are already zero to compare for equality.
        let masked = |t_us, present, marker| {
            let mut f = frame(t_us, present, marker);
            for slot in 0..SENSOR_SLOTS {
                if present & (1 << slot) == 0 {
                    f.raw[slot] = 0;
                }
            }
            f
        };
        let msgs = [
            ServerMsg::RigBatch {
                rig: 17,
                frames: vec![masked(1000, 0b0011, false), masked(1050, 0b0011, true)],
            },
            ServerMsg::RigGap {
                rig: 3,
                dropped: 8192,
            },
            ServerMsg::FleetStatus {
                rigs: vec![
                    RigStatus {
                        id: 0,
                        alive: true,
                        restarts: 0,
                        shards: 1,
                        frames_published: 123_456,
                        gap_events: 0,
                        writer_dropped: 0,
                    },
                    RigStatus {
                        id: 1,
                        alive: false,
                        restarts: 2,
                        shards: 3,
                        frames_published: 99,
                        gap_events: 7,
                        writer_dropped: 1,
                    },
                ],
            },
        ];
        for msg in msgs {
            assert_eq!(roundtrip_server(&msg), msg);
        }
    }

    #[test]
    fn hello_fleet_suffix_is_negotiated() {
        let configs: Box<[SensorConfig; SENSOR_SLOTS]> =
            Box::new(core::array::from_fn(|_| SensorConfig::unpopulated()));
        let msg = ServerMsg::Hello {
            frame_interval_us: 50,
            configs: configs.clone(),
            fleet: Some(FleetHello {
                version: FLEET_PROTO_VERSION,
                rigs: 32,
            }),
        };
        let ServerMsg::Hello { fleet, .. } = roundtrip_server(&msg) else {
            panic!("wrong message kind");
        };
        assert_eq!(
            fleet,
            Some(FleetHello {
                version: FLEET_PROTO_VERSION,
                rigs: 32
            })
        );
        // A plain Hello (what a pre-fleet daemon sends) has no suffix.
        let plain = ServerMsg::Hello {
            frame_interval_us: 50,
            configs,
            fleet: None,
        };
        let ServerMsg::Hello { fleet, .. } = roundtrip_server(&plain) else {
            panic!("wrong message kind");
        };
        assert_eq!(fleet, None);
    }

    #[test]
    fn batch_roundtrips_with_masked_slots() {
        let msg = ServerMsg::Batch {
            frames: vec![
                frame(1000, 0b0000_0011, true),
                frame(1050, 0b1111_1111, false),
                frame(1100, 0b1000_0000, true), // marker on slot-7-only frame
            ],
        };
        let ServerMsg::Batch { frames } = roundtrip_server(&msg) else {
            panic!("wrong message kind");
        };
        assert_eq!(frames[0].present, 0b0000_0011);
        assert!(frames[0].marker);
        assert_eq!(frames[0].time.as_micros(), 1000);
        // Only present slots carry data; masked raw codes are zeroed.
        assert_eq!(frames[0].raw[2], 0);
        assert_eq!(frames[1].present, 0b1111_1111);
        let original = frame(1050, 0b1111_1111, false);
        assert_eq!(frames[1].raw, original.raw);
        // Slot 7 cannot carry a marker (would alias a timestamp
        // packet): the flag is dropped, never mis-decoded.
        assert_eq!(frames[2].present, 0b1000_0000);
        assert!(!frames[2].marker);
    }

    #[test]
    fn batch_with_timestamp_past_the_clock_range_is_malformed() {
        let batch = |t_us: u64| {
            let mut body = vec![tag::BATCH];
            put_u32(&mut body, 1);
            put_u64(&mut body, t_us);
            body.push(0); // no sensor packets
            body
        };
        let err = ServerMsg::decode(&batch(u64::MAX)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(ServerMsg::decode(&batch(u64::MAX / 1_000 + 1)).is_err());
        let ServerMsg::Batch { frames } = ServerMsg::decode(&batch(u64::MAX / 1_000)).unwrap()
        else {
            panic!("wrong message kind");
        };
        assert_eq!(frames[0].time.as_micros(), u64::MAX / 1_000);
    }

    #[test]
    fn hello_roundtrips_configs() {
        let mut configs: Box<[SensorConfig; SENSOR_SLOTS]> =
            Box::new(core::array::from_fn(|_| SensorConfig::unpopulated()));
        configs[0] = SensorConfig::new("I0", 3.3, 0.12, true);
        configs[1] = SensorConfig::new("U0", 3.3, 5.0, true);
        let msg = ServerMsg::Hello {
            frame_interval_us: 50,
            configs,
            fleet: None,
        };
        let ServerMsg::Hello {
            frame_interval_us,
            configs,
            fleet: _,
        } = roundtrip_server(&msg)
        else {
            panic!("wrong message kind");
        };
        assert_eq!(frame_interval_us, 50);
        assert_eq!(configs[0].name, "I0");
        assert!((configs[1].gain - 5.0).abs() < 1e-6);
        assert!(!configs[2].enabled);
    }

    #[test]
    fn stats_and_gap_roundtrip() {
        let stats = StreamStats {
            frames_published: 123_456,
            active_subscribers: 9,
            evicted: 2,
            gap_events: 17,
            accepted: 31,
            active_peak: 12,
            bytes_sent: 1_048_576,
            evicted_gaps: 1,
            evicted_stalled: 1,
        };
        assert_eq!(
            roundtrip_server(&ServerMsg::Stats(stats)),
            ServerMsg::Stats(stats)
        );
        // A pre-suffix Stats payload (4 counters only) still decodes:
        // the cumulative counters read as zero.
        let mut legacy = vec![b'T'];
        for v in [7u64, 1, 0, 0] {
            legacy.extend_from_slice(&v.to_le_bytes());
        }
        let ServerMsg::Stats(decoded) = ServerMsg::decode(&legacy).unwrap() else {
            panic!("wrong message kind");
        };
        assert_eq!(decoded.frames_published, 7);
        assert_eq!(decoded.accepted, 0);
        assert_eq!(decoded.active_peak, 0);
        assert_eq!(
            roundtrip_server(&ServerMsg::Gap { dropped: 4096 }),
            ServerMsg::Gap { dropped: 4096 }
        );
        for reason in [
            EvictReason::TooManyGaps {
                gaps: 17,
                limit: 16,
            },
            EvictReason::StalledWrite,
            EvictReason::Shutdown,
        ] {
            assert_eq!(
                roundtrip_server(&ServerMsg::Evicted { reason }),
                ServerMsg::Evicted { reason }
            );
        }
        // The legacy payload-less form decodes as a shutdown notice.
        assert_eq!(
            ServerMsg::decode(&[tag::EVICTED]).unwrap(),
            ServerMsg::Evicted {
                reason: EvictReason::Shutdown
            }
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(ServerMsg::decode(&[0xFF, 0, 0]).is_err());
        assert!(ClientMsg::decode(&[]).is_err());
        assert!(ClientMsg::decode(&[tag::SUBSCRIBE, 1, 0, 0, 0, 0]).is_err()); // divisor 0
        let mut short = io::Cursor::new(vec![200u8, 0, 0, 0, 1, 2]);
        assert!(read_msg_body(&mut short).is_err());
        let mut huge = io::Cursor::new((u32::MAX).to_le_bytes().to_vec());
        assert!(read_msg_body(&mut huge).is_err());
    }
}
