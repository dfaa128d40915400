//! Network streaming for PowerSensor3 (§III-C's host library, grown
//! into a daemon): one process owns the sensor and any number of
//! local or remote consumers subscribe to its 20 kHz sample stream
//! over TCP.
//!
//! # Architecture
//!
//! ```text
//!  PowerSensor reader thread
//!        │ frame sink (ps3_core::FrameRecord)
//!        ▼
//!  BroadcastRing  ── single producer, per-subscriber cursors
//!        │ drop-oldest on lap (never blocks acquisition)
//!        ▼
//!  event-loop thread (epoll/poll readiness over every socket)
//!        ├── conn state machine ── Downsampler ÷1    ──▶ 20 kHz client
//!        ├── conn state machine ── Downsampler ÷20   ──▶ 1 kHz client
//!        └── conn state machine ── Downsampler ÷2000 ──▶ 10 Hz client
//! ```
//!
//! * [`StreamDaemon`] taps a [`ps3_core::SharedPowerSensor`] and
//!   serves subscribers; a slow subscriber gets [`ServerMsg::Gap`]
//!   messages, a persistently slow or stalled one is evicted.
//! * [`StreamClient`] subscribes, converts raw codes with the sensor
//!   configuration from the daemon's `Hello`, and implements
//!   [`ps3_pmt::PowerMeter`].
//! * The wire format ([`proto`]) reuses the device's native 2-byte
//!   sensor packets inside length-prefixed messages.
//!
//! # Example
//!
//! See `examples/streaming.rs` at the repository root for a daemon
//! plus mixed-rate subscribers against the virtual testbed.

#![forbid(unsafe_code)]

mod client;
mod daemon;
mod downsample;
pub mod event_loop;
pub mod log;
pub mod net;
pub mod proto;
mod ring;
mod signal;

pub use client::{
    FrameCallback, ReconnectPolicy, RigCounts, RigFrameCallback, StreamClient, StreamClientConfig,
};
pub use daemon::{StreamDaemon, StreamDaemonConfig};
pub use downsample::Downsampler;
pub use event_loop::{
    bring_up, spawn_loop, Control, Handler, LoopParts, LoopStats, LoopWaker, OutQueue, Pump,
};
pub use net::{bind_error, bind_reusable, resolve_bind};
pub use proto::{
    ClientMsg, EvictReason, FleetHello, RigSelector, RigStatus, ServerMsg, StreamFrame, StreamStats,
};
pub use ring::{BroadcastRing, ReadOutcome};
