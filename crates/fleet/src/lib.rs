//! Fleet plane: many PowerSensor3 rigs behind one coordinator.
//!
//! PowerSensor3 measures one machine; measuring a cluster means many
//! rigs, and nobody wants to hand-manage N daemons and N archives.
//! This crate runs the whole fleet in one process:
//!
//! * [`Fleet`] spawns and supervises N rigs — each an acquisition
//!   stack tapped into its own broadcast ring and archive shard under
//!   the fleet data dir — restarts crashed rigs into fresh shards, and
//!   serves one TCP endpoint on the [`StreamDaemon`]'s event loop,
//!   speaking the rig-routed extension of the subscribe protocol
//!   (legacy single-rig clients keep working and see rig 0).
//! * [`FleetQuery`] answers cross-rig aggregates off the shards:
//!   fleet-wide energy and power stats, top-k hottest rigs, rig-join
//!   aligned downsampling — per-shard scans fan out through
//!   `rayon::par_map` with a deterministic, documented fold order.
//! * [`RigFactory`] abstracts rig construction so the simulation
//!   harness can inject crashing rigs without this crate knowing.
//!
//! The `ps3-fleet` binary wraps this into `serve` / `status` /
//! `query` subcommands; see the README quickstart.
//!
//! [`StreamDaemon`]: ps3_stream::StreamDaemon

#![forbid(unsafe_code)]

mod coordinator;
mod query;
mod rig;
mod serve;

pub use coordinator::{shard_name, Fleet, FleetConfig};
pub use query::{parse_shard_name, FleetQuery, JoinedRow, JoinedTrace, RigPower, ShardEnergy};
pub use rig::{testbed_rig_factory, RigFactory, RigParts};

/// Version of the rig-routing protocol extension this crate speaks
/// (re-exported from the wire layer).
pub use ps3_stream::proto::FLEET_PROTO_VERSION;
