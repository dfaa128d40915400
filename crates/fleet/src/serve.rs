//! The coordinator's subscriber-serving personality for the shared
//! stream event loop: it resolves a `Subscribe`'s [`RigSelector`] to the
//! selected rigs' feeds (rig 0, untagged, when there is none) and
//! answers control messages. Streaming itself is the one
//! [`Session::pump`] of `ps3-stream`, which k-way merges the selected
//! rings on sample timestamps.

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
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::io;
use std::sync::Arc;

use ps3_stream::{ClientMsg, Control, Handler, OutQueue, RigSelector, ServerMsg, Session};

use crate::coordinator::{aggregate_stats, snapshot, FleetShared};

/// The fleet coordinator's event-loop handler.
pub(crate) struct FleetHandler {
    pub(crate) shared: Arc<FleetShared>,
}

impl Handler for FleetHandler {
    fn begin(
        &self,
        pair_mask: u8,
        divisor: u32,
        rig: Option<RigSelector>,
    ) -> io::Result<(Vec<u8>, Session)> {
        // Resolve the selector to rig ids; legacy clients stream rig 0.
        let n = self.shared.rigs.len() as u16;
        let tagged = rig.is_some();
        let mut rig_ids: Vec<u16> = match rig {
            None => vec![0],
            Some(RigSelector::All) => (0..n).collect(),
            Some(RigSelector::One(id)) => vec![id],
            Some(RigSelector::Set(ids)) => ids,
        };
        rig_ids.sort_unstable();
        rig_ids.dedup();
        if rig_ids.iter().any(|&id| id >= n) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("rig selector out of range (fleet has {n} rigs)"),
            ));
        }
        let hello = if tagged {
            self.shared.hello_fleet.clone()
        } else {
            self.shared.hello_legacy.clone()
        };
        let feeds = rig_ids
            .into_iter()
            .map(|id| (id, Arc::clone(&self.shared.rigs[usize::from(id)].feed)))
            .collect();
        Ok((hello, Session::new(feeds, tagged, pair_mask, divisor)))
    }

    fn control(&self, msg: ClientMsg, out: &mut OutQueue) -> Control {
        match msg {
            // Markers are a single-rig concept; a fleet has no one
            // sensor to mark, so injections are ignored.
            ClientMsg::InjectMarker { .. } => Control::Continue,
            ClientMsg::QueryStats => {
                out.push(&ServerMsg::Stats(aggregate_stats(&self.shared)));
                Control::Continue
            }
            ClientMsg::QueryFleet => {
                out.push(&ServerMsg::FleetStatus {
                    rigs: snapshot(&self.shared),
                });
                Control::Continue
            }
            ClientMsg::Bye => Control::Disconnect,
            ClientMsg::Subscribe { .. } => Control::Disconnect, // protocol violation
        }
    }
}
