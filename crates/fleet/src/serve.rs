//! The coordinator's subscriber-serving personality for the shared
//! stream event loop.
//!
//! The plain daemon's [`Handler`] drains one ring with one cursor;
//! this one k-way merges the selected rigs' rings on sample
//! timestamps — the same merge the dedicated per-subscriber threads
//! used to run, moved into per-session state pumped by the single
//! event-loop thread:
//!
//! * a legacy subscription (no [`RigSelector`]) streams rig 0 with
//!   plain `Batch`/`Gap` messages;
//! * `One`/`Set`/`All` subscriptions stream rig-tagged
//!   `RigBatch`/`RigGap` messages with per-rig gap propagation.
//!
//! Merge ordering: a frame is emitted once every other selected,
//! alive, non-closed rig has a frame queued (so the true minimum
//! timestamp is known); ties break toward the lowest rig id. A pump
//! pass in which no ring yielded anything means every rig is drained
//! to its head — rigs advance their virtual clocks in lockstep, so
//! what is queued is complete for the current window and is emitted
//! without waiting on the blocked rigs.

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

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ps3_stream::proto::MAX_BATCH_FRAMES;
use ps3_stream::{
    ClientMsg, Control, Downsampler, EvictReason, Handler, OutQueue, Pump, ReadOutcome,
    RigSelector, ServerMsg, StreamFrame,
};

use crate::coordinator::{aggregate_stats, snapshot, FleetShared};

/// Safety valve: emit past an empty-but-alive rig once this many
/// frames are queued across the session (a stalled rig must not let a
/// subscriber's buffers grow without bound).
const FORCE_EMIT_QUEUED: usize = 65_536;

/// Per-rig ready-queue cap per pump pass; frames beyond it stay in
/// the ring (whose lap accounting then applies), bounding session
/// memory exactly as the threaded merge did.
const QUEUE_CAP: usize = MAX_BATCH_FRAMES * 4;

/// One subscriber's merge state: cursors, per-rig downsamplers and
/// ready queues, and the batch being assembled.
pub(crate) struct MergeSession {
    slot_mask: u8,
    rig_ids: Vec<u16>,
    legacy: bool,
    cursors: Vec<u64>,
    downsamplers: Vec<Downsampler>,
    queues: Vec<VecDeque<StreamFrame>>,
    ring_closed: Vec<bool>,
    my_gaps: u64,
    batch: Vec<StreamFrame>,
    batch_rig: u16,
}

impl MergeSession {
    fn flush_batch(&mut self, out: &mut OutQueue) {
        if self.batch.is_empty() {
            return;
        }
        let frames = std::mem::take(&mut self.batch);
        let msg = if self.legacy {
            ServerMsg::Batch { frames }
        } else {
            ServerMsg::RigBatch {
                rig: self.batch_rig,
                frames,
            }
        };
        out.push(&msg);
    }
}

/// The fleet coordinator's event-loop handler.
pub(crate) struct FleetHandler {
    pub(crate) shared: Arc<FleetShared>,
}

impl Handler for FleetHandler {
    type Session = MergeSession;

    fn begin(
        &self,
        pair_mask: u8,
        divisor: u32,
        rig: Option<RigSelector>,
    ) -> io::Result<(Vec<u8>, MergeSession)> {
        // Resolve the selector to rig ids; legacy clients stream rig 0.
        let n = self.shared.rigs.len() as u16;
        let legacy = rig.is_none();
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

        // Expand the pair mask to a slot mask (pair p = slots 2p, 2p+1).
        let mut slot_mask = 0u8;
        for pair in 0..ps3_firmware::SENSOR_SLOTS / 2 {
            if pair_mask & (1 << pair) != 0 {
                slot_mask |= 0b11 << (2 * pair);
            }
        }

        let k = rig_ids.len();
        let hello = if legacy {
            self.shared.hello_legacy.clone()
        } else {
            self.shared.hello_fleet.clone()
        };
        // Subscribers start at each ring's live edge.
        let cursors = rig_ids
            .iter()
            .map(|&id| self.shared.rigs[usize::from(id)].ring.head())
            .collect();
        let batch_rig = rig_ids[0];
        Ok((
            hello,
            MergeSession {
                slot_mask,
                rig_ids,
                legacy,
                cursors,
                downsamplers: (0..k).map(|_| Downsampler::new(divisor)).collect(),
                queues: (0..k).map(|_| VecDeque::new()).collect(),
                ring_closed: vec![false; k],
                my_gaps: 0,
                batch: Vec::with_capacity(MAX_BATCH_FRAMES),
                batch_rig,
            },
        ))
    }

    fn pump(&self, s: &mut MergeSession, out: &mut OutQueue) -> Pump {
        let shared = &self.shared;
        let k = s.rig_ids.len();

        // Phase 1: drain whatever each selected ring has ready.
        let mut progressed = false;
        for i in 0..k {
            if s.ring_closed[i] {
                continue;
            }
            let rig = &shared.rigs[usize::from(s.rig_ids[i])];
            loop {
                match rig.ring.next(s.cursors[i], Duration::ZERO) {
                    ReadOutcome::Frame(frame) => {
                        s.cursors[i] += 1;
                        progressed = true;
                        let mut masked = frame;
                        masked.present &= s.slot_mask;
                        if let Some(frame) = s.downsamplers[i].push(&masked) {
                            s.queues[i].push_back(frame);
                        }
                        if s.queues[i].len() >= QUEUE_CAP {
                            break;
                        }
                    }
                    ReadOutcome::Lapped { resume_at, dropped } => {
                        s.cursors[i] = resume_at;
                        s.downsamplers[i].reset();
                        s.my_gaps += 1;
                        shared.stats.gap_events.fetch_add(1, Ordering::SeqCst);
                        rig.gap_events.fetch_add(1, Ordering::SeqCst);
                        s.flush_batch(out);
                        let gap = if s.legacy {
                            ServerMsg::Gap { dropped }
                        } else {
                            ServerMsg::RigGap {
                                rig: s.rig_ids[i],
                                dropped,
                            }
                        };
                        out.push(&gap);
                        if s.my_gaps > shared.stream.max_gap_events {
                            return Pump::Evict(EvictReason::TooManyGaps {
                                gaps: s.my_gaps,
                                limit: shared.stream.max_gap_events,
                            });
                        }
                    }
                    ReadOutcome::TimedOut => break,
                    ReadOutcome::Closed => {
                        s.ring_closed[i] = true;
                        break;
                    }
                }
            }
        }

        // Phase 2: emit merged frames while the global minimum is
        // known. An empty queue whose rig is alive and un-closed may
        // still produce the next-oldest frame, so it blocks the merge
        // (unless the safety valve trips or this pass was idle).
        let all_closed = s.ring_closed.iter().all(|&c| c);
        let force = !progressed;
        while !out.is_full() {
            let mut min: Option<(usize, u64)> = None;
            let mut blocked = false;
            let mut total_queued = 0usize;
            for i in 0..k {
                total_queued += s.queues[i].len();
                match s.queues[i].front() {
                    Some(frame) => {
                        let t = frame.time.as_nanos();
                        if min.is_none_or(|(_, mt)| t < mt) {
                            min = Some((i, t));
                        }
                    }
                    None => {
                        if !s.ring_closed[i]
                            && shared.rigs[usize::from(s.rig_ids[i])]
                                .alive
                                .load(Ordering::SeqCst)
                        {
                            blocked = true;
                        }
                    }
                }
            }
            let Some((i, _)) = min else { break };
            if blocked && !all_closed && !force && total_queued < FORCE_EMIT_QUEUED {
                break;
            }
            // `min` was computed from this queue's front, so the pop
            // must yield; an empty queue here would be a merge-logic
            // bug, degraded to a skipped round rather than a wedged
            // subscriber.
            let Some(frame) = s.queues[i].pop_front() else {
                break;
            };
            let rig = s.rig_ids[i];
            if rig != s.batch_rig {
                s.flush_batch(out);
            }
            s.batch_rig = rig;
            s.batch.push(frame);
            if s.batch.len() >= MAX_BATCH_FRAMES {
                s.flush_batch(out);
            }
        }

        if !progressed {
            // Idle pass: every selected ring is drained to its head,
            // so deliver the pending tail promptly (the next event
            // can only make the batch longer, never reorder it).
            s.flush_batch(out);
            if all_closed && s.queues.iter().all(VecDeque::is_empty) {
                return Pump::Closed;
            }
        }
        Pump::Idle
    }

    fn control(&self, _s: &mut MergeSession, msg: ClientMsg, out: &mut OutQueue) -> Control {
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
