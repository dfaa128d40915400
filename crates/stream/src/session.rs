//! One subscriber's stream session: the single pump that drains
//! broadcast rings into a connection's [`OutQueue`], shared by the
//! plain daemon (one ring) and the fleet coordinator (one ring per
//! selected rig).
//!
//! A session holds, per selected [`Feed`], a ring cursor, a
//! [`Downsampler`] and a ready queue, plus the batch being built.
//! [`Session::pump`] runs one pass:
//!
//! 1. **Drain.** Each open ring is read until it is at its head, closed,
//!    or its ready queue holds `QUEUE_CAP` downsampled frames.
//!    Frames beyond the cap stay in the ring, whose lap accounting then
//!    applies. A lap sends the gap (`Gap`, or `RigGap` on tagged
//!    sessions) at once. No batch is pending then, and frames queued
//!    before the lap stay queued, so every frame read is delivered and
//!    every frame skipped is counted in a gap.
//! 2. **Merge.** While the [`OutQueue`] has room, the frame with the
//!    smallest timestamp across the ready queues is emitted; ties break
//!    toward the lowest rig. An empty queue whose rig is alive and not
//!    closed may still produce the next-oldest frame, so it holds the
//!    merge back, unless the pass read nothing (every ring is at its
//!    head: rigs advance their virtual clocks in lockstep, so what is
//!    queued is complete for the current window) or
//!    `FORCE_EMIT_QUEUED` frames are queued. With one ring there is
//!    nothing to wait for.
//! 3. **Flush.** A batch is sent at [`MAX_BATCH_FRAMES`], on a rig
//!    change, and at the end of every pass, so no frame waits for a
//!    later wakeup and no batch is pending when the next pass meets a
//!    gap.

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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ps3_firmware::SENSOR_SLOTS;

use crate::downsample::Downsampler;
use crate::event_loop::{LoopStats, OutQueue};
use crate::proto::{EvictReason, ServerMsg, StreamFrame, MAX_BATCH_FRAMES};
use crate::ring::{BroadcastRing, ReadOutcome};

/// Per-ring ready-queue cap per pump pass, in downsampled frames.
const QUEUE_CAP: usize = MAX_BATCH_FRAMES * 4;

/// Safety valve: emit past an empty-but-alive rig once this many frames
/// are queued across the session, so a stalled rig cannot make a
/// subscriber's buffers grow without bound.
const FORCE_EMIT_QUEUED: usize = 65_536;

/// One broadcast ring as sessions see it, with the state they share
/// about it.
#[derive(Debug)]
pub struct Feed {
    /// The frames; the feed's one producer publishes here.
    pub ring: BroadcastRing,
    /// Whether the producer is up. An empty ring whose producer is
    /// alive holds back a merge across rings.
    pub alive: AtomicBool,
    /// Laps reported to this ring's subscribers.
    pub gap_events: AtomicU64,
}

impl Feed {
    /// A live feed over a fresh ring of `capacity` frames.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: BroadcastRing::new(capacity),
            alive: AtomicBool::new(true),
            gap_events: AtomicU64::new(0),
        }
    }
}

/// Outcome of one [`Session::pump`] call.
#[derive(Debug)]
pub enum Pump {
    /// Sources drained (or output full); nothing to decide.
    Idle,
    /// Evict this subscriber for cause.
    Evict(EvictReason),
    /// Every source ring closed and every frame read was sent: end the
    /// subscription as a shutdown.
    Closed,
}

/// One selected ring: its rig id, cursor, downsampler and ready queue.
struct Lane {
    rig: u16,
    feed: Arc<Feed>,
    cursor: u64,
    downsampler: Downsampler,
    queue: VecDeque<StreamFrame>,
    closed: bool,
}

/// One subscriber's streaming state; see the module docs.
pub struct Session {
    lanes: Vec<Lane>,
    /// Rig-tagged framing (`RigBatch`/`RigGap`) instead of `Batch`/`Gap`.
    tagged: bool,
    slot_mask: u8,
    gaps: u64,
    batch: Vec<StreamFrame>,
    batch_rig: u16,
}

impl Session {
    /// Opens a session at the live edge of each `(rig, feed)`, in the
    /// order given (the merge breaks timestamp ties toward the first).
    /// `pair_mask` and `divisor` are the `Subscribe`'s.
    #[must_use]
    pub fn new(feeds: Vec<(u16, Arc<Feed>)>, tagged: bool, pair_mask: u8, divisor: u32) -> Self {
        // Pair p is slots 2p and 2p + 1.
        let mut slot_mask = 0u8;
        for pair in 0..SENSOR_SLOTS / 2 {
            if pair_mask & (1 << pair) != 0 {
                slot_mask |= 0b11 << (2 * pair);
            }
        }
        let batch_rig = feeds.first().map_or(0, |&(rig, _)| rig);
        let lanes = feeds
            .into_iter()
            .map(|(rig, feed)| Lane {
                rig,
                cursor: feed.ring.head(),
                feed,
                downsampler: Downsampler::new(divisor),
                queue: VecDeque::new(),
                closed: false,
            })
            .collect();
        Self {
            lanes,
            tagged,
            slot_mask,
            gaps: 0,
            batch: Vec::with_capacity(MAX_BATCH_FRAMES),
            batch_rig,
        }
    }

    /// Runs one drain–merge–flush pass into `out` (see the module
    /// docs). Never blocks. Laps are counted in `stats.gap_events` and
    /// the feed's own counter; more than `max_gap_events` of them in
    /// this session evicts it.
    pub fn pump(&mut self, out: &mut OutQueue, stats: &LoopStats, max_gap_events: u64) -> Pump {
        let mut progressed = false;
        for i in 0..self.lanes.len() {
            loop {
                let lane = &mut self.lanes[i];
                if lane.closed {
                    break;
                }
                match lane.feed.ring.next(lane.cursor, Duration::ZERO) {
                    ReadOutcome::Frame(mut frame) => {
                        lane.cursor += 1;
                        progressed = true;
                        frame.present &= self.slot_mask;
                        if let Some(frame) = lane.downsampler.push(&frame) {
                            lane.queue.push_back(frame);
                        }
                        if lane.queue.len() >= QUEUE_CAP {
                            break;
                        }
                    }
                    ReadOutcome::Lapped { resume_at, dropped } => {
                        lane.cursor = resume_at;
                        lane.downsampler.reset();
                        lane.feed.gap_events.fetch_add(1, Ordering::SeqCst);
                        let rig = lane.rig;
                        stats.gap_events.fetch_add(1, Ordering::SeqCst);
                        self.gaps += 1;
                        out.push(&if self.tagged {
                            ServerMsg::RigGap { rig, dropped }
                        } else {
                            ServerMsg::Gap { dropped }
                        });
                        if self.gaps > max_gap_events {
                            return Pump::Evict(EvictReason::TooManyGaps {
                                gaps: self.gaps,
                                limit: max_gap_events,
                            });
                        }
                    }
                    ReadOutcome::TimedOut => break,
                    ReadOutcome::Closed => {
                        lane.closed = true;
                        break;
                    }
                }
            }
        }

        while !out.is_full() {
            let mut min: Option<(usize, u64)> = None;
            let mut blocked = false;
            let mut queued = 0usize;
            for (i, lane) in self.lanes.iter().enumerate() {
                queued += lane.queue.len();
                match lane.queue.front() {
                    Some(frame) => {
                        let t = frame.time.as_nanos();
                        if min.is_none_or(|(_, mt)| t < mt) {
                            min = Some((i, t));
                        }
                    }
                    None => blocked |= !lane.closed && lane.feed.alive.load(Ordering::SeqCst),
                }
            }
            let Some((i, _)) = min else { break };
            if blocked && progressed && queued < FORCE_EMIT_QUEUED {
                break;
            }
            let lane = &mut self.lanes[i];
            // `min` came from this queue's front, so the pop yields.
            let Some(frame) = lane.queue.pop_front() else {
                break;
            };
            let rig = lane.rig;
            if rig != self.batch_rig {
                self.flush(out);
                self.batch_rig = rig;
            }
            self.batch.push(frame);
            if self.batch.len() >= MAX_BATCH_FRAMES {
                self.flush(out);
            }
        }
        self.flush(out);

        if self.lanes.iter().all(|l| l.closed && l.queue.is_empty()) {
            Pump::Closed
        } else {
            Pump::Idle
        }
    }

    fn flush(&mut self, out: &mut OutQueue) {
        if self.batch.is_empty() {
            return;
        }
        let frames = std::mem::take(&mut self.batch);
        out.push(&if self.tagged {
            ServerMsg::RigBatch {
                rig: self.batch_rig,
                frames,
            }
        } else {
            ServerMsg::Batch { frames }
        });
    }
}
