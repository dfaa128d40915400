//! Single-producer broadcast ring buffer.
//!
//! The acquisition side publishes every frame exactly once; each
//! subscriber owns a plain `u64` cursor and reads at its own pace.
//! Readers never block the producer: a reader that falls more than one
//! ring-length behind is *lapped* — it learns how many frames it lost
//! and resumes near the current head (drop-oldest policy). Torn reads
//! under concurrent overwrite are detected with a per-slot sequence
//! check (seqlock style) and reported as laps, never as corrupt data.

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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use ps3_firmware::SENSOR_SLOTS;
use ps3_units::SimTime;

use crate::proto::StreamFrame;

/// Sentinel stored in a slot's sequence word while it is being written.
const WRITING: u64 = u64::MAX;

/// When a reader is lapped it resumes this far behind the head (in
/// fractions of capacity), leaving room so it is not immediately
/// lapped again mid-read.
const RESUME_MARGIN_DENOM: u64 = 4;

struct Slot {
    /// Sequence number of the frame held, or [`WRITING`].
    seq: AtomicU64,
    /// Frame payload: `[t_us, raw 0–3, raw 4–7, present|marker<<8]`.
    words: [AtomicU64; 4],
}

/// Outcome of a reader polling its cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The frame at the reader's cursor; advance the cursor by one.
    Frame(StreamFrame),
    /// The reader fell behind and lost `dropped` frames; continue from
    /// `resume_at`.
    Lapped {
        /// Cursor value to continue from.
        resume_at: u64,
        /// Frames skipped over.
        dropped: u64,
    },
    /// No new frame arrived within the timeout.
    TimedOut,
    /// The ring was closed (daemon shutdown) and fully drained.
    Closed,
}

/// The broadcast ring. One producer, any number of cursor-holding
/// readers; see the module docs.
pub struct BroadcastRing {
    slots: Box<[Slot]>,
    mask: u64,
    /// Next sequence number to publish (== count published so far).
    head: AtomicU64,
    closed: AtomicBool,
    /// Publish notification for blocked readers.
    wait_lock: Mutex<()>,
    wait_cv: Condvar,
}

impl BroadcastRing {
    /// Creates a ring holding `capacity` frames (rounded up to a power
    /// of two, minimum 2).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(WRITING),
                words: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
            })
            .collect();
        Self {
            slots,
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            wait_lock: Mutex::new(()),
            wait_cv: Condvar::new(),
        }
    }

    /// Number of frames the ring can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Sequence number the next published frame will get.
    #[must_use]
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// `true` once [`BroadcastRing::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Publishes one frame. Single producer only: calling this from
    /// two threads concurrently corrupts sequence accounting.
    pub fn publish(&self, frame: &StreamFrame) {
        let seq = self.head.load(Ordering::SeqCst);
        let slot = &self.slots[(seq & self.mask) as usize];
        slot.seq.store(WRITING, Ordering::SeqCst);
        let [w0, w1, w2, w3] = pack(frame);
        slot.words[0].store(w0, Ordering::SeqCst);
        slot.words[1].store(w1, Ordering::SeqCst);
        slot.words[2].store(w2, Ordering::SeqCst);
        slot.words[3].store(w3, Ordering::SeqCst);
        slot.seq.store(seq, Ordering::SeqCst);
        self.head.store(seq + 1, Ordering::SeqCst);
        // Take and drop the lock so a reader between its head check and
        // its wait cannot miss this wake-up.
        drop(self.wait_lock.lock());
        self.wait_cv.notify_all();
    }

    /// Closes the ring: readers drain what remains, then see
    /// [`ReadOutcome::Closed`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        drop(self.wait_lock.lock());
        self.wait_cv.notify_all();
    }

    /// Reads the frame at `cursor`, blocking up to `timeout` for one to
    /// be published.
    #[must_use]
    pub fn next(&self, cursor: u64, timeout: Duration) -> ReadOutcome {
        let head = self.head.load(Ordering::SeqCst);
        if cursor >= head {
            // Nothing new yet: wait for a publish (or closure).
            if self.is_closed() {
                return ReadOutcome::Closed;
            }
            let mut guard = self.wait_lock.lock();
            if self.head.load(Ordering::SeqCst) == cursor && !self.is_closed() {
                let _ = self.wait_cv.wait_for(&mut guard, timeout);
            }
            drop(guard);
            let head = self.head.load(Ordering::SeqCst);
            if cursor >= head {
                return if self.is_closed() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::TimedOut
                };
            }
        }
        self.try_read(cursor)
    }

    /// Non-blocking read of the frame at `cursor`.
    fn try_read(&self, cursor: u64) -> ReadOutcome {
        let head = self.head.load(Ordering::SeqCst);
        let capacity = self.mask + 1;
        if head.saturating_sub(cursor) > capacity {
            return self.lapped(cursor, head);
        }
        let slot = &self.slots[(cursor & self.mask) as usize];
        let seq_before = slot.seq.load(Ordering::SeqCst);
        if seq_before != cursor {
            // Already overwritten (or mid-overwrite): the reader is at
            // least a full ring behind.
            return self.lapped(cursor, self.head.load(Ordering::SeqCst));
        }
        let words = [
            slot.words[0].load(Ordering::SeqCst),
            slot.words[1].load(Ordering::SeqCst),
            slot.words[2].load(Ordering::SeqCst),
            slot.words[3].load(Ordering::SeqCst),
        ];
        let seq_after = slot.seq.load(Ordering::SeqCst);
        if seq_after != cursor {
            return self.lapped(cursor, self.head.load(Ordering::SeqCst));
        }
        ReadOutcome::Frame(unpack(words))
    }

    fn lapped(&self, cursor: u64, head: u64) -> ReadOutcome {
        let capacity = self.mask + 1;
        // Resume behind the head, but with a margin so the producer
        // does not immediately overtake the reader again.
        let resume_at = head.saturating_sub(capacity - capacity / RESUME_MARGIN_DENOM);
        let resume_at = resume_at.max(cursor);
        ReadOutcome::Lapped {
            resume_at,
            dropped: resume_at - cursor,
        }
    }
}

impl core::fmt::Debug for BroadcastRing {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BroadcastRing")
            .field("capacity", &self.capacity())
            .field("head", &self.head())
            .field("closed", &self.is_closed())
            .finish()
    }
}

fn pack(frame: &StreamFrame) -> [u64; 4] {
    let quad = |lo: usize| {
        u64::from(frame.raw[lo])
            | u64::from(frame.raw[lo + 1]) << 16
            | u64::from(frame.raw[lo + 2]) << 32
            | u64::from(frame.raw[lo + 3]) << 48
    };
    [
        frame.time.as_micros(),
        quad(0),
        quad(4),
        u64::from(frame.present) | (u64::from(frame.marker) << 8),
    ]
}

fn unpack(words: [u64; 4]) -> StreamFrame {
    let mut raw = [0u16; SENSOR_SLOTS];
    for (i, code) in raw.iter_mut().enumerate() {
        let word = words[1 + i / 4];
        *code = (word >> (16 * (i % 4))) as u16;
    }
    StreamFrame {
        time: SimTime::from_micros(words[0]),
        raw,
        present: words[3] as u8,
        marker: words[3] & (1 << 8) != 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn frame(t_us: u64) -> StreamFrame {
        let mut raw = [0u16; SENSOR_SLOTS];
        for (slot, code) in raw.iter_mut().enumerate() {
            *code = ((t_us + slot as u64) & 0x3FF) as u16;
        }
        StreamFrame {
            time: SimTime::from_micros(t_us),
            raw,
            present: 0b11,
            marker: t_us.is_multiple_of(7),
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let f = frame(123_456_789);
        assert_eq!(unpack(pack(&f)), f);
    }

    #[test]
    fn single_reader_sees_everything_in_order() {
        let ring = BroadcastRing::new(64);
        for i in 0..50 {
            ring.publish(&frame(i * 50));
        }
        let mut cursor = 0;
        while cursor < 50 {
            match ring.next(cursor, Duration::from_millis(1)) {
                ReadOutcome::Frame(f) => {
                    assert_eq!(f.time.as_micros(), cursor * 50);
                    cursor += 1;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(
            ring.next(cursor, Duration::from_millis(1)),
            ReadOutcome::TimedOut
        );
    }

    #[test]
    fn slow_reader_is_lapped_with_gap_accounting() {
        let ring = BroadcastRing::new(16);
        for i in 0..100 {
            ring.publish(&frame(i));
        }
        match ring.next(0, Duration::ZERO) {
            ReadOutcome::Lapped { resume_at, dropped } => {
                assert_eq!(dropped, resume_at);
                assert!(resume_at >= 100 - 16, "resume {resume_at} too far back");
                assert!(resume_at < 100, "resume {resume_at} past head");
                // The resumed cursor reads cleanly.
                match ring.next(resume_at, Duration::ZERO) {
                    ReadOutcome::Frame(f) => assert_eq!(f.time.as_micros(), resume_at),
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
            other => panic!("expected lap, got {other:?}"),
        }
    }

    #[test]
    fn close_wakes_and_drains() {
        let ring = Arc::new(BroadcastRing::new(8));
        ring.publish(&frame(1));
        ring.close();
        assert_eq!(ring.next(0, Duration::ZERO), ReadOutcome::Frame(frame(1)));
        assert_eq!(ring.next(1, Duration::from_secs(5)), ReadOutcome::Closed);
    }

    #[test]
    fn concurrent_readers_never_see_torn_frames() {
        let ring = Arc::new(BroadcastRing::new(32));
        let total: u64 = 20_000;
        let mut readers = Vec::new();
        for _ in 0..4 {
            let ring = Arc::clone(&ring);
            readers.push(std::thread::spawn(move || {
                let mut cursor = 0u64;
                let mut seen = 0u64;
                let mut dropped = 0u64;
                loop {
                    match ring.next(cursor, Duration::from_millis(100)) {
                        ReadOutcome::Frame(f) => {
                            // Frame contents must be internally
                            // consistent with its timestamp.
                            let expect = frame(f.time.as_micros());
                            assert_eq!(f, expect, "torn read at cursor {cursor}");
                            assert_eq!(f.time.as_micros(), cursor);
                            cursor += 1;
                            seen += 1;
                        }
                        ReadOutcome::Lapped {
                            resume_at,
                            dropped: d,
                        } => {
                            cursor = resume_at;
                            dropped += d;
                        }
                        ReadOutcome::TimedOut => continue,
                        ReadOutcome::Closed => break,
                    }
                }
                (seen, dropped)
            }));
        }
        for i in 0..total {
            ring.publish(&frame(i));
        }
        ring.close();
        for reader in readers {
            let (seen, dropped) = reader.join().unwrap();
            assert_eq!(seen + dropped, total, "every frame seen or accounted");
        }
    }
}
