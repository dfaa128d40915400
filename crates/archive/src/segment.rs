//! Segment codec: frames in, sealed on-disk bytes out, and back.
//!
//! A segment stores a run of consecutive frames as one self-contained
//! unit:
//!
//! ```text
//! header   magic · seq · frame/summary/marker counts · payload len ·
//!          start/end time · per-slot Rice parameters
//! summary  one block per [`SUMMARY_FRAMES`] frames: count, first/last
//!          (time, power), Σ/min/max power, in-block trapezoid energy
//! offsets  per summary block, the payload byte offset of its frames
//! markers  (time, label) table — marker queries never touch the
//!          payload
//! crc      CRC-32 over the header and the three tables above
//! payload  the compressed frames, block by block (see below)
//! trailer  CRC-32 over everything above · seal word
//! ```
//!
//! # Payload encoding
//!
//! The payload is a run of independently decodable blocks, one per
//! summary block (the Gorilla block layout), each starting on a byte
//! boundary at its stored offset. A block is itself a run table
//! followed by up to `SUMMARY_FRAMES / SUB_FRAMES` runs of
//! [`SUB_FRAMES`] frames (the last run of a partial block holds the
//! rest), each run starting on a byte boundary and restarting every
//! coder:
//!
//! ```text
//! run table  per run i: Σ power (f64, a sequential sum from 0.0);
//!            for i > 0, run i's byte offset as a varint delta from
//!            run i−1's and its first time as a varint delta from run
//!            i−1's last; for all but the last run, its last time as a
//!            varint delta from its first
//! table crc  CRC-32 over the run table
//! runs       the runs' coded frames, run 0 right after the table crc
//! ```
//!
//! Run 0's first time is the block summary's `first_us` and the last
//! run's last time its `last_us`; a run's frame count follows from the
//! block's. A range or bucket edge decodes only the runs it cuts,
//! handing each frame to its fold as it is decoded
//! ([`SegmentMeta::decode_run`]); a bucket that holds a whole run takes
//! it from the table without decoding it. A whole-segment decode is the
//! same run loop over every block, collecting the frames
//! ([`SegmentMeta::decode_blocks`]).
//!
//! Within a run, timestamps are delta-of-delta coded (Gorilla-style):
//! at 20 kHz the inter-frame delta is a constant 50 µs, so the common
//! case is a single bit. Raw 10-bit sample values are coded per slot as
//! a Rice-coded zigzag delta from the slot's previous value, with the
//! Rice parameter `k` chosen per slot per segment by exact cost
//! minimisation over the segment's actual deltas. A steady frame
//! (regular cadence, unchanged slot set, no marker) spends one flag
//! bit plus its value codes — ~10 bits/frame for one active pair
//! against 48 bits on the wire. A run's first frame restarts both
//! coders: its slot set and raw values are stored whole, and its
//! timestamp is the run table's first time.
//!
//! Marker labels are stored natively (21 bits of Unicode scalar), so
//! archived traces round-trip the host-side labels that the device
//! wire protocol itself cannot carry.
//!
//! The decoder accepts only what the encoder can write: a raw code past
//! 10 bits, a label code that is not a Unicode scalar value, a run
//! table whose CRC, offsets or times do not check out, or a run that
//! does not end exactly where the next one starts is
//! [`ArchiveError::Corrupt`], since the sidecar fast path serves
//! payloads whose segment CRC it has not checked.

use core::ops::Range;

use ps3_firmware::SENSOR_SLOTS;
use ps3_units::SimTime;

use crate::bits::{unzigzag64, zigzag64, BitReader, BitWriter};
use crate::crc::crc32;
use crate::format::{
    parse_markers, read_f64, read_u32, read_u64, ArchiveError, BLOCK_OFFSET_SIZE, MARKER_WIRE_SIZE,
    SEAL_MAGIC, SEGMENT_HEADER_SIZE, SEGMENT_MAGIC, SUB_FRAMES, SUMMARY_FRAMES, SUMMARY_WIRE_SIZE,
    TABLES_CRC_SIZE,
};

/// The inter-frame delta the delta-of-delta coder assumes before the
/// second frame of a segment: the 20 kHz cadence (µs). Starting from
/// the true cadence makes the second frame of every segment hit the
/// single-bit fast path.
const DEFAULT_DELTA_US: u64 = 50;

/// Unicode scalar values fit in 21 bits.
const CHAR_BITS: u8 = 21;

/// The largest raw sample code: the ADC is 10-bit.
const MAX_RAW: u16 = 0x3FF;

/// Bins of [`choose_rice_params`]'s per-slot delta histogram: zigzagged
/// deltas of two codes up to [`MAX_RAW`] span `0..=2046`.
const DELTA_BINS: usize = 2048;

/// The latest timestamp a [`SimTime`] can hold, µs: a decoded time past
/// it is corrupt data.
const MAX_TIME_US: u64 = u64::MAX / 1000;

/// The most runs a summary block holds.
const RUNS_PER_BLOCK: usize = SUMMARY_FRAMES / SUB_FRAMES;

/// Bytes of a run-table CRC.
const RUN_TABLE_CRC_SIZE: usize = 4;

/// One archived sample frame: the host's frame type, stored as is —
/// raw codes plus presence, so reads re-derive physical units
/// bit-identically with the stored sensor configuration
/// ([`frame_total`], or its per-code table `ps3_firmware::PairTable`).
pub use ps3_core::FrameRecord as ArchiveFrame;

pub use ps3_core::frame_total;

/// Pre-aggregated statistics over one block of up to
/// [`SUMMARY_FRAMES`] frames, stored uncompressed so range queries can
/// skip payload decoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryBlock {
    /// Frames in the block.
    pub count: u32,
    /// Timestamp of the first frame (µs).
    pub first_us: u64,
    /// Timestamp of the last frame (µs).
    pub last_us: u64,
    /// Sequential sum of total power over the block (W).
    pub sum_w: f64,
    /// Minimum total power (W).
    pub min_w: f64,
    /// Maximum total power (W).
    pub max_w: f64,
    /// Trapezoid energy over the block's interior sample pairs (J);
    /// junctions between blocks are the reader's job.
    pub energy_j: f64,
    /// Total power of the first frame (W).
    pub first_w: f64,
    /// Total power of the last frame (W).
    pub last_w: f64,
}

impl SummaryBlock {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.first_us.to_le_bytes());
        out.extend_from_slice(&self.last_us.to_le_bytes());
        for v in [
            self.sum_w,
            self.min_w,
            self.max_w,
            self.energy_j,
            self.first_w,
            self.last_w,
        ] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Self {
        Self {
            count: read_u32(bytes, 0),
            first_us: read_u64(bytes, 4),
            last_us: read_u64(bytes, 12),
            sum_w: read_f64(bytes, 20),
            min_w: read_f64(bytes, 28),
            max_w: read_f64(bytes, 36),
            energy_j: read_f64(bytes, 44),
            first_w: read_f64(bytes, 52),
            last_w: read_f64(bytes, 60),
        }
    }
}

/// Builds the summary blocks for a segment's frames from their
/// (write-time) total-power values. The per-block sum is accumulated
/// sequentially over the block — the decoded fast/slow stats paths
/// reproduce exactly this grouping, which is what makes them agree to
/// the last ulp.
#[must_use]
pub fn build_summaries(frames: &[ArchiveFrame], watts: &[f64]) -> Vec<SummaryBlock> {
    debug_assert_eq!(frames.len(), watts.len());
    frames
        .chunks(SUMMARY_FRAMES)
        .zip(watts.chunks(SUMMARY_FRAMES))
        .map(|(fs, ws)| summarize_block(fs, ws))
        .collect()
}

/// Summary of one block (helper shared with the decoded stats path).
#[must_use]
pub fn summarize_block(frames: &[ArchiveFrame], watts: &[f64]) -> SummaryBlock {
    let mut sum = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut energy = 0.0f64;
    for (i, &w) in watts.iter().enumerate() {
        sum += w;
        min = min.min(w);
        max = max.max(w);
        if i > 0 {
            let dt = frames[i]
                .time
                .saturating_duration_since(frames[i - 1].time)
                .as_secs_f64();
            energy += (watts[i - 1] + w) / 2.0 * dt;
        }
    }
    SummaryBlock {
        count: frames.len() as u32,
        first_us: frames.first().map_or(0, |f| f.time.as_micros()),
        last_us: frames.last().map_or(0, |f| f.time.as_micros()),
        sum_w: sum,
        min_w: min,
        max_w: max,
        energy_j: energy,
        first_w: watts.first().copied().unwrap_or(0.0),
        last_w: watts.last().copied().unwrap_or(0.0),
    }
}

/// One run's entry in its block's run table: enough for a fold that
/// needs only count, sum and last time to take the run whole.
#[derive(Debug, Clone, Copy, Default)]
pub struct Run {
    /// Frames in the run: [`SUB_FRAMES`], or the rest of a partial
    /// block.
    pub count: u32,
    /// Timestamp of the first frame (µs).
    pub first_us: u64,
    /// Timestamp of the last frame (µs).
    pub last_us: u64,
    /// Sequential sum from 0.0 of the run's total power (W).
    pub sum_w: f64,
}

impl Run {
    /// `true` when every field, `sum_w` bit for bit, equals `other`'s.
    #[must_use]
    pub fn same(&self, other: &Run) -> bool {
        self.count == other.count
            && self.first_us == other.first_us
            && self.last_us == other.last_us
            && self.sum_w.to_bits() == other.sum_w.to_bits()
    }
}

/// The runs of consecutive frames from a block start on, one per
/// [`SUB_FRAMES`] frames, built from their (write-time) total-power
/// values with the writer's own sequential sum.
#[must_use]
pub fn build_runs(frames: &[ArchiveFrame], watts: &[f64]) -> Vec<Run> {
    debug_assert_eq!(frames.len(), watts.len());
    frames
        .chunks(SUB_FRAMES)
        .zip(watts.chunks(SUB_FRAMES))
        .map(|(fs, ws)| Run {
            count: fs.len() as u32,
            first_us: fs[0].time.as_micros(),
            last_us: fs[fs.len() - 1].time.as_micros(),
            sum_w: ws.iter().fold(0.0, |sum, &w| sum + w),
        })
        .collect()
}

/// A block's parsed and checked run table: each run's entry and where
/// its frames are in the block's bytes.
#[derive(Debug, Clone, Copy)]
pub struct RunTable {
    len: usize,
    runs: [Run; RUNS_PER_BLOCK],
    /// Each run's byte offset in the block's bytes, then the block's
    /// length.
    bounds: [usize; RUNS_PER_BLOCK + 1],
}

impl RunTable {
    /// The block's runs, in order.
    #[must_use]
    pub fn runs(&self) -> &[Run] {
        &self.runs[..self.len]
    }

    /// The byte range of run `i` in its block's bytes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a run of the block.
    #[must_use]
    pub fn bytes(&self, i: usize) -> Range<usize> {
        assert!(i < self.len, "run {i} of {}", self.len);
        self.bounds[i]..self.bounds[i + 1]
    }
}

/// Appends `v` as a LEB128 varint.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint at `*at`, advancing it; `None` past the end
/// of `bytes` or past 64 bits.
fn read_varint(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*at)?;
        *at += 1;
        if shift == 63 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// The fixed per-segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Sequence number (0-based, consecutive).
    pub seq: u32,
    /// Frames in the payload.
    pub frame_count: u32,
    /// Summary blocks following the header.
    pub summary_count: u32,
    /// Marker-table entries following the summaries.
    pub marker_count: u32,
    /// Compressed payload length in bytes.
    pub payload_len: u32,
    /// Timestamp of the first frame (µs).
    pub start_us: u64,
    /// Timestamp of the last frame (µs).
    pub end_us: u64,
    /// Per-slot Rice parameters, 4 bits each (slot `i` at bits `4i`).
    pub k_params: u32,
}

impl SegmentHeader {
    /// The Rice parameter for `slot`.
    #[must_use]
    pub fn k_for(&self, slot: usize) -> u8 {
        (self.k_params >> (4 * slot) & 0xF) as u8
    }

    /// Bytes of the tables between the fixed header and the payload:
    /// summary blocks, block offsets, markers and the CRC closing them.
    #[must_use]
    pub fn tables_len(&self) -> usize {
        self.summary_count as usize * (SUMMARY_WIRE_SIZE + BLOCK_OFFSET_SIZE)
            + self.marker_count as usize * MARKER_WIRE_SIZE
            + TABLES_CRC_SIZE
    }

    /// Total on-disk size of the segment this header describes,
    /// including the header itself and the trailer.
    #[must_use]
    pub fn disk_size(&self) -> u64 {
        (SEGMENT_HEADER_SIZE
            + self.tables_len()
            + self.payload_len as usize
            + crate::format::SEGMENT_TRAILER_SIZE) as u64
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.frame_count.to_le_bytes());
        out.extend_from_slice(&self.summary_count.to_le_bytes());
        out.extend_from_slice(&self.marker_count.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.start_us.to_le_bytes());
        out.extend_from_slice(&self.end_us.to_le_bytes());
        out.extend_from_slice(&self.k_params.to_le_bytes());
    }

    /// Parses the fixed header at the start of `bytes`.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] (at absolute offset `abs_offset`) on a
    /// short slice or bad magic.
    pub fn parse(bytes: &[u8], abs_offset: u64) -> Result<Self, ArchiveError> {
        if bytes.len() < SEGMENT_HEADER_SIZE {
            return Err(ArchiveError::Corrupt {
                offset: abs_offset,
                what: "segment header truncated".into(),
            });
        }
        if read_u32(bytes, 0) != SEGMENT_MAGIC {
            return Err(ArchiveError::Corrupt {
                offset: abs_offset,
                what: "bad segment magic".into(),
            });
        }
        Ok(Self {
            seq: read_u32(bytes, 4),
            frame_count: read_u32(bytes, 8),
            summary_count: read_u32(bytes, 12),
            marker_count: read_u32(bytes, 16),
            payload_len: read_u32(bytes, 20),
            start_us: read_u64(bytes, 24),
            end_us: read_u64(bytes, 32),
            k_params: read_u32(bytes, 40),
        })
    }
}

/// Parses `count` summary blocks from `bytes`.
#[must_use]
pub fn parse_summaries(bytes: &[u8], count: usize) -> Vec<SummaryBlock> {
    (0..count)
        .map(|i| SummaryBlock::decode(&bytes[i * SUMMARY_WIRE_SIZE..]))
        .collect()
}

/// Where a sealed segment lives and what it covers — everything a
/// query needs short of the payload itself.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Byte offset of the segment header in the archive file.
    pub offset: u64,
    /// The parsed fixed header.
    pub header: SegmentHeader,
    /// The segment's pre-aggregated summary blocks.
    pub summaries: Vec<SummaryBlock>,
    /// Payload byte offset of each summary block's frames, checked by
    /// [`SegmentMeta::parse`] (the only constructor) before any read.
    block_offsets: Vec<u32>,
    /// The segment's marker table: `(time µs, label)`.
    pub markers: Vec<(u64, char)>,
}

impl SegmentMeta {
    /// Parses the tables that follow `header` (the first
    /// [`SegmentHeader::tables_len`] bytes of `tables`) and checks
    /// their CRC and the block layout: one summary block per
    /// [`SUMMARY_FRAMES`] frames, each holding its share of them, and
    /// block offsets that start at 0 and rise strictly inside the
    /// payload. Only a segment that passes is ever decoded, so stored
    /// offsets never index unchecked.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] (at `offset`) on short tables, a CRC
    /// mismatch, a layout that fails the checks or a marker label that
    /// is no `char`.
    pub fn parse(offset: u64, header: SegmentHeader, tables: &[u8]) -> Result<Self, ArchiveError> {
        let corrupt = |what: &str| ArchiveError::Corrupt {
            offset,
            what: what.into(),
        };
        let blocks = header.summary_count as usize;
        if header.frame_count == 0
            || blocks != (header.frame_count as usize).div_ceil(SUMMARY_FRAMES)
        {
            return Err(corrupt("summary count disagrees with the frame count"));
        }
        if tables.len() < header.tables_len() {
            return Err(corrupt("segment tables truncated"));
        }
        let crc_at = header.tables_len() - TABLES_CRC_SIZE;
        if tables_crc(&header, &tables[..crc_at]) != read_u32(tables, crc_at) {
            return Err(corrupt("segment tables CRC mismatch"));
        }
        let summaries = parse_summaries(tables, blocks);
        let offsets_at = blocks * SUMMARY_WIRE_SIZE;
        let block_offsets: Vec<u32> = (0..blocks)
            .map(|i| read_u32(tables, offsets_at + i * BLOCK_OFFSET_SIZE))
            .collect();
        let markers = parse_markers(
            &tables[offsets_at + blocks * BLOCK_OFFSET_SIZE..],
            header.marker_count as usize,
        )
        .ok_or_else(|| corrupt("marker label is not a Unicode scalar value"))?;
        let meta = Self {
            offset,
            header,
            summaries,
            block_offsets,
            markers,
        };
        if (0..blocks).any(|i| meta.summaries[i].count as usize != meta.block_frames(i)) {
            return Err(corrupt(
                "summary block counts disagree with the frame count",
            ));
        }
        if meta.block_offsets[0] != 0
            || meta.block_offsets.windows(2).any(|w| w[0] >= w[1])
            || meta.block_offsets[blocks - 1] >= header.payload_len
        {
            return Err(corrupt("block offsets out of order or past the payload"));
        }
        Ok(meta)
    }

    /// Byte offset of the payload in the archive file.
    #[must_use]
    pub fn payload_offset(&self) -> u64 {
        self.offset + (SEGMENT_HEADER_SIZE + self.header.tables_len()) as u64
    }

    /// Frames in block `i`.
    fn block_frames(&self, i: usize) -> usize {
        (self.header.frame_count as usize - i * SUMMARY_FRAMES).min(SUMMARY_FRAMES)
    }

    /// The blocks holding frames in `[start_us, end_us)`.
    #[must_use]
    pub fn blocks_overlapping(&self, start_us: u64, end_us: u64) -> Range<usize> {
        let lo = self.summaries.partition_point(|b| b.last_us < start_us);
        let hi = self.summaries.partition_point(|b| b.first_us < end_us);
        lo..hi.max(lo)
    }

    /// The payload byte range holding `blocks`.
    #[must_use]
    pub fn block_bytes(&self, blocks: &Range<usize>) -> Range<usize> {
        let end = self
            .block_offsets
            .get(blocks.end)
            .map_or(self.header.payload_len, |&o| o);
        self.block_offsets[blocks.start] as usize..end as usize
    }

    /// Parses and checks block `block`'s run table from `bytes`, the
    /// block's payload bytes: its CRC, run offsets that rise strictly
    /// inside the block, and run times that rise inside the block
    /// summary's span.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] when the table is short or fails a
    /// check.
    ///
    /// # Panics
    ///
    /// Panics if `block` is past the last summary block.
    pub fn runs(&self, block: usize, bytes: &[u8]) -> Result<RunTable, ArchiveError> {
        let corrupt = |what: &str| ArchiveError::Corrupt {
            offset: self.offset,
            what: what.into(),
        };
        let summary = &self.summaries[block];
        let frames = self.block_frames(block);
        let len = frames.div_ceil(SUB_FRAMES);
        let short = || corrupt("run table truncated");
        let mut table = RunTable {
            len,
            runs: [Run::default(); RUNS_PER_BLOCK],
            bounds: [0; RUNS_PER_BLOCK + 1],
        };
        // Byte offsets relative to run 0 until the table's end is known.
        let mut at = 0;
        let mut time = summary.first_us;
        for i in 0..len {
            let sum = bytes.get(at..at + 8).ok_or_else(short)?;
            at += 8;
            let mut first = summary.first_us;
            if i > 0 {
                let run_len = read_varint(bytes, &mut at).ok_or_else(short)?;
                let gap = read_varint(bytes, &mut at).ok_or_else(short)?;
                table.bounds[i] = usize::try_from(run_len)
                    .ok()
                    .filter(|&l| l > 0)
                    .and_then(|l| table.bounds[i - 1].checked_add(l))
                    .ok_or_else(|| corrupt("run offsets out of order"))?;
                first = time
                    .checked_add(gap)
                    .ok_or_else(|| corrupt("run times outside the block"))?;
            }
            let last = if i + 1 == len {
                summary.last_us
            } else {
                let span = read_varint(bytes, &mut at).ok_or_else(short)?;
                first
                    .checked_add(span)
                    .ok_or_else(|| corrupt("run times outside the block"))?
            };
            if first > last || last > summary.last_us {
                return Err(corrupt("run times outside the block"));
            }
            table.runs[i] = Run {
                count: (frames - i * SUB_FRAMES).min(SUB_FRAMES) as u32,
                first_us: first,
                last_us: last,
                sum_w: read_f64(sum, 0),
            };
            time = last;
        }
        let stored = bytes.get(at..at + RUN_TABLE_CRC_SIZE).ok_or_else(short)?;
        if crc32(&bytes[..at]) != read_u32(stored, 0) {
            return Err(corrupt("run table CRC mismatch"));
        }
        let runs_at = at + RUN_TABLE_CRC_SIZE;
        for bound in &mut table.bounds[..len] {
            *bound += runs_at;
        }
        if table.bounds[len - 1] >= bytes.len() {
            return Err(corrupt("run offsets past the block"));
        }
        table.bounds[len] = bytes.len();
        Ok(table)
    }

    /// Decodes one run of this segment from `bytes`, exactly its bytes
    /// ([`RunTable::bytes`]), handing each frame to `sink` in order.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] when the run does not decode to
    /// exactly its frames and bytes, or its last frame is not at the
    /// run's `last_us`; `sink` may have taken frames before the damage.
    pub fn decode_run(
        &self,
        run: &Run,
        bytes: &[u8],
        mut sink: impl FnMut(ArchiveFrame),
    ) -> Result<(), ArchiveError> {
        let k: [u8; SENSOR_SLOTS] = core::array::from_fn(|s| self.header.k_for(s));
        let last_us = decode_run(
            &k,
            run.first_us,
            run.count as usize,
            bytes,
            self.offset,
            &mut sink,
        )?;
        if last_us != run.last_us {
            return Err(ArchiveError::Corrupt {
                offset: self.offset,
                what: "run times disagree with its frames".into(),
            });
        }
        Ok(())
    }

    /// Decodes `blocks` from `bytes`, their payload bytes
    /// ([`SegmentMeta::block_bytes`]), appending the frames to `out`.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] when a block's run table fails its
    /// checks or a run does not decode to exactly its frames and bytes.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` reaches past the last summary block.
    pub fn decode_blocks(
        &self,
        blocks: Range<usize>,
        bytes: &[u8],
        out: &mut Vec<ArchiveFrame>,
    ) -> Result<(), ArchiveError> {
        out.reserve(blocks.len() * SUMMARY_FRAMES);
        self.decode_blocks_to(blocks, bytes, 0..u64::MAX, |frame| out.push(frame))
    }

    /// Decodes the runs of `blocks` that hold frames in `window` (µs)
    /// from `bytes`, their payload bytes ([`SegmentMeta::block_bytes`]),
    /// handing each frame of those runs to `sink` in order: the one
    /// decoder, run by run. A run that fails has already handed over
    /// the frames before the damage.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] when a block's run table fails its
    /// checks or a run does not decode to exactly its frames and bytes.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` reaches past the last summary block.
    pub(crate) fn decode_blocks_to(
        &self,
        blocks: Range<usize>,
        bytes: &[u8],
        window: Range<u64>,
        mut sink: impl FnMut(ArchiveFrame),
    ) -> Result<(), ArchiveError> {
        if blocks.is_empty() {
            return Ok(());
        }
        let base = self.block_bytes(&blocks).start;
        for i in blocks {
            let span = self.block_bytes(&(i..i + 1));
            let block = bytes
                .get(span.start - base..span.end - base)
                .ok_or_else(|| ArchiveError::Corrupt {
                    offset: self.offset,
                    what: "payload shorter than its block offsets".into(),
                })?;
            let table = self.runs(i, block)?;
            for (j, run) in table.runs().iter().enumerate() {
                if run.last_us >= window.start && run.first_us < window.end {
                    self.decode_run(run, &block[table.bytes(j)], &mut sink)?;
                }
            }
        }
        Ok(())
    }

    /// Checks every stored run of the segment against `frames`, its
    /// whole decode from `payload`, with `watts` their total powers:
    /// counts, times and sums, bit for bit.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] on a run table that fails its checks
    /// or a run that disagrees with its frames.
    pub(crate) fn check_runs(
        &self,
        payload: &[u8],
        frames: &[ArchiveFrame],
        watts: &[f64],
    ) -> Result<(), ArchiveError> {
        for (i, (fs, ws)) in frames
            .chunks(SUMMARY_FRAMES)
            .zip(watts.chunks(SUMMARY_FRAMES))
            .enumerate()
        {
            let block = payload.get(self.block_bytes(&(i..i + 1))).ok_or_else(|| {
                ArchiveError::Corrupt {
                    offset: self.offset,
                    what: "payload shorter than its block offsets".into(),
                }
            })?;
            let table = self.runs(i, block)?;
            let built = build_runs(fs, ws);
            if built.len() != table.runs().len()
                || built.iter().zip(table.runs()).any(|(a, b)| !a.same(b))
            {
                return Err(ArchiveError::Corrupt {
                    offset: self.offset,
                    what: "run table disagrees with its frames".into(),
                });
            }
        }
        Ok(())
    }
}

/// CRC-32 over a segment header's bytes and the `tables` after it.
fn tables_crc(header: &SegmentHeader, tables: &[u8]) -> u32 {
    let mut bytes = Vec::with_capacity(SEGMENT_HEADER_SIZE);
    header.encode_into(&mut bytes);
    let mut crc = crate::crc::Crc32::new();
    crc.update(&bytes);
    crc.update(tables);
    crc.finish()
}

/// Builds the complete on-disk bytes of one sealed segment from its
/// frames and their (write-time) total-power values.
///
/// # Panics
///
/// Panics if `frames` is empty or `frames.len() != watts.len()`;
/// debug-asserts that timestamps are non-decreasing.
#[must_use]
pub fn build_segment(seq: u32, frames: &[ArchiveFrame], watts: &[f64]) -> Vec<u8> {
    assert!(!frames.is_empty(), "a segment holds at least one frame");
    assert_eq!(frames.len(), watts.len());
    debug_assert!(
        frames.windows(2).all(|w| w[0].time <= w[1].time),
        "segment frames must be in time order"
    );
    let k_params = choose_rice_params(frames);
    let (payload, block_offsets) = encode_payload(frames, watts, k_params);
    let summaries = build_summaries(frames, watts);
    let markers: Vec<(u64, char)> = frames
        .iter()
        .filter_map(|f| f.marker.map(|label| (f.time.as_micros(), label)))
        .collect();

    let header = SegmentHeader {
        seq,
        frame_count: frames.len() as u32,
        summary_count: summaries.len() as u32,
        marker_count: markers.len() as u32,
        payload_len: payload.len() as u32,
        start_us: frames[0].time.as_micros(),
        end_us: frames[frames.len() - 1].time.as_micros(),
        k_params,
    };
    let mut out = Vec::with_capacity(header.disk_size() as usize);
    header.encode_into(&mut out);
    for s in &summaries {
        s.encode_into(&mut out);
    }
    for offset in &block_offsets {
        out.extend_from_slice(&offset.to_le_bytes());
    }
    for &(time_us, label) in &markers {
        out.extend_from_slice(&time_us.to_le_bytes());
        out.extend_from_slice(&(label as u32).to_le_bytes());
    }
    let crc = tables_crc(&header, &out[SEGMENT_HEADER_SIZE..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&SEAL_MAGIC.to_le_bytes());
    out
}

/// Picks each slot's Rice parameter `k` in `0..=10` by exact cost
/// minimisation over the segment's in-run zigzagged value deltas (the
/// first value of each run is stored raw, so it does not count); ties
/// go to the smaller `k`.
///
/// The deltas are not kept: each slot counts how often each value
/// occurs in [`DELTA_BINS`] bins, which hold every delta two 10-bit
/// codes can make, and each `k` is priced once per bin that holds a
/// value, weighted by its count. A delta past the bins can only come
/// from a raw code above [`MAX_RAW`]; those few are priced one by one.
/// The sums are exact integers, so the choice equals pricing every
/// delta on its own.
fn choose_rice_params(frames: &[ArchiveFrame]) -> u32 {
    let mut counts = vec![[0u32; DELTA_BINS]; SENSOR_SLOTS];
    let mut outliers: [Vec<u32>; SENSOR_SLOTS] = Default::default();
    for run in frames.chunks(SUB_FRAMES) {
        let mut prev: [Option<u16>; SENSOR_SLOTS] = [None; SENSOR_SLOTS];
        for frame in run {
            for slot in 0..SENSOR_SLOTS {
                if frame.present & (1 << slot) == 0 {
                    continue;
                }
                let v = frame.raw[slot];
                if let Some(p) = prev[slot] {
                    let d = zigzag64(i64::from(v) - i64::from(p)) as u32;
                    match counts[slot].get_mut(d as usize) {
                        Some(n) => *n += 1,
                        None => outliers[slot].push(d),
                    }
                }
                prev[slot] = Some(v);
            }
        }
    }
    let mut packed = 0u32;
    let mut tally: Vec<(u32, u64)> = Vec::new();
    for (slot, (bins, outliers)) in counts.iter().zip(&outliers).enumerate() {
        tally.clear();
        tally.extend(
            (0u32..)
                .zip(bins)
                .filter(|&(_, &n)| n > 0)
                .map(|(d, &n)| (d, u64::from(n))),
        );
        tally.extend(outliers.iter().map(|&d| (d, 1)));
        let best = (0..=10u8)
            .min_by_key(|&k| {
                tally
                    .iter()
                    .map(|&(d, n)| n * u64::from(BitWriter::rice_cost(d, k)))
                    .sum::<u64>()
            })
            .unwrap_or(0);
        packed |= u32::from(best) << (4 * slot);
    }
    packed
}

/// Codes each [`SUMMARY_FRAMES`]-frame block on its own: its run
/// table, then its runs. Returns the payload and each block's byte
/// offset.
fn encode_payload(frames: &[ArchiveFrame], watts: &[f64], k_params: u32) -> (Vec<u8>, Vec<u32>) {
    let k: [u8; SENSOR_SLOTS] = core::array::from_fn(|s| (k_params >> (4 * s) & 0xF) as u8);
    let mut payload = Vec::new();
    let offsets = frames
        .chunks(SUMMARY_FRAMES)
        .zip(watts.chunks(SUMMARY_FRAMES))
        .map(|(block, block_watts)| {
            let offset = payload.len() as u32;
            encode_block(&mut payload, block, block_watts, &k);
            offset
        })
        .collect();
    (payload, offsets)
}

/// Appends one block: its run table and the table's CRC, then each
/// [`SUB_FRAMES`]-frame run on its own, starting on a byte boundary.
fn encode_block(out: &mut Vec<u8>, frames: &[ArchiveFrame], watts: &[f64], k: &[u8; SENSOR_SLOTS]) {
    let mut w = BitWriter::new();
    let mut starts = Vec::with_capacity(RUNS_PER_BLOCK);
    for run in frames.chunks(SUB_FRAMES) {
        starts.push(w.align());
        encode_run(&mut w, run, k);
    }
    let coded = w.finish();
    let runs = build_runs(frames, watts);
    let table_at = out.len();
    for (i, run) in runs.iter().enumerate() {
        out.extend_from_slice(&run.sum_w.to_bits().to_le_bytes());
        if i > 0 {
            push_varint(out, (starts[i] - starts[i - 1]) as u64);
            push_varint(out, run.first_us - runs[i - 1].last_us);
        }
        if i + 1 < runs.len() {
            push_varint(out, run.last_us - run.first_us);
        }
    }
    let crc = crc32(&out[table_at..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&coded);
}

/// Codes one run. Its first frame restarts every coder: no timestamp
/// (the run table holds it), raw values, and the assumed 20 kHz cadence
/// for the delta-of-delta.
fn encode_run(w: &mut BitWriter, frames: &[ArchiveFrame], k: &[u8; SENSOR_SLOTS]) {
    let mut prev_vals: [Option<u16>; SENSOR_SLOTS] = [None; SENSOR_SLOTS];
    let mut push_values = |w: &mut BitWriter, frame: &ArchiveFrame| {
        for slot in 0..SENSOR_SLOTS {
            if frame.present & (1 << slot) == 0 {
                continue;
            }
            let v = frame.raw[slot];
            debug_assert!(v <= MAX_RAW, "raw code {v:#x} in slot {slot} is not 10-bit");
            match prev_vals[slot] {
                None => w.push_bits(u64::from(v), 10),
                Some(p) => {
                    w.push_rice(zigzag64(i64::from(v) - i64::from(p)) as u32, k[slot]);
                }
            }
            prev_vals[slot] = Some(v);
        }
    };

    let first = &frames[0];
    w.push_bits(u64::from(first.present), 8);
    push_marker(w, first.marker);
    push_values(w, first);

    let mut prev_time = first.time.as_micros();
    let mut prev_delta = DEFAULT_DELTA_US;
    let mut prev_present = first.present;
    for frame in &frames[1..] {
        let t = frame.time.as_micros();
        let delta = t - prev_time;
        let dod = i128::from(delta) - i128::from(prev_delta);
        let fast = dod == 0 && frame.present == prev_present && frame.marker.is_none();
        w.push_bit(fast);
        if !fast {
            push_dod(w, dod, delta);
            if frame.present == prev_present {
                w.push_bit(false);
            } else {
                w.push_bit(true);
                w.push_bits(u64::from(frame.present), 8);
            }
            push_marker(w, frame.marker);
        }
        push_values(w, frame);
        prev_time = t;
        prev_delta = delta;
        prev_present = frame.present;
    }
}

/// Writes a marker flag bit plus, when set, the label's Unicode scalar.
fn push_marker(w: &mut BitWriter, marker: Option<char>) {
    match marker {
        None => w.push_bit(false),
        Some(label) => {
            w.push_bit(true);
            w.push_bits(u64::from(label as u32), CHAR_BITS);
        }
    }
}

/// Timestamp delta-of-delta classes (after a `0` slow-path flag):
/// `0` → dod = 0, `10`+8 bits, `110`+16 bits, `1110`+32 bits (all
/// zigzag), `1111`+64 raw bits of the delta itself.
fn push_dod(w: &mut BitWriter, dod: i128, delta: u64) {
    if dod == 0 {
        w.push_bit(false);
        return;
    }
    w.push_bit(true);
    let mag = dod.unsigned_abs();
    if mag <= 127 {
        w.push_bit(false);
        w.push_bits(zigzag64(dod as i64), 8);
    } else if mag <= 32_767 {
        w.push_bit(true);
        w.push_bit(false);
        w.push_bits(zigzag64(dod as i64), 16);
    } else if mag <= i32::MAX as u128 {
        w.push_bit(true);
        w.push_bit(true);
        w.push_bit(false);
        w.push_bits(zigzag64(dod as i64), 32);
    } else {
        w.push_bit(true);
        w.push_bit(true);
        w.push_bit(true);
        w.push_bits(delta, 64);
    }
}

/// Decodes one run of `count` frames whose first frame is at
/// `first_us`, handing them to `sink`, and returns the last frame's
/// time (µs). `bytes` must be exactly the run's bytes.
///
/// # Errors
///
/// [`ArchiveError::Corrupt`] (at `abs_offset`) if the bit stream ends
/// early, decodes to impossible values, or does not end in the run's
/// last byte — only reachable on logically damaged data (a CRC-valid
/// segment, or an unchecked sidecar open) or a codec bug.
fn decode_run(
    k: &[u8; SENSOR_SLOTS],
    first_us: u64,
    count: usize,
    bytes: &[u8],
    abs_offset: u64,
    sink: &mut impl FnMut(ArchiveFrame),
) -> Result<u64, ArchiveError> {
    let corrupt = |what: &str| ArchiveError::Corrupt {
        offset: abs_offset,
        what: what.into(),
    };
    let mut r = BitReader::new(bytes);
    // Each slot's previous value, valid where its bit of `seen` is set.
    let mut prev_vals = [0u16; SENSOR_SLOTS];
    let mut seen = 0u8;
    let mut read_values = |r: &mut BitReader<'_>, present: u8| -> Result<_, ArchiveError> {
        let mut raw = [0u16; SENSOR_SLOTS];
        let mut slots = present;
        while slots != 0 {
            let slot = slots.trailing_zeros() as usize;
            let bit = slots & slots.wrapping_neg();
            slots ^= bit;
            let v = if seen & bit == 0 {
                r.read_bits(10)
                    .map_err(|_| corrupt("payload ends mid-value"))? as u16
            } else {
                let zz = r
                    .read_rice(k[slot])
                    .map_err(|_| corrupt("payload ends mid-delta"))?;
                let v = i64::from(prev_vals[slot]) + unzigzag64(u64::from(zz));
                u16::try_from(v)
                    .ok()
                    .filter(|&v| v <= MAX_RAW)
                    .ok_or_else(|| corrupt("value delta out of range"))?
            };
            raw[slot] = v;
            prev_vals[slot] = v;
        }
        seen |= present;
        Ok(raw)
    };

    // First frame: its timestamp is the run table's first time.
    if first_us > MAX_TIME_US {
        return Err(corrupt("timestamp overflow"));
    }
    let present = r
        .read_bits(8)
        .map_err(|_| corrupt("payload ends in a run's first frame"))? as u8;
    let marker = read_marker(&mut r, &corrupt)?;
    let raw = read_values(&mut r, present)?;
    sink(ArchiveFrame {
        time: SimTime::from_micros(first_us),
        raw,
        present,
        marker,
    });

    let mut prev_time = first_us;
    let mut prev_delta = DEFAULT_DELTA_US;
    let mut prev_present = present;
    for _ in 1..count {
        let fast = r
            .read_bit()
            .map_err(|_| corrupt("payload ends between frames"))?;
        let (delta, present, marker) = if fast {
            (prev_delta, prev_present, None)
        } else {
            let delta =
                read_dod(&mut r, prev_delta).map_err(|_| corrupt("payload ends mid-timestamp"))?;
            let delta = delta.ok_or_else(|| corrupt("negative timestamp delta"))?;
            let present = if r
                .read_bit()
                .map_err(|_| corrupt("payload ends mid-present"))?
            {
                r.read_bits(8)
                    .map_err(|_| corrupt("payload ends mid-present"))? as u8
            } else {
                prev_present
            };
            let marker = read_marker(&mut r, &corrupt)?;
            (delta, present, marker)
        };
        let time = prev_time
            .checked_add(delta)
            .filter(|&t| t <= MAX_TIME_US)
            .ok_or_else(|| corrupt("timestamp overflow"))?;
        let raw = read_values(&mut r, present)?;
        sink(ArchiveFrame {
            time: SimTime::from_micros(time),
            raw,
            present,
            marker,
        });
        prev_time = time;
        prev_delta = delta;
        prev_present = present;
    }
    if r.bytes_read() != bytes.len() {
        return Err(corrupt("run length disagrees with the run offsets"));
    }
    Ok(prev_time)
}

/// Reads a marker flag bit plus, when set, the label; a label code
/// that is not a Unicode scalar value is corrupt data.
fn read_marker(
    r: &mut BitReader<'_>,
    corrupt: &dyn Fn(&str) -> ArchiveError,
) -> Result<Option<char>, ArchiveError> {
    let ends = |_| corrupt("payload ends mid-marker");
    if !r.read_bit().map_err(ends)? {
        return Ok(None);
    }
    let code = r.read_bits(CHAR_BITS).map_err(ends)? as u32;
    char::from_u32(code)
        .map(Some)
        .ok_or_else(|| corrupt("marker label is not a Unicode scalar value"))
}

/// Reads a delta-of-delta class; `None` when the reconstructed delta
/// would be negative (corrupt data).
fn read_dod(
    r: &mut BitReader<'_>,
    prev_delta: u64,
) -> Result<Option<u64>, crate::bits::BitStreamExhausted> {
    if !r.read_bit()? {
        return Ok(Some(prev_delta));
    }
    let dod = if !r.read_bit()? {
        unzigzag64(r.read_bits(8)?)
    } else if !r.read_bit()? {
        unzigzag64(r.read_bits(16)?)
    } else if !r.read_bit()? {
        unzigzag64(r.read_bits(32)?)
    } else {
        return Ok(Some(r.read_bits(64)?));
    };
    let delta = i128::from(prev_delta) + i128::from(dod);
    Ok(u64::try_from(delta).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady_frames(n: u64) -> Vec<ArchiveFrame> {
        (0..n)
            .map(|i| ArchiveFrame {
                time: SimTime::from_micros(25 + i * 50),
                raw: {
                    let mut raw = [0u16; SENSOR_SLOTS];
                    raw[0] = 580 + (i % 7) as u16;
                    raw[1] = 744;
                    raw
                },
                present: 0b11,
                marker: if i == 100 { Some('k') } else { None },
            })
            .collect()
    }

    /// The parsed tables and the payload bytes of a built segment.
    fn parse(bytes: &[u8]) -> (SegmentMeta, &[u8]) {
        let header = SegmentHeader::parse(bytes, 0).unwrap();
        let meta = SegmentMeta::parse(0, header, &bytes[SEGMENT_HEADER_SIZE..]).unwrap();
        let at = meta.payload_offset() as usize;
        (meta, &bytes[at..at + header.payload_len as usize])
    }

    fn roundtrip(frames: &[ArchiveFrame]) -> Vec<ArchiveFrame> {
        let watts: Vec<f64> = frames.iter().map(|_| 0.0).collect();
        let bytes = build_segment(0, frames, &watts);
        let (meta, payload) = parse(&bytes);
        let mut out = Vec::new();
        meta.decode_blocks(0..meta.summaries.len(), payload, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn steady_stream_round_trips() {
        let frames = steady_frames(2500);
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn steady_stream_compresses_hard() {
        let frames = steady_frames(20_000);
        let watts: Vec<f64> = frames.iter().map(|_| 24.0).collect();
        let bytes = build_segment(0, &frames, &watts);
        // Wire cost: 3 packets × 2 bytes per frame.
        let wire = frames.len() * 6;
        assert!(
            bytes.len() * 4 < wire,
            "segment {} bytes vs wire {wire}",
            bytes.len()
        );
    }

    #[test]
    fn irregular_times_presence_and_markers_round_trip() {
        let mut frames = steady_frames(50);
        frames[7].present = 0b0000_1111;
        frames[7].raw[2] = 1023;
        frames[7].raw[3] = 0;
        frames[20].time = SimTime::from_micros(20_000_000); // long pause
        for f in frames.iter_mut().skip(21) {
            f.time = SimTime::from_micros(20_000_000 + 50 * (f.time.as_micros() / 50));
        }
        frames[21].marker = Some('é');
        frames[49].marker = Some('?');
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn empty_presence_frames_round_trip() {
        let mut frames = steady_frames(10);
        for f in &mut frames {
            f.present = 0;
            f.raw = [0; SENSOR_SLOTS];
        }
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn summaries_cover_blocks() {
        let frames = steady_frames(2500);
        let watts: Vec<f64> = (0..frames.len()).map(|i| 10.0 + (i % 3) as f64).collect();
        let summaries = build_summaries(&frames, &watts);
        assert_eq!(summaries.len(), 3);
        assert_eq!(summaries[0].count, 1000);
        assert_eq!(summaries[2].count, 500);
        let total: f64 = summaries.iter().map(|s| s.sum_w).sum();
        let direct: f64 = watts.iter().sum();
        assert!((total - direct).abs() < 1e-9);
        assert_eq!(summaries[0].min_w, 10.0);
        assert_eq!(summaries[0].max_w, 12.0);
    }

    #[test]
    fn marker_table_matches_payload_markers() {
        let frames = steady_frames(300);
        let watts = vec![0.0; frames.len()];
        let bytes = build_segment(3, &frames, &watts);
        let (meta, _) = parse(&bytes);
        assert_eq!(meta.header.marker_count, 1);
        assert_eq!(meta.markers, vec![(25 + 100 * 50, 'k')]);
    }

    #[test]
    fn truncated_payload_is_detected() {
        let frames = steady_frames(100);
        let watts = vec![0.0; frames.len()];
        let bytes = build_segment(0, &frames, &watts);
        let (meta, payload) = parse(&bytes);
        let short = &payload[..payload.len() / 2];
        assert!(meta.decode_blocks(0..1, short, &mut Vec::new()).is_err());
    }

    #[test]
    fn varints_round_trip_and_refuse_overflow() {
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut out = Vec::new();
            push_varint(&mut out, v);
            let mut at = 0;
            assert_eq!(read_varint(&out, &mut at), Some(v));
            assert_eq!(at, out.len());
            assert_eq!(read_varint(&out[..out.len() - 1], &mut 0), None);
        }
        let mut too_wide = vec![0xFF; 9];
        too_wide.push(0x02);
        assert_eq!(read_varint(&too_wide, &mut 0), None);
        assert_eq!(read_varint(&[0x80; 11], &mut 0), None);
    }

    #[test]
    fn blocks_start_on_byte_boundaries_and_decode_alone() {
        let frames = steady_frames(2500);
        let watts = vec![0.0; frames.len()];
        let bytes = build_segment(0, &frames, &watts);
        let (meta, payload) = parse(&bytes);
        assert_eq!(meta.block_offsets.len(), 3);
        for (i, chunk) in frames.chunks(SUMMARY_FRAMES).enumerate() {
            let span = meta.block_bytes(&(i..i + 1));
            let mut out = Vec::new();
            meta.decode_blocks(i..i + 1, &payload[span], &mut out)
                .unwrap();
            assert_eq!(out, chunk, "block {i}");
        }
    }

    #[test]
    fn a_block_one_byte_too_long_is_detected() {
        let frames = steady_frames(2500);
        let watts = vec![0.0; frames.len()];
        let bytes = build_segment(0, &frames, &watts);
        let (mut meta, payload) = parse(&bytes);
        meta.block_offsets[1] += 1;
        let span = meta.block_bytes(&(0..1));
        assert!(meta
            .decode_blocks(0..1, &payload[span], &mut Vec::new())
            .is_err());
    }

    #[test]
    fn a_run_one_byte_too_long_is_detected() {
        let frames = steady_frames(2500);
        let watts = vec![0.0; frames.len()];
        let bytes = build_segment(0, &frames, &watts);
        let (meta, payload) = parse(&bytes);
        let block = &payload[meta.block_bytes(&(0..1))];
        let mut table = meta.runs(0, block).unwrap();
        assert!(meta
            .decode_run(&table.runs()[1], &block[table.bytes(1)], |_| {})
            .is_ok());
        table.bounds[2] += 1;
        assert!(meta
            .decode_run(&table.runs()[1], &block[table.bytes(1)], |_| {})
            .is_err());
    }

    #[test]
    fn runs_decode_alone_and_match_their_table() {
        let frames = steady_frames(2500);
        let watts: Vec<f64> = (0..frames.len()).map(|i| 10.0 + (i % 3) as f64).collect();
        let bytes = build_segment(0, &frames, &watts);
        let (meta, payload) = parse(&bytes);
        let runs = build_runs(&frames, &watts);
        assert_eq!(runs.len(), 2500usize.div_ceil(SUB_FRAMES));
        let mut next = 0;
        for i in 0..meta.summaries.len() {
            let block = &payload[meta.block_bytes(&(i..i + 1))];
            let table = meta.runs(i, block).unwrap();
            for (j, run) in table.runs().iter().enumerate() {
                assert!(run.same(&runs[next]), "block {i} run {j}");
                let mut out = Vec::new();
                meta.decode_run(run, &block[table.bytes(j)], |f| out.push(f))
                    .unwrap();
                let at = next * SUB_FRAMES;
                assert_eq!(
                    out,
                    frames[at..at + run.count as usize],
                    "block {i} run {j}"
                );
                next += 1;
            }
        }
        assert_eq!(next, runs.len());
        meta.check_runs(payload, &frames, &watts).unwrap();
        let mut other = watts.clone();
        other[777] += 1.0;
        assert!(meta.check_runs(payload, &frames, &other).is_err());
    }

    #[test]
    fn every_run_table_byte_is_checked() {
        let frames = steady_frames(2500);
        let watts = vec![1.5; frames.len()];
        let bytes = build_segment(0, &frames, &watts);
        let (meta, payload) = parse(&bytes);
        for i in 0..meta.summaries.len() {
            let block = &payload[meta.block_bytes(&(i..i + 1))];
            let table_len = meta.runs(i, block).unwrap().bytes(0).start;
            for at in 0..table_len {
                for bit in [0x01, 0x80] {
                    let mut damaged = block.to_vec();
                    damaged[at] ^= bit;
                    assert!(meta.runs(i, &damaged).is_err(), "block {i} byte {at}");
                }
            }
        }
    }

    #[test]
    fn garbage_blocks_fail_without_panicking() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let bytes: Vec<u8> = (0..1 + next() % 600).map(|_| next() as u8).collect();
            let k: [u8; SENSOR_SLOTS] = core::array::from_fn(|_| (next() % 11) as u8);
            let first_us = next() >> (next() % 64);
            let _ = decode_run(&k, first_us, SUB_FRAMES, &bytes, 0, &mut |_| {});
        }
    }

    /// A hand-made two-frame block on slot 0: the first frame carries
    /// `label` as its marker code and raw value `first`, the second is
    /// a fast-path frame whose value moves by `delta` (Rice, k = 0).
    fn crafted_block(label: u32, first: u16, delta: i64) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.push_bits(0b1, 8);
        w.push_bit(true);
        w.push_bits(u64::from(label), CHAR_BITS);
        w.push_bits(u64::from(first), 10);
        w.push_bit(true);
        w.push_rice(zigzag64(delta) as u32, 0);
        w.finish()
    }

    fn decode_crafted(bytes: &[u8]) -> Result<Vec<ArchiveFrame>, ArchiveError> {
        let mut out = Vec::new();
        decode_run(&[0; SENSOR_SLOTS], 25, 2, bytes, 0, &mut |f| out.push(f)).map(|_| out)
    }

    fn corrupt_reason(result: Result<Vec<ArchiveFrame>, ArchiveError>) -> String {
        match result {
            Err(ArchiveError::Corrupt { what, .. }) => what,
            other => panic!("expected a corrupt block, got {other:?}"),
        }
    }

    #[test]
    fn crafted_blocks_decode_when_intact() {
        let out = decode_crafted(&crafted_block('k' as u32, 1022, 1)).unwrap();
        assert_eq!(out[0].marker, Some('k'));
        assert_eq!((out[0].raw[0], out[1].raw[0]), (1022, 1023));
        let out = decode_crafted(&crafted_block(0x10_FFFF, 1, -1)).unwrap();
        assert_eq!(out[0].marker, char::from_u32(0x10_FFFF));
        assert_eq!(out[1].raw[0], 0);
    }

    #[test]
    fn a_marker_code_that_is_not_a_unicode_scalar_is_corrupt() {
        // A surrogate and the first code past U+10FFFF both fit the
        // 21-bit label field.
        for label in [0xD800, 0xDFFF, 0x11_0000, 0x1F_FFFF] {
            let reason = corrupt_reason(decode_crafted(&crafted_block(label, 500, 0)));
            assert!(reason.contains("Unicode"), "{label:#x}: {reason}");
        }
    }

    #[test]
    fn a_raw_code_past_ten_bits_is_corrupt() {
        for (first, delta) in [(1023, 1), (1000, 100), (1, 1023)] {
            let reason = corrupt_reason(decode_crafted(&crafted_block('k' as u32, first, delta)));
            assert!(
                reason.contains("out of range"),
                "{first}{delta:+}: {reason}"
            );
        }
        let reason = corrupt_reason(decode_crafted(&crafted_block('k' as u32, 0, -1)));
        assert!(reason.contains("out of range"), "{reason}");
    }

    #[test]
    fn damaged_layouts_are_refused() {
        let frames = steady_frames(2500);
        let watts = vec![0.0; frames.len()];
        let bytes = build_segment(0, &frames, &watts);
        let header = SegmentHeader::parse(&bytes, 0).unwrap();
        let tables = &bytes[SEGMENT_HEADER_SIZE..];
        let mut more = header;
        more.summary_count += 1;
        assert!(SegmentMeta::parse(0, more, tables).is_err());
        let offsets_at = 3 * SUMMARY_WIRE_SIZE;
        for (at, value) in [(0, 1u32), (4, 0), (8, header.payload_len)] {
            let mut damaged = tables.to_vec();
            damaged[offsets_at + at..offsets_at + at + 4].copy_from_slice(&value.to_le_bytes());
            assert!(SegmentMeta::parse(0, header, &damaged).is_err(), "{at}");
        }
        let mut damaged = tables.to_vec();
        damaged[0] ^= 1; // block 0's count
        assert!(SegmentMeta::parse(0, header, &damaged).is_err());
    }

    /// The layout checks behind the tables CRC: damage with the CRC
    /// rewritten to match is still refused.
    #[test]
    fn damaged_layouts_under_a_valid_crc_are_refused() {
        let frames = steady_frames(2500);
        let watts = vec![0.0; frames.len()];
        let bytes = build_segment(0, &frames, &watts);
        let header = SegmentHeader::parse(&bytes, 0).unwrap();
        let crc_at = header.tables_len() - TABLES_CRC_SIZE;
        let recrc = |mut tables: Vec<u8>| {
            let crc = tables_crc(&header, &tables[..crc_at]);
            tables[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
            tables
        };
        let tables = bytes[SEGMENT_HEADER_SIZE..].to_vec();
        assert!(SegmentMeta::parse(0, header, &recrc(tables.clone())).is_ok());
        let offsets_at = 3 * SUMMARY_WIRE_SIZE;
        for (at, value) in [(0, 1u32), (4, 0), (8, header.payload_len)] {
            let mut damaged = tables.clone();
            damaged[offsets_at + at..offsets_at + at + 4].copy_from_slice(&value.to_le_bytes());
            assert!(
                SegmentMeta::parse(0, header, &recrc(damaged)).is_err(),
                "{at}"
            );
        }
        let mut damaged = tables.clone();
        damaged[0] ^= 1; // block 0's count
        assert!(SegmentMeta::parse(0, header, &recrc(damaged)).is_err());
        let mut damaged = tables;
        damaged[crc_at] ^= 1;
        assert!(SegmentMeta::parse(0, header, &damaged).is_err());
    }

    /// The run-table checks behind the run-table CRC: offsets that do
    /// not rise inside the block and times outside the block summary's
    /// span are refused with the CRC rewritten to match.
    #[test]
    fn damaged_run_tables_under_a_valid_crc_are_refused() {
        let frames = steady_frames(1000);
        let watts = vec![0.0; frames.len()];
        let bytes = build_segment(0, &frames, &watts);
        let (meta, payload) = parse(&bytes);
        let block = &payload[meta.block_bytes(&(0..1))];
        let table_len = meta.runs(0, block).unwrap().bytes(0).start - RUN_TABLE_CRC_SIZE;
        let runs = build_runs(&frames, &watts);
        let lens: Vec<u64> = {
            let t = meta.runs(0, block).unwrap();
            (0..runs.len()).map(|j| t.bytes(j).len() as u64).collect()
        };
        // Rebuilds block 0 with a hand-made table over the same runs.
        let rebuilt = |lens: &[u64], gaps: &[u64], spans: &[u64]| {
            let mut out = Vec::new();
            for i in 0..runs.len() {
                out.extend_from_slice(&0f64.to_bits().to_le_bytes());
                if i > 0 {
                    push_varint(&mut out, lens[i - 1]);
                    push_varint(&mut out, gaps[i - 1]);
                }
                if i + 1 < runs.len() {
                    push_varint(&mut out, spans[i]);
                }
            }
            let crc = crc32(&out);
            out.extend_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(&block[table_len + RUN_TABLE_CRC_SIZE..]);
            out
        };
        let gaps = vec![50u64; runs.len() - 1];
        let spans = vec![(SUB_FRAMES as u64 - 1) * 50; runs.len()];
        assert!(meta.runs(0, &rebuilt(&lens, &gaps, &spans)).is_ok());
        let mut zero = lens.clone();
        zero[1] = 0;
        let mut past = lens.clone();
        past[3] = 1 << 20;
        for lens in [zero, past] {
            assert!(meta.runs(0, &rebuilt(&lens, &gaps, &spans)).is_err());
        }
        let mut late = spans.clone();
        late[3] = 1 << 20;
        assert!(meta.runs(0, &rebuilt(&lens, &gaps, &late)).is_err());
        let mut far = gaps.clone();
        far[3] = u64::MAX;
        assert!(meta.runs(0, &rebuilt(&lens, &far, &spans)).is_err());
    }

    /// The exhaustive chooser the histogram replaced, kept as its
    /// oracle: every in-run delta is collected and priced at every `k`.
    fn choose_rice_params_exhaustive(frames: &[ArchiveFrame]) -> u32 {
        let mut deltas: [Vec<u32>; SENSOR_SLOTS] = core::array::from_fn(|_| Vec::new());
        for run in frames.chunks(SUB_FRAMES) {
            let mut prev: [Option<u16>; SENSOR_SLOTS] = [None; SENSOR_SLOTS];
            for frame in run {
                for slot in 0..SENSOR_SLOTS {
                    if frame.present & (1 << slot) == 0 {
                        continue;
                    }
                    let v = frame.raw[slot];
                    if let Some(p) = prev[slot] {
                        deltas[slot].push(zigzag64(i64::from(v) - i64::from(p)) as u32);
                    }
                    prev[slot] = Some(v);
                }
            }
        }
        let mut packed = 0u32;
        for (slot, ds) in deltas.iter().enumerate() {
            let best = (0..=10u8)
                .min_by_key(|&k| {
                    ds.iter()
                        .map(|&d| u64::from(BitWriter::rice_cost(d, k)))
                        .sum::<u64>()
                })
                .unwrap_or(0);
            packed |= u32::from(best) << (4 * slot);
        }
        packed
    }

    /// A xorshift64 stream, so generated frames follow from one seed.
    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// `true` with probability `1 / n`; never when `n == 0`.
        fn one_in(&mut self, n: u64) -> bool {
            n > 0 && self.next().is_multiple_of(n)
        }
    }

    /// `n` frames whose slot codes walk by steps of up to `2^scale`,
    /// whose presence mask is redrawn with probability `1 / churn`, and
    /// whose codes jump above [`MAX_RAW`] with probability `1 / wild`
    /// (neither when 0).
    fn generated_frames(
        n: usize,
        seed: u64,
        scale: u32,
        churn: u64,
        wild: u64,
    ) -> Vec<ArchiveFrame> {
        let mut rng = Xorshift(seed | 1);
        let mut raw = [512u16; SENSOR_SLOTS];
        let mut present = (rng.next() & 0xFF) as u8;
        (0..n as u64)
            .map(|i| {
                if rng.one_in(churn) {
                    present = (rng.next() & 0xFF) as u8;
                }
                for v in &mut raw {
                    let step = (rng.next() % (2 << scale)) as i64 - (1 << scale);
                    *v = (i64::from(*v) + step).clamp(0, i64::from(MAX_RAW)) as u16;
                }
                let mut codes = raw;
                for v in &mut codes {
                    if rng.one_in(wild) {
                        *v = MAX_RAW + 1 + (rng.next() % u64::from(u16::MAX - MAX_RAW)) as u16;
                    }
                }
                ArchiveFrame {
                    time: SimTime::from_micros(25 + i * 50),
                    raw: codes,
                    present,
                    marker: None,
                }
            })
            .collect()
    }

    proptest::proptest! {
        /// The histogram picks the oracle's `k` for every slot: across
        /// step sizes from flat to full-range, changing presence masks,
        /// tails of one frame (and one-frame segments), and raw codes
        /// above [`MAX_RAW`], whose deltas take the outlier path.
        #[test]
        fn histogram_rice_params_equal_the_exhaustive_oracle(
            runs in 1usize..=12,
            tail in 0usize..SUB_FRAMES,
            one_frame_tail: bool,
            seed: u64,
            scale in 0u32..=10,
            churn in 0u64..=8,
            wild in 0u64..=64,
        ) {
            let tail = if one_frame_tail { 0 } else { tail };
            let frames = generated_frames((runs - 1) * SUB_FRAMES + 1 + tail, seed, scale, churn, wild);
            proptest::prop_assert_eq!(
                choose_rice_params(&frames),
                choose_rice_params_exhaustive(&frames)
            );
        }
    }

    /// Slot 0's in-run deltas are all −2 (zigzag 3), which costs 3 bits
    /// at both `k` = 1 and `k` = 2; slot 1's are all −1 (zigzag 1),
    /// 2 bits at both `k` = 0 and `k` = 1. Each tie goes to the smaller
    /// `k`, as the oracle's does.
    #[test]
    fn rice_param_ties_go_to_the_smaller_k() {
        let frames: Vec<ArchiveFrame> = (0..3 * SUB_FRAMES as u64)
            .map(|i| {
                let mut raw = [0u16; SENSOR_SLOTS];
                raw[0] = 1000 - 2 * (i % SUB_FRAMES as u64) as u16;
                raw[1] = 500 - (i % SUB_FRAMES as u64) as u16;
                ArchiveFrame {
                    time: SimTime::from_micros(25 + i * 50),
                    raw,
                    present: 0b11,
                    marker: None,
                }
            })
            .collect();
        let packed = choose_rice_params(&frames);
        assert_eq!(packed, 0x01);
        assert_eq!(packed, choose_rice_params_exhaustive(&frames));
    }

    /// A code above [`MAX_RAW`] makes a delta past the histogram; it is
    /// priced on its own and moves `k` as the oracle's pricing does.
    /// Deltas of ±3000 (zigzag 5999 and 6000) escape at every `k` up to
    /// 8 and cost 16 bits at `k` = 10.
    #[test]
    fn deltas_past_the_histogram_are_priced_exactly() {
        let mut frames = steady_frames(2 * SUB_FRAMES as u64);
        let calm = choose_rice_params(&frames);
        for f in frames.iter_mut().skip(1).step_by(2) {
            f.raw[1] += 3000;
        }
        let wild = choose_rice_params(&frames);
        assert_eq!((calm >> 4 & 0xF, wild >> 4 & 0xF), (0, 10));
        assert_eq!(wild, choose_rice_params_exhaustive(&frames));
    }
}
