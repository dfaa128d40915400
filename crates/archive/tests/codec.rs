//! Adversarial property tests for the two payload codecs: the Rice
//! coder (per-slot sample deltas) and the delta-of-delta timestamp
//! scheme — max deltas, all-equal runs, alternating extremes, and the
//! empty segment, plus randomized sweeps over the whole input space —
//! and for the block layout: every summary block, and every run inside
//! one, decodes on its own to exactly its slice of the whole-segment
//! decode, and every run-table entry matches the frames it covers.
//!
//! The word-at-a-time bit writer and reader are checked against a
//! bit-at-a-time oracle (`mod oracle`): random sequences of fields,
//! Rice codewords, unary runs and alignments must produce the oracle's
//! bytes and read back the oracle's values, and every truncation of
//! the stream must fail at the same read. CI runs this file with
//! `PROPTEST_CASES=4096`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use ps3_archive::bits::{
    unzigzag64, zigzag64, BitReader, BitStreamExhausted, BitWriter, RICE_ESCAPE_BITS, RICE_ESCAPE_Q,
};
use ps3_archive::format::{SEGMENT_HEADER_SIZE, SUB_FRAMES, SUMMARY_FRAMES};
use ps3_archive::{
    build_runs, build_segment, index_path_for, Archive, ArchiveFrame, SegmentHeader, SegmentMeta,
    SegmentWriter,
};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_units::SimTime;

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ps3-archive-codec-{}-{tag}-{n}.ps3a",
        std::process::id()
    ))
}

/// Removes an archive and the sidecars its writer and reader leave.
fn cleanup(path: &Path) {
    for p in [path.to_path_buf(), index_path_for(path)] {
        std::fs::remove_file(p).ok();
    }
}

fn test_configs() -> [SensorConfig; SENSOR_SLOTS] {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
    configs
}

/// The largest value a Rice codeword can carry: zigzagged 10-bit
/// sample deltas span 0..=2046, and the escape path is
/// `RICE_ESCAPE_BITS` wide.
const RICE_MAX: u32 = (1 << RICE_ESCAPE_BITS) - 1;

fn rice_roundtrip(values: &[u32], k: u8) {
    let mut writer = BitWriter::new();
    let mut expect_bits = 0usize;
    for &v in values {
        writer.push_rice(v, k);
        expect_bits += BitWriter::rice_cost(v, k) as usize;
    }
    assert_eq!(writer.bit_len(), expect_bits, "rice_cost must be exact");
    let bytes = writer.finish();
    let mut reader = BitReader::new(&bytes);
    for &v in values {
        assert_eq!(reader.read_rice(k).unwrap(), v, "k={k}");
    }
}

/// Hand-picked adversarial Rice inputs, at every k the encoder uses.
#[test]
fn rice_adversarial_inputs_roundtrip_at_every_k() {
    let all_equal_zero = vec![0u32; 257];
    let all_equal_max = vec![2046u32; 257];
    let alternating: Vec<u32> = (0..256)
        .map(|i| if i % 2 == 0 { 0 } else { 2046 })
        .collect();
    let escape_edge: Vec<u32> = (0..=10u32)
        .flat_map(|k| {
            // Around the unary→escape boundary for this k (clamped:
            // values above RICE_MAX don't fit the escape word and are
            // never produced by the delta stage).
            let edge = RICE_ESCAPE_Q << k;
            [
                edge.saturating_sub(1).min(RICE_MAX),
                edge.min(RICE_MAX),
                (edge + 1).min(RICE_MAX),
            ]
        })
        .collect();
    let max_everything = vec![RICE_MAX; 64];
    for k in 0..=10u8 {
        rice_roundtrip(&all_equal_zero, k);
        rice_roundtrip(&all_equal_max, k);
        rice_roundtrip(&alternating, k);
        rice_roundtrip(&escape_edge, k);
        rice_roundtrip(&max_everything, k);
        rice_roundtrip(&[], k);
    }
}

#[test]
fn zigzag_maps_extremes_without_loss() {
    for v in [0i64, 1, -1, i64::MAX, i64::MIN, i64::MIN + 1, 50, -50] {
        assert_eq!(unzigzag64(zigzag64(v)), v);
    }
    // Zigzag keeps small magnitudes small (the property the Rice stage
    // depends on for its k tuning).
    assert_eq!(zigzag64(0), 0);
    assert_eq!(zigzag64(-1), 1);
    assert_eq!(zigzag64(1), 2);
    assert_eq!(zigzag64(-1023), 2045);
    assert_eq!(zigzag64(1023), 2046);
}

/// Writes `times` (µs, non-decreasing) through the real segment codec
/// and reads them back through the real decoder.
fn dod_roundtrip(times_us: &[u64], tag: &str) {
    let path = temp_path(tag);
    let mut writer = SegmentWriter::create_with(&path, test_configs(), 100).unwrap();
    for (i, &t) in times_us.iter().enumerate() {
        let mut raw = [0u16; SENSOR_SLOTS];
        raw[0] = 500 + (i % 13) as u16;
        raw[1] = 300;
        writer
            .push(ArchiveFrame {
                time: SimTime::from_micros(t),
                raw,
                present: 0b11,
                marker: None,
            })
            .unwrap();
    }
    let stats = writer.finish().unwrap();
    assert_eq!(stats.frames, times_us.len() as u64);

    let archive = Archive::open(&path).unwrap();
    let mut decoded = Vec::new();
    for meta in archive.segments() {
        decoded.extend(archive.decode_segment_frames(meta).unwrap());
    }
    let got: Vec<u64> = decoded.iter().map(|f| f.time.as_micros()).collect();
    assert_eq!(got, times_us, "{tag}");
    assert!(archive.verify().unwrap().is_clean());

    cleanup(&path);
}

/// `SimTime::from_micros` multiplies by 1000 internally, so keep
/// timestamps below u64::MAX / 1000.
const T_MAX_US: u64 = u64::MAX / 1000 - 1;

#[test]
fn dod_adversarial_timestamp_patterns_roundtrip() {
    // Perfect cadence: the all-dod-zero fast path.
    let cadence: Vec<u64> = (0..250).map(|i| 25 + 50 * i).collect();
    dod_roundtrip(&cadence, "cadence");

    // All-equal timestamps: first delta -50 (against the assumed
    // cadence), then delta 0 forever.
    dod_roundtrip(&vec![123_456u64; 250], "all-equal");

    // Alternating extremes: 50 µs steps alternating with jumps big
    // enough to force the 64-bit raw-delta class, repeatedly flipping
    // the delta-of-delta sign at maximum magnitude.
    let mut t = 25u64;
    let mut alternating = vec![t];
    for i in 0..120 {
        t += if i % 2 == 0 { 1u64 << 42 } else { 50 };
        alternating.push(t);
    }
    dod_roundtrip(&alternating, "alternating");

    // Maximum single delta: epoch straight to the far end of the
    // representable range.
    dod_roundtrip(&[0, T_MAX_US], "max-delta");

    // One frame, and one frame at the extreme.
    dod_roundtrip(&[25], "single");
    dod_roundtrip(&[T_MAX_US], "single-max");

    // Empty segment: zero frames must produce a valid, empty archive.
    let path = temp_path("empty");
    let writer = SegmentWriter::create_with(&path, test_configs(), 100).unwrap();
    let stats = writer.finish().unwrap();
    assert_eq!(stats.frames, 0);
    assert_eq!(stats.segments, 0);
    let archive = Archive::open(&path).unwrap();
    assert!(archive.segments().is_empty());
    assert!(archive.verify().unwrap().is_clean());
    assert!(archive.read_all().unwrap().is_empty());
    cleanup(&path);
}

/// Things that can happen at a run boundary, as bits of an event mask.
const MARKER: u8 = 1;
const PRESENCE: u8 = 2;
const TIME_JUMP: u8 = 4;
const ESCAPE: u8 = 8;

/// `n` frames at the 20 kHz cadence with a noisy two-slot code walk,
/// and `events[i - 1]` applied to the last frame of run `i - 1` and to
/// the first frame of run `i` (every block boundary is a run boundary).
fn boundary_frames(n: usize, events: &[u8], seed: u64) -> Vec<ArchiveFrame> {
    let mut state = seed | 1;
    let mut time_us = 25u64;
    let mut code = 500i64;
    let mut frames: Vec<ArchiveFrame> = (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            code = (code + (state % 7) as i64 - 3).clamp(0, 1023);
            if i > 0 {
                time_us += 50;
            }
            let mut raw = [0u16; SENSOR_SLOTS];
            raw[0] = code as u16;
            raw[1] = 700 + (state >> 8) as u16 % 5;
            ArchiveFrame {
                time: SimTime::from_micros(time_us),
                raw,
                present: 0b11,
                marker: None,
            }
        })
        .collect();
    for (i, &mask) in events.iter().enumerate() {
        let b = (i + 1) * SUB_FRAMES;
        if b >= n {
            break;
        }
        for at in [b - 1, b] {
            if mask & MARKER != 0 {
                frames[at].marker = Some('β');
            }
            if mask & PRESENCE != 0 {
                frames[at].present = 0b1101;
                frames[at].raw[1] = 0;
                frames[at].raw[2] = 1023;
                frames[at].raw[3] = 1;
            }
            if mask & TIME_JUMP != 0 {
                for f in &mut frames[at..] {
                    f.time += ps3_units::SimDuration::from_micros(1 << 33);
                }
            }
            if mask & ESCAPE != 0 {
                // A full-scale swing into and out of the frame: the
                // delta after it takes the Rice escape.
                frames[at].raw[0] = if frames[at - 1].raw[0] < 512 { 1023 } else { 0 };
            }
        }
    }
    frames
}

/// Events for every run boundary of an `n`-frame segment.
fn every_boundary(n: usize, mask: u8) -> Vec<u8> {
    vec![mask; n / SUB_FRAMES]
}

/// Builds one segment from `frames` and checks that the whole-segment
/// decode returns them, that every block, every span of blocks and
/// every run inside a block, decoded alone, equals its slice of it,
/// and that every run-table entry equals the run rebuilt from its
/// frames.
fn check_blocks_decode_alone(frames: &[ArchiveFrame]) {
    let watts: Vec<f64> = frames.iter().map(|f| f64::from(f.raw[0])).collect();
    let bytes = build_segment(0, frames, &watts);
    let header = SegmentHeader::parse(&bytes, 0).unwrap();
    let meta = SegmentMeta::parse(0, header, &bytes[SEGMENT_HEADER_SIZE..]).unwrap();
    let at = meta.payload_offset() as usize;
    let payload = &bytes[at..at + header.payload_len as usize];
    let blocks = meta.summaries.len();
    assert_eq!(blocks, frames.len().div_ceil(SUMMARY_FRAMES));

    let mut whole = Vec::new();
    meta.decode_blocks(0..blocks, payload, &mut whole).unwrap();
    assert_eq!(whole, frames);
    for lo in 0..blocks {
        for hi in lo + 1..=blocks {
            let mut alone = Vec::new();
            let span = meta.block_bytes(&(lo..hi));
            meta.decode_blocks(lo..hi, &payload[span], &mut alone)
                .unwrap();
            let end = (hi * SUMMARY_FRAMES).min(whole.len());
            assert_eq!(alone, whole[lo * SUMMARY_FRAMES..end], "blocks {lo}..{hi}");
        }
    }
    let built = build_runs(frames, &watts);
    let mut next = 0;
    for i in 0..blocks {
        let block = &payload[meta.block_bytes(&(i..i + 1))];
        let table = meta.runs(i, block).unwrap();
        for (j, run) in table.runs().iter().enumerate() {
            assert!(run.same(&built[next]), "block {i} run {j}: {run:?}");
            let mut alone = Vec::new();
            meta.decode_run(run, &block[table.bytes(j)], |f| alone.push(f))
                .unwrap();
            let at = next * SUB_FRAMES;
            assert_eq!(
                alone,
                whole[at..at + run.count as usize],
                "block {i} run {j}"
            );
            next += 1;
        }
    }
    assert_eq!(next, built.len());
}

#[test]
fn every_block_decodes_alone_at_its_boundaries() {
    // Each event alone, then all of them at once, on a 3.5-block
    // segment: the last block is partial.
    for mask in [0, MARKER, PRESENCE, TIME_JUMP, ESCAPE, 15] {
        check_blocks_decode_alone(&boundary_frames(3500, &every_boundary(3500, mask), 7));
    }
    // A single frame, a single run and one frame past, a single full
    // block and one frame past.
    for n in [
        1,
        SUB_FRAMES,
        SUB_FRAMES + 1,
        SUMMARY_FRAMES,
        SUMMARY_FRAMES + 1,
    ] {
        check_blocks_decode_alone(&boundary_frames(n, &every_boundary(n, 15), 7));
    }
}

/// The file path: `Archive::decode_blocks_into` reads one block's bytes
/// and decodes the same frames as the whole-segment decode, and a range
/// read of one run's span returns exactly that run's frames.
#[test]
fn archive_reads_each_block_alone() {
    let path = temp_path("blocks");
    let frames = boundary_frames(5000, &[15, 3, 12, 0].repeat(6), 11);
    let mut writer = SegmentWriter::create_with(&path, test_configs(), 2500).unwrap();
    for &frame in &frames {
        writer.push(frame).unwrap();
    }
    writer.finish().unwrap();
    let archive = Archive::open(&path).unwrap();
    assert!(archive.verify().unwrap().is_clean());
    let mut decoded = Vec::new();
    for meta in archive.segments() {
        let whole = archive.decode_segment_frames(meta).unwrap();
        for i in 0..meta.summaries.len() {
            let mut alone = Vec::new();
            archive
                .decode_blocks_into(meta, i..i + 1, &mut alone)
                .unwrap();
            let end = ((i + 1) * SUMMARY_FRAMES).min(whole.len());
            assert_eq!(alone, whole[i * SUMMARY_FRAMES..end]);
        }
        for run in whole.chunks(SUB_FRAMES) {
            let (first, last) = (run[0].time, run[run.len() - 1].time);
            let trace = archive
                .read_range(first, last + ps3_units::SimDuration::from_micros(1))
                .unwrap();
            let times: Vec<SimTime> = trace.iter().map(|s| s.time).collect();
            let expect: Vec<SimTime> = run.iter().map(|f| f.time).collect();
            assert_eq!(times, expect);
        }
        decoded.extend(whole);
    }
    assert_eq!(decoded, frames);
    cleanup(&path);
}

proptest! {
    /// Random segment lengths (partial last blocks and runs, and single
    /// frames, included) with random events on the first and last
    /// frames of every run.
    #[test]
    fn blocks_decode_alone_under_random_boundary_events(
        n in 1usize..=3600,
        events in proptest::collection::vec(0u8..16, 3600 / SUB_FRAMES),
        seed in proptest::prelude::any::<u64>(),
    ) {
        check_blocks_decode_alone(&boundary_frames(n, &events, seed));
    }

    /// Random values at random k: decode inverts encode and the cost
    /// model stays exact.
    #[test]
    fn rice_random_values_roundtrip(
        values in proptest::collection::vec(0u32..=RICE_MAX, 0..200),
        k in 0u8..=10,
    ) {
        rice_roundtrip(&values, k);
    }

    /// Random zigzag round trip across the full i64 domain.
    #[test]
    fn zigzag_random_roundtrip(v in proptest::prelude::any::<i64>()) {
        prop_assert_eq!(unzigzag64(zigzag64(v)), v);
    }

    /// Random timestamp walks biased to hit every delta-of-delta
    /// class: zero deltas, small jitter, and jumps out to the 16-, 32-
    /// and 64-bit encodings.
    #[test]
    fn dod_random_walks_roundtrip(
        steps in proptest::collection::vec((0u8..=4, 0u64..=u64::MAX), 1..120),
    ) {
        let mut t = 25u64;
        let mut times = vec![t];
        for &(class, magnitude) in &steps {
            let delta = match class {
                0 => 0,
                1 => magnitude % 256,              // 8-bit dod region
                2 => magnitude % 65_536,           // 16-bit dod region
                3 => magnitude % (1u64 << 32),     // 32-bit dod region
                _ => magnitude % (1u64 << 44),     // 64-bit raw deltas
            };
            t = t.saturating_add(delta).min(T_MAX_US);
            times.push(t);
        }
        dod_roundtrip(&times, "prop");
    }
}

/// The bit-at-a-time codec the word-at-a-time [`BitWriter`] and
/// [`BitReader`] replaced, kept as the reference they must agree with
/// bit for bit: one bounds-checked bit per call.
mod oracle {
    use ps3_archive::bits::{BitStreamExhausted, RICE_ESCAPE_BITS, RICE_ESCAPE_Q};

    #[derive(Default)]
    pub struct Writer {
        out: Vec<u8>,
        used: u8,
    }

    impl Writer {
        pub fn push_bit(&mut self, bit: bool) {
            if self.used == 0 {
                self.out.push(0);
            }
            if bit {
                *self.out.last_mut().unwrap() |= 1 << self.used;
            }
            self.used = (self.used + 1) % 8;
        }

        pub fn push_bits(&mut self, value: u64, n: u8) {
            for i in 0..n {
                self.push_bit(value >> i & 1 == 1);
            }
        }

        pub fn push_unary(&mut self, count: u32) {
            for _ in 0..count {
                self.push_bit(true);
            }
            self.push_bit(false);
        }

        pub fn push_rice(&mut self, value: u32, k: u8) {
            let q = value >> k;
            if q >= RICE_ESCAPE_Q {
                for _ in 0..RICE_ESCAPE_Q {
                    self.push_bit(true);
                }
                self.push_bits(u64::from(value), RICE_ESCAPE_BITS);
            } else {
                self.push_unary(q);
                self.push_bits(u64::from(value) & ((1 << k) - 1), k);
            }
        }

        pub fn align(&mut self) -> usize {
            self.used = 0;
            self.out.len()
        }

        pub fn bit_len(&self) -> usize {
            match self.used {
                0 => self.out.len() * 8,
                used => (self.out.len() - 1) * 8 + used as usize,
            }
        }

        pub fn finish(self) -> Vec<u8> {
            self.out
        }
    }

    pub struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub fn new(bytes: &'a [u8]) -> Self {
            Self { bytes, pos: 0 }
        }

        pub fn read_bit(&mut self) -> Result<bool, BitStreamExhausted> {
            let byte = self.bytes.get(self.pos / 8).ok_or(BitStreamExhausted)?;
            let bit = byte >> (self.pos % 8) & 1 == 1;
            self.pos += 1;
            Ok(bit)
        }

        pub fn bytes_read(&self) -> usize {
            self.pos.div_ceil(8)
        }

        pub fn read_bits(&mut self, n: u8) -> Result<u64, BitStreamExhausted> {
            let mut value = 0u64;
            for i in 0..n {
                if self.read_bit()? {
                    value |= 1 << i;
                }
            }
            Ok(value)
        }

        pub fn read_rice(&mut self, k: u8) -> Result<u32, BitStreamExhausted> {
            let mut q = 0u32;
            while q < RICE_ESCAPE_Q {
                if !self.read_bit()? {
                    let r = self.read_bits(k)? as u32;
                    return Ok((q << k) | r);
                }
                q += 1;
            }
            Ok(self.read_bits(RICE_ESCAPE_BITS)? as u32)
        }
    }
}

/// One writer call in an oracle comparison.
#[derive(Debug, Clone, Copy)]
enum Op {
    Bits(u64, u8),
    Rice(u32, u8),
    Unary(u32),
    Align,
}

/// Maps a proptest draw onto an [`Op`]: field widths 0..=64 (values
/// carry stray high bits the writer must drop), Rice values of every
/// magnitude the escape can carry at k 0..=10 (escapes included),
/// unary runs longer than a 64-bit window, and byte alignment.
fn op(kind: u8, value: u64, n: u8, k: u8) -> Op {
    match kind {
        0..=2 => Op::Bits(value, n),
        3..=5 => Op::Rice(
            ((value % u64::from(RICE_MAX + 1)) >> (value >> 60)) as u32,
            k,
        ),
        6 => Op::Unary((value % 80) as u32),
        _ => Op::Align,
    }
}

/// The reads both bit readers offer.
trait ReadBits {
    fn bits(&mut self, n: u8) -> Result<u64, BitStreamExhausted>;
    fn rice(&mut self, k: u8) -> Result<u32, BitStreamExhausted>;
    fn bytes_read(&self) -> usize;
}

impl ReadBits for BitReader<'_> {
    fn bits(&mut self, n: u8) -> Result<u64, BitStreamExhausted> {
        if n == 1 {
            // The single-bit read the decoder's flags use.
            return self.read_bit().map(u64::from);
        }
        self.read_bits(n)
    }
    fn rice(&mut self, k: u8) -> Result<u32, BitStreamExhausted> {
        self.read_rice(k)
    }
    fn bytes_read(&self) -> usize {
        BitReader::bytes_read(self)
    }
}

impl ReadBits for oracle::Reader<'_> {
    fn bits(&mut self, n: u8) -> Result<u64, BitStreamExhausted> {
        self.read_bits(n)
    }
    fn rice(&mut self, k: u8) -> Result<u32, BitStreamExhausted> {
        self.read_rice(k)
    }
    fn bytes_read(&self) -> usize {
        oracle::Reader::bytes_read(self)
    }
}

/// Reads a unary run bit by bit, as the decoder reads its flags.
fn read_unary(r: &mut dyn ReadBits) -> Result<u64, BitStreamExhausted> {
    let mut count = 0;
    while r.bits(1)? == 1 {
        count += 1;
    }
    Ok(count)
}

/// Reads `ops` back, each as the value it wrote (`Ok`) or the end of
/// the stream (`Err`), with the bytes consumed after every successful
/// read. `starts` holds the bit offset of each op, from which an
/// `Align`'s padding width follows. Stops at the first exhausted read,
/// as the segment decoder does.
fn read_back(
    r: &mut dyn ReadBits,
    ops: &[Op],
    starts: &[usize],
) -> Vec<Result<(u64, usize), BitStreamExhausted>> {
    let mut reads = Vec::new();
    for (&op, &start) in ops.iter().zip(starts) {
        let got = match op {
            Op::Bits(_, n) => r.bits(n),
            Op::Rice(_, k) => r.rice(k).map(u64::from),
            Op::Unary(_) => read_unary(r),
            Op::Align => r.bits(((8 - start % 8) % 8) as u8),
        };
        let stop = got.is_err();
        reads.push(got.map(|v| (v, r.bytes_read())));
        if stop {
            break;
        }
    }
    reads
}

/// The value `op` should read back as.
fn expected(op: Op) -> u64 {
    match op {
        Op::Bits(v, n) => v & u64::MAX.checked_shr(64 - u32::from(n)).unwrap_or(0),
        Op::Rice(v, _) => u64::from(v),
        Op::Unary(count) => u64::from(count),
        Op::Align => 0,
    }
}

/// Writes `ops` through the word-at-a-time writer and the oracle and
/// checks identical bytes and bit lengths after every op; then reads
/// them back, whole and at every truncation, through both readers.
fn check_against_oracle(ops: &[Op]) {
    let mut w = BitWriter::new();
    let mut o = oracle::Writer::default();
    let mut starts = Vec::with_capacity(ops.len());
    for &op in ops {
        starts.push(o.bit_len());
        match op {
            Op::Bits(v, n) => {
                w.push_bits(v, n);
                o.push_bits(v, n);
            }
            Op::Rice(v, k) => {
                w.push_rice(v, k);
                o.push_rice(v, k);
            }
            Op::Unary(count) => {
                w.push_unary(count);
                o.push_unary(count);
            }
            Op::Align => assert_eq!(w.align(), o.align(), "{ops:?}"),
        }
        assert_eq!(w.bit_len(), o.bit_len(), "{ops:?}");
    }
    let bytes = w.finish();
    assert_eq!(bytes, o.finish(), "{ops:?}");

    let whole = read_back(&mut BitReader::new(&bytes), ops, &starts);
    assert_eq!(
        whole,
        read_back(&mut oracle::Reader::new(&bytes), ops, &starts)
    );
    assert_eq!(whole.len(), ops.len());
    for (read, &op) in whole.iter().zip(ops) {
        assert_eq!(read.map(|(v, _)| v), Ok(expected(op)), "{op:?}");
    }
    for len in 0..bytes.len() {
        let cut = &bytes[..len];
        assert_eq!(
            read_back(&mut BitReader::new(cut), ops, &starts),
            read_back(&mut oracle::Reader::new(cut), ops, &starts),
            "truncated to {len} bytes: {ops:?}"
        );
    }
}

#[test]
fn word_codec_matches_the_oracle_on_edge_cases() {
    let mut ops = vec![Op::Bits(u64::MAX, 64), Op::Bits(0, 0), Op::Bits(!0x55, 57)];
    for n in 0..=64 {
        ops.push(Op::Bits(0xDEAD_BEEF_F00D_CAFE, n));
    }
    for k in 0..=10 {
        for v in [0, 1, (RICE_ESCAPE_Q << k) - 1, RICE_ESCAPE_Q << k, RICE_MAX] {
            ops.push(Op::Rice(v.min(RICE_MAX), k));
        }
        ops.push(Op::Align);
    }
    ops.extend([Op::Unary(0), Op::Unary(63), Op::Unary(64), Op::Unary(200)]);
    check_against_oracle(&ops);
    check_against_oracle(&[]);
    check_against_oracle(&[Op::Align, Op::Bits(1, 1), Op::Align, Op::Align]);
}

proptest! {
    /// Random op sequences: the word-at-a-time codec writes the
    /// oracle's bytes and reads back the oracle's values, whole and
    /// truncated at every byte.
    #[test]
    fn word_codec_matches_the_bit_oracle(
        draws in proptest::collection::vec(
            (0u8..8, proptest::prelude::any::<u64>(), 0u8..=64, 0u8..=10),
            0..60,
        ),
    ) {
        let ops: Vec<Op> = draws.iter().map(|&(kind, v, n, k)| op(kind, v, n, k)).collect();
        check_against_oracle(&ops);
    }
}
