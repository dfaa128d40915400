//! The multi-resolution aggregation pyramid and its `.ps3p` sidecar.
//!
//! Every sealed segment of a `.ps3a` archive already carries tier-0
//! aggregates: one [`SummaryBlock`] per [`SUMMARY_FRAMES`] frames. The
//! pyramid stacks two more tiers on top, per segment:
//!
//! * **tier 1** — one node per [`PyramidConfig::tier1_blocks`] summary
//!   blocks (100 blocks = 100 k frames at the default fan-out);
//! * **tier 2** — one node per [`PyramidConfig::tier2_nodes`] tier-1
//!   nodes (10 M frames at the default fan-out).
//!
//! The nodes are `ps3-archive`'s [`TierNode`]s, folded by its
//! [`build_tiers`] strictly left to right, so a node's `sum_w` and
//! `energy_j` are bit-reproducible from its children — the reference
//! mode of the range-query walk relies on exactly that. The pyramid is
//! handed to the walk as a [`TierStore`].
//!
//! The pyramid is pure derived data, persisted in a CRC'd `.ps3p`
//! sidecar keyed to the archive's sealed length. Like the `.ps3x`
//! index it is trusted only when the CRC checks out *and* it describes
//! the archive on disk segment-for-segment; anything else (stale after
//! a crash or compaction, damaged, missing) is silently rebuilt by a
//! scan of the in-memory segment summaries — no payload decode needed.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use ps3_archive::format::{
    read_f64, read_u32, read_u64, FILE_HEADER_SIZE, SEGMENT_HEADER_SIZE, SUMMARY_WIRE_SIZE,
};
use ps3_archive::{
    build_tiers, crc32, parse_summaries, Archive, ArchiveError, IndexSegment, SegmentHeader,
    SummaryBlock, TierNode, TierStore,
};

/// Sidecar magic, first 8 bytes of every `.ps3p` file.
pub const PYRAMID_MAGIC: [u8; 8] = *b"PS3PYRM1";

/// One pyramid node on disk: `count`, `first_us`, `last_us`, six f64s.
pub const NODE_WIRE_SIZE: usize = 3 * 8 + 6 * 8;

const PYRAMID_HEADER_SIZE: usize = 8 + 8 + 4 + 4 + 4;
const SEGMENT_RECORD_HEADER_SIZE: usize = 4 + 4 + 4 + 4;

/// The sidecar path for an archive: `capture.ps3a` → `capture.ps3p`;
/// any other name gets `.ps3p` appended (mirroring `index_path_for`).
#[must_use]
pub fn pyramid_path_for(archive: &Path) -> PathBuf {
    if archive.extension().is_some_and(|e| e == "ps3a") {
        archive.with_extension("ps3p")
    } else {
        let mut name = archive.as_os_str().to_os_string();
        name.push(".ps3p");
        PathBuf::from(name)
    }
}

/// Tier fan-out of a pyramid. Persisted in the sidecar, so readers
/// always interpret stored nodes with the fan-out they were built
/// with; tests shrink it to exercise tier 2 with small captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PyramidConfig {
    /// Summary blocks folded into one tier-1 node.
    pub tier1_blocks: u32,
    /// Tier-1 nodes folded into one tier-2 node.
    pub tier2_nodes: u32,
}

impl Default for PyramidConfig {
    fn default() -> Self {
        Self {
            tier1_blocks: 100,
            tier2_nodes: 100,
        }
    }
}

impl PyramidConfig {
    /// The fan-out of tiers 1 and 2, as [`build_tiers`] takes it.
    #[must_use]
    pub fn fanouts(&self) -> [u32; 2] {
        [self.tier1_blocks, self.tier2_nodes]
    }
}

/// Appends `node`'s sidecar record.
fn encode_node(node: &TierNode, out: &mut Vec<u8>) {
    out.extend_from_slice(&node.count.to_le_bytes());
    out.extend_from_slice(&node.first_us.to_le_bytes());
    out.extend_from_slice(&node.last_us.to_le_bytes());
    for v in [
        node.sum_w,
        node.min_w,
        node.max_w,
        node.energy_j,
        node.first_w,
        node.last_w,
    ] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn decode_node(bytes: &[u8]) -> TierNode {
    TierNode {
        count: read_u64(bytes, 0),
        first_us: read_u64(bytes, 8),
        last_us: read_u64(bytes, 16),
        sum_w: read_f64(bytes, 24),
        min_w: read_f64(bytes, 32),
        max_w: read_f64(bytes, 40),
        energy_j: read_f64(bytes, 48),
        first_w: read_f64(bytes, 56),
        last_w: read_f64(bytes, 64),
    }
}

/// The pyramid of one sealed segment: tier-1 and tier-2 nodes over its
/// summary blocks (the blocks themselves are tier 0 and live in the
/// archive, not here).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentPyramid {
    /// Segment sequence number, for staleness checks against the
    /// archive.
    pub seq: u32,
    /// Summary blocks the segment holds (ditto).
    pub block_count: u32,
    /// Tier 1 (one node per [`PyramidConfig::tier1_blocks`] blocks)
    /// and tier 2 (one node per [`PyramidConfig::tier2_nodes`] tier-1
    /// nodes); a tail node covers whatever remains.
    pub tiers: Vec<Vec<TierNode>>,
}

impl SegmentPyramid {
    /// Builds both tiers from a segment's summary blocks.
    #[must_use]
    pub fn build(seq: u32, summaries: &[SummaryBlock], config: PyramidConfig) -> Self {
        Self {
            seq,
            block_count: summaries.len() as u32,
            tiers: build_tiers(summaries, &config.fanouts()),
        }
    }
}

/// A whole archive's pyramid plus the staleness key that ties it to
/// the archive bytes it was derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct Pyramid {
    /// Tier fan-out the nodes were folded with.
    pub config: PyramidConfig,
    /// Sealed length of the archive the pyramid describes (see
    /// [`Archive::sealed_len`]).
    pub data_len: u64,
    /// Per-segment pyramids, in file order.
    pub segments: Vec<SegmentPyramid>,
}

impl TierStore for Pyramid {
    fn tiers(&self, segment: usize) -> &[Vec<TierNode>] {
        &self.segments[segment].tiers
    }
}

/// Node totals per tier, for `ps3-arc info`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PyramidCounts {
    /// Tier-0 nodes (= summary blocks, stored in the archive).
    pub blocks: u64,
    /// Tier-1 nodes.
    pub tier1: u64,
    /// Tier-2 nodes.
    pub tier2: u64,
}

impl Pyramid {
    /// An empty pyramid over a freshly created (header-only) archive.
    #[must_use]
    pub fn new(config: PyramidConfig) -> Self {
        Self {
            config,
            data_len: FILE_HEADER_SIZE as u64,
            segments: Vec::new(),
        }
    }

    /// Builds the pyramid for every sealed segment of `archive` from
    /// its in-memory summary tables — no payload decode.
    #[must_use]
    pub fn build(archive: &Archive, config: PyramidConfig) -> Self {
        Self {
            config,
            data_len: archive.sealed_len(),
            segments: archive
                .segments()
                .iter()
                .map(|meta| SegmentPyramid::build(meta.header.seq, &meta.summaries, config))
                .collect(),
        }
    }

    /// `true` when this pyramid describes exactly `archive`'s sealed
    /// segments: same sealed length, same segment sequence numbers,
    /// same per-segment block counts.
    #[must_use]
    pub fn matches(&self, archive: &Archive) -> bool {
        self.data_len == archive.sealed_len()
            && self.segments.len() == archive.segments().len()
            && self
                .segments
                .iter()
                .zip(archive.segments())
                .all(|(sp, meta)| {
                    sp.seq == meta.header.seq && sp.block_count as usize == meta.summaries.len()
                })
    }

    /// Loads the `.ps3p` sidecar next to `archive` when it is valid,
    /// matches the archive on disk, and was built with `config`;
    /// otherwise rebuilds by scan. Returns the pyramid and whether the
    /// sidecar was usable (`false` = rebuilt, i.e. the sidecar was
    /// missing, damaged, or stale).
    #[must_use]
    pub fn load_or_build(archive: &Archive, config: PyramidConfig) -> (Self, bool) {
        if let Ok(bytes) = std::fs::read(pyramid_path_for(archive.path())) {
            if let Ok(pyramid) = Self::decode(&bytes) {
                if pyramid.config == config && pyramid.matches(archive) {
                    return (pyramid, true);
                }
            }
        }
        (Self::build(archive, config), false)
    }

    /// Writes the sidecar next to `archive_path`. Callers treat this
    /// as best effort — the pyramid is derived data and a torn or
    /// missing sidecar only costs a rebuild on the next open.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_for(&self, archive_path: &Path) -> std::io::Result<()> {
        std::fs::write(pyramid_path_for(archive_path), self.encode())
    }

    /// Extends the pyramid with one newly sealed segment by reading
    /// its header and summary table straight from the archive file —
    /// the incremental per-seal maintenance path, which never decodes
    /// payload bytes.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`ArchiveError::Corrupt`] when the bytes at
    /// `rec.offset` do not parse as the segment `rec` describes.
    pub fn append_from_index(
        &mut self,
        archive_path: &Path,
        rec: &IndexSegment,
    ) -> Result<(), ArchiveError> {
        let mut file = File::open(archive_path)?;
        file.seek(SeekFrom::Start(rec.offset))?;
        let mut hdr = vec![0u8; SEGMENT_HEADER_SIZE];
        file.read_exact(&mut hdr)?;
        let header = SegmentHeader::parse(&hdr, rec.offset)?;
        if header.seq != rec.seq || header.frame_count != rec.frame_count {
            return Err(ArchiveError::Corrupt {
                offset: rec.offset,
                what: "segment disagrees with its index record".into(),
            });
        }
        let mut table = vec![0u8; header.summary_count as usize * SUMMARY_WIRE_SIZE];
        file.read_exact(&mut table)?;
        let summaries = parse_summaries(&table, header.summary_count as usize);
        self.segments
            .push(SegmentPyramid::build(header.seq, &summaries, self.config));
        self.data_len = rec.offset + header.disk_size();
        Ok(())
    }

    /// Total nodes per tier.
    #[must_use]
    pub fn counts(&self) -> PyramidCounts {
        let mut counts = PyramidCounts::default();
        for seg in &self.segments {
            counts.blocks += u64::from(seg.block_count);
            counts.tier1 += seg.tiers[0].len() as u64;
            counts.tier2 += seg.tiers[1].len() as u64;
        }
        counts
    }

    /// Serialises the pyramid to its sidecar byte form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let nodes: usize = self
            .segments
            .iter()
            .map(|s| s.tiers.iter().map(Vec::len).sum::<usize>())
            .sum();
        let mut out = Vec::with_capacity(
            PYRAMID_HEADER_SIZE
                + self.segments.len() * SEGMENT_RECORD_HEADER_SIZE
                + nodes * NODE_WIRE_SIZE
                + 4,
        );
        out.extend_from_slice(&PYRAMID_MAGIC);
        out.extend_from_slice(&self.data_len.to_le_bytes());
        out.extend_from_slice(&self.config.tier1_blocks.to_le_bytes());
        out.extend_from_slice(&self.config.tier2_nodes.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for seg in &self.segments {
            out.extend_from_slice(&seg.seq.to_le_bytes());
            out.extend_from_slice(&seg.block_count.to_le_bytes());
            for tier in &seg.tiers {
                out.extend_from_slice(&(tier.len() as u32).to_le_bytes());
            }
            for node in seg.tiers.iter().flatten() {
                encode_node(node, &mut out);
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a sidecar file.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] on wrong magic, truncation, CRC
    /// mismatch, or internally inconsistent tier counts. Callers treat
    /// any error as "no usable pyramid" and rebuild from the archive.
    pub fn decode(bytes: &[u8]) -> Result<Self, ArchiveError> {
        let corrupt = |what: &str| ArchiveError::Corrupt {
            offset: 0,
            what: format!("pyramid {what}"),
        };
        if bytes.len() < PYRAMID_HEADER_SIZE + 4 {
            return Err(corrupt("truncated"));
        }
        if bytes[..8] != PYRAMID_MAGIC {
            return Err(corrupt("magic mismatch"));
        }
        let body_len = bytes.len() - 4;
        if crc32(&bytes[..body_len]) != read_u32(bytes, body_len) {
            return Err(corrupt("CRC mismatch"));
        }
        let data_len = read_u64(bytes, 8);
        let config = PyramidConfig {
            tier1_blocks: read_u32(bytes, 16),
            tier2_nodes: read_u32(bytes, 20),
        };
        if config.tier1_blocks == 0 || config.tier2_nodes == 0 {
            return Err(corrupt("zero tier fan-out"));
        }
        let seg_count = read_u32(bytes, 24) as usize;
        let mut segments = Vec::with_capacity(seg_count.min(1 << 20));
        let mut at = PYRAMID_HEADER_SIZE;
        for _ in 0..seg_count {
            if at + SEGMENT_RECORD_HEADER_SIZE > body_len {
                return Err(corrupt("truncated segment record"));
            }
            let seq = read_u32(bytes, at);
            let block_count = read_u32(bytes, at + 4);
            let tier1_count = read_u32(bytes, at + 8) as usize;
            let tier2_count = read_u32(bytes, at + 12) as usize;
            at += SEGMENT_RECORD_HEADER_SIZE;
            let expect1 = (block_count as usize).div_ceil(config.tier1_blocks as usize);
            let expect2 = tier1_count.div_ceil(config.tier2_nodes as usize);
            if tier1_count != expect1 || tier2_count != expect2 {
                return Err(corrupt("tier counts inconsistent with fan-out"));
            }
            let need = (tier1_count + tier2_count) * NODE_WIRE_SIZE;
            if at + need > body_len {
                return Err(corrupt("truncated nodes"));
            }
            let read_nodes = |count: usize, at: &mut usize| {
                (0..count)
                    .map(|_| {
                        let node = decode_node(&bytes[*at..]);
                        *at += NODE_WIRE_SIZE;
                        node
                    })
                    .collect::<Vec<_>>()
            };
            let tier1 = read_nodes(tier1_count, &mut at);
            let tier2 = read_nodes(tier2_count, &mut at);
            segments.push(SegmentPyramid {
                seq,
                block_count,
                tiers: vec![tier1, tier2],
            });
        }
        if at != body_len {
            return Err(corrupt("length inconsistent with counts"));
        }
        Ok(Self {
            config,
            data_len,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(i: u64) -> SummaryBlock {
        SummaryBlock {
            count: 1000,
            first_us: i * 50_000 + 25,
            last_us: i * 50_000 + 49_975,
            sum_w: 10_000.0 + i as f64,
            min_w: 9.0,
            max_w: 11.0 + i as f64,
            energy_j: 0.5,
            first_w: 10.0,
            last_w: 10.5,
        }
    }

    fn sample() -> Pyramid {
        let config = PyramidConfig {
            tier1_blocks: 2,
            tier2_nodes: 2,
        };
        let summaries: Vec<SummaryBlock> = (0..7).map(block).collect();
        Pyramid {
            config,
            data_len: 4096,
            segments: vec![
                SegmentPyramid::build(0, &summaries, config),
                SegmentPyramid::build(1, &summaries[..3], config),
            ],
        }
    }

    #[test]
    fn tier_shapes_follow_fanout() {
        let pyr = sample();
        // 7 blocks → ceil(7/2)=4 tier-1 → ceil(4/2)=2 tier-2.
        assert_eq!(pyr.segments[0].tiers[0].len(), 4);
        assert_eq!(pyr.segments[0].tiers[1].len(), 2);
        // 3 blocks → 2 tier-1 → 1 tier-2.
        assert_eq!(pyr.segments[1].tiers[0].len(), 2);
        assert_eq!(pyr.segments[1].tiers[1].len(), 1);
        assert_eq!(
            pyr.counts(),
            PyramidCounts {
                blocks: 10,
                tier1: 6,
                tier2: 3,
            }
        );
    }

    #[test]
    fn fold_preserves_counts_and_extremes() {
        let summaries: Vec<SummaryBlock> = (0..5).map(block).collect();
        let nodes: Vec<TierNode> = summaries.iter().map(TierNode::from_block).collect();
        let folded = TierNode::fold(&nodes);
        assert_eq!(folded.count, 5000);
        assert_eq!(folded.first_us, summaries[0].first_us);
        assert_eq!(folded.last_us, summaries[4].last_us);
        assert_eq!(folded.min_w, 9.0);
        assert_eq!(folded.max_w, 15.0);
        assert_eq!(folded.first_w, 10.0);
        assert_eq!(folded.last_w, 10.5);
        // Junction energy: 4 junctions of (10.5 + 10.0)/2 W over 50 µs
        // plus the 5 interior energies.
        let expect = 5.0 * 0.5 + 4.0 * (10.25 * 50e-6);
        assert!((folded.energy_j - expect).abs() < 1e-12);
    }

    #[test]
    fn sidecar_round_trips() {
        let pyr = sample();
        assert_eq!(Pyramid::decode(&pyr.encode()).unwrap(), pyr);
        let empty = Pyramid::new(PyramidConfig::default());
        assert_eq!(Pyramid::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let bytes = sample().encode();
        for byte in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[byte] ^= 1;
            assert!(
                Pyramid::decode(&dam).is_err(),
                "flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(Pyramid::decode(&bytes[..len]).is_err(), "len {len}");
        }
    }

    #[test]
    fn pyramid_path_swaps_or_appends_extension() {
        assert_eq!(
            pyramid_path_for(Path::new("/tmp/cap.ps3a")),
            PathBuf::from("/tmp/cap.ps3p")
        );
        assert_eq!(
            pyramid_path_for(Path::new("/tmp/capture")),
            PathBuf::from("/tmp/capture.ps3p")
        );
    }
}
