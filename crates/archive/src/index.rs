//! The `.ps3x` sidecar index: time ranges and marker labels mapped to
//! segment offsets, so `Archive::open` can seek straight to the data
//! it needs without scanning the archive file.
//!
//! The index is pure derived data. It records `data_len`, the length
//! of the sealed prefix of the `.ps3a` file it describes; on open it
//! is trusted only when its CRC checks out *and* `data_len` is
//! consistent with the archive on disk. Otherwise — stale after a
//! crash, deleted, damaged — the reader falls back to a sequential
//! scan of the archive and rebuilds it. The writer rewrites the whole
//! sidecar after each sealed segment, *after* flushing the segment
//! itself, so the index never describes data that might not survive a
//! crash.

use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::format::{parse_markers, read_u32, read_u64, ArchiveError, MARKER_WIRE_SIZE};

/// Sidecar magic, first 8 bytes.
pub const INDEX_MAGIC: [u8; 8] = *b"PS3XIDX1";

/// The sidecar path for an archive: `capture.ps3a` → `capture.ps3x`;
/// any other name gets `.ps3x` appended.
#[must_use]
pub fn index_path_for(archive: &Path) -> PathBuf {
    if archive.extension().is_some_and(|e| e == "ps3a") {
        archive.with_extension("ps3x")
    } else {
        let mut name = archive.as_os_str().to_os_string();
        name.push(".ps3x");
        PathBuf::from(name)
    }
}

const INDEX_HEADER_SIZE: usize = 8 + 8 + 4 + 4;
const SEGMENT_RECORD_SIZE: usize = 8 + 4 + 4 + 8 + 8;

/// One segment's entry in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSegment {
    /// Byte offset of the segment header in the `.ps3a` file.
    pub offset: u64,
    /// Segment sequence number.
    pub seq: u32,
    /// Frames in the segment.
    pub frame_count: u32,
    /// Timestamp of the segment's first frame (µs).
    pub start_us: u64,
    /// Timestamp of the segment's last frame (µs).
    pub end_us: u64,
}

/// The in-memory form of the sidecar index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArchiveIndex {
    /// Length of the sealed `.ps3a` prefix this index describes.
    pub data_len: u64,
    /// Per-segment records, in file order.
    pub segments: Vec<IndexSegment>,
    /// Every marker in the archive: `(time µs, label)`, in time order.
    pub markers: Vec<(u64, char)>,
}

impl ArchiveIndex {
    /// Serialises the index to its sidecar byte form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            INDEX_HEADER_SIZE
                + self.segments.len() * SEGMENT_RECORD_SIZE
                + self.markers.len() * MARKER_WIRE_SIZE
                + 4,
        );
        out.extend_from_slice(&INDEX_MAGIC);
        out.extend_from_slice(&self.data_len.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.markers.len() as u32).to_le_bytes());
        for seg in &self.segments {
            out.extend_from_slice(&seg.offset.to_le_bytes());
            out.extend_from_slice(&seg.seq.to_le_bytes());
            out.extend_from_slice(&seg.frame_count.to_le_bytes());
            out.extend_from_slice(&seg.start_us.to_le_bytes());
            out.extend_from_slice(&seg.end_us.to_le_bytes());
        }
        for &(time_us, label) in &self.markers {
            out.extend_from_slice(&time_us.to_le_bytes());
            out.extend_from_slice(&(label as u32).to_le_bytes());
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
    /// mismatch or a marker label that is no `char`. Callers treat any
    /// error as "no usable index" and rebuild from the archive.
    pub fn decode(bytes: &[u8]) -> Result<Self, ArchiveError> {
        let corrupt = |what: &str| ArchiveError::Corrupt {
            offset: 0,
            what: format!("index {what}"),
        };
        if bytes.len() < INDEX_HEADER_SIZE + 4 {
            return Err(corrupt("truncated"));
        }
        if bytes[..8] != INDEX_MAGIC {
            return Err(corrupt("magic mismatch"));
        }
        let body_len = bytes.len() - 4;
        let stored = read_u32(bytes, body_len);
        if crc32(&bytes[..body_len]) != stored {
            return Err(corrupt("CRC mismatch"));
        }
        let data_len = read_u64(bytes, 8);
        let seg_count = read_u32(bytes, 16) as usize;
        let marker_count = read_u32(bytes, 20) as usize;
        let need = INDEX_HEADER_SIZE
            + seg_count * SEGMENT_RECORD_SIZE
            + marker_count * MARKER_WIRE_SIZE
            + 4;
        if bytes.len() != need {
            return Err(corrupt("length inconsistent with counts"));
        }
        let mut segments = Vec::with_capacity(seg_count);
        let mut at = INDEX_HEADER_SIZE;
        for _ in 0..seg_count {
            segments.push(IndexSegment {
                offset: read_u64(bytes, at),
                seq: read_u32(bytes, at + 8),
                frame_count: read_u32(bytes, at + 12),
                start_us: read_u64(bytes, at + 16),
                end_us: read_u64(bytes, at + 24),
            });
            at += SEGMENT_RECORD_SIZE;
        }
        let markers = parse_markers(&bytes[at..], marker_count)
            .ok_or_else(|| corrupt("marker label is not a Unicode scalar value"))?;
        Ok(Self {
            data_len,
            segments,
            markers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArchiveIndex {
        ArchiveIndex {
            data_len: 123_456,
            segments: vec![
                IndexSegment {
                    offset: 224,
                    seq: 0,
                    frame_count: 20_000,
                    start_us: 25,
                    end_us: 999_975,
                },
                IndexSegment {
                    offset: 40_000,
                    seq: 1,
                    frame_count: 1_500,
                    start_us: 1_000_025,
                    end_us: 1_074_975,
                },
            ],
            markers: vec![(500_025, 'k'), (1_000_125, 'é')],
        }
    }

    #[test]
    fn index_round_trips() {
        let idx = sample();
        assert_eq!(ArchiveIndex::decode(&idx.encode()).unwrap(), idx);
    }

    #[test]
    fn empty_index_round_trips() {
        let idx = ArchiveIndex::default();
        assert_eq!(ArchiveIndex::decode(&idx.encode()).unwrap(), idx);
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let bytes = sample().encode();
        for byte in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[byte] ^= 1;
            assert!(
                ArchiveIndex::decode(&dam).is_err(),
                "flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn index_path_swaps_or_appends_extension() {
        assert_eq!(
            index_path_for(Path::new("/tmp/cap.ps3a")),
            PathBuf::from("/tmp/cap.ps3x")
        );
        assert_eq!(
            index_path_for(Path::new("/tmp/capture")),
            PathBuf::from("/tmp/capture.ps3x")
        );
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(ArchiveIndex::decode(&bytes[..len]).is_err(), "len {len}");
        }
    }
}
