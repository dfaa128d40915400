//! The `.ps3x` sidecar: an append-only log of the capture's seals, so
//! `Archive::open` can seat every segment without scanning the archive
//! file, and a record of whether the capture's writer finished.
//!
//! ```text
//! magic "PS3XLOG1"
//! segment record:  'S' · offset · seq · frame_count · start_us · end_us · CRC-32
//! segment record:  …                                         (one per seal)
//! finished record: 'F' · dropped · 24 zero bytes · CRC-32    (written by finish)
//! ```
//!
//! The writer appends one segment record per seal, *after* the segment
//! itself is durable, and a `Finished` record once `finish` has synced
//! the archive; no byte already written is rewritten. Each record
//! carries its own CRC, so a torn append costs only that record:
//! [`ArchiveIndex::decode`] returns the longest prefix of whole,
//! CRC-valid records. The log is pure derived data. `Archive::open`
//! checks every record against the segment header and tables on disk,
//! stops at the first that disagrees, and CRC-scans the archive from
//! there, so a stale, torn, damaged or missing log costs only a longer
//! scan. Compaction and retention write a fresh log for the archive
//! they rename into place.

use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::format::{read_u32, read_u64, ArchiveError};

/// Sidecar magic, first 8 bytes. Logs under any other magic (the
/// rewritten whole-file index of format `PS3XIDX1` included) are
/// ignored and the archive is scanned.
pub const INDEX_MAGIC: [u8; 8] = *b"PS3XLOG1";

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

const SEGMENT_KIND: u8 = b'S';
const FINISHED_KIND: u8 = b'F';
const RECORD_SIZE: usize = 1 + 8 + 4 + 4 + 8 + 8 + 4;

/// One segment's entry in the index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

impl IndexSegment {
    /// The log record for this segment, as the writer appends it.
    pub(crate) fn record(&self) -> [u8; RECORD_SIZE] {
        self.record_of(SEGMENT_KIND)
    }

    fn record_of(&self, kind: u8) -> [u8; RECORD_SIZE] {
        let mut rec = [0u8; RECORD_SIZE];
        rec[0] = kind;
        rec[1..9].copy_from_slice(&self.offset.to_le_bytes());
        rec[9..13].copy_from_slice(&self.seq.to_le_bytes());
        rec[13..17].copy_from_slice(&self.frame_count.to_le_bytes());
        rec[17..25].copy_from_slice(&self.start_us.to_le_bytes());
        rec[25..33].copy_from_slice(&self.end_us.to_le_bytes());
        let crc = crc32(&rec[..RECORD_SIZE - 4]);
        rec[RECORD_SIZE - 4..].copy_from_slice(&crc.to_le_bytes());
        rec
    }
}

/// The log record closing a finished capture: a segment-sized record
/// holding the frames the writer's queue dropped where a segment
/// record holds its offset.
pub(crate) fn finished_record(dropped: u64) -> [u8; RECORD_SIZE] {
    let fields = IndexSegment {
        offset: dropped,
        ..IndexSegment::default()
    };
    fields.record_of(FINISHED_KIND)
}

/// The in-memory form of the sidecar log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchiveIndex {
    /// Per-segment records, in file order.
    pub segments: Vec<IndexSegment>,
    /// `Some(dropped)` once the capture's writer finished: the frames
    /// its queue dropped. `None` while it runs, and after a crash.
    pub finished: Option<u64>,
}

impl ArchiveIndex {
    /// Serialises the whole log: what the writer's appends would have
    /// produced for these records.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(INDEX_MAGIC.len() + (self.segments.len() + 1) * RECORD_SIZE);
        out.extend_from_slice(&INDEX_MAGIC);
        for seg in &self.segments {
            out.extend_from_slice(&seg.record());
        }
        if let Some(dropped) = self.finished {
            out.extend_from_slice(&finished_record(dropped));
        }
        out
    }

    /// Decodes a sidecar log: its longest prefix of whole, CRC-valid
    /// records, ending at the first torn, damaged or unknown record or
    /// at the `Finished` record.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] when the magic is missing or wrong.
    /// Callers treat that as "no usable index" and scan the archive.
    pub fn decode(bytes: &[u8]) -> Result<Self, ArchiveError> {
        if bytes.get(..INDEX_MAGIC.len()) != Some(&INDEX_MAGIC[..]) {
            return Err(ArchiveError::Corrupt {
                offset: 0,
                what: "index magic mismatch".into(),
            });
        }
        let mut index = Self::default();
        for rec in bytes[INDEX_MAGIC.len()..].chunks_exact(RECORD_SIZE) {
            if crc32(&rec[..RECORD_SIZE - 4]) != read_u32(rec, RECORD_SIZE - 4) {
                break;
            }
            let offset = read_u64(rec, 1);
            match rec[0] {
                SEGMENT_KIND => index.segments.push(IndexSegment {
                    offset,
                    seq: read_u32(rec, 9),
                    frame_count: read_u32(rec, 13),
                    start_us: read_u64(rec, 17),
                    end_us: read_u64(rec, 25),
                }),
                FINISHED_KIND => {
                    index.finished = Some(offset);
                    break;
                }
                _ => break,
            }
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArchiveIndex {
        ArchiveIndex {
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
            finished: Some(7),
        }
    }

    /// The first `n` records of `idx`, as a prefix of its log decodes.
    fn prefix(idx: &ArchiveIndex, n: usize) -> ArchiveIndex {
        ArchiveIndex {
            segments: idx.segments[..n.min(idx.segments.len())].to_vec(),
            finished: idx.finished.filter(|_| n > idx.segments.len()),
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

    /// A flip in the magic refuses the log; one in a record refuses
    /// that record and everything after it.
    #[test]
    fn any_single_bit_flip_is_rejected() {
        let bytes = sample().encode();
        for byte in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[byte] ^= 1;
            let decoded = ArchiveIndex::decode(&dam);
            if byte < INDEX_MAGIC.len() {
                assert!(decoded.is_err(), "flip at byte {byte} accepted");
                continue;
            }
            let record = (byte - INDEX_MAGIC.len()) / RECORD_SIZE;
            assert_eq!(
                decoded.unwrap(),
                prefix(&sample(), record),
                "flip at byte {byte}"
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

    /// A cut refuses the record it tears; the whole records before it
    /// survive.
    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let decoded = ArchiveIndex::decode(&bytes[..len]);
            if len < INDEX_MAGIC.len() {
                assert!(decoded.is_err(), "len {len}");
                continue;
            }
            let whole = (len - INDEX_MAGIC.len()) / RECORD_SIZE;
            assert_eq!(decoded.unwrap(), prefix(&sample(), whole), "len {len}");
        }
    }

    #[test]
    fn appended_records_extend_the_encoded_log() {
        let idx = sample();
        let mut log = ArchiveIndex::default().encode();
        for seg in &idx.segments {
            log.extend_from_slice(&seg.record());
        }
        log.extend_from_slice(&finished_record(7));
        assert_eq!(log, idx.encode());
    }
}
