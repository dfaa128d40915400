//! The `.ps3a` on-disk format: constants, the file header, and the
//! error type shared by every layer of the crate.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ file header: magic "PS3ARCH1" · version · 8 sensor configs   │
//! │              · header CRC-32                                 │
//! ├──────────────────────────────────────────────────────────────┤
//! │ segment 0: header · summary blocks · block offsets ·         │
//! │            marker table · tables CRC-32 · compressed         │
//! │            payload · CRC-32 · seal "PS3e"                    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ segment 1: …                                                 │
//! ├──────────────────────────────────────────────────────────────┤
//! │ (possibly a torn tail after a crash — ignored on open)       │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything before a segment's trailing seal word is covered by its
//! CRC, so any prefix of the file that ends in a sealed segment is a
//! valid archive: appending is crash-safe by construction and a kill
//! mid-write loses at most the unsealed tail.
//!
//! The tables CRC covers the segment header and the tables after it,
//! so the sidecar fast path, which trusts a segment without reading its
//! payload, still never serves a damaged summary.
//!
//! Version 2 made the payload block-addressable: each
//! [`SUMMARY_FRAMES`]-frame block is coded on its own, starts on a
//! byte boundary, and has its payload byte offset in the segment's
//! block-offset table, so a query decodes only the blocks it touches.
//! Version 3 split each block into independently decodable runs of 200
//! frames behind an in-block run table (each run's byte offset, first
//! and last time and power sum, under its own CRC-32), so a range or
//! bucket edge decodes only the run it cuts, and added the tables CRC.
//! Version 4 keeps that layout with [`SUB_FRAMES`] = 50-frame runs,
//! twenty to a block, so an edge decodes a quarter as many frames for
//! about 12 % more bytes. Version 1, 2 and 3 files are refused as
//! [`ArchiveError::NotAnArchive`].

use core::fmt;
use std::error::Error;
use std::io;

use ps3_firmware::{SensorConfig, CONFIG_WIRE_SIZE, SENSOR_SLOTS};

use crate::crc::crc32;

/// File magic, first 8 bytes of every archive.
pub const FILE_MAGIC: [u8; 8] = *b"PS3ARCH1";

/// Format version written by this crate.
pub const FORMAT_VERSION: u32 = 4;

/// Magic opening every segment header ("PS3s").
pub const SEGMENT_MAGIC: u32 = u32::from_le_bytes(*b"PS3s");

/// Seal word closing every segment ("PS3e"); a segment without it is
/// an unsealed tail.
pub const SEAL_MAGIC: u32 = u32::from_le_bytes(*b"PS3e");

/// Frames per pre-aggregated summary block (50 ms at 20 kHz).
pub const SUMMARY_FRAMES: usize = 1000;

/// Frames per independently decodable run inside a summary block
/// (2.5 ms at 20 kHz): the most a range or bucket edge decodes. Each
/// run costs about 19 bytes: its run-table entry and the restart of
/// every coder.
pub const SUB_FRAMES: usize = 50;

const _: () = assert!(SUMMARY_FRAMES.is_multiple_of(SUB_FRAMES));

/// Default frames per segment (1 s at 20 kHz).
pub const DEFAULT_SEGMENT_FRAMES: usize = 20_000;

/// Size of the fixed portion of a segment header, bytes.
pub const SEGMENT_HEADER_SIZE: usize = 4 + 4 + 4 + 4 + 4 + 4 + 8 + 8 + 4;

/// Size of one summary block on disk, bytes.
pub const SUMMARY_WIRE_SIZE: usize = 4 + 8 + 8 + 6 * 8;

/// Size of one block-offset table entry on disk, bytes.
pub const BLOCK_OFFSET_SIZE: usize = 4;

/// Size of one marker-table entry on disk, bytes.
pub const MARKER_WIRE_SIZE: usize = 8 + 4;

/// Size of the CRC-32 closing a segment's tables, bytes.
pub const TABLES_CRC_SIZE: usize = 4;

/// Size of the file header on disk, bytes.
pub const FILE_HEADER_SIZE: usize = 8 + 4 + SENSOR_SLOTS * CONFIG_WIRE_SIZE + 4;

/// Segment CRC + seal word, bytes.
pub const SEGMENT_TRAILER_SIZE: usize = 4 + 4;

/// Errors from archive I/O, decoding, and queries.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArchiveError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// Structural damage at a byte offset: bad magic, CRC mismatch,
    /// truncated or undecodable content. `what` names the failure.
    Corrupt {
        /// Byte offset of the damaged structure.
        offset: u64,
        /// Human-readable description.
        what: String,
    },
    /// The file is not a PowerSensor3 archive (wrong magic/version).
    NotAnArchive,
    /// A query referenced a marker label the archive does not contain.
    MarkerNotFound(char),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive I/O error: {e}"),
            ArchiveError::Corrupt { offset, what } => {
                write!(f, "archive corrupt at byte {offset}: {what}")
            }
            ArchiveError::NotAnArchive => write!(f, "not a PowerSensor3 archive"),
            ArchiveError::MarkerNotFound(label) => {
                write!(f, "marker '{label}' not found in archive")
            }
        }
    }
}

impl Error for ArchiveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ArchiveError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArchiveError {
    fn from(e: io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

/// Encodes the file header: magic, version, the eight sensor-slot
/// configuration records (wire format shared with the device EEPROM),
/// and a CRC over all of it.
#[must_use]
pub fn encode_file_header(configs: &[SensorConfig; SENSOR_SLOTS]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FILE_HEADER_SIZE);
    out.extend_from_slice(&FILE_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for cfg in configs {
        out.extend_from_slice(&cfg.to_wire());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(out.len(), FILE_HEADER_SIZE);
    out
}

/// Decodes and validates a file header.
///
/// # Errors
///
/// [`ArchiveError::NotAnArchive`] on wrong magic or version,
/// [`ArchiveError::Corrupt`] on a short header, bad CRC, or an
/// undecodable configuration record.
pub fn decode_file_header(bytes: &[u8]) -> Result<[SensorConfig; SENSOR_SLOTS], ArchiveError> {
    if bytes.len() < FILE_HEADER_SIZE {
        return Err(ArchiveError::Corrupt {
            offset: 0,
            what: format!(
                "file header truncated ({} of {FILE_HEADER_SIZE} bytes)",
                bytes.len()
            ),
        });
    }
    let header = &bytes[..FILE_HEADER_SIZE];
    if header[..8] != FILE_MAGIC {
        return Err(ArchiveError::NotAnArchive);
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(ArchiveError::NotAnArchive);
    }
    let body_len = FILE_HEADER_SIZE - 4;
    let stored = u32::from_le_bytes(header[body_len..].try_into().expect("4 bytes"));
    if crc32(&header[..body_len]) != stored {
        return Err(ArchiveError::Corrupt {
            offset: 0,
            what: "file header CRC mismatch".into(),
        });
    }
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    for (slot, cfg) in configs.iter_mut().enumerate() {
        let at = 12 + slot * CONFIG_WIRE_SIZE;
        let record: [u8; CONFIG_WIRE_SIZE] = header[at..at + CONFIG_WIRE_SIZE]
            .try_into()
            .expect("sized above");
        *cfg = SensorConfig::from_wire(&record).map_err(|e| ArchiveError::Corrupt {
            offset: at as u64,
            what: format!("bad sensor config record: {e}"),
        })?;
    }
    Ok(configs)
}

/// Reads a little-endian `u32` at `at` (caller guarantees bounds).
#[must_use]
pub fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Reads a little-endian `u64` at `at` (caller guarantees bounds).
#[must_use]
pub fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Parses `count` marker entries (`u64` time µs, `u32` label code),
/// the layout of a segment's marker table and of the sidecar's marker
/// records; `None` when a label code is not a Unicode scalar value.
pub(crate) fn parse_markers(bytes: &[u8], count: usize) -> Option<Vec<(u64, char)>> {
    (0..count)
        .map(|i| {
            let at = i * MARKER_WIRE_SIZE;
            let label = char::from_u32(read_u32(bytes, at + 8))?;
            Some((read_u64(bytes, at), label))
        })
        .collect()
}

/// Reads a little-endian `f64` at `at` (caller guarantees bounds).
#[must_use]
pub fn read_f64(bytes: &[u8], at: usize) -> f64 {
    f64::from_bits(read_u64(bytes, at))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs() -> [SensorConfig; SENSOR_SLOTS] {
        let mut c: [SensorConfig; SENSOR_SLOTS] =
            core::array::from_fn(|_| SensorConfig::unpopulated());
        c[0] = SensorConfig::new("I0", 3.3, 0.12, true);
        c[1] = SensorConfig::new("U0", 3.3, 5.0, true);
        c
    }

    #[test]
    fn file_header_round_trips() {
        let header = encode_file_header(&configs());
        assert_eq!(header.len(), FILE_HEADER_SIZE);
        let decoded = decode_file_header(&header).unwrap();
        assert_eq!(decoded[0].name, "I0");
        assert!((decoded[1].gain - 5.0).abs() < 1e-6);
        assert!(decoded[0].enabled && !decoded[2].enabled);
    }

    #[test]
    fn header_crc_detects_damage() {
        let mut header = encode_file_header(&configs());
        header[20] ^= 1;
        assert!(matches!(
            decode_file_header(&header),
            Err(ArchiveError::Corrupt { .. })
        ));
    }

    #[test]
    fn version_1_2_and_3_files_are_refused() {
        for version in [1u32, 2, 3] {
            let mut header = encode_file_header(&configs());
            header[8..12].copy_from_slice(&version.to_le_bytes());
            let body_len = FILE_HEADER_SIZE - 4;
            let crc = crc32(&header[..body_len]);
            header[body_len..].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                decode_file_header(&header),
                Err(ArchiveError::NotAnArchive)
            ));
        }
    }

    #[test]
    fn wrong_magic_is_not_an_archive() {
        let mut header = encode_file_header(&configs());
        header[0] = b'X';
        assert!(matches!(
            decode_file_header(&header),
            Err(ArchiveError::NotAnArchive)
        ));
    }
}
