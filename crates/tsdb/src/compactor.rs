//! Background compaction and retention for `.ps3a` archives.
//!
//! Both operations follow the same crash-safe protocol: build a
//! complete replacement archive in a `.compact-tmp` staging file,
//! `fsync` it, then atomically rename it over the original. A crash at
//! any byte of the staging write leaves the original archive untouched
//! and readable; a stale staging file from a previous crash is simply
//! overwritten on the next attempt. Sidecars (`.ps3x` index, `.ps3p`
//! pyramid) are rewritten best-effort after the rename — both are
//! advisory and rebuilt by scan when stale.
//!
//! Compaction ([`stage_compacted`]) merges sealed small segments into
//! large ones: frames are decoded, re-chunked at the target size, and
//! re-encoded through the same [`build_segment`] codec, which re-tunes
//! the Rice parameters for each merged segment. The frame sequence —
//! and therefore every query answer — is bit-identical before and
//! after.
//!
//! Retention ([`stage_retained`]) drops whole expired segments from
//! the front of the archive by verbatim byte copy: surviving segments
//! keep their encoded bytes, sequence numbers, and CRCs.

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

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ps3_archive::format::{encode_file_header, FILE_HEADER_SIZE};
use ps3_archive::{
    build_segment, frame_total, index_path_for, Archive, ArchiveError, ArchiveIndex, IndexSegment,
};

use crate::pyramid::{Pyramid, PyramidConfig};

/// Frames per merged segment when compaction options don't say
/// otherwise: ten default-size write segments.
pub const DEFAULT_COMPACT_TARGET_FRAMES: usize = 200_000;

/// Tuning for an offline [`compact_archive`] run.
#[derive(Debug, Clone, Copy)]
pub struct CompactOptions {
    /// Frames per merged segment.
    pub target_frames: usize,
    /// Fan-out of the pyramid rebuilt after the rename.
    pub config: PyramidConfig,
}

impl Default for CompactOptions {
    fn default() -> Self {
        Self {
            target_frames: DEFAULT_COMPACT_TARGET_FRAMES,
            config: PyramidConfig::default(),
        }
    }
}

/// What a compaction or retention rewrite changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Sealed segments before the rewrite.
    pub segments_before: usize,
    /// Sealed segments after.
    pub segments_after: usize,
    /// Archive bytes (header included) before.
    pub bytes_before: u64,
    /// Archive bytes after.
    pub bytes_after: u64,
}

/// The staging path for a crash-safe rewrite of `path`:
/// `<path>.compact-tmp`, always beside the archive.
#[must_use]
pub fn compact_tmp_path_for(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".compact-tmp");
    PathBuf::from(name)
}

/// Builds the compacted replacement for `archive` at `tmp` — every
/// frame decoded, re-chunked at `target_frames`, and re-encoded — and
/// returns the index describing it. The staging file is fsynced; the
/// caller owns the rename.
///
/// # Errors
///
/// Decode errors from the source archive, or I/O errors writing the
/// staging file.
///
/// # Panics
///
/// Panics if `target_frames` is zero.
pub fn stage_compacted(
    archive: &Archive,
    target_frames: usize,
    tmp: &Path,
) -> Result<ArchiveIndex, ArchiveError> {
    assert!(target_frames > 0, "target_frames must be at least 1");
    let mut frames = Vec::new();
    for meta in archive.segments() {
        frames.extend(archive.decode_segment_frames(meta)?);
    }
    let watts: Vec<f64> = frames
        .iter()
        .map(|f| frame_total(archive.configs(), archive.adc(), f).value())
        .collect();

    let mut bytes = encode_file_header(archive.configs());
    let mut index = ArchiveIndex {
        data_len: 0,
        segments: Vec::new(),
        markers: Vec::new(),
    };
    for (seq, (chunk, watts_chunk)) in frames
        .chunks(target_frames)
        .zip(watts.chunks(target_frames))
        .enumerate()
    {
        let seq = u32::try_from(seq).map_err(|_| ArchiveError::Corrupt {
            offset: bytes.len() as u64,
            what: "compaction would produce more than u32::MAX segments".into(),
        })?;
        let offset = bytes.len() as u64;
        bytes.extend_from_slice(&build_segment(seq, chunk, watts_chunk));
        index.segments.push(IndexSegment {
            offset,
            seq,
            frame_count: chunk.len() as u32,
            start_us: chunk[0].time.as_micros(),
            end_us: chunk[chunk.len() - 1].time.as_micros(),
        });
        for frame in chunk {
            if let Some(label) = frame.marker {
                index.markers.push((frame.time.as_micros(), label));
            }
        }
    }
    index.data_len = bytes.len() as u64;

    let mut file = File::create(tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    Ok(index)
}

/// Offline compaction of the archive at `path`: stage, rename, rewrite
/// the `.ps3x` index and `.ps3p` pyramid sidecars (best effort).
///
/// # Errors
///
/// Open/decode errors, or I/O errors staging or renaming.
///
/// # Panics
///
/// Panics if `options.target_frames` is zero.
pub fn compact_archive(
    path: impl AsRef<Path>,
    options: CompactOptions,
) -> Result<CompactReport, ArchiveError> {
    let path = path.as_ref();
    let archive = Archive::open(path)?;
    let before = (archive.segments().len(), archive.sealed_len());
    let tmp = compact_tmp_path_for(path);
    let index = stage_compacted(&archive, options.target_frames, &tmp)?;
    drop(archive);
    std::fs::rename(&tmp, path)?;
    let _ = std::fs::write(index_path_for(path), index.encode());
    let archive = Archive::open(path)?;
    let _ = Pyramid::build(&archive, options.config).save_for(path);
    Ok(CompactReport {
        segments_before: before.0,
        segments_after: archive.segments().len(),
        bytes_before: before.1,
        bytes_after: archive.sealed_len(),
    })
}

/// A retention window: how much history a capture keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Keep segments ending within this many microseconds of the
    /// newest sealed sample.
    Duration(u64),
    /// Keep the newest segments fitting (roughly) this many bytes;
    /// the newest segment always survives.
    Bytes(u64),
}

impl Retention {
    /// Parses a human retention spec: a non-negative integer with a
    /// duration suffix (`us`, `ms`, `s`, `m`, `h`) or a size suffix
    /// (`b`, `kb`, `mb`, `gb`), e.g. `90s`, `250ms`, `64mb`.
    ///
    /// # Errors
    ///
    /// A description of the malformed spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim().to_ascii_lowercase();
        let split = spec
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(spec.len());
        let (digits, suffix) = spec.split_at(split);
        let value: u64 = digits
            .parse()
            .map_err(|_| format!("retention `{spec}`: expected <number><unit>"))?;
        let scaled = |mul: u64| {
            value
                .checked_mul(mul)
                .ok_or_else(|| format!("retention `{spec}` overflows"))
        };
        match suffix {
            "us" => Ok(Self::Duration(value)),
            "ms" => Ok(Self::Duration(scaled(1_000)?)),
            "s" => Ok(Self::Duration(scaled(1_000_000)?)),
            "m" => Ok(Self::Duration(scaled(60_000_000)?)),
            "h" => Ok(Self::Duration(scaled(3_600_000_000)?)),
            "b" => Ok(Self::Bytes(value)),
            "kb" => Ok(Self::Bytes(scaled(1 << 10)?)),
            "mb" => Ok(Self::Bytes(scaled(1 << 20)?)),
            "gb" => Ok(Self::Bytes(scaled(1 << 30)?)),
            _ => Err(format!(
                "retention `{spec}`: unit must be us/ms/s/m/h or b/kb/mb/gb"
            )),
        }
    }

    /// Human description of the window, e.g. `last 90000000 µs` or
    /// `newest 67108864 bytes`.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::Duration(us) => format!("last {us} µs"),
            Self::Bytes(bytes) => format!("newest {bytes} bytes"),
        }
    }
}

/// How many leading (oldest) segments `retention` expires right now.
/// The newest sealed segment is never expired.
#[must_use]
pub fn retained_prefix_drop(archive: &Archive, retention: Retention) -> usize {
    let segments = archive.segments();
    let Some(last) = segments.last() else {
        return 0;
    };
    match retention {
        Retention::Duration(window) => {
            let cutoff = last.header.end_us.saturating_sub(window);
            segments
                .iter()
                .take(segments.len() - 1)
                .take_while(|s| s.header.end_us < cutoff)
                .count()
        }
        Retention::Bytes(limit) => {
            let mut total: u64 = FILE_HEADER_SIZE as u64
                + segments.iter().map(|s| s.header.disk_size()).sum::<u64>();
            let mut drop = 0;
            while drop + 1 < segments.len() && total > limit {
                total -= segments[drop].header.disk_size();
                drop += 1;
            }
            drop
        }
    }
}

/// Builds the replacement archive at `tmp` with the oldest `drop`
/// segments removed — surviving segment bytes are copied verbatim
/// (same encoding, same sequence numbers, same CRCs) — and returns the
/// index describing it. The staging file is fsynced; the caller owns
/// the rename.
///
/// # Errors
///
/// I/O errors reading the source or writing the staging file.
///
/// # Panics
///
/// Panics if `drop` exceeds the segment count.
pub fn stage_retained(
    archive: &Archive,
    drop: usize,
    tmp: &Path,
) -> Result<ArchiveIndex, ArchiveError> {
    let segments = archive.segments();
    assert!(
        drop <= segments.len(),
        "cannot drop more segments than exist"
    );
    let mut src = File::open(archive.path())?;
    let mut bytes = vec![0u8; FILE_HEADER_SIZE];
    src.read_exact(&mut bytes)?;

    let mut index = ArchiveIndex {
        data_len: 0,
        segments: Vec::new(),
        markers: Vec::new(),
    };
    for meta in &segments[drop..] {
        let offset = bytes.len() as u64;
        let size = usize::try_from(meta.header.disk_size()).map_err(|_| ArchiveError::Corrupt {
            offset: meta.offset,
            what: "segment larger than the address space".into(),
        })?;
        let mut raw = vec![0u8; size];
        src.seek(SeekFrom::Start(meta.offset))?;
        src.read_exact(&mut raw)?;
        bytes.extend_from_slice(&raw);
        index.segments.push(IndexSegment {
            offset,
            seq: meta.header.seq,
            frame_count: meta.header.frame_count,
            start_us: meta.header.start_us,
            end_us: meta.header.end_us,
        });
        index.markers.extend_from_slice(&meta.markers);
    }
    index.data_len = bytes.len() as u64;

    let mut file = File::create(tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    Ok(index)
}

/// Offline retention sweep of the archive at `path`: drop expired
/// segments (if any), rename, rewrite sidecars (best effort). A no-op
/// report when nothing has expired.
///
/// # Errors
///
/// Open errors, or I/O errors staging or renaming.
pub fn retain_archive(
    path: impl AsRef<Path>,
    retention: Retention,
    config: PyramidConfig,
) -> Result<CompactReport, ArchiveError> {
    let path = path.as_ref();
    let archive = Archive::open(path)?;
    let before = (archive.segments().len(), archive.sealed_len());
    let drop_count = retained_prefix_drop(&archive, retention);
    if drop_count == 0 {
        return Ok(CompactReport {
            segments_before: before.0,
            segments_after: before.0,
            bytes_before: before.1,
            bytes_after: before.1,
        });
    }
    let tmp = compact_tmp_path_for(path);
    let index = stage_retained(&archive, drop_count, &tmp)?;
    drop(archive);
    std::fs::rename(&tmp, path)?;
    let _ = std::fs::write(index_path_for(path), index.encode());
    let archive = Archive::open(path)?;
    let _ = Pyramid::build(&archive, config).save_for(path);
    Ok(CompactReport {
        segments_before: before.0,
        segments_after: archive.segments().len(),
        bytes_before: before.1,
        bytes_after: archive.sealed_len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_specs_parse() {
        assert_eq!(Retention::parse("90s"), Ok(Retention::Duration(90_000_000)));
        assert_eq!(Retention::parse("250ms"), Ok(Retention::Duration(250_000)));
        assert_eq!(Retention::parse("7us"), Ok(Retention::Duration(7)));
        assert_eq!(Retention::parse("2m"), Ok(Retention::Duration(120_000_000)));
        assert_eq!(
            Retention::parse("1h"),
            Ok(Retention::Duration(3_600_000_000))
        );
        assert_eq!(Retention::parse("512b"), Ok(Retention::Bytes(512)));
        assert_eq!(Retention::parse("64kb"), Ok(Retention::Bytes(64 << 10)));
        assert_eq!(Retention::parse(" 3MB "), Ok(Retention::Bytes(3 << 20)));
        assert_eq!(Retention::parse("1gb"), Ok(Retention::Bytes(1 << 30)));
    }

    #[test]
    fn malformed_retention_specs_are_rejected() {
        for bad in ["", "12", "s", "-5s", "12q", "9999999999999999999gb"] {
            assert!(Retention::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn describe_names_the_window() {
        assert_eq!(Retention::Duration(90).describe(), "last 90 µs");
        assert_eq!(Retention::Bytes(64).describe(), "newest 64 bytes");
    }

    #[test]
    fn tmp_path_sits_beside_the_archive() {
        let tmp = compact_tmp_path_for(Path::new("/data/run.ps3a"));
        assert_eq!(tmp, Path::new("/data/run.ps3a.compact-tmp"));
    }
}
