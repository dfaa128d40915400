//! The archive reader: open, exact reads, and verification.
//!
//! [`Archive::open`] trusts the `.ps3x` sidecar index only when its
//! CRC checks out *and* it describes exactly the bytes on disk;
//! otherwise it falls back to a sequential scan that keeps every
//! CRC-valid sealed segment and ignores a torn tail — so a capture
//! killed mid-write still opens, minus at most its unsealed frames.
//!
//! [`Archive::read_range`] re-derives physical units from the stored
//! raw codes with the stored sensor configuration, using the same
//! operations in the same order as the live acquisition path, so the
//! result is byte-identical to the live [`Trace`] (markers included).
//! The aggregate queries (`stats`, `energy`, `downsample`, …) live in
//! the `query` module: one tiered walk over the summary blocks that
//! decodes only the blocks a range cuts through.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use ps3_analysis::Trace;
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_units::SimTime;

use crate::crc::crc32;
use crate::format::{
    decode_file_header, read_u32, ArchiveError, FILE_HEADER_SIZE, MARKER_WIRE_SIZE, SEAL_MAGIC,
    SEGMENT_HEADER_SIZE, SEGMENT_TRAILER_SIZE, SUMMARY_WIRE_SIZE,
};
use crate::index::{index_path_for, ArchiveIndex};
use crate::segment::{
    build_summaries, decode_payload, frame_total, parse_markers, parse_summaries, ArchiveFrame,
    SegmentHeader, SummaryBlock,
};

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
    /// The segment's marker table: `(time µs, label)`.
    pub markers: Vec<(u64, char)>,
}

impl SegmentMeta {
    fn payload_offset(&self) -> u64 {
        self.offset
            + (SEGMENT_HEADER_SIZE
                + self.header.summary_count as usize * SUMMARY_WIRE_SIZE
                + self.header.marker_count as usize * MARKER_WIRE_SIZE) as u64
    }
}

/// How an archive was opened and what, if anything, was left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` when the sidecar index was valid and used; `false` when
    /// the archive was sequentially scanned.
    pub used_index: bool,
    /// Bytes of unsealed (torn) tail after the last valid segment.
    pub trailing_bytes: u64,
}

/// Result of a full [`Archive::verify`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Segments that passed every check.
    pub segments_ok: u64,
    /// Frames across those segments.
    pub frames: u64,
    /// Bytes of torn tail after the last valid segment.
    pub trailing_bytes: u64,
    /// Human-readable descriptions of every problem found.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// `true` when every byte of the file is accounted for by valid
    /// sealed segments.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.trailing_bytes == 0
    }
}

/// A read-only handle on a `.ps3a` archive.
#[derive(Debug)]
pub struct Archive {
    path: PathBuf,
    file: Mutex<File>,
    configs: [SensorConfig; SENSOR_SLOTS],
    adc: AdcSpec,
    segments: Vec<SegmentMeta>,
    markers: Vec<(u64, char)>,
    recovery: RecoveryReport,
}

fn read_at(file: &mut File, offset: u64, len: usize) -> Result<Vec<u8>, ArchiveError> {
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len];
    file.read_exact(&mut buf)?;
    Ok(buf)
}

impl Archive {
    /// Opens an archive, recovering past any torn tail.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::NotAnArchive`] / [`ArchiveError::Corrupt`] when
    /// even the file header is unusable, [`ArchiveError::Io`] on
    /// filesystem failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ArchiveError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut header = Vec::with_capacity(FILE_HEADER_SIZE);
        file.by_ref()
            .take(FILE_HEADER_SIZE as u64)
            .read_to_end(&mut header)?;
        let configs = decode_file_header(&header)?;

        let (segments, recovery) = match Self::try_index(&path, &mut file, file_len) {
            Some(segments) => (
                segments,
                RecoveryReport {
                    used_index: true,
                    trailing_bytes: 0,
                },
            ),
            None => {
                let (segments, sealed_len) = Self::scan(&mut file, file_len)?;
                (
                    segments,
                    RecoveryReport {
                        used_index: false,
                        trailing_bytes: file_len - sealed_len,
                    },
                )
            }
        };
        let mut markers: Vec<(u64, char)> = Vec::new();
        for seg in &segments {
            markers.extend_from_slice(&seg.markers);
        }
        Ok(Self {
            path,
            file: Mutex::new(file),
            configs,
            adc: AdcSpec::POWERSENSOR3,
            segments,
            markers,
            recovery,
        })
    }

    /// Loads segment metadata through the sidecar index. Any
    /// inconsistency — missing or damaged sidecar, stale `data_len`,
    /// index records that disagree with the file — returns `None` and
    /// the caller falls back to a full scan.
    fn try_index(path: &Path, file: &mut File, file_len: u64) -> Option<Vec<SegmentMeta>> {
        let bytes = std::fs::read(index_path_for(path)).ok()?;
        let index = ArchiveIndex::decode(&bytes).ok()?;
        if index.data_len != file_len {
            return None;
        }
        let mut segments = Vec::with_capacity(index.segments.len());
        for rec in &index.segments {
            let hdr = read_at(file, rec.offset, SEGMENT_HEADER_SIZE).ok()?;
            let header = SegmentHeader::parse(&hdr, rec.offset).ok()?;
            if header.seq != rec.seq
                || header.frame_count != rec.frame_count
                || header.start_us != rec.start_us
                || header.end_us != rec.end_us
                || rec.offset + header.disk_size() > file_len
            {
                return None;
            }
            let tables_len = header.summary_count as usize * SUMMARY_WIRE_SIZE
                + header.marker_count as usize * MARKER_WIRE_SIZE;
            let tables = read_at(file, rec.offset + SEGMENT_HEADER_SIZE as u64, tables_len).ok()?;
            let summaries = parse_summaries(&tables, header.summary_count as usize);
            let markers = parse_markers(
                &tables[header.summary_count as usize * SUMMARY_WIRE_SIZE..],
                header.marker_count as usize,
            );
            segments.push(SegmentMeta {
                offset: rec.offset,
                header,
                summaries,
                markers,
            });
        }
        Some(segments)
    }

    /// Sequentially scans the archive, keeping every CRC-valid sealed
    /// segment and stopping at the first sign of damage. Returns the
    /// metadata plus the length of the valid sealed prefix.
    fn scan(file: &mut File, file_len: u64) -> Result<(Vec<SegmentMeta>, u64), ArchiveError> {
        let mut segments = Vec::new();
        let mut offset = FILE_HEADER_SIZE as u64;
        while offset + (SEGMENT_HEADER_SIZE + SEGMENT_TRAILER_SIZE) as u64 <= file_len {
            let hdr = read_at(file, offset, SEGMENT_HEADER_SIZE)?;
            let Ok(header) = SegmentHeader::parse(&hdr, offset) else {
                break;
            };
            let size = header.disk_size();
            if offset + size > file_len {
                break;
            }
            let bytes = read_at(file, offset, size as usize)?;
            let body_len = size as usize - SEGMENT_TRAILER_SIZE;
            let stored_crc = read_u32(&bytes, body_len);
            let seal = read_u32(&bytes, body_len + 4);
            if seal != SEAL_MAGIC || crc32(&bytes[..body_len]) != stored_crc {
                break;
            }
            let summaries =
                parse_summaries(&bytes[SEGMENT_HEADER_SIZE..], header.summary_count as usize);
            let markers_at =
                SEGMENT_HEADER_SIZE + header.summary_count as usize * SUMMARY_WIRE_SIZE;
            let markers = parse_markers(&bytes[markers_at..], header.marker_count as usize);
            segments.push(SegmentMeta {
                offset,
                header,
                summaries,
                markers,
            });
            offset += size;
        }
        Ok((segments, offset))
    }

    /// The sensor configuration the archive was recorded with.
    #[must_use]
    pub fn configs(&self) -> &[SensorConfig; SENSOR_SLOTS] {
        &self.configs
    }

    /// The ADC model used to convert raw codes to physical units.
    #[must_use]
    pub fn adc(&self) -> &AdcSpec {
        &self.adc
    }

    /// Decodes one segment's payload into frames (for replay-style
    /// consumers that want raw frames rather than a [`Trace`]).
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn decode_segment_frames(
        &self,
        meta: &SegmentMeta,
    ) -> Result<Vec<ArchiveFrame>, ArchiveError> {
        let payload = read_at(
            &mut self.file.lock(),
            meta.payload_offset(),
            meta.header.payload_len as usize,
        )?;
        decode_payload(&meta.header, &payload, meta.offset)
    }

    /// The archive file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Metadata of every sealed segment, in file order.
    #[must_use]
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Every marker in the archive: `(time µs, label)`, in time order.
    #[must_use]
    pub fn markers(&self) -> &[(u64, char)] {
        &self.markers
    }

    /// How the archive was opened (index fast path vs. recovery scan)
    /// and how many torn-tail bytes were skipped.
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Byte length of the sealed prefix: the file header plus every
    /// sealed segment. Derived data keyed to the archive (the `.ps3x`
    /// index, the `.ps3p` pyramid) records this to detect staleness.
    #[must_use]
    pub fn sealed_len(&self) -> u64 {
        self.segments
            .last()
            .map_or(FILE_HEADER_SIZE as u64, |s| s.offset + s.header.disk_size())
    }

    /// Total frames across all sealed segments.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| u64::from(s.header.frame_count))
            .sum()
    }

    /// Timestamp of the first archived frame.
    #[must_use]
    pub fn start_time(&self) -> Option<SimTime> {
        self.segments
            .first()
            .map(|s| SimTime::from_micros(s.header.start_us))
    }

    /// Timestamp of the last archived frame.
    #[must_use]
    pub fn end_time(&self) -> Option<SimTime> {
        self.segments
            .last()
            .map(|s| SimTime::from_micros(s.header.end_us))
    }

    /// Indices of the segments whose time span intersects `[start, end)`.
    pub(crate) fn overlapping(
        &self,
        start: SimTime,
        end: SimTime,
    ) -> impl Iterator<Item = usize> + '_ {
        let (start_us, end_us) = (start.as_micros(), end.as_micros().saturating_add(1));
        self.segments
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.header.start_us < end_us && s.header.end_us >= start_us)
            .map(|(i, _)| i)
    }

    /// Reads `[start, end)` as a [`Trace`], byte-identical to what the
    /// live continuous mode produced over the same range — samples and
    /// markers both.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn read_range(&self, start: SimTime, end: SimTime) -> Result<Trace, ArchiveError> {
        let capacity: u64 = self
            .overlapping(start, end)
            .map(|i| u64::from(self.segments[i].header.frame_count))
            .sum();
        let mut trace = Trace::with_capacity(capacity as usize);
        self.read_range_into(start, end, &mut trace)?;
        Ok(trace)
    }

    /// [`Archive::read_range`] into a caller-owned trace, which is
    /// cleared first; repeated reads reuse its allocations.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn read_range_into(
        &self,
        start: SimTime,
        end: SimTime,
        out: &mut Trace,
    ) -> Result<(), ArchiveError> {
        out.clear();
        for i in self.overlapping(start, end) {
            for frame in self.decode_segment_frames(&self.segments[i])? {
                if frame.time < start || frame.time >= end {
                    continue;
                }
                // Same call order as the live acquisition path:
                // sample first, then its marker.
                out.push(frame.time, frame_total(&self.configs, &self.adc, &frame));
                if let Some(label) = frame.marker {
                    out.mark(frame.time, label);
                }
            }
        }
        Ok(())
    }

    /// Reads the entire archive as a [`Trace`].
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn read_all(&self) -> Result<Trace, ArchiveError> {
        match (self.start_time(), self.end_time()) {
            (Some(start), Some(end)) => {
                self.read_range(start, SimTime::from_micros(end.as_micros() + 1))
            }
            _ => Ok(Trace::new()),
        }
    }

    /// Time of the first marker with `label`.
    #[must_use]
    pub fn marker_time(&self, label: char) -> Option<SimTime> {
        self.markers
            .iter()
            .find(|&&(_, l)| l == label)
            .map(|&(t, _)| SimTime::from_micros(t))
    }

    /// Full integrity check: re-reads every segment from disk,
    /// verifies CRCs and seals, decodes every payload, and recomputes
    /// summary blocks and marker tables from the decoded frames. A
    /// torn tail is reported in `trailing_bytes`, not as an error —
    /// it is the expected state after a crash.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Io`] only; structural problems land in the
    /// report.
    pub fn verify(&self) -> Result<VerifyReport, ArchiveError> {
        let mut report = VerifyReport::default();
        let mut file = self.file.lock();
        let file_len = file.metadata()?.len();
        let mut offset = FILE_HEADER_SIZE as u64;
        while offset < file_len {
            if offset + (SEGMENT_HEADER_SIZE + SEGMENT_TRAILER_SIZE) as u64 > file_len {
                break;
            }
            let hdr = read_at(&mut file, offset, SEGMENT_HEADER_SIZE)?;
            let Ok(header) = SegmentHeader::parse(&hdr, offset) else {
                break;
            };
            let size = header.disk_size();
            if offset + size > file_len {
                break;
            }
            let bytes = read_at(&mut file, offset, size as usize)?;
            let body_len = size as usize - SEGMENT_TRAILER_SIZE;
            if read_u32(&bytes, body_len + 4) != SEAL_MAGIC {
                break;
            }
            if crc32(&bytes[..body_len]) != read_u32(&bytes, body_len) {
                report
                    .errors
                    .push(format!("segment at byte {offset}: CRC mismatch"));
                break;
            }
            self.verify_segment(&header, &bytes, offset, &mut report);
            offset += size;
        }
        report.trailing_bytes = file_len - offset;
        Ok(report)
    }

    /// Deep checks on one CRC-valid segment.
    fn verify_segment(
        &self,
        header: &SegmentHeader,
        bytes: &[u8],
        offset: u64,
        report: &mut VerifyReport,
    ) {
        let summaries =
            parse_summaries(&bytes[SEGMENT_HEADER_SIZE..], header.summary_count as usize);
        let markers_at = SEGMENT_HEADER_SIZE + header.summary_count as usize * SUMMARY_WIRE_SIZE;
        let markers = parse_markers(&bytes[markers_at..], header.marker_count as usize);
        let payload_at = markers_at + header.marker_count as usize * MARKER_WIRE_SIZE;
        let payload = &bytes[payload_at..payload_at + header.payload_len as usize];
        let frames = match decode_payload(header, payload, offset) {
            Ok(frames) => frames,
            Err(e) => {
                report.errors.push(e.to_string());
                return;
            }
        };
        if frames.len() != header.frame_count as usize {
            report
                .errors
                .push(format!("segment at byte {offset}: frame count mismatch"));
            return;
        }
        if let (Some(first), Some(last)) = (frames.first(), frames.last()) {
            if first.time.as_micros() != header.start_us || last.time.as_micros() != header.end_us {
                report
                    .errors
                    .push(format!("segment at byte {offset}: time bounds mismatch"));
            }
        }
        let watts: Vec<f64> = frames
            .iter()
            .map(|f| frame_total(&self.configs, &self.adc, f).value())
            .collect();
        if build_summaries(&frames, &watts) != summaries {
            report.errors.push(format!(
                "segment at byte {offset}: summary blocks disagree with payload"
            ));
        }
        let expect_markers: Vec<(u64, char)> = frames
            .iter()
            .filter_map(|f| f.marker.map(|l| (f.time.as_micros(), l)))
            .collect();
        if expect_markers != markers {
            report.errors.push(format!(
                "segment at byte {offset}: marker table disagrees with payload"
            ));
        }
        report.segments_ok += 1;
        report.frames += frames.len() as u64;
    }
}
