//! The archive reader: open, exact reads, and verification.
//!
//! [`Archive::open`] seats the sealed segments in one walk from the
//! file header: first through the `.ps3x` log's records, each checked
//! against the segment header and tables on disk, then, from the end
//! of the last record that matched, by a sequential scan that keeps
//! every CRC-valid sealed segment and ignores a torn tail — so a
//! capture killed mid-write still opens, minus at most its unsealed
//! frames, and a stale or damaged log costs only a longer scan.
//!
//! [`Archive::read_range`] re-derives physical units from the stored
//! raw codes with the stored sensor configuration, using the same
//! operations in the same order as the live acquisition path (looked
//! up per code in a [`PairTable`] built at open), so the result is
//! byte-identical to the live [`Trace`] (markers included).
//! The aggregate queries (`stats`, `energy`, `downsample`, …) live in
//! the `query` module: one tiered walk over the summary blocks that
//! decodes only the runs a range cuts through.

use std::fs::File;
use std::io::Read;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use ps3_analysis::Trace;
use ps3_firmware::{PairTable, SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_units::SimTime;

use crate::crc::crc32;
use crate::format::{
    decode_file_header, read_u32, ArchiveError, FILE_HEADER_SIZE, SEAL_MAGIC, SEGMENT_HEADER_SIZE,
    SEGMENT_TRAILER_SIZE,
};
use crate::index::{index_path_for, ArchiveIndex, IndexSegment};
use crate::segment::{build_summaries, ArchiveFrame, SegmentHeader, SegmentMeta};

/// How an archive was opened and what, if anything, was left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` when the sidecar log was read and the segments its
    /// records describe reach the end of the file; `false` when some
    /// of the archive had to be scanned.
    pub used_index: bool,
    /// Bytes of unsealed (torn) tail after the last valid segment.
    pub trailing_bytes: u64,
    /// `Some(dropped)` when the log ends in the writer's `Finished`
    /// record and every one of its segment records matched the file:
    /// the capture finished cleanly, and its queue dropped `dropped`
    /// frames. `None` for a capture that crashed, is still being
    /// written, or whose log is stale or damaged.
    pub dropped: Option<u64>,
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
    /// Read only through positioned reads ([`read_at`]), so concurrent
    /// queries share it without a lock.
    file: File,
    configs: [SensorConfig; SENSOR_SLOTS],
    adc: AdcSpec,
    /// `configs`' conversion of every code: the watts of every frame
    /// this handle reads.
    table: PairTable,
    segments: Vec<SegmentMeta>,
    markers: Vec<(u64, char)>,
    recovery: RecoveryReport,
}

/// Reads exactly `len` bytes at `offset`, leaving the file cursor
/// alone.
fn read_at(file: &File, offset: u64, len: usize) -> Result<Vec<u8>, ArchiveError> {
    let mut buf = Vec::new();
    read_at_into(file, offset, len, &mut buf)?;
    Ok(buf)
}

/// [`read_at`] into `buf`, which then holds exactly those bytes.
fn read_at_into(
    file: &File,
    offset: u64,
    len: usize,
    buf: &mut Vec<u8>,
) -> Result<(), ArchiveError> {
    buf.clear();
    buf.resize(len, 0);
    file.read_exact_at(buf, offset)?;
    Ok(())
}

impl Archive {
    /// Opens an archive, recovering past any torn tail.
    ///
    /// The sealed segments are seated in one walk from the file
    /// header: through the `.ps3x` log's records while each matches
    /// the file (`Archive::indexed`), then by `Archive::scan` from
    /// the end of the last that did. A missing or unreadable log walks
    /// no records.
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

        let index = std::fs::read(index_path_for(&path))
            .ok()
            .and_then(|bytes| ArchiveIndex::decode(&bytes).ok());
        let records = index.as_ref().map_or(&[][..], |index| &index.segments[..]);
        let mut segments = Vec::with_capacity(records.len());
        let mut offset = FILE_HEADER_SIZE as u64;
        for rec in records {
            let Some(meta) = Self::indexed(&file, file_len, offset, rec) else {
                break;
            };
            offset += meta.header.disk_size();
            segments.push(meta);
        }
        let used_index = index.is_some() && offset == file_len;
        let every_record = segments.len() == records.len();
        let recovery = RecoveryReport {
            used_index,
            trailing_bytes: file_len - Self::scan(&file, file_len, offset, &mut segments)?,
            dropped: index
                .and_then(|index| index.finished)
                .filter(|_| used_index && every_record),
        };
        let mut markers: Vec<(u64, char)> = Vec::new();
        for seg in &segments {
            markers.extend_from_slice(&seg.markers);
        }
        let adc = AdcSpec::POWERSENSOR3;
        Ok(Self {
            path,
            file,
            table: PairTable::new(&configs, &adc),
            configs,
            adc,
            segments,
            markers,
            recovery,
        })
    }

    /// The segment at `offset` when log record `rec` describes it: the
    /// record's offset, sequence number, frame count and time bounds
    /// equal the segment header's, the segment fits in the file, and
    /// its tables pass [`SegmentMeta::parse`]'s CRC and block-layout
    /// checks. The payload is not read: its run tables carry their own
    /// CRCs, checked on every decode.
    fn indexed(file: &File, file_len: u64, offset: u64, rec: &IndexSegment) -> Option<SegmentMeta> {
        if rec.offset != offset {
            return None;
        }
        let hdr = read_at(file, offset, SEGMENT_HEADER_SIZE).ok()?;
        let header = SegmentHeader::parse(&hdr, offset).ok()?;
        if header.seq != rec.seq
            || header.frame_count != rec.frame_count
            || header.start_us != rec.start_us
            || header.end_us != rec.end_us
            || offset + header.disk_size() > file_len
        {
            return None;
        }
        let tables = read_at(
            file,
            offset + SEGMENT_HEADER_SIZE as u64,
            header.tables_len(),
        )
        .ok()?;
        SegmentMeta::parse(offset, header, &tables).ok()
    }

    /// Sequentially scans the archive from `offset`, appending every
    /// CRC-valid sealed segment to `segments` and stopping at the first
    /// sign of damage. Returns the end of the valid sealed prefix.
    fn scan(
        file: &File,
        file_len: u64,
        mut offset: u64,
        segments: &mut Vec<SegmentMeta>,
    ) -> Result<u64, ArchiveError> {
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
            let Ok(meta) = SegmentMeta::parse(offset, header, &bytes[SEGMENT_HEADER_SIZE..]) else {
                break;
            };
            segments.push(meta);
            offset += size;
        }
        Ok(offset)
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

    /// The conversion table of [`Archive::configs`] and
    /// [`Archive::adc`]: every read-side frame total comes from it.
    #[must_use]
    pub(crate) fn table(&self) -> &PairTable {
        &self.table
    }

    /// Decodes one segment's payload into frames (for replay-style
    /// consumers that want raw frames rather than a [`Trace`]), checking
    /// every stored run sum and time against them.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn decode_segment_frames(
        &self,
        meta: &SegmentMeta,
    ) -> Result<Vec<ArchiveFrame>, ArchiveError> {
        self.decode_segment(meta).map(|(frames, _)| frames)
    }

    /// [`Archive::decode_segment_frames`] plus each frame's total power.
    pub(crate) fn decode_segment(
        &self,
        meta: &SegmentMeta,
    ) -> Result<(Vec<ArchiveFrame>, Vec<f64>), ArchiveError> {
        let blocks = 0..meta.summaries.len();
        let mut payload = Vec::new();
        self.read_blocks(meta, &blocks, &mut payload)?;
        let mut frames = Vec::new();
        meta.decode_blocks(blocks, &payload, &mut frames)?;
        let watts: Vec<f64> = frames
            .iter()
            .map(|f| self.table.total(&f.raw, f.present).value())
            .collect();
        meta.check_runs(&payload, &frames, &watts)?;
        Ok((frames, watts))
    }

    /// Decodes summary blocks `blocks` of one segment, appending their
    /// frames to `out`, with one read of exactly their payload bytes.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from block decoding.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` reaches past the segment's last block.
    pub fn decode_blocks_into(
        &self,
        meta: &SegmentMeta,
        blocks: Range<usize>,
        out: &mut Vec<ArchiveFrame>,
    ) -> Result<(), ArchiveError> {
        let mut buf = Vec::new();
        self.read_blocks(meta, &blocks, &mut buf)?;
        meta.decode_blocks(blocks, &buf, out)
    }

    /// Reads exactly the payload bytes of summary blocks `blocks` of
    /// one segment into `buf` ([`SegmentMeta::block_bytes`]).
    ///
    /// # Errors
    ///
    /// I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` reaches past the segment's last block.
    pub(crate) fn read_blocks(
        &self,
        meta: &SegmentMeta,
        blocks: &Range<usize>,
        buf: &mut Vec<u8>,
    ) -> Result<(), ArchiveError> {
        if blocks.is_empty() {
            buf.clear();
            return Ok(());
        }
        let span = meta.block_bytes(blocks);
        read_at_into(
            &self.file,
            meta.payload_offset() + span.start as u64,
            span.len(),
            buf,
        )
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

    /// How the archive was opened (how far the log's records carried
    /// the walk), how many torn-tail bytes were skipped, and whether
    /// the capture's writer finished.
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Byte length of the sealed prefix: the file header plus every
    /// sealed segment. The `.ps3p` pyramid, derived data keyed to the
    /// archive, records this to detect staleness.
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
        let (start_us, end_us) = (start.as_micros(), end.as_micros());
        let capacity: u64 = self
            .overlapping(start, end)
            .flat_map(|i| {
                let meta = &self.segments[i];
                &meta.summaries[meta.blocks_overlapping(start_us, end_us)]
            })
            .map(|block| u64::from(block.count))
            .sum();
        let mut trace = Trace::with_capacity(capacity as usize);
        self.read_range_into(start, end, &mut trace)?;
        Ok(trace)
    }

    /// [`Archive::read_range`] into a caller-owned trace, which is
    /// cleared first; repeated reads reuse its allocations. Only the
    /// summary blocks holding frames in range are read, and only their
    /// runs holding frames in range decoded, each frame straight into
    /// the trace.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding; `out` then
    /// holds an unspecified prefix of the range.
    pub fn read_range_into(
        &self,
        start: SimTime,
        end: SimTime,
        out: &mut Trace,
    ) -> Result<(), ArchiveError> {
        out.clear();
        let (start_us, end_us) = (start.as_micros(), end.as_micros());
        let mut bytes = Vec::new();
        for i in self.overlapping(start, end) {
            let meta = &self.segments[i];
            let blocks = meta.blocks_overlapping(start_us, end_us);
            self.read_blocks(meta, &blocks, &mut bytes)?;
            // Runs with no frame in range are skipped undecoded.
            meta.decode_blocks_to(blocks, &bytes, start_us..end_us, |frame| {
                if frame.time < start || frame.time >= end {
                    return;
                }
                // Same call order as the live acquisition path:
                // sample first, then its marker.
                out.push(frame.time, self.table.total(&frame.raw, frame.present));
                if let Some(label) = frame.marker {
                    out.mark(frame.time, label);
                }
            })?;
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
    /// summary blocks, run tables and marker tables from the decoded
    /// frames. A
    /// torn tail is reported in `trailing_bytes`, not as an error —
    /// it is the expected state after a crash.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Io`] only; structural problems land in the
    /// report.
    pub fn verify(&self) -> Result<VerifyReport, ArchiveError> {
        let mut report = VerifyReport::default();
        let file = &self.file;
        let file_len = file.metadata()?.len();
        let mut offset = FILE_HEADER_SIZE as u64;
        while offset < file_len {
            if offset + (SEGMENT_HEADER_SIZE + SEGMENT_TRAILER_SIZE) as u64 > file_len {
                break;
            }
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
        // The run loop yields exactly `frame_count` frames or fails.
        let payload_at = SEGMENT_HEADER_SIZE + header.tables_len();
        let payload = &bytes[payload_at..payload_at + header.payload_len as usize];
        let decoded =
            SegmentMeta::parse(offset, *header, &bytes[SEGMENT_HEADER_SIZE..]).and_then(|meta| {
                let mut frames = Vec::new();
                meta.decode_blocks(0..meta.summaries.len(), payload, &mut frames)?;
                Ok((meta, frames))
            });
        let (meta, frames) = match decoded {
            Ok(decoded) => decoded,
            Err(e) => {
                report.errors.push(e.to_string());
                return;
            }
        };
        if let (Some(first), Some(last)) = (frames.first(), frames.last()) {
            if first.time.as_micros() != header.start_us || last.time.as_micros() != header.end_us {
                report
                    .errors
                    .push(format!("segment at byte {offset}: time bounds mismatch"));
            }
        }
        let watts: Vec<f64> = frames
            .iter()
            .map(|f| self.table.total(&f.raw, f.present).value())
            .collect();
        if build_summaries(&frames, &watts) != meta.summaries {
            report.errors.push(format!(
                "segment at byte {offset}: summary blocks disagree with payload"
            ));
        }
        if let Err(e) = meta.check_runs(payload, &frames, &watts) {
            report.errors.push(e.to_string());
        }
        let expect_markers: Vec<(u64, char)> = frames
            .iter()
            .filter_map(|f| f.marker.map(|l| (f.time.as_micros(), l)))
            .collect();
        if expect_markers != meta.markers {
            report.errors.push(format!(
                "segment at byte {offset}: marker table disagrees with payload"
            ));
        }
        report.segments_ok += 1;
        report.frames += frames.len() as u64;
    }
}
