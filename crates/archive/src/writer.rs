//! Archive writers: a synchronous segmented file writer and a
//! background writer with a bounded queue that taps a live
//! [`PowerSensor`](ps3_core::PowerSensor) frame sink.
//!
//! Crash-safety discipline (see the crate docs): a segment is built in
//! memory, appended in one write, and flushed *before* the sidecar
//! index is rewritten to cover it. A crash at any point leaves a file
//! whose sealed prefix is a complete, valid archive.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use ps3_core::{FrameRecord, PowerSensor};
use ps3_firmware::{PairTable, SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;

use crate::format::{encode_file_header, ArchiveError, DEFAULT_SEGMENT_FRAMES, FILE_HEADER_SIZE};
use crate::index::{index_path_for, ArchiveIndex, IndexSegment};
use crate::segment::{build_segment, ArchiveFrame};

/// Counters reported when a writer finishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Frames written into sealed segments.
    pub frames: u64,
    /// Sealed segments.
    pub segments: u64,
    /// Total archive size on disk, header included (bytes).
    pub bytes: u64,
    /// Frames dropped because the background queue was full (always 0
    /// for the synchronous writer).
    pub dropped: u64,
}

impl WriterStats {
    /// Sidecar text form: `key=value` lines.
    #[must_use]
    pub fn encode_text(&self) -> String {
        format!(
            "frames={}\nsegments={}\nbytes={}\ndropped={}\n",
            self.frames, self.segments, self.bytes, self.dropped
        )
    }

    /// Parses [`WriterStats::encode_text`] output; `None` on any
    /// malformed or missing field.
    #[must_use]
    pub fn decode_text(text: &str) -> Option<Self> {
        let mut stats = Self::default();
        let mut seen = 0u8;
        for line in text.lines() {
            let (key, value) = line.split_once('=')?;
            let value: u64 = value.trim().parse().ok()?;
            match key {
                "frames" => (stats.frames, seen) = (value, seen | 1),
                "segments" => (stats.segments, seen) = (value, seen | 2),
                "bytes" => (stats.bytes, seen) = (value, seen | 4),
                "dropped" => (stats.dropped, seen) = (value, seen | 8),
                _ => {} // forward compatibility: ignore unknown keys
            }
        }
        (seen == 0b1111).then_some(stats)
    }

    /// Loads the stats sidecar written when the archive's writer
    /// finished. `None` when absent (the capture crashed before
    /// finishing, or predates stats sidecars) or unparsable.
    #[must_use]
    pub fn load_for(archive: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(stats_path_for(archive)).ok()?;
        Self::decode_text(&text)
    }
}

/// Sidecar path holding a finished writer's [`WriterStats`]
/// (`trace.ps3a` → `trace.ps3s`), mirroring [`index_path_for`].
#[must_use]
pub fn stats_path_for(archive: &Path) -> PathBuf {
    if archive.extension().is_some_and(|e| e == "ps3a") {
        archive.with_extension("ps3s")
    } else {
        let mut name = archive.as_os_str().to_os_string();
        name.push(".ps3s");
        PathBuf::from(name)
    }
}

/// A per-seal maintenance hook (see [`SegmentWriter::set_maintenance`]).
pub type Maintenance = Box<dyn FnMut(&mut SegmentWriter) -> Result<(), ArchiveError> + Send>;

/// Synchronous archive writer: frames in, sealed segments out.
pub struct SegmentWriter {
    path: PathBuf,
    file: File,
    index_path: PathBuf,
    stats_path: PathBuf,
    /// Each frame's total power at push, bit-identical to
    /// [`frame_total`](crate::segment::frame_total).
    table: PairTable,
    index: ArchiveIndex,
    pending: Vec<ArchiveFrame>,
    pending_watts: Vec<f64>,
    segment_frames: usize,
    next_seq: u32,
    stats: WriterStats,
    maintenance: Option<Maintenance>,
}

impl std::fmt::Debug for SegmentWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentWriter")
            .field("path", &self.path)
            .field("next_seq", &self.next_seq)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SegmentWriter {
    /// Creates (truncating) an archive at `path` with the default
    /// segment size of [`DEFAULT_SEGMENT_FRAMES`] frames.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(
        path: impl AsRef<Path>,
        configs: [SensorConfig; SENSOR_SLOTS],
    ) -> Result<Self, ArchiveError> {
        Self::create_with(path, configs, DEFAULT_SEGMENT_FRAMES)
    }

    /// Like [`SegmentWriter::create`] with an explicit segment size
    /// (frames per sealed segment; smaller segments lose less on a
    /// crash and cost a little compression).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    ///
    /// # Panics
    ///
    /// Panics if `segment_frames` is zero.
    pub fn create_with(
        path: impl AsRef<Path>,
        configs: [SensorConfig; SENSOR_SLOTS],
        segment_frames: usize,
    ) -> Result<Self, ArchiveError> {
        assert!(segment_frames > 0, "segments hold at least one frame");
        let path = path.as_ref();
        let mut file = File::create(path)?;
        file.write_all(&encode_file_header(&configs))?;
        file.sync_data()?;
        // A finished capture leaves a stats sidecar; scrub any stale
        // one now so its presence always means *this* capture finished.
        let stats_path = stats_path_for(path);
        let _ = std::fs::remove_file(&stats_path);
        let writer = Self {
            path: path.to_path_buf(),
            file,
            index_path: index_path_for(path),
            stats_path,
            table: PairTable::new(&configs, &AdcSpec::POWERSENSOR3),
            index: ArchiveIndex {
                data_len: FILE_HEADER_SIZE as u64,
                segments: Vec::new(),
                markers: Vec::new(),
            },
            pending: Vec::with_capacity(segment_frames),
            pending_watts: Vec::with_capacity(segment_frames),
            segment_frames,
            next_seq: 0,
            stats: WriterStats {
                bytes: FILE_HEADER_SIZE as u64,
                ..WriterStats::default()
            },
            maintenance: None,
        };
        writer.rewrite_index();
        Ok(writer)
    }

    /// Installs a maintenance hook that runs after *every* sealed
    /// segment (index already rewritten), on the sealing thread. The
    /// hook layer (e.g. `ps3-tsdb`) uses it for pyramid upkeep,
    /// compaction, and retention; running per seal — not per drained
    /// batch — keeps the on-disk evolution a pure function of the
    /// frame sequence, independent of queue batching.
    pub fn set_maintenance(&mut self, hook: Maintenance) {
        self.maintenance = Some(hook);
    }

    /// The archive file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The in-memory sidecar index covering everything sealed so far.
    #[must_use]
    pub fn index(&self) -> &ArchiveIndex {
        &self.index
    }

    /// Replaces the sealed portion of the archive with the complete,
    /// already-built archive file at `staged` — the adopt half of the
    /// compactor's write-new-then-atomic-rename protocol. The staged
    /// file is flushed, atomically renamed over the live path, and the
    /// writer re-seats its append handle, sequence counter, and index
    /// on the new layout. Pending unsealed frames are untouched and
    /// seal on top of the adopted file. A crash before the rename
    /// leaves the original archive intact; a crash after it leaves the
    /// rewritten one — both valid.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the original file is
    /// still in place (rename either happened or did not).
    pub fn adopt_rewritten(
        &mut self,
        staged: &Path,
        index: ArchiveIndex,
    ) -> Result<(), ArchiveError> {
        OpenOptions::new().write(true).open(staged)?.sync_all()?;
        std::fs::rename(staged, &self.path)?;
        let mut file = OpenOptions::new().write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.next_seq = index.segments.last().map_or(0, |s| s.seq + 1);
        self.stats.bytes = index.data_len;
        self.index = index;
        self.rewrite_index();
        Ok(())
    }

    /// Appends one frame, sealing a segment when the configured size
    /// is reached.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from sealing.
    pub fn push(&mut self, frame: ArchiveFrame) -> Result<(), ArchiveError> {
        let watts = self.table.total(&frame.raw, frame.present).value();
        self.pending.push(frame);
        self.pending_watts.push(watts);
        if self.pending.len() >= self.segment_frames {
            self.seal_segment()?;
        }
        Ok(())
    }

    /// Frames accepted so far (sealed or pending).
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.stats.frames + self.pending.len() as u64
    }

    /// Segments sealed so far.
    #[must_use]
    pub fn segments(&self) -> u64 {
        self.stats.segments
    }

    /// Seals all pending frames and returns the final counters.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish(self) -> Result<WriterStats, ArchiveError> {
        self.finish_with_dropped(0)
    }

    /// [`SegmentWriter::finish`] with an externally tracked drop count
    /// folded into the stats (the background writer's queue drops).
    /// On success, writes the stats sidecar (best effort — the sidecar
    /// is advisory metadata, never worth failing a durable archive
    /// over).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish_with_dropped(mut self, dropped: u64) -> Result<WriterStats, ArchiveError> {
        if !self.pending.is_empty() {
            self.seal_segment()?;
        }
        self.file.sync_all()?;
        self.stats.dropped = dropped;
        let _ = std::fs::write(&self.stats_path, self.stats.encode_text());
        Ok(self.stats)
    }

    fn seal_segment(&mut self) -> Result<(), ArchiveError> {
        let bytes = build_segment(self.next_seq, &self.pending, &self.pending_watts);
        self.file.write_all(&bytes)?;
        self.file.sync_data()?;
        let first = self.pending[0].time.as_micros();
        let last = self.pending[self.pending.len() - 1].time.as_micros();
        self.index.segments.push(IndexSegment {
            offset: self.index.data_len,
            seq: self.next_seq,
            frame_count: self.pending.len() as u32,
            start_us: first,
            end_us: last,
        });
        self.index.markers.extend(
            self.pending
                .iter()
                .filter_map(|f| f.marker.map(|label| (f.time.as_micros(), label))),
        );
        self.index.data_len += bytes.len() as u64;
        self.stats.frames += self.pending.len() as u64;
        self.stats.segments += 1;
        self.stats.bytes = self.index.data_len;
        self.next_seq += 1;
        self.pending.clear();
        self.pending_watts.clear();
        // The index is derived data: written only after the segment is
        // durable, and a torn index write just forces a rescan on open.
        self.rewrite_index();
        // The maintenance hook sees every seal exactly once, so any
        // policy it implements is deterministic in the frame sequence.
        if let Some(mut hook) = self.maintenance.take() {
            let outcome = hook(self);
            self.maintenance = Some(hook);
            outcome?;
        }
        Ok(())
    }

    fn rewrite_index(&self) {
        let _ = std::fs::write(&self.index_path, self.index.encode());
    }
}

/// Options for [`ArchiveWriter::spawn`].
#[derive(Debug, Clone, Copy)]
pub struct ArchiveWriterOptions {
    /// Frames per sealed segment.
    pub segment_frames: usize,
    /// Bounded queue depth in frames; at 20 kHz the default (65536)
    /// buffers ~3 s of backlog before frames are dropped (and counted).
    pub queue_capacity: usize,
}

impl Default for ArchiveWriterOptions {
    fn default() -> Self {
        Self {
            segment_frames: DEFAULT_SEGMENT_FRAMES,
            queue_capacity: 65_536,
        }
    }
}

struct QueueState {
    queue: Vec<ArchiveFrame>,
    closed: bool,
}

struct WriterShared {
    state: Mutex<QueueState>,
    cond: Condvar,
    failed: AtomicBool,
    capacity: usize,
    /// Live counters, readable at any time without touching the queue
    /// lock the acquisition path contends on.
    dropped: AtomicU64,
    frames_written: AtomicU64,
    segments_sealed: AtomicU64,
}

/// Background archive writer: a worker thread drains a bounded frame
/// queue into a [`SegmentWriter`], so the 20 kHz acquisition path
/// never blocks on disk I/O. Feed it through [`ArchiveWriter::sink`]
/// (attachable to a live sensor via
/// [`PowerSensor::add_chunk_sink`]) and close it with
/// [`ArchiveWriter::finish`]. Frames arrive a chunk at a time: one
/// queue lock and at most one worker wake-up per chunk.
pub struct ArchiveWriter {
    shared: Arc<WriterShared>,
    worker: Option<JoinHandle<Result<WriterStats, ArchiveError>>>,
}

impl ArchiveWriter {
    /// Creates the archive file and starts the worker thread.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the archive.
    pub fn spawn(
        path: impl AsRef<Path>,
        configs: [SensorConfig; SENSOR_SLOTS],
        options: ArchiveWriterOptions,
    ) -> Result<Self, ArchiveError> {
        Self::spawn_inner(path, configs, options, None)
    }

    /// [`ArchiveWriter::spawn`] with a per-seal maintenance hook
    /// installed on the underlying [`SegmentWriter`] (see
    /// [`SegmentWriter::set_maintenance`]). The hook runs on the
    /// worker thread between seals, so it may rewrite the archive
    /// (compaction, retention) without ever blocking the acquisition
    /// path — producers only touch the bounded queue.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the archive.
    pub fn spawn_with_maintenance(
        path: impl AsRef<Path>,
        configs: [SensorConfig; SENSOR_SLOTS],
        options: ArchiveWriterOptions,
        maintenance: Maintenance,
    ) -> Result<Self, ArchiveError> {
        Self::spawn_inner(path, configs, options, Some(maintenance))
    }

    fn spawn_inner(
        path: impl AsRef<Path>,
        configs: [SensorConfig; SENSOR_SLOTS],
        options: ArchiveWriterOptions,
        maintenance: Option<Maintenance>,
    ) -> Result<Self, ArchiveError> {
        let mut writer = SegmentWriter::create_with(path, configs, options.segment_frames)?;
        if let Some(hook) = maintenance {
            writer.set_maintenance(hook);
        }
        let shared = Arc::new(WriterShared {
            state: Mutex::new(QueueState {
                queue: Vec::with_capacity(options.queue_capacity.min(65_536)),
                closed: false,
            }),
            cond: Condvar::new(),
            failed: AtomicBool::new(false),
            capacity: options.queue_capacity.max(1),
            dropped: AtomicU64::new(0),
            frames_written: AtomicU64::new(0),
            segments_sealed: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("ps3-archive-writer".into())
            .spawn(move || Self::worker_loop(&worker_shared, writer))
            .map_err(ArchiveError::Io)?;
        Ok(Self {
            shared,
            worker: Some(worker),
        })
    }

    fn worker_loop(
        shared: &WriterShared,
        mut writer: SegmentWriter,
    ) -> Result<WriterStats, ArchiveError> {
        // The queue and this spare trade places on every wake, so
        // neither is reallocated once both have grown.
        let mut batch = Vec::new();
        loop {
            let closed = {
                let mut st = shared.state.lock();
                while st.queue.is_empty() && !st.closed {
                    shared.cond.wait_for(&mut st, Duration::from_millis(100));
                }
                std::mem::swap(&mut st.queue, &mut batch);
                st.closed
            };
            if batch.is_empty() && closed {
                break;
            }
            for frame in batch.drain(..) {
                if let Err(e) = writer.push(frame) {
                    shared.failed.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            }
            shared
                .frames_written
                .store(writer.frames(), Ordering::SeqCst);
            shared
                .segments_sealed
                .store(writer.segments(), Ordering::SeqCst);
        }
        let dropped = shared.dropped.load(Ordering::SeqCst);
        match writer.finish_with_dropped(dropped) {
            Ok(stats) => Ok(stats),
            Err(e) => {
                shared.failed.store(true, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    /// Enqueues a chunk of frames directly (the sink does the same):
    /// the frames that fit under `queue_capacity`, in order, and the
    /// rest dropped and counted. Returns `false` once the writer has
    /// failed or been closed.
    pub fn push(&self, frames: &[ArchiveFrame]) -> bool {
        Self::enqueue(&self.shared, frames)
    }

    fn enqueue(shared: &WriterShared, frames: &[ArchiveFrame]) -> bool {
        if shared.failed.load(Ordering::SeqCst) {
            return false;
        }
        let mut st = shared.state.lock();
        if st.closed {
            return false;
        }
        let fit = frames
            .len()
            .min(shared.capacity.saturating_sub(st.queue.len()));
        if fit < frames.len() {
            shared
                .dropped
                .fetch_add((frames.len() - fit) as u64, Ordering::SeqCst);
        }
        if fit > 0 {
            st.queue.extend_from_slice(&frames[..fit]);
            shared.cond.notify_one();
        }
        true
    }

    /// A chunk sink that feeds this writer; pass it to
    /// [`PowerSensor::add_chunk_sink`]. The sink detaches itself (by
    /// returning `false`) once the writer fails or is finished.
    pub fn sink(&self) -> impl FnMut(&[FrameRecord]) -> bool + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move |frames: &[FrameRecord]| Self::enqueue(&shared, frames)
    }

    /// Attaches this writer to a live sensor's acquisition path.
    pub fn attach(&self, sensor: &PowerSensor) {
        sensor.add_chunk_sink(self.sink());
    }

    /// Frames dropped so far because the queue was full. Live and
    /// lock-free: readable while the capture runs, not just from the
    /// final [`WriterStats`].
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::SeqCst)
    }

    /// Frames the worker has accepted into the archive so far (sealed
    /// or pending in the current segment). Live and lock-free.
    #[must_use]
    pub fn frames_written(&self) -> u64 {
        self.shared.frames_written.load(Ordering::SeqCst)
    }

    /// Segments sealed on disk so far. Live and lock-free.
    #[must_use]
    pub fn segments_sealed(&self) -> u64 {
        self.shared.segments_sealed.load(Ordering::SeqCst)
    }

    /// Closes the queue, drains it, seals the tail segment, and
    /// returns the final counters.
    ///
    /// # Errors
    ///
    /// Surfaces any filesystem error the worker hit.
    ///
    /// # Panics
    ///
    /// Panics if the worker thread itself panicked.
    pub fn finish(mut self) -> Result<WriterStats, ArchiveError> {
        self.close();
        let worker = self.worker.take().expect("finish runs once");
        worker.join().expect("archive writer thread panicked")
    }

    fn close(&self) {
        self.shared.state.lock().closed = true;
        self.shared.cond.notify_all();
    }
}

impl Drop for ArchiveWriter {
    fn drop(&mut self) {
        self.close();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ArchiveWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArchiveWriter")
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_stats_sidecar_roundtrips() {
        let stats = WriterStats {
            frames: 12_345,
            segments: 13,
            bytes: 987_654,
            dropped: 7,
        };
        assert_eq!(WriterStats::decode_text(&stats.encode_text()), Some(stats));
        // Unknown keys are tolerated; missing required keys are not.
        let extended = format!("{}future=1\n", stats.encode_text());
        assert_eq!(WriterStats::decode_text(&extended), Some(stats));
        assert_eq!(WriterStats::decode_text("frames=1\nsegments=2\n"), None);
        assert_eq!(WriterStats::decode_text("frames=x\n"), None);
    }

    #[test]
    fn stats_path_mirrors_index_naming() {
        assert_eq!(
            stats_path_for(Path::new("/x/trace.ps3a")),
            PathBuf::from("/x/trace.ps3s")
        );
        assert_eq!(
            stats_path_for(Path::new("/x/trace")),
            PathBuf::from("/x/trace.ps3s")
        );
    }
}
