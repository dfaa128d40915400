//! Archive writers: a synchronous segmented file writer and a
//! background writer with a bounded queue that taps a live
//! [`PowerSensor`](ps3_core::PowerSensor) frame sink.
//!
//! Crash-safety discipline (see the crate docs): a segment is built in
//! memory, appended in one write, and flushed *before* its record is
//! appended to the `.ps3x` log. A crash at any point leaves a file
//! whose sealed prefix is a complete, valid archive, and a log whose
//! whole records describe only sealed segments.

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
use crate::index::{finished_record, index_path_for, ArchiveIndex, IndexSegment};
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

/// Fsyncs the directory holding `path`, so that a file just created
/// there, or renamed over `path`, is still there after a power loss.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = path
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

/// Writes `index` as a fresh log at `path`, returning the handle
/// positioned for the next append.
fn create_log(path: &Path, index: &ArchiveIndex) -> std::io::Result<File> {
    let mut log = File::create(path)?;
    log.write_all(&index.encode())?;
    Ok(log)
}

/// A per-seal maintenance hook (see [`SegmentWriter::set_maintenance`]).
pub type Maintenance = Box<dyn FnMut(&mut SegmentWriter) -> Result<(), ArchiveError> + Send>;

/// Synchronous archive writer: frames in, sealed segments out.
pub struct SegmentWriter {
    path: PathBuf,
    file: File,
    index_path: PathBuf,
    /// Append handle on the `.ps3x` log.
    log: File,
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
        // The log is emptied before the archive is touched, so no
        // record of an earlier capture at this path outlives it.
        let index_path = index_path_for(path);
        let log = create_log(&index_path, &ArchiveIndex::default())?;
        let mut file = File::create(path)?;
        file.write_all(&encode_file_header(&configs))?;
        file.sync_data()?;
        sync_parent_dir(path)?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            index_path,
            log,
            table: PairTable::new(&configs, &AdcSpec::POWERSENSOR3),
            index: ArchiveIndex::default(),
            pending: Vec::with_capacity(segment_frames),
            pending_watts: Vec::with_capacity(segment_frames),
            segment_frames,
            next_seq: 0,
            stats: WriterStats {
                bytes: FILE_HEADER_SIZE as u64,
                ..WriterStats::default()
            },
            maintenance: None,
        })
    }

    /// Installs a maintenance hook that runs after *every* sealed
    /// segment (its index record already appended), on the sealing
    /// thread. The hook layer (e.g. `ps3-tsdb`) uses it for pyramid
    /// upkeep, compaction, and retention; running per seal — not per
    /// drained batch — keeps the on-disk evolution a pure function of
    /// the frame sequence, independent of queue batching.
    pub fn set_maintenance(&mut self, hook: Maintenance) {
        self.maintenance = Some(hook);
    }

    /// The archive file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The in-memory index: a record for every segment sealed so far.
    #[must_use]
    pub fn index(&self) -> &ArchiveIndex {
        &self.index
    }

    /// Replaces the sealed portion of the archive with the complete,
    /// already-built archive file at `staged` — the adopt half of the
    /// compactor's write-new-then-atomic-rename protocol. The staged
    /// file is flushed, atomically renamed over the live path (and the
    /// rename made durable), and the writer re-seats its append
    /// handle, sequence counter and index on the new layout, writing
    /// `index` as a fresh log. Pending unsealed frames are untouched
    /// and seal on top of the adopted file. A crash before the rename
    /// leaves the original archive intact; a crash after it leaves the
    /// rewritten one — both valid, and a log still describing the old
    /// layout is refused at its first record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; an error before the rename leaves
    /// the original file in place.
    pub fn adopt_rewritten(
        &mut self,
        staged: &Path,
        index: ArchiveIndex,
    ) -> Result<(), ArchiveError> {
        OpenOptions::new().write(true).open(staged)?.sync_all()?;
        std::fs::rename(staged, &self.path)?;
        sync_parent_dir(&self.path)?;
        let mut file = OpenOptions::new().write(true).open(&self.path)?;
        self.stats.bytes = file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.next_seq = index.segments.last().map_or(0, |s| s.seq + 1);
        self.log = create_log(&self.index_path, &index)?;
        self.index = index;
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
    /// Once the archive is synced, appends the `Finished { dropped }`
    /// record to the log (best effort, like every log append).
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
        self.append_log(&finished_record(dropped));
        Ok(self.stats)
    }

    fn seal_segment(&mut self) -> Result<(), ArchiveError> {
        let bytes = build_segment(self.next_seq, &self.pending, &self.pending_watts);
        self.file.write_all(&bytes)?;
        self.file.sync_data()?;
        let record = IndexSegment {
            offset: self.stats.bytes,
            seq: self.next_seq,
            frame_count: self.pending.len() as u32,
            start_us: self.pending[0].time.as_micros(),
            end_us: self.pending[self.pending.len() - 1].time.as_micros(),
        };
        self.index.segments.push(record);
        self.stats.frames += self.pending.len() as u64;
        self.stats.segments += 1;
        self.stats.bytes += bytes.len() as u64;
        self.next_seq += 1;
        self.pending.clear();
        self.pending_watts.clear();
        // The log is derived data: appended to only after the segment
        // is durable, and a torn append just lengthens the open's scan.
        self.append_log(&record.record());
        // The maintenance hook sees every seal exactly once, so any
        // policy it implements is deterministic in the frame sequence.
        if let Some(mut hook) = self.maintenance.take() {
            let outcome = hook(self);
            self.maintenance = Some(hook);
            outcome?;
        }
        Ok(())
    }

    fn append_log(&mut self, record: &[u8]) {
        let _ = self.log.write_all(record);
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
