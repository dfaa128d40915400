//! The maintained writer: an [`ArchiveWriter`] whose seal-time
//! maintenance hook keeps the pyramid sidecar current, compacts small
//! segments in the background, and enforces the retention window.
//!
//! All maintenance runs on the writer's worker thread, between seals —
//! acquisition never blocks on it (frames keep landing in the bounded
//! queue while a compaction rewrite is in flight). Because the hook
//! fires once per sealed segment and every trigger is a pure function
//! of the sealed-segment count, the on-disk archive evolution is a
//! deterministic function of the frame sequence — which is what lets
//! the simulator replay compaction and retention under crash plans.

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

use std::path::Path;

use ps3_archive::{
    Archive, ArchiveError, ArchiveWriter, ArchiveWriterOptions, SegmentWriter, WriterStats,
};
use ps3_core::{FrameRecord, PowerSensor};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};

use crate::compactor::{
    compact_tmp_path_for, retained_prefix_drop, stage_compacted, stage_retained, Retention,
    DEFAULT_COMPACT_TARGET_FRAMES,
};
use crate::pyramid::{Pyramid, PyramidConfig};

/// Tuning for a [`TsdbWriter`].
#[derive(Debug, Clone, Copy)]
pub struct TsdbWriterOptions {
    /// Frames per sealed segment (see [`ArchiveWriterOptions`]).
    pub segment_frames: usize,
    /// Bounded queue depth in frames (see [`ArchiveWriterOptions`]).
    pub queue_capacity: usize,
    /// Pyramid fan-out maintained at seal time.
    pub config: PyramidConfig,
    /// Compact once this many sealed segments accumulate; `None`
    /// disables background compaction.
    pub compact_after_segments: Option<usize>,
    /// Frames per merged segment when compaction runs.
    pub compact_target_frames: usize,
    /// Drop expired history at seal time; `None` keeps everything.
    pub retention: Option<Retention>,
}

impl Default for TsdbWriterOptions {
    fn default() -> Self {
        let archive = ArchiveWriterOptions::default();
        Self {
            segment_frames: archive.segment_frames,
            queue_capacity: archive.queue_capacity,
            config: PyramidConfig::default(),
            compact_after_segments: None,
            compact_target_frames: DEFAULT_COMPACT_TARGET_FRAMES,
            retention: None,
        }
    }
}

/// An [`ArchiveWriter`] with seal-time pyramid maintenance, background
/// compaction, and retention. Drop-in: same `sink`/`attach`/`push`/
/// `finish` surface.
#[derive(Debug)]
pub struct TsdbWriter {
    inner: ArchiveWriter,
}

fn maintain(
    writer: &mut SegmentWriter,
    pyramid: &mut Pyramid,
    options: &TsdbWriterOptions,
) -> Result<(), ArchiveError> {
    let path = writer.path().to_path_buf();
    // 1. Extend the pyramid over segments sealed since the last pass —
    //    normally exactly one — straight from the fresh index records.
    let new: Vec<_> = writer.index().segments[pyramid.segments.len()..].to_vec();
    for rec in &new {
        pyramid.append_from_index(&path, rec)?;
    }
    // 2. Compact when enough small segments have piled up.
    if let Some(threshold) = options.compact_after_segments {
        if writer.index().segments.len() >= threshold.max(2) {
            let archive = Archive::open(&path)?;
            let tmp = compact_tmp_path_for(&path);
            let index = stage_compacted(&archive, options.compact_target_frames, &tmp)?;
            drop(archive);
            writer.adopt_rewritten(&tmp, index)?;
            *pyramid = Pyramid::build(&Archive::open(&path)?, options.config);
        }
    }
    // 3. Enforce the retention window: drop whole expired segments and
    //    their pyramid subtrees.
    if let Some(retention) = options.retention {
        let archive = Archive::open(&path)?;
        let drop_count = retained_prefix_drop(&archive, retention);
        if drop_count > 0 {
            let tmp = compact_tmp_path_for(&path);
            let index = stage_retained(&archive, drop_count, &tmp)?;
            drop(archive);
            let data_len = index.data_len;
            writer.adopt_rewritten(&tmp, index)?;
            pyramid.segments.drain(..drop_count);
            pyramid.data_len = data_len;
        }
    }
    // 4. Refresh the sidecar (advisory — rebuilt by scan if this never
    //    lands).
    let _ = pyramid.save_for(&path);
    Ok(())
}

impl TsdbWriter {
    /// Spawns the background writer for `path` with maintenance wired
    /// in.
    ///
    /// # Errors
    ///
    /// Archive creation errors.
    pub fn spawn(
        path: impl AsRef<Path>,
        configs: [SensorConfig; SENSOR_SLOTS],
        options: TsdbWriterOptions,
    ) -> Result<Self, ArchiveError> {
        let mut pyramid = Pyramid::new(options.config);
        let inner = ArchiveWriter::spawn_with_maintenance(
            path,
            configs,
            ArchiveWriterOptions {
                segment_frames: options.segment_frames,
                queue_capacity: options.queue_capacity,
            },
            Box::new(move |writer| maintain(writer, &mut pyramid, &options)),
        )?;
        Ok(Self { inner })
    }

    /// A chunk sink for [`PowerSensor::add_chunk_sink`].
    pub fn sink(&self) -> impl FnMut(&[FrameRecord]) -> bool + Send + 'static {
        self.inner.sink()
    }

    /// Attaches this writer to a live sensor.
    pub fn attach(&self, sensor: &PowerSensor) {
        self.inner.attach(sensor);
    }

    /// Enqueues a chunk of frames (see [`ArchiveWriter::push`]);
    /// `false` once the writer has failed or been closed.
    pub fn push(&self, frames: &[ps3_archive::ArchiveFrame]) -> bool {
        self.inner.push(frames)
    }

    /// Frames dropped so far. Live and lock-free.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.dropped()
    }

    /// Frames accepted so far. Live and lock-free.
    #[must_use]
    pub fn frames_written(&self) -> u64 {
        self.inner.frames_written()
    }

    /// Segments currently sealed on disk. Live and lock-free.
    #[must_use]
    pub fn segments_sealed(&self) -> u64 {
        self.inner.segments_sealed()
    }

    /// Drains the queue, seals the tail, runs a final maintenance
    /// pass, and returns the final counters.
    ///
    /// # Errors
    ///
    /// Surfaces any filesystem error the worker hit.
    pub fn finish(self) -> Result<WriterStats, ArchiveError> {
        self.inner.finish()
    }
}
