//! `ps3-archive` — an append-only, crash-safe, compressed on-disk
//! store for PowerSensor3 20 kHz power traces, plus an indexed query
//! engine over it.
//!
//! The live continuous mode (§III-C of the paper) produces a
//! [`Trace`](ps3_analysis::Trace) in memory and a text dump on disk —
//! fine for one run, unworkable for hours of 20 kHz data. This crate
//! adds the durable form:
//!
//! * **`.ps3a` archive** — a file header carrying the sensor
//!   configuration, followed by sealed segments of delta-of-delta
//!   timestamps and Rice-coded 10-bit sample deltas, each closed by a
//!   CRC-32 and a seal word. A segment's payload is a sequence of
//!   independently decodable 1000-frame blocks, each split into
//!   twenty independently decodable 50-frame runs, so reads decode
//!   only the runs they touch. Any prefix ending in a sealed segment is
//!   a valid archive, so a crash mid-write loses at most the unsealed
//!   tail ([`format`] has the layout).
//! * **`.ps3x` sidecar log** — the capture's only sidecar: one CRC'd
//!   record per sealed segment, appended at seal time, then a
//!   `Finished` record with the writer's drop count. Derived data:
//!   open trusts its records only as far as they match the segments on
//!   disk and CRC-scans the archive from there (`index.rs` has the
//!   layout).
//! * **Summary blocks** — per ~50 ms of frames, pre-aggregated
//!   count/sum/min/max/energy, so [`Archive::stats`],
//!   [`Archive::energy`], [`Archive::energy_between`] and coarse
//!   [`Archive::downsample`] reads run without decompressing covered
//!   blocks — and still agree with a full decode to the last bit.
//! * **One range-query walk** — those queries, and `ps3-tsdb`'s, are
//!   thin wrappers over a single tiered fold: summary blocks are tier
//!   0, caller-supplied [`TierNode`]s (the tsdb pyramid) tiers `1..n`,
//!   and [`Tiers::Rebuilt`] is the reference mode that rebuilds every
//!   tier from decoded frames.
//!
//! Reads are *exact*: the archive stores raw ADC codes and re-derives
//! watts with the stored configuration using the live acquisition
//! path's own arithmetic, so [`Archive::read_range`] returns a trace
//! byte-identical to what continuous mode recorded, markers included.
//!
//! # Examples
//!
//! Record frames and query them back:
//!
//! ```
//! use ps3_archive::{Archive, ArchiveFrame, SegmentWriter};
//! use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
//! use ps3_units::SimTime;
//!
//! let mut configs: [SensorConfig; SENSOR_SLOTS] =
//!     core::array::from_fn(|_| SensorConfig::unpopulated());
//! configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
//! configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
//!
//! let dir = std::env::temp_dir().join(format!("ps3-archive-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.ps3a");
//! let mut writer = SegmentWriter::create(&path, configs).unwrap();
//! for i in 0..1000u64 {
//!     let mut raw = [0u16; SENSOR_SLOTS];
//!     raw[0] = 600;
//!     raw[1] = 700;
//!     writer
//!         .push(ArchiveFrame {
//!             time: SimTime::from_micros(25 + i * 50),
//!             raw,
//!             present: 0b11,
//!             marker: None,
//!         })
//!         .unwrap();
//! }
//! writer.finish().unwrap();
//!
//! let archive = Archive::open(&path).unwrap();
//! assert_eq!(archive.frames(), 1000);
//! let trace = archive.read_all().unwrap();
//! assert_eq!(trace.len(), 1000);
//! # drop(archive);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod archive;
pub mod bits;
mod crc;
pub mod format;
mod index;
mod query;
mod segment;
mod writer;

pub use archive::{Archive, RecoveryReport, VerifyReport};
pub use crc::{crc32, Crc32};
pub use format::ArchiveError;
pub use index::{index_path_for, ArchiveIndex, IndexSegment};
pub use query::{build_tiers, RangeStats, TierNode, TierStore, Tiers};
pub use segment::{
    build_runs, build_segment, build_summaries, frame_total, parse_summaries, summarize_block,
    ArchiveFrame, Run, RunTable, SegmentHeader, SegmentMeta, SummaryBlock,
};
pub use writer::{
    sync_parent_dir, ArchiveWriter, ArchiveWriterOptions, Maintenance, SegmentWriter, WriterStats,
};
