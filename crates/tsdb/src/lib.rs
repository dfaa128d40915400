//! # ps3-tsdb — the time-series query engine
//!
//! [`ps3_archive`] gives captures a durable, crash-safe on-disk form;
//! this crate makes them *queryable at scale*. Three pieces:
//!
//! * **[`pyramid`]** — a multi-resolution aggregation pyramid over the
//!   archive's summary blocks: tier-1 nodes fold 100 blocks (100 k
//!   frames), tier-2 nodes fold 100 tier-1 nodes (10 M frames), each
//!   node carrying count/sum/min/max/first/last and trapezoid energy.
//!   Persisted in a CRC-guarded `.ps3p` sidecar; rebuilt by scan when
//!   stale or corrupt.
//! * **[`query`]** — [`Tsdb`], which answers `stats`, `energy`,
//!   `energy_between`, and `downsample` through `ps3-archive`'s one
//!   range-query walk, handing it the pyramid as tiers 1 and 2 above
//!   the summary blocks (tier 0): whole nodes for the covered core of
//!   a range, raw decode only at its edges. The `*_ref` methods run
//!   the same walk in its one reference mode, with every tier rebuilt
//!   from decoded frames, and are bit-identical to the served answers.
//!   Counts and extremes are bit-identical to the plain
//!   [`ps3_archive::Archive`] queries; sums and energies agree with
//!   them to float-regrouping precision.
//! * **[`compactor`] / [`writer`]** — seal-time maintenance:
//!   incremental pyramid upkeep, background compaction of small
//!   segments into large ones (write-new-then-atomic-rename, so a
//!   crash at any byte leaves the original archive intact), and
//!   retention windows ([`Retention::parse`]: `90s`, `64mb`, …) that
//!   drop whole expired segments without blocking acquisition.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod compactor;
pub mod pyramid;
pub mod query;
pub mod writer;

pub use compactor::{
    compact_archive, compact_tmp_path_for, retain_archive, retained_prefix_drop, stage_compacted,
    stage_retained, CompactOptions, CompactReport, Retention, DEFAULT_COMPACT_TARGET_FRAMES,
};
pub use pyramid::{pyramid_path_for, Pyramid, PyramidConfig, PyramidCounts, SegmentPyramid};
pub use query::Tsdb;
pub use writer::{TsdbWriter, TsdbWriterOptions};
