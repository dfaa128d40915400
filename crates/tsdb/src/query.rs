//! [`Tsdb`]: an archive plus its aggregation pyramid, queried through
//! `ps3-archive`'s one range-query walk.
//!
//! The walk (see [`ps3_archive::Tiers`]) treats each segment's summary
//! blocks as tier 0 and the pyramid's nodes as tiers 1 and 2: per
//! overlapping segment it binary-searches the overlap and the covered
//! core, consumes the coarsest aligned node that fits inside the core,
//! and decodes payload only at the range edges. A query over a capture
//! of any size touches O(range-edges + pyramid nodes) data.
//!
//! # Exactness contract
//!
//! * `count`, `min_w`, `max_w` are **bit-identical** to
//!   [`Archive::stats`] always: counts add exactly and min/max folding
//!   is associative.
//! * `sum_w`, energies, and downsampled means are bit-identical to the
//!   `*_ref` methods, which run the walk in its reference mode: every
//!   overlapping segment decoded and its summaries and pyramid tiers
//!   rebuilt from the frames. Against the archive's own paths they
//!   agree to ~1e-9 relative — same terms, different float grouping.
//! * [`Tsdb::downsample`] produces buckets with **identical times and
//!   counts** to [`Archive::downsample`] (bucketing is count-driven
//!   and counts are exact); only the mean's low bits may differ when a
//!   tier node is consumed whole.
//!
//! The walk folds `stats` and `energy` per segment in parallel and
//! merges the partials in segment order (see `ps3_archive`'s query
//! module), so results never depend on thread count.

use ps3_analysis::Trace;
use ps3_archive::{Archive, ArchiveError, RangeStats, Tiers};
use ps3_units::{Joules, SimTime};

use crate::pyramid::{Pyramid, PyramidConfig};

/// A read-only archive handle with its aggregation pyramid: the query
/// side of the time-series engine.
#[derive(Debug)]
pub struct Tsdb {
    archive: Archive,
    config: PyramidConfig,
    pyramid: Pyramid,
    from_sidecar: bool,
}

impl Tsdb {
    /// Opens the archive at `path` with the default pyramid fan-out,
    /// loading the `.ps3p` sidecar when fresh and rebuilding (and
    /// best-effort re-saving) it otherwise.
    ///
    /// # Errors
    ///
    /// Archive open errors; a bad *sidecar* is never an error.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, ArchiveError> {
        Self::open_with(path, PyramidConfig::default())
    }

    /// [`Tsdb::open`] with an explicit pyramid fan-out.
    ///
    /// # Errors
    ///
    /// Archive open errors.
    pub fn open_with(
        path: impl AsRef<std::path::Path>,
        config: PyramidConfig,
    ) -> Result<Self, ArchiveError> {
        let archive = Archive::open(path)?;
        let (pyramid, from_sidecar) = Pyramid::load_or_build(&archive, config);
        if !from_sidecar {
            let _ = pyramid.save_for(archive.path());
        }
        Ok(Self {
            archive,
            config,
            pyramid,
            from_sidecar,
        })
    }

    /// Wraps an already-open archive, building the pyramid in memory
    /// without touching any sidecar.
    #[must_use]
    pub fn from_archive(archive: Archive, config: PyramidConfig) -> Self {
        let pyramid = Pyramid::build(&archive, config);
        Self {
            archive,
            config,
            pyramid,
            from_sidecar: false,
        }
    }

    /// The underlying archive (exact reads, verification, metadata).
    #[must_use]
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// The pyramid fan-out in use.
    #[must_use]
    pub fn config(&self) -> PyramidConfig {
        self.config
    }

    /// The aggregation pyramid.
    #[must_use]
    pub fn pyramid(&self) -> &Pyramid {
        &self.pyramid
    }

    /// `true` when the `.ps3p` sidecar was fresh and loaded as-is;
    /// `false` when the pyramid was rebuilt by scan.
    #[must_use]
    pub fn from_sidecar(&self) -> bool {
        self.from_sidecar
    }

    /// The walk's view of the stored pyramid.
    fn stored<'a>(&'a self, fanouts: &'a [u32]) -> Tiers<'a> {
        Tiers::Stored {
            fanouts,
            store: &self.pyramid,
        }
    }

    /// Statistics over `[start, end)` served from the pyramid. See the
    /// module docs for the exactness contract.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding partial blocks.
    pub fn stats(&self, start: SimTime, end: SimTime) -> Result<RangeStats, ArchiveError> {
        let fanouts = self.config.fanouts();
        self.archive.stats_with(self.stored(&fanouts), start, end)
    }

    /// [`Tsdb::stats`] in the reference mode (tiers rebuilt from
    /// decoded frames). Bit-identical to [`Tsdb::stats`] by
    /// construction.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    pub fn stats_ref(&self, start: SimTime, end: SimTime) -> Result<RangeStats, ArchiveError> {
        let fanouts = self.config.fanouts();
        self.archive
            .stats_with(Tiers::Rebuilt(&fanouts), start, end)
    }

    /// Trapezoid energy over the samples in `[start, end)`, served
    /// from the pyramid. See the module docs for the exactness
    /// contract.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding partial blocks.
    pub fn energy(&self, start: SimTime, end: SimTime) -> Result<Joules, ArchiveError> {
        let fanouts = self.config.fanouts();
        self.archive.energy_with(self.stored(&fanouts), start, end)
    }

    /// [`Tsdb::energy`] in the reference mode.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    pub fn energy_ref(&self, start: SimTime, end: SimTime) -> Result<Joules, ArchiveError> {
        let fanouts = self.config.fanouts();
        self.archive
            .energy_with(Tiers::Rebuilt(&fanouts), start, end)
    }

    /// Energy between the first marker labelled `start` and the first
    /// marker labelled `end` at or after it — [`Archive::energy_between`]
    /// served through the pyramid.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::MarkerNotFound`] when a label is missing or out
    /// of order; I/O or corruption errors from decoding.
    pub fn energy_between(&self, start: char, end: char) -> Result<Joules, ArchiveError> {
        let (t0, t1) = self.archive.marker_span(start, end)?;
        self.energy(t0, t1)
    }

    /// [`Tsdb::energy_between`] in the reference mode.
    ///
    /// # Errors
    ///
    /// As [`Tsdb::energy_between`].
    pub fn energy_between_ref(&self, start: char, end: char) -> Result<Joules, ArchiveError> {
        let (t0, t1) = self.archive.marker_span(start, end)?;
        self.energy_ref(t0, t1)
    }

    /// Downsampled read of `[start, end)` with [`Archive::downsample`]
    /// semantics — identical bucket boundaries, times, and counts —
    /// but buckets covered by whole pyramid nodes consume the node
    /// instead of its blocks or frames. Markers in range are carried
    /// over at their original times.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn downsample(
        &self,
        start: SimTime,
        end: SimTime,
        divisor: u64,
    ) -> Result<Trace, ArchiveError> {
        let mut trace = Trace::new();
        self.downsample_into(start, end, divisor, &mut trace)?;
        Ok(trace)
    }

    /// [`Tsdb::downsample`] into a caller-owned trace, which is
    /// cleared first; repeated queries reuse its allocations.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn downsample_into(
        &self,
        start: SimTime,
        end: SimTime,
        divisor: u64,
        out: &mut Trace,
    ) -> Result<(), ArchiveError> {
        let fanouts = self.config.fanouts();
        self.archive
            .downsample_with(self.stored(&fanouts), start, end, divisor, out)
    }

    /// [`Tsdb::downsample`] in the reference mode (same node-fit
    /// decisions, since fits depend only on exact counts).
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn downsample_ref(
        &self,
        start: SimTime,
        end: SimTime,
        divisor: u64,
    ) -> Result<Trace, ArchiveError> {
        let fanouts = self.config.fanouts();
        let mut trace = Trace::new();
        self.archive
            .downsample_with(Tiers::Rebuilt(&fanouts), start, end, divisor, &mut trace)?;
        Ok(trace)
    }
}
