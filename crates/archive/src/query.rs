//! The range-query walk: one tiered fold behind every aggregate query.
//!
//! Every sealed segment carries tier-0 aggregates, one [`SummaryBlock`]
//! per [`SUMMARY_FRAMES`] frames. A caller may stack tiers `1..n` on
//! top ([`build_tiers`]): a tier-k [`TierNode`] folds a fixed number of
//! consecutive tier-(k-1) nodes. `ps3-tsdb`'s aggregation pyramid is
//! exactly such a stack; the archive on its own has none.
//!
//! Per overlapping segment, the walk binary-searches the summary blocks
//! for the overlap and the fully covered core. In the core it consumes
//! the coarsest aligned node that ends inside the core and fits the
//! fold's room, falling through the tiers down to a single block; at
//! the range edges (and for a block too large for the room) it decodes
//! the payload and feeds frames one by one. Three folds consume that
//! stream:
//!
//! * **stats** — count/sum/min/max; edge frames accumulate per block,
//!   mirroring the writer's per-block summation order;
//! * **energy** — trapezoid energy: node interiors plus the junction
//!   terms between consecutive nodes and frames;
//! * **downsample** — `divisor`-frame buckets, where a node is only
//!   consumed whole while it fits the open bucket.
//!
//! `stats` and `energy` fold each segment into a partial on the
//! `compat/rayon` pool and merge the partials sequentially in segment
//! order, so answers never depend on thread count; `downsample` carries
//! its open bucket across segments and walks them in order.
//!
//! # Where the tiers come from
//!
//! [`Tiers::Stored`] walks the stored summary blocks plus the caller's
//! stored tiers (none for [`Archive`], the pyramid for `ps3-tsdb`).
//! [`Tiers::Rebuilt`] is the one reference mode: it decodes every
//! overlapping segment and rebuilds its summary blocks and tiers from
//! the frames before walking the same decomposition. Because nodes fold
//! strictly left to right, a stored node is bit-identical to its
//! rebuilt twin, so stored and reference answers agree to the last bit.

use ps3_analysis::Trace;
use ps3_units::{Joules, SimTime, Watts};

use crate::archive::Archive;
use crate::format::{ArchiveError, SUMMARY_FRAMES};
use crate::segment::{build_summaries, frame_total, SummaryBlock};

/// Aggregate statistics over a time range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeStats {
    /// Samples in the range.
    pub count: u64,
    /// Sum of total power over those samples (W).
    pub sum_w: f64,
    /// Minimum total power (W).
    pub min_w: f64,
    /// Maximum total power (W).
    pub max_w: f64,
}

impl RangeStats {
    /// The identity of [`RangeStats::merge`]: no samples.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum_w: 0.0,
            min_w: f64::INFINITY,
            max_w: f64::NEG_INFINITY,
        }
    }

    /// Folds `other` in after `self`; a sample-free `other` is a no-op.
    pub fn merge(&mut self, other: &RangeStats) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum_w += other.sum_w;
        self.min_w = self.min_w.min(other.min_w);
        self.max_w = self.max_w.max(other.max_w);
    }

    fn push(&mut self, w: f64) {
        self.count += 1;
        self.sum_w += w;
        self.min_w = self.min_w.min(w);
        self.max_w = self.max_w.max(w);
    }

    /// Mean power over the range, or `None` when it holds no samples.
    #[must_use]
    pub fn mean_w(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_w / self.count as f64)
    }
}

/// One pre-aggregated node covering a whole number of summary blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierNode {
    /// Frames under the node.
    pub count: u64,
    /// Timestamp of the first frame (µs).
    pub first_us: u64,
    /// Timestamp of the last frame (µs).
    pub last_us: u64,
    /// Sequential sum of total power (W).
    pub sum_w: f64,
    /// Minimum total power (W).
    pub min_w: f64,
    /// Maximum total power (W).
    pub max_w: f64,
    /// Trapezoid energy over the node's interior sample pairs (J),
    /// junctions between children included; the junction to the
    /// *previous* node is the reader's job, exactly as with
    /// [`SummaryBlock::energy_j`].
    pub energy_j: f64,
    /// Total power of the first frame (W).
    pub first_w: f64,
    /// Total power of the last frame (W).
    pub last_w: f64,
}

impl TierNode {
    /// A tier-0 node: one summary block, verbatim.
    #[must_use]
    pub fn from_block(block: &SummaryBlock) -> Self {
        Self {
            count: u64::from(block.count),
            first_us: block.first_us,
            last_us: block.last_us,
            sum_w: block.sum_w,
            min_w: block.min_w,
            max_w: block.max_w,
            energy_j: block.energy_j,
            first_w: block.first_w,
            last_w: block.last_w,
        }
    }

    /// Folds consecutive children into one parent, strictly left to
    /// right: counts and sums add sequentially, min/max fold, and the
    /// energy accumulates each child's interior energy plus the
    /// trapezoid junction between adjacent children — the same
    /// arithmetic, in the same order, as the walk's energy fold
    /// consuming those children one by one.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty.
    #[must_use]
    pub fn fold(children: &[TierNode]) -> Self {
        assert!(!children.is_empty(), "a tier node has children");
        let mut acc = children[0];
        for child in &children[1..] {
            acc.count += child.count;
            acc.sum_w += child.sum_w;
            acc.min_w = acc.min_w.min(child.min_w);
            acc.max_w = acc.max_w.max(child.max_w);
            let dt = (child.first_us - acc.last_us) as f64 * 1e-6;
            acc.energy_j += (acc.last_w + child.first_w) / 2.0 * dt;
            acc.energy_j += child.energy_j;
            acc.last_us = child.last_us;
            acc.last_w = child.last_w;
        }
        acc
    }

    fn stats(&self) -> RangeStats {
        RangeStats {
            count: self.count,
            sum_w: self.sum_w,
            min_w: self.min_w,
            max_w: self.max_w,
        }
    }
}

/// Builds tiers `1..=fanouts.len()` over one segment's summary blocks,
/// finest first: tier k holds one node per `fanouts[k-1]` consecutive
/// tier-(k-1) nodes (tier 0 being the blocks), the tail node covering
/// whatever remains.
///
/// # Panics
///
/// Panics if a fan-out is zero.
#[must_use]
pub fn build_tiers(summaries: &[SummaryBlock], fanouts: &[u32]) -> Vec<Vec<TierNode>> {
    let blocks: Vec<TierNode> = summaries.iter().map(TierNode::from_block).collect();
    let mut tiers: Vec<Vec<TierNode>> = Vec::with_capacity(fanouts.len());
    for &fanout in fanouts {
        let below = tiers.last().unwrap_or(&blocks);
        let tier = below.chunks(fanout as usize).map(TierNode::fold).collect();
        tiers.push(tier);
    }
    tiers
}

/// Stored tiers `1..n` above each segment's summary blocks.
pub trait TierStore: Sync {
    /// Segment `segment`'s nodes of tiers `1..n`, finest first.
    fn tiers(&self, segment: usize) -> &[Vec<TierNode>];
}

/// No tiers above the summary blocks.
impl TierStore for () {
    fn tiers(&self, _segment: usize) -> &[Vec<TierNode>] {
        &[]
    }
}

/// Where the walk takes each segment's aggregates from.
#[derive(Clone, Copy)]
pub enum Tiers<'a> {
    /// The stored summary blocks plus `store`'s tiers, folded with
    /// `fanouts` (see [`build_tiers`]).
    Stored {
        /// Fan-out of each stored tier, finest first.
        fanouts: &'a [u32],
        /// The stored nodes.
        store: &'a dyn TierStore,
    },
    /// The reference mode: every overlapping segment is decoded and its
    /// summary blocks and tiers rebuilt from the frames with these
    /// fan-outs.
    Rebuilt(&'a [u32]),
}

impl Tiers<'_> {
    /// The stored summary blocks alone: the archive's own fast path.
    pub const SUMMARIES: Tiers<'static> = Tiers::Stored {
        fanouts: &[],
        store: &(),
    };

    /// Summary blocks under one node of each tier, finest first.
    fn spans(&self) -> Vec<usize> {
        let fanouts = match *self {
            Tiers::Stored { fanouts, .. } | Tiers::Rebuilt(fanouts) => fanouts,
        };
        fanouts
            .iter()
            .scan(1usize, |span, &fanout| {
                *span *= fanout as usize;
                Some(*span)
            })
            .collect()
    }
}

/// The coarsest node starting at block `bi` that ends inside the
/// covered core `[.., f_hi)` and holds at most `room` frames, falling
/// through the tiers to the single block. Returns the node and the
/// block index just past it.
fn pick(
    summaries: &[SummaryBlock],
    tiers: &[Vec<TierNode>],
    spans: &[usize],
    bi: usize,
    f_hi: usize,
    room: u64,
) -> Option<(TierNode, usize)> {
    for (nodes, &span) in tiers.iter().zip(spans).rev() {
        if bi.is_multiple_of(span) {
            let end = (bi + span).min(summaries.len());
            if end <= f_hi && nodes[bi / span].count <= room {
                return Some((nodes[bi / span], end));
            }
        }
    }
    let node = TierNode::from_block(&summaries[bi]);
    (node.count <= room).then_some((node, bi + 1))
}

/// What the walk feeds: whole nodes in the covered core, single frames
/// at the range edges.
trait Fold {
    /// Frames the fold can take as one node right now.
    fn room(&self) -> u64 {
        u64::MAX
    }
    fn node(&mut self, node: &TierNode);
    fn frame(&mut self, time: SimTime, w: f64);
    /// Closes the in-range frames of one decoded block.
    fn end_block(&mut self) {}
}

struct StatsFold {
    total: RangeStats,
    block: RangeStats,
}

impl Default for StatsFold {
    fn default() -> Self {
        Self {
            total: RangeStats::empty(),
            block: RangeStats::empty(),
        }
    }
}

impl Fold for StatsFold {
    fn node(&mut self, node: &TierNode) {
        self.total.merge(&node.stats());
    }

    fn frame(&mut self, _time: SimTime, w: f64) {
        self.block.push(w);
    }

    fn end_block(&mut self) {
        self.total.merge(&self.block);
        self.block = RangeStats::empty();
    }
}

/// Trapezoid energy of a run of samples: its interior energy plus the
/// endpoints the next run joins onto.
#[derive(Default)]
struct EnergyFold {
    first: Option<(u64, f64)>,
    last: Option<(u64, f64)>,
    joules: f64,
}

impl EnergyFold {
    /// Adds the junction trapezoid from the last sample to `(t_us, w)`.
    fn join(&mut self, t_us: u64, w: f64) {
        if let Some((pt, pw)) = self.last {
            let dt = (t_us - pt) as f64 * 1e-6;
            self.joules += (pw + w) / 2.0 * dt;
        }
        self.first.get_or_insert((t_us, w));
    }

    /// Appends a later run after this one.
    fn append(&mut self, run: &EnergyFold) {
        let Some((t_us, w)) = run.first else { return };
        self.join(t_us, w);
        self.joules += run.joules;
        self.last = run.last;
    }
}

impl Fold for EnergyFold {
    fn node(&mut self, node: &TierNode) {
        self.append(&EnergyFold {
            first: Some((node.first_us, node.first_w)),
            last: Some((node.last_us, node.last_w)),
            joules: node.energy_j,
        });
    }

    fn frame(&mut self, time: SimTime, w: f64) {
        self.join(time.as_micros(), w);
        self.last = Some((time.as_micros(), w));
    }
}

/// `divisor`-sample buckets, each pushed as its mean at the time of its
/// last sample.
struct Buckets<'t> {
    divisor: u64,
    count: u64,
    sum: f64,
    out: &'t mut Trace,
}

impl Buckets<'_> {
    fn add(&mut self, count: u64, sum: f64, last: SimTime) {
        self.count += count;
        self.sum += sum;
        if self.count == self.divisor {
            self.out
                .push(last, Watts::new(self.sum / self.divisor as f64));
            (self.count, self.sum) = (0, 0.0);
        }
    }
}

impl Fold for Buckets<'_> {
    fn room(&self) -> u64 {
        self.divisor - self.count
    }

    fn node(&mut self, node: &TierNode) {
        self.add(node.count, node.sum_w, SimTime::from_micros(node.last_us));
    }

    fn frame(&mut self, time: SimTime, w: f64) {
        self.add(1, w, time);
    }
}

impl Archive {
    /// Statistics over `[start, end)` from the summary blocks, decoding
    /// only the blocks the range cuts through. Bit-identical to
    /// [`Archive::stats_decoded`].
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding partial blocks.
    pub fn stats(&self, start: SimTime, end: SimTime) -> Result<RangeStats, ArchiveError> {
        self.stats_with(Tiers::SUMMARIES, start, end)
    }

    /// Statistics over `[start, end)` in the reference mode: every
    /// overlapping segment decoded and its summary blocks rebuilt.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn stats_decoded(&self, start: SimTime, end: SimTime) -> Result<RangeStats, ArchiveError> {
        self.stats_with(Tiers::Rebuilt(&[]), start, end)
    }

    /// Trapezoid energy over the samples in `[start, end)`, matching
    /// [`Trace::energy`] of the corresponding slice to float-regrouping
    /// precision. Served like [`Archive::stats`] and bit-identical to
    /// the reference mode.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding partial blocks.
    pub fn energy(&self, start: SimTime, end: SimTime) -> Result<Joules, ArchiveError> {
        self.energy_with(Tiers::SUMMARIES, start, end)
    }

    /// Energy between the first marker labelled `start` and the first
    /// marker labelled `end` at or after it — the archived equivalent
    /// of `trace.between_markers(start, end).energy()`.
    ///
    /// # Errors
    ///
    /// As [`Archive::marker_span`] and [`Archive::energy`].
    pub fn energy_between(&self, start: char, end: char) -> Result<Joules, ArchiveError> {
        let (t0, t1) = self.marker_span(start, end)?;
        self.energy(t0, t1)
    }

    /// The half-open span from the first marker labelled `start` to the
    /// first marker labelled `end` at or after it (like
    /// [`Trace::slice`]).
    ///
    /// # Errors
    ///
    /// [`ArchiveError::MarkerNotFound`] when a label is missing or out
    /// of order.
    pub fn marker_span(&self, start: char, end: char) -> Result<(SimTime, SimTime), ArchiveError> {
        let t0 = self
            .marker_time(start)
            .ok_or(ArchiveError::MarkerNotFound(start))?;
        let t1 = self
            .markers()
            .iter()
            .find(|&&(t, l)| l == end && t >= t0.as_micros())
            .map(|&(t, _)| SimTime::from_micros(t))
            .ok_or(ArchiveError::MarkerNotFound(end))?;
        Ok((t0, t1))
    }

    /// Downsampled read of `[start, end)`: every `divisor` consecutive
    /// samples collapse to their mean, stamped at the last sample's
    /// time (the same convention as the streaming `Downsampler`); a
    /// partial tail bucket is dropped. Buckets that align with whole
    /// summary blocks (e.g. a 10 Hz read over 50 ms blocks) are served
    /// from the summaries without touching the payload. Markers in
    /// range are carried over at their original times.
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

    /// [`Archive::downsample`] into a caller-owned trace, which is
    /// cleared first. Repeated queries (e.g. the fleet's per-rig joined
    /// downsampling, which walks many shards) reuse the trace's
    /// allocations instead of paying a fresh vector per call.
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
        self.downsample_with(Tiers::SUMMARIES, start, end, divisor, out)
    }

    /// Statistics over `[start, end)` through the tiered walk.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    pub fn stats_with(
        &self,
        tiers: Tiers<'_>,
        start: SimTime,
        end: SimTime,
    ) -> Result<RangeStats, ArchiveError> {
        let mut stats = RangeStats::empty();
        for part in self.segment_partials::<StatsFold>(tiers, start, end) {
            stats.merge(&part?.total);
        }
        Ok(stats)
    }

    /// Trapezoid energy over `[start, end)` through the tiered walk.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    pub fn energy_with(
        &self,
        tiers: Tiers<'_>,
        start: SimTime,
        end: SimTime,
    ) -> Result<Joules, ArchiveError> {
        let mut energy = EnergyFold::default();
        for part in self.segment_partials::<EnergyFold>(tiers, start, end) {
            energy.append(&part?);
        }
        Ok(Joules::new(energy.joules))
    }

    /// [`Archive::downsample_into`] through the tiered walk: a bucket
    /// takes a whole node whenever the node fits it, so bucket times
    /// and counts never depend on the tiers.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn downsample_with(
        &self,
        tiers: Tiers<'_>,
        start: SimTime,
        end: SimTime,
        divisor: u64,
        out: &mut Trace,
    ) -> Result<(), ArchiveError> {
        assert!(divisor > 0, "divisor must be at least 1");
        if divisor == 1 {
            return self.read_range_into(start, end, out);
        }
        out.clear();
        let spans = tiers.spans();
        let mut buckets = Buckets {
            divisor,
            count: 0,
            sum: 0.0,
            out,
        };
        for seg in self.overlapping(start, end) {
            self.walk_segment(seg, tiers, &spans, start, end, &mut buckets)?;
        }
        let (start_us, end_us) = (start.as_micros(), end.as_micros());
        for &(t_us, label) in self.markers() {
            if t_us >= start_us && t_us < end_us {
                buckets.out.mark(SimTime::from_micros(t_us), label);
            }
        }
        Ok(())
    }

    /// One fold per overlapping segment, computed on the rayon pool and
    /// returned in segment order.
    fn segment_partials<F: Fold + Default + Send>(
        &self,
        tiers: Tiers<'_>,
        start: SimTime,
        end: SimTime,
    ) -> Vec<Result<F, ArchiveError>> {
        let spans = tiers.spans();
        rayon::global().par_map(self.overlapping(start, end).collect(), |seg| {
            let mut fold = F::default();
            self.walk_segment(seg, tiers, &spans, start, end, &mut fold)
                .map(|()| fold)
        })
    }

    /// Feeds segment `seg`'s share of `[start, end)` to `fold`.
    fn walk_segment(
        &self,
        seg: usize,
        tiers: Tiers<'_>,
        spans: &[usize],
        start: SimTime,
        end: SimTime,
        fold: &mut impl Fold,
    ) -> Result<(), ArchiveError> {
        let meta = &self.segments()[seg];
        let rebuilt;
        let (summaries, nodes, mut decoded) = match tiers {
            Tiers::Stored { store, .. } => (meta.summaries.as_slice(), store.tiers(seg), None),
            Tiers::Rebuilt(fanouts) => {
                let frames = self.decode_segment_frames(meta)?;
                let watts: Vec<f64> = frames
                    .iter()
                    .map(|f| frame_total(self.configs(), self.adc(), f).value())
                    .collect();
                let summaries = build_summaries(&frames, &watts);
                let nodes = build_tiers(&summaries, fanouts);
                rebuilt = (summaries, nodes);
                (rebuilt.0.as_slice(), rebuilt.1.as_slice(), Some(frames))
            }
        };
        let (start_us, end_us) = (start.as_micros(), end.as_micros());
        let o_hi = summaries.partition_point(|b| b.first_us < end_us);
        let f_lo = summaries.partition_point(|b| b.first_us < start_us);
        let f_hi = summaries.partition_point(|b| b.last_us < end_us);
        let mut bi = summaries.partition_point(|b| b.last_us < start_us);
        while bi < o_hi {
            if (f_lo..f_hi).contains(&bi) {
                if let Some((node, next)) = pick(summaries, nodes, spans, bi, f_hi, fold.room()) {
                    fold.node(&node);
                    bi = next;
                    continue;
                }
            }
            // A range edge, or a block too large for the fold's room.
            let frames = match &decoded {
                Some(frames) => frames,
                None => decoded.insert(self.decode_segment_frames(meta)?),
            };
            let lo = bi * SUMMARY_FRAMES;
            for frame in &frames[lo..(lo + SUMMARY_FRAMES).min(frames.len())] {
                if frame.time >= start && frame.time < end {
                    fold.frame(
                        frame.time,
                        frame_total(self.configs(), self.adc(), frame).value(),
                    );
                }
            }
            fold.end_block();
            bi += 1;
        }
        Ok(())
    }
}
