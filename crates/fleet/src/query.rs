//! Cross-rig aggregate queries over a fleet's archive shards.
//!
//! A fleet data dir holds one `.ps3a` shard per rig *generation*
//! (`rig-{id:03}-g{gen}.ps3a`); a rig that crashed and restarted owns
//! several. [`FleetQuery`] opens every shard (recovering torn tails
//! the same way `ps3-arc` does) and answers fleet-wide questions by
//! fanning the per-shard scans over the `compat/rayon` pool and then
//! folding the per-shard results **sequentially in shard order**
//! (sorted by rig id, then generation).
//!
//! That fold order is a contract, not an implementation detail:
//! floating-point accumulation is order-dependent, and the simulation
//! harness checks that e.g. [`FleetQuery::total_energy`] is
//! *bit-exactly* the fold of the per-shard [`Tsdb::energy`] values in
//! shard order. Parallelism only changes who decodes which shard,
//! never the arithmetic.
//!
//! Each shard is served through the [`ps3_tsdb`] aggregation pyramid,
//! so cross-rig aggregates over long captures read tier nodes instead
//! of decoding payload bytes; only range edges decode.

use std::path::{Path, PathBuf};

use ps3_analysis::Trace;
use ps3_archive::{ArchiveError, RangeStats};
use ps3_tsdb::Tsdb;
use ps3_units::{Joules, SimTime, Watts};

/// One opened shard.
struct Shard {
    rig: u16,
    generation: u32,
    tsdb: Tsdb,
}

/// Per-shard energy contribution (what [`FleetQuery::total_energy`]
/// folds, exposed for ground-truth checks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardEnergy {
    /// Owning rig.
    pub rig: u16,
    /// Rig generation that wrote the shard.
    pub generation: u32,
    /// Energy in the queried range, from this shard alone.
    pub energy: Joules,
}

/// One rig's ranking entry in [`FleetQuery::top_k`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigPower {
    /// Rig id.
    pub rig: u16,
    /// Mean total power over the rig's samples in range (0 if none).
    pub mean: Watts,
    /// Samples contributing to the mean.
    pub samples: u64,
}

/// Rig-join aligned downsampling: per-rig mean-power buckets joined by
/// bucket index, so rigs can be compared column-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinedTrace {
    /// Rig ids, one per power column (ascending).
    pub rigs: Vec<u16>,
    /// Joined rows, one per bucket index.
    pub rows: Vec<JoinedRow>,
}

/// One row of a [`JoinedTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct JoinedRow {
    /// Bucket timestamp: the earliest bucket-end time among the rigs
    /// that have this bucket.
    pub time: SimTime,
    /// Mean power per rig for this bucket, `None` once a rig's trace
    /// ran out.
    pub power: Vec<Option<Watts>>,
}

/// Read-side handle over every shard under a fleet data dir.
pub struct FleetQuery {
    data_dir: PathBuf,
    shards: Vec<Shard>,
    /// Distinct rig ids, ascending.
    rigs: Vec<u16>,
}

/// Parses `rig-{id:03}-g{gen}.ps3a` into `(id, generation)`.
#[must_use]
pub fn parse_shard_name(name: &str) -> Option<(u16, u32)> {
    let rest = name.strip_prefix("rig-")?.strip_suffix(".ps3a")?;
    let (rig, generation) = rest.split_once("-g")?;
    Some((rig.parse().ok()?, generation.parse().ok()?))
}

impl FleetQuery {
    /// Opens every `rig-*.ps3a` shard under `data_dir`.
    ///
    /// # Errors
    ///
    /// Directory-scan failures or shard corruption beyond recovery.
    /// A dir with no shards opens fine (queries report zero/empty).
    pub fn open(data_dir: impl AsRef<Path>) -> Result<Self, ArchiveError> {
        let data_dir = data_dir.as_ref().to_path_buf();
        let mut found: Vec<(u16, u32, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&data_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((rig, generation)) = parse_shard_name(name) {
                found.push((rig, generation, entry.path()));
            }
        }
        // Shard order is the fold order for every aggregate below.
        found.sort_by_key(|&(rig, generation, _)| (rig, generation));

        let opened = rayon::global().par_map(found, |(rig, generation, path)| {
            Tsdb::open(&path).map(|tsdb| Shard {
                rig,
                generation,
                tsdb,
            })
        });
        let shards = opened.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut rigs: Vec<u16> = shards.iter().map(|s| s.rig).collect();
        rigs.dedup();
        Ok(Self {
            data_dir,
            shards,
            rigs,
        })
    }

    /// The scanned data dir.
    #[must_use]
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Distinct rig ids with at least one shard, ascending.
    #[must_use]
    pub fn rigs(&self) -> &[u16] {
        &self.rigs
    }

    /// Number of shards opened.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard energy over `[start, end)`, in shard order.
    ///
    /// # Errors
    ///
    /// Decode errors from any shard.
    pub fn shard_energies(
        &self,
        start: SimTime,
        end: SimTime,
    ) -> Result<Vec<ShardEnergy>, ArchiveError> {
        let per_shard = rayon::global().par_map(self.shards.iter().collect(), |shard: &Shard| {
            shard.tsdb.energy(start, end).map(|energy| ShardEnergy {
                rig: shard.rig,
                generation: shard.generation,
                energy,
            })
        });
        per_shard.into_iter().collect()
    }

    /// Fleet-wide energy over `[start, end)`: the per-shard energies
    /// folded in shard order (bit-exact against doing exactly that by
    /// hand).
    ///
    /// # Errors
    ///
    /// Decode errors from any shard.
    pub fn total_energy(&self, start: SimTime, end: SimTime) -> Result<Joules, ArchiveError> {
        let mut total = 0.0f64;
        for shard in self.shard_energies(start, end)? {
            total += shard.energy.value();
        }
        Ok(Joules::new(total))
    }

    /// Fleet-wide power statistics over `[start, end)` (summary-block
    /// accelerated; counts and sums fold in shard order).
    ///
    /// # Errors
    ///
    /// Decode errors from any shard.
    pub fn fleet_stats(&self, start: SimTime, end: SimTime) -> Result<RangeStats, ArchiveError> {
        let per_shard = rayon::global().par_map(self.shards.iter().collect(), |shard: &Shard| {
            shard.tsdb.stats(start, end)
        });
        let mut out = RangeStats::empty();
        for stats in per_shard {
            out.merge(&stats?);
        }
        if out.count == 0 {
            out = RangeStats {
                count: 0,
                sum_w: 0.0,
                min_w: 0.0,
                max_w: 0.0,
            };
        }
        Ok(out)
    }

    /// The `k` hottest rigs by mean power over `[start, end)`,
    /// descending; ties break toward the lower rig id. Rigs with no
    /// samples in range rank last (zero mean).
    ///
    /// # Errors
    ///
    /// Decode errors from any shard.
    pub fn top_k(
        &self,
        k: usize,
        start: SimTime,
        end: SimTime,
    ) -> Result<Vec<RigPower>, ArchiveError> {
        let per_shard = rayon::global().par_map(self.shards.iter().collect(), |shard: &Shard| {
            shard.tsdb.stats(start, end).map(|s| (shard.rig, s))
        });
        let mut per_rig: Vec<RigPower> = self
            .rigs
            .iter()
            .map(|&rig| RigPower {
                rig,
                mean: Watts::zero(),
                samples: 0,
            })
            .collect();
        let mut sums = vec![0.0f64; per_rig.len()];
        for stats in per_shard {
            let (rig, stats) = stats?;
            let slot = self
                .rigs
                .binary_search(&rig)
                .expect("shard rig is in the rig roster");
            per_rig[slot].samples += stats.count;
            sums[slot] += stats.sum_w;
        }
        for (entry, sum) in per_rig.iter_mut().zip(&sums) {
            if entry.samples > 0 {
                entry.mean = Watts::new(sum / entry.samples as f64);
            }
        }
        per_rig.sort_by(|a, b| {
            b.mean
                .value()
                .partial_cmp(&a.mean.value())
                .unwrap_or(core::cmp::Ordering::Equal)
                .then(a.rig.cmp(&b.rig))
        });
        per_rig.truncate(k);
        Ok(per_rig)
    }

    /// Downsamples one rig over `[start, end)` with `divisor` samples
    /// per bucket, concatenating the rig's shards in generation order
    /// (bucket accumulation restarts at each generation boundary,
    /// mirroring the capture discontinuity).
    ///
    /// # Errors
    ///
    /// Decode errors from the rig's shards.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn downsample_rig(
        &self,
        rig: u16,
        start: SimTime,
        end: SimTime,
        divisor: u64,
    ) -> Result<Trace, ArchiveError> {
        assert!(divisor > 0, "divisor must be at least 1");
        let mut out = Trace::new();
        // One scratch trace serves every shard: `downsample_into`
        // clears it but keeps its allocations.
        let mut scratch = Trace::new();
        for shard in self.shards.iter().filter(|s| s.rig == rig) {
            shard
                .tsdb
                .downsample_into(start, end, divisor, &mut scratch)?;
            for sample in scratch.samples() {
                out.push(sample.time, sample.power);
            }
        }
        Ok(out)
    }

    /// Rig-join aligned downsampling: every rig downsampled with the
    /// same `divisor` over the same `[start, end)`, joined row-wise by
    /// bucket index.
    ///
    /// # Errors
    ///
    /// Decode errors from any shard.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn joined_downsample(
        &self,
        start: SimTime,
        end: SimTime,
        divisor: u64,
    ) -> Result<JoinedTrace, ArchiveError> {
        assert!(divisor > 0, "divisor must be at least 1");
        let traces = rayon::global().par_map(self.rigs.clone(), |rig| {
            self.downsample_rig(rig, start, end, divisor)
        });
        let traces = traces.into_iter().collect::<Result<Vec<_>, _>>()?;
        let depth = traces.iter().map(|t| t.samples().len()).max().unwrap_or(0);
        let mut rows = Vec::with_capacity(depth);
        for i in 0..depth {
            let mut time: Option<SimTime> = None;
            let mut power = Vec::with_capacity(traces.len());
            for trace in &traces {
                match trace.samples().get(i) {
                    Some(sample) => {
                        power.push(Some(sample.power));
                        if time.is_none_or(|t| sample.time < t) {
                            time = Some(sample.time);
                        }
                    }
                    None => power.push(None),
                }
            }
            rows.push(JoinedRow {
                time: time.expect("a row exists only if some rig has the bucket"),
                power,
            });
        }
        Ok(JoinedTrace {
            rigs: self.rigs.clone(),
            rows,
        })
    }
}

impl core::fmt::Debug for FleetQuery {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FleetQuery")
            .field("data_dir", &self.data_dir)
            .field("shards", &self.shards.len())
            .field("rigs", &self.rigs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_names_roundtrip() {
        assert_eq!(parse_shard_name("rig-007-g0.ps3a"), Some((7, 0)));
        assert_eq!(parse_shard_name("rig-031-g12.ps3a"), Some((31, 12)));
        assert_eq!(parse_shard_name(&crate::shard_name(31, 12)), Some((31, 12)));
        assert_eq!(parse_shard_name("rig-007.ps3a"), None);
        assert_eq!(parse_shard_name("trace.ps3a"), None);
        assert_eq!(parse_shard_name("rig-1-g1.ps3x"), None);
    }
}
