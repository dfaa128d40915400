//! The fleet coordinator: N supervised rigs behind one TCP endpoint.
//!
//! Each rig is a full acquisition stack — a sensor and an
//! [`ArchiveWriter`] persisting to its own shard under the fleet data
//! dir (`rig-{id:03}-g{gen}.ps3a`; the generation counts restarts, so
//! a crash never appends to a possibly-torn file). The coordinator
//! taps every rig into a per-rig broadcast ring and serves rig-routed
//! subscriptions off those rings through the same single-thread event
//! loop the stream daemon uses (see `serve.rs` for the merge
//! personality):
//!
//! * a legacy subscription (no [`RigSelector`]) streams rig 0 with
//!   plain `Batch`/`Gap` messages — old clients work unchanged;
//! * `One`/`Set`/`All` subscriptions stream rig-tagged
//!   `RigBatch`/`RigGap` messages, k-way merged on sample timestamps
//!   across the selected rigs with per-rig gap propagation.
//!
//! Merge ordering: a frame is emitted once every other selected,
//! alive, non-closed rig has a frame queued (so the true minimum
//! timestamp is known); ties break toward the lowest rig id. A rig
//! restart starts a fresh device timeline, which appears as a
//! documented timestamp discontinuity in the merged stream — frames
//! are still delivered and accounted, never silently skipped.
//!
//! Supervision is poll-driven and deterministic: [`Fleet::advance`]
//! moves every healthy rig's virtual clock, [`Fleet::supervise`]
//! restarts crashed rigs (fresh sensor, fresh shard, tap resumed into
//! the *same* ring so per-rig publish counters continue).
//!
//! [`RigSelector`]: ps3_stream::RigSelector

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

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use ps3_archive::{ArchiveWriter, ArchiveWriterOptions};
use ps3_firmware::FRAME_INTERVAL;
use ps3_stream::{
    bring_up, spawn_loop, BroadcastRing, FleetHello, LoopStats, LoopWaker, RigStatus, ServerMsg,
    StreamDaemonConfig, StreamFrame, StreamStats,
};
use ps3_units::SimDuration;

use crate::rig::{RigFactory, RigParts};
use crate::serve::FleetHandler;
use crate::FLEET_PROTO_VERSION;

/// Tuning for [`Fleet::start`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Where per-rig archive shards live (created if absent).
    pub data_dir: PathBuf,
    /// Stream tuning for the coordinator's per-rig rings and
    /// subscriber sessions.
    pub stream: StreamDaemonConfig,
    /// Archive writer tuning for the per-rig shards.
    pub archive: ArchiveWriterOptions,
}

impl FleetConfig {
    /// Defaults with shards under `data_dir`.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            stream: StreamDaemonConfig::default(),
            archive: ArchiveWriterOptions::default(),
        }
    }
}

/// Shard filename for one rig generation.
#[must_use]
pub fn shard_name(rig: u16, generation: u32) -> String {
    format!("rig-{rig:03}-g{generation}.ps3a")
}

/// Per-rig state shared with subscriber sessions.
pub(crate) struct RigShared {
    pub(crate) ring: Arc<BroadcastRing>,
    pub(crate) alive: AtomicBool,
    pub(crate) restarts: AtomicU32,
    pub(crate) shards: AtomicU32,
    pub(crate) gap_events: AtomicU64,
    pub(crate) writer_dropped: AtomicU64,
}

pub(crate) struct FleetShared {
    pub(crate) stream: StreamDaemonConfig,
    pub(crate) rigs: Vec<RigShared>,
    /// Pre-encoded `Hello` without the fleet suffix (legacy clients).
    pub(crate) hello_legacy: Vec<u8>,
    /// Pre-encoded `Hello` with the fleet suffix (rig-routed clients).
    pub(crate) hello_fleet: Vec<u8>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) stats: Arc<LoopStats>,
    pub(crate) waker: Arc<LoopWaker>,
}

/// Owner-side state for one rig generation.
struct RigRuntime {
    id: u16,
    generation: u32,
    sensor: ps3_core::SharedPowerSensor,
    advance: Box<dyn FnMut(SimDuration) + Send>,
    crashed: Box<dyn Fn() -> bool + Send>,
    writer: Option<ArchiveWriter>,
    tap_alive: Arc<AtomicBool>,
    /// Drops accumulated from already-finished writers of this rig.
    writer_dropped_acc: u64,
}

/// A running fleet coordinator. Dropping it shuts everything down.
pub struct Fleet {
    shared: Arc<FleetShared>,
    rigs: Mutex<Vec<RigRuntime>>,
    factory: Mutex<RigFactory>,
    config: FleetConfig,
    local_addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
}

impl Fleet {
    /// Spawns `rig_count` rigs (generation 0 each) and starts serving
    /// `addr` (port 0 for ephemeral).
    ///
    /// # Errors
    ///
    /// Rig construction, shard creation, or socket bind errors.
    pub fn start<A: ToSocketAddrs>(
        rig_count: u16,
        mut factory: RigFactory,
        addr: A,
        config: FleetConfig,
    ) -> io::Result<Self> {
        assert!(rig_count > 0, "a fleet needs at least one rig");
        std::fs::create_dir_all(&config.data_dir)?;

        // Bind before building rigs: the rig taps capture the loop's
        // waker so every publish nudges the event loop.
        let parts = bring_up(addr)?;
        let local_addr = parts.local_addr();

        let rig_shared: Vec<RigShared> = (0..rig_count)
            .map(|_| RigShared {
                ring: Arc::new(BroadcastRing::new(config.stream.ring_capacity)),
                alive: AtomicBool::new(true),
                restarts: AtomicU32::new(0),
                shards: AtomicU32::new(1),
                gap_events: AtomicU64::new(0),
                writer_dropped: AtomicU64::new(0),
            })
            .collect();

        // Built as a plain value first — the hello frames need rig
        // 0's sensor configuration, which only exists after the rigs
        // are built — and wrapped in an Arc exactly once at the end.
        let mut shared = FleetShared {
            stream: config.stream.clone(),
            rigs: rig_shared,
            hello_legacy: Vec::new(),
            hello_fleet: Vec::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(LoopStats::default()),
            waker: parts.waker(),
        };

        let mut runtimes = Vec::with_capacity(usize::from(rig_count));
        for id in 0..rig_count {
            runtimes.push(build_rig(&mut factory, id, 0, &shared, &config)?);
        }

        // Both Hello forms carry rig 0's sensor configuration (the
        // factory gives every rig the same module layout).
        let configs = Box::new(runtimes[0].sensor.configs());
        let hello = |fleet: Option<FleetHello>| {
            ServerMsg::Hello {
                frame_interval_us: FRAME_INTERVAL.as_micros() as u32,
                configs: configs.clone(),
                fleet,
            }
            .encode()
        };
        shared.hello_legacy = hello(None);
        shared.hello_fleet = hello(Some(FleetHello {
            version: FLEET_PROTO_VERSION,
            rigs: rig_count,
        }));
        let shared = Arc::new(shared);

        let event_loop = spawn_loop(
            "ps3-fleet-loop",
            "ps3-fleet",
            parts,
            FleetHandler {
                shared: Arc::clone(&shared),
            },
            config.stream.clone(),
            Arc::clone(&shared.shutdown),
            Arc::clone(&shared.stats),
        )?;

        Ok(Self {
            shared,
            rigs: Mutex::new(runtimes),
            factory: Mutex::new(factory),
            config,
            local_addr,
            event_loop: Some(event_loop),
        })
    }

    /// The coordinator's listening address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of rigs in the fleet.
    #[must_use]
    pub fn rig_count(&self) -> u16 {
        self.shared.rigs.len() as u16
    }

    /// Where the per-rig archive shards live.
    #[must_use]
    pub fn data_dir(&self) -> &Path {
        &self.config.data_dir
    }

    /// Advances every healthy rig's virtual clock by `d`. A rig that
    /// has crashed is skipped (and marked dead for subscribers) until
    /// [`Fleet::supervise`] restarts it.
    pub fn advance(&self, d: SimDuration) {
        let mut rigs = self.rigs.lock();
        for rig in rigs.iter_mut() {
            if (rig.crashed)() || !rig.sensor.is_alive() {
                self.shared.rigs[usize::from(rig.id)]
                    .alive
                    .store(false, Ordering::SeqCst);
                continue;
            }
            (rig.advance)(d);
        }
        refresh_writer_counters(&self.shared, &rigs);
        // Liveness flips matter to the merge (an alive-but-empty rig
        // blocks it); make sure the loop notices promptly.
        self.shared.waker.wake();
    }

    /// Restarts every crashed rig: its writer is finished (sealing the
    /// old shard), a fresh sensor generation is built, its tap resumes
    /// into the same per-rig ring, and archiving continues into a new
    /// shard. Returns how many rigs were restarted.
    ///
    /// # Errors
    ///
    /// Factory or shard-creation failure for a replacement rig.
    pub fn supervise(&self) -> io::Result<u32> {
        let mut rigs = self.rigs.lock();
        let mut factory = self.factory.lock();
        let mut restarted = 0u32;
        for rig in rigs.iter_mut() {
            if !(rig.crashed)() && rig.sensor.is_alive() {
                continue;
            }
            let rs = &self.shared.rigs[usize::from(rig.id)];
            rig.tap_alive.store(false, Ordering::SeqCst);
            if let Some(writer) = rig.writer.take() {
                // A failed finish means the shard tail is torn; the
                // sealed prefix remains readable via recovery.
                if let Ok(stats) = writer.finish() {
                    rig.writer_dropped_acc += stats.dropped;
                }
            }

            let generation = rig.generation + 1;
            let fresh = build_rig(&mut factory, rig.id, generation, &self.shared, &self.config)?;
            let writer_dropped_acc = rig.writer_dropped_acc;
            *rig = fresh;
            rig.writer_dropped_acc = writer_dropped_acc;

            rs.alive.store(true, Ordering::SeqCst);
            rs.restarts.fetch_add(1, Ordering::SeqCst);
            rs.shards.fetch_add(1, Ordering::SeqCst);
            restarted += 1;
        }
        refresh_writer_counters(&self.shared, &rigs);
        if restarted > 0 {
            self.shared.waker.wake();
        }
        Ok(restarted)
    }

    /// Per-rig status roster (what `fleet status` and `QueryFleet`
    /// report).
    #[must_use]
    pub fn status(&self) -> Vec<RigStatus> {
        refresh_writer_counters(&self.shared, &self.rigs.lock());
        snapshot(&self.shared)
    }

    /// Aggregate counters across the coordinator endpoint.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        aggregate_stats(&self.shared)
    }

    /// Blocks until `f` holds for the coordinator's counters (returns
    /// `true`) or `timeout` passes; [`LoopStats::wait_until`] says when
    /// `f` is re-tested.
    pub fn wait_stats(&self, timeout: Duration, mut f: impl FnMut(&StreamStats) -> bool) -> bool {
        let s = &self.shared;
        s.stats.wait_until(timeout, || f(&aggregate_stats(s)))
    }

    /// Stops serving, disconnects subscribers, seals every shard, and
    /// joins all threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for rig in &self.shared.rigs {
            rig.ring.close();
        }
        self.shared.waker.wake();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
        let mut rigs = self.rigs.lock();
        for rig in rigs.iter_mut() {
            rig.tap_alive.store(false, Ordering::SeqCst);
            if let Some(writer) = rig.writer.take() {
                if let Ok(stats) = writer.finish() {
                    rig.writer_dropped_acc += stats.dropped;
                    self.shared.rigs[usize::from(rig.id)]
                        .writer_dropped
                        .store(rig.writer_dropped_acc, Ordering::SeqCst);
                }
            }
        }
        rigs.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl core::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Fleet")
            .field("local_addr", &self.local_addr)
            .field("rigs", &self.shared.rigs.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Builds one rig generation: sensor, shard writer, ring tap.
fn build_rig(
    factory: &mut RigFactory,
    id: u16,
    generation: u32,
    shared: &FleetShared,
    config: &FleetConfig,
) -> io::Result<RigRuntime> {
    let RigParts {
        sensor,
        advance,
        crashed,
    } = factory(id, generation)?;

    let shard = config.data_dir.join(shard_name(id, generation));
    let writer = ArchiveWriter::spawn(&shard, sensor.configs(), config.archive)
        .map_err(|e| io::Error::other(format!("rig {id} shard {}: {e}", shard.display())))?;
    writer.attach(&sensor);

    // Tap the sensor into the coordinator's per-rig ring. The kill
    // switch detaches a dead generation's tap so a restarted rig's tap
    // is the ring's only producer (the ring is single-producer).
    let tap_alive = Arc::new(AtomicBool::new(true));
    {
        let ring = Arc::clone(&shared.rigs[usize::from(id)].ring);
        let alive = Arc::clone(&tap_alive);
        let waker = Arc::clone(&shared.waker);
        sensor.add_chunk_sink(move |frames| {
            if !alive.load(Ordering::SeqCst) || ring.is_closed() {
                return false;
            }
            for record in frames {
                ring.publish(&StreamFrame::from(record));
            }
            waker.wake();
            true
        });
    }

    Ok(RigRuntime {
        id,
        generation,
        sensor,
        advance,
        crashed,
        writer: Some(writer),
        tap_alive,
        writer_dropped_acc: 0,
    })
}

/// Publishes the owner-side writer drop counters into the shared
/// per-rig atomics, where subscriber sessions can report them.
fn refresh_writer_counters(shared: &FleetShared, rigs: &[RigRuntime]) {
    for rig in rigs {
        let live = rig.writer.as_ref().map_or(0, ArchiveWriter::dropped);
        shared.rigs[usize::from(rig.id)]
            .writer_dropped
            .store(rig.writer_dropped_acc + live, Ordering::SeqCst);
    }
}

pub(crate) fn snapshot(shared: &FleetShared) -> Vec<RigStatus> {
    shared
        .rigs
        .iter()
        .enumerate()
        .map(|(id, rig)| RigStatus {
            id: id as u16,
            alive: rig.alive.load(Ordering::SeqCst),
            restarts: rig.restarts.load(Ordering::SeqCst),
            shards: rig.shards.load(Ordering::SeqCst),
            frames_published: rig.ring.head(),
            gap_events: rig.gap_events.load(Ordering::SeqCst),
            writer_dropped: rig.writer_dropped.load(Ordering::SeqCst),
        })
        .collect()
}

pub(crate) fn aggregate_stats(shared: &FleetShared) -> StreamStats {
    shared
        .stats
        .snapshot(shared.rigs.iter().map(|r| r.ring.head()).sum())
}
