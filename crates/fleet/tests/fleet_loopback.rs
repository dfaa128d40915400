//! End-to-end fleet coordinator tests over real loopback sockets.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ps3_fleet::{testbed_rig_factory, Fleet, FleetConfig, FleetQuery, RigFactory};
use ps3_stream::{RigSelector, StreamClient, StreamClientConfig};
use ps3_units::{SimDuration, SimTime};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ps3-fleet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// How long a test waits for a subscriber's counters to get there.
const WAIT: Duration = Duration::from_secs(10);

fn fleet_sub(rig: RigSelector) -> StreamClientConfig {
    StreamClientConfig {
        rig: Some(rig),
        ..StreamClientConfig::default()
    }
}

#[test]
fn merged_and_per_rig_subscriptions_flow() {
    let dir = temp_dir("merged");
    let mut fleet = Fleet::start(
        4,
        testbed_rig_factory(11),
        "127.0.0.1:0",
        FleetConfig::new(&dir),
    )
    .expect("start fleet");
    let addr = fleet.local_addr();

    let merged = StreamClient::connect(addr, fleet_sub(RigSelector::All)).expect("merged sub");
    let hello = merged.fleet().expect("fleet hello");
    assert_eq!(hello.rigs, 4);
    let one = StreamClient::connect(addr, fleet_sub(RigSelector::One(2))).expect("rig-2 sub");
    let legacy = StreamClient::connect(addr, StreamClientConfig::default()).expect("legacy sub");
    assert!(legacy.fleet().is_none(), "legacy hello has no fleet suffix");

    // Merged subscriptions see non-decreasing timestamps per rig, and
    // (absent restarts) near-sorted globally; check per-rig order.
    let order_ok = Arc::new(AtomicBool::new(true));
    {
        let order_ok = Arc::clone(&order_ok);
        let mut last = std::collections::BTreeMap::new();
        merged.set_rig_frame_callback(move |rig, frame| {
            if let Some(prev) = last.insert(rig, frame.time) {
                if frame.time < prev {
                    order_ok.store(false, Ordering::SeqCst);
                }
            }
        });
    }

    for _ in 0..12 {
        fleet.advance(SimDuration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
    }
    // 60 ms at 20 kHz is 1200 frames per rig.
    assert!(
        merged.wait_until(WAIT, |c| c.frames_received() >= 4 * 1000)
            && one.wait_until(WAIT, |c| c.frames_received() >= 1000),
        "timed out waiting for streams to flow"
    );
    assert!(
        legacy.wait_until(WAIT, |c| c.frames_received() >= 1000),
        "timed out waiting for legacy stream"
    );

    let counts = merged.rig_counts();
    assert_eq!(counts.len(), 4, "merged stream covers all rigs: {counts:?}");
    for c in &counts {
        assert!(c.frames >= 1000, "rig {} starved: {c:?}", c.rig);
    }
    assert!(order_ok.load(Ordering::SeqCst), "per-rig timestamp order");

    let one_counts = one.rig_counts();
    assert_eq!(one_counts.len(), 1);
    assert_eq!(one_counts[0].rig, 2);
    // The legacy client streams rig 0 without rig tagging.
    assert!(legacy.rig_counts().is_empty());

    let roster = merged
        .query_fleet(Duration::from_secs(5))
        .expect("query fleet");
    assert_eq!(roster.len(), 4);
    for rig in &roster {
        assert!(rig.alive, "rig {} should be alive: {rig:?}", rig.id);
        assert_eq!(rig.restarts, 0);
        assert!(rig.frames_published >= 1200);
    }

    let stats = merged.query_stats(Duration::from_secs(5)).expect("stats");
    assert_eq!(stats.active_subscribers, 3);
    assert!(stats.frames_published >= 4 * 1200);

    fleet.shutdown();
    assert!(
        merged.wait_until(WAIT, |c| !c.is_alive()),
        "timed out waiting for merged client to see shutdown"
    );
    assert!(!merged.is_evicted(), "shutdown is not a for-cause eviction");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn selector_out_of_range_is_rejected() {
    let dir = temp_dir("reject");
    let fleet = Fleet::start(
        2,
        testbed_rig_factory(5),
        "127.0.0.1:0",
        FleetConfig::new(&dir),
    )
    .expect("start fleet");
    let err = StreamClient::connect(fleet.local_addr(), fleet_sub(RigSelector::One(7)))
        .expect_err("selector beyond the roster must fail the handshake");
    // The coordinator closes the connection before Hello.
    drop(err);
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Factory whose rig 1 crashes once a shared flag flips.
fn crashing_factory(seed: u64, crash_rig1: &Arc<AtomicBool>) -> RigFactory {
    let mut inner = testbed_rig_factory(seed);
    let flag = Arc::clone(crash_rig1);
    Box::new(move |id, generation| {
        let mut parts = inner(id, generation)?;
        if id == 1 && generation == 0 {
            let flag = Arc::clone(&flag);
            parts.crashed = Box::new(move || flag.load(Ordering::SeqCst));
        }
        Ok(parts)
    })
}

#[test]
fn supervisor_restarts_crashed_rig_into_fresh_shard() {
    let dir = temp_dir("restart");
    let crash = Arc::new(AtomicBool::new(false));
    let mut fleet = Fleet::start(
        3,
        crashing_factory(23, &crash),
        "127.0.0.1:0",
        FleetConfig::new(&dir),
    )
    .expect("start fleet");

    let merged =
        StreamClient::connect(fleet.local_addr(), fleet_sub(RigSelector::All)).expect("sub");
    fleet.advance(SimDuration::from_millis(5));
    assert!(
        merged.wait_until(WAIT, |c| c.rig_counts().len() == 3),
        "timed out waiting for all rigs streaming"
    );

    crash.store(true, Ordering::SeqCst);
    fleet.advance(SimDuration::from_millis(5));
    let down = fleet
        .status()
        .into_iter()
        .find(|r| r.id == 1)
        .expect("rig 1 in roster");
    assert!(!down.alive, "crashed rig marked dead: {down:?}");

    assert_eq!(fleet.supervise().expect("supervise"), 1);
    let up = fleet
        .status()
        .into_iter()
        .find(|r| r.id == 1)
        .expect("rig 1 in roster");
    assert!(up.alive, "restarted rig alive again: {up:?}");
    assert_eq!(up.restarts, 1);
    assert_eq!(up.shards, 2);

    // The replacement generation streams into the same merged session.
    let before = merged
        .rig_counts()
        .iter()
        .find(|c| c.rig == 1)
        .map_or(0, |c| c.frames);
    for _ in 0..4 {
        fleet.advance(SimDuration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        merged.wait_until(WAIT, |c| {
            c.rig_counts()
                .iter()
                .find(|c| c.rig == 1)
                .is_some_and(|c| c.frames > before)
        }),
        "timed out waiting for restarted rig to stream"
    );

    fleet.shutdown();
    // Both generations left shards behind.
    assert!(dir.join("rig-001-g0.ps3a").exists());
    assert!(dir.join("rig-001-g1.ps3a").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queries_aggregate_across_shards_bit_exactly() {
    let dir = temp_dir("query");
    let mut fleet = Fleet::start(
        4,
        testbed_rig_factory(42),
        "127.0.0.1:0",
        FleetConfig::new(&dir),
    )
    .expect("start fleet");
    for _ in 0..20 {
        fleet.advance(SimDuration::from_millis(5));
    }
    fleet.shutdown();

    let query = FleetQuery::open(&dir).expect("open fleet query");
    assert_eq!(query.rigs(), &[0, 1, 2, 3]);
    assert_eq!(query.shard_count(), 4);

    let (start, end) = (SimTime::ZERO, SimTime::from_micros(u64::MAX / 2_000));
    // Ground truth: per-shard energies via ps3-archive directly,
    // folded in shard order — the query must match bit-for-bit.
    let mut expected = 0.0f64;
    for rig in 0..4u16 {
        let shard = ps3_archive::Archive::open(dir.join(ps3_fleet::shard_name(rig, 0)))
            .expect("open shard");
        expected += shard.energy(start, end).expect("shard energy").value();
    }
    let total = query.total_energy(start, end).expect("total energy");
    assert_eq!(
        total.value().to_bits(),
        expected.to_bits(),
        "cross-rig energy must equal the in-order fold of per-shard energies"
    );
    assert!(total.value() > 0.0);

    let stats = query.fleet_stats(start, end).expect("fleet stats");
    // 100 ms of capture at 20 kHz is 2000 frames per rig.
    assert!(stats.count >= 4 * 1900, "stats cover all rigs: {stats:?}");
    assert!(stats.max_w >= stats.min_w);

    // Rig loads rise with id (1 A + 0.75 A per id), so top-k is
    // descending rig id here.
    let top = query.top_k(2, start, end).expect("top-k");
    assert_eq!(top.len(), 2);
    assert_eq!(top[0].rig, 3);
    assert_eq!(top[1].rig, 2);
    assert!(top[0].mean.value() > top[1].mean.value());

    let joined = query
        .joined_downsample(start, end, 100)
        .expect("joined downsample");
    assert_eq!(joined.rigs, vec![0, 1, 2, 3]);
    assert!(!joined.rows.is_empty());
    for row in &joined.rows {
        assert_eq!(row.power.len(), 4);
    }
    // ~2000 frames per rig at divisor 100 is ~20 full buckets.
    assert!(joined.rows.len() >= 18, "rows: {}", joined.rows.len());
    let _ = std::fs::remove_dir_all(&dir);
}
