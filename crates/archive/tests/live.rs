//! End-to-end against a live simulated sensor: an archived capture
//! re-queried must equal the live continuous-mode trace byte for byte,
//! the summary fast path must agree with a full decode to the last
//! bit, and the fig4-style bench capture must compress at least 4×
//! against the raw 2-byte wire stream.

use std::path::{Path, PathBuf};

use ps3_archive::{index_path_for, Archive, ArchiveWriter, ArchiveWriterOptions};
use ps3_duts::LoadProgram;
use ps3_sensors::ModuleKind;
use ps3_testbed::setups::accuracy_bench;
use ps3_units::{Amps, SimDuration, SimTime};

/// Removes an archive and the sidecars its writer and reader leave.
fn cleanup(path: &Path) {
    for p in [path.to_path_buf(), index_path_for(path)] {
        std::fs::remove_file(p).ok();
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ps3-archive-live-{}-{tag}.ps3a",
        std::process::id()
    ))
}

struct LiveCapture {
    live: ps3_analysis::Trace,
    stats: ps3_archive::WriterStats,
    path: PathBuf,
}

/// Records a fig4-style capture (constant 6 A on a 12 V slot module)
/// both into the in-memory trace and through the background archive
/// writer, with a `k`/`e` marker pair bracketing the middle.
fn capture(frames: u64, segment_frames: usize, seed: u64, tag: &str) -> LiveCapture {
    let mut tb = accuracy_bench(
        ModuleKind::Slot10A12V,
        LoadProgram::Constant(Amps::new(6.0)),
        seed,
    );
    let ps = tb.connect().expect("connect");
    tb.advance_and_sync(&ps, SimDuration::from_millis(2))
        .expect("settle");
    let path = temp_path(tag);
    let writer = ArchiveWriter::spawn(
        &path,
        ps.configs(),
        ArchiveWriterOptions {
            segment_frames,
            queue_capacity: 1 << 20,
        },
    )
    .expect("spawn writer");
    writer.attach(&ps);
    ps.begin_trace_with_capacity(frames as usize);
    let quarter = SimDuration::from_micros(frames / 4 * 50);
    tb.advance_and_sync(&ps, quarter).expect("lead-in");
    ps.mark('k').expect("mark k");
    tb.advance_and_sync(&ps, quarter * 2).expect("kernel");
    ps.mark('e').expect("mark e");
    tb.advance_and_sync(&ps, quarter).expect("tail");
    let live = ps.end_trace();
    let stats = writer.finish().expect("finish");
    assert_eq!(stats.dropped, 0, "bounded queue must not drop in tests");
    LiveCapture { live, stats, path }
}

#[test]
fn archived_capture_equals_live_trace_byte_for_byte() {
    let cap = capture(16_384, 4_096, 0x5EED_2026, "equality");
    let live = &cap.live;
    assert!(live.len() >= 16_000, "short capture: {}", live.len());
    assert_eq!(live.markers().len(), 2);

    let archive = Archive::open(&cap.path).expect("open");
    let t0 = live.samples()[0].time;
    let t_end = live.samples()[live.len() - 1].time;
    let end = SimTime::from_micros(t_end.as_micros() + 1);

    // The tentpole guarantee: a re-queried range is byte-identical to
    // the live trace — samples, order, and marker labels.
    let requeried = archive.read_range(t0, end).expect("read_range");
    assert_eq!(&requeried, live);

    // Summary fast path agrees with the full decode to the last bit.
    let fast = archive.stats(t0, end).expect("stats");
    let slow = archive.stats_decoded(t0, end).expect("stats_decoded");
    assert_eq!(fast.count, slow.count);
    assert_eq!(fast.sum_w.to_bits(), slow.sum_w.to_bits());
    assert_eq!(fast.min_w.to_bits(), slow.min_w.to_bits());
    assert_eq!(fast.max_w.to_bits(), slow.max_w.to_bits());
    assert_eq!(fast.count, live.len() as u64);

    // Marker-based energy matches the live trace's kernel window.
    let e_live = live.between_markers('k', 'e').unwrap().energy().value();
    let e_arc = archive.energy_between('k', 'e').expect("energy").value();
    assert!(
        (e_arc - e_live).abs() <= 1e-9 * e_live.abs().max(1e-12),
        "{e_arc} vs {e_live}"
    );

    cleanup(&cap.path);
}

#[test]
fn bench_capture_compresses_at_least_4x_vs_wire() {
    let cap = capture(16_384, 20_000, 7, "ratio");
    // One enabled pair on the wire: a timestamp packet plus two sample
    // packets, 2 bytes each, per 50 µs frame.
    let wire_bytes = cap.stats.frames * 6;
    let ratio = wire_bytes as f64 / cap.stats.bytes as f64;
    eprintln!(
        "archive {} bytes, wire {wire_bytes} bytes, ratio {ratio:.2}x",
        cap.stats.bytes
    );
    assert!(
        ratio >= 4.0,
        "compression {ratio:.2}x ({} archive bytes vs {wire_bytes} wire bytes)",
        cap.stats.bytes
    );
    cleanup(&cap.path);
}

/// The background writer's counters are observable while the capture
/// is still running — not just from the final `WriterStats`.
#[test]
fn live_counters_track_progress_during_capture() {
    use ps3_archive::ArchiveFrame;
    use ps3_firmware::{SensorConfig, SENSOR_SLOTS};

    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.12, true);
    configs[1] = SensorConfig::new("U0", 3.3, 5.0, true);

    let path = temp_path("live-counters");
    let writer = ArchiveWriter::spawn(
        &path,
        configs,
        ArchiveWriterOptions {
            segment_frames: 100,
            queue_capacity: 1 << 16,
        },
    )
    .expect("spawn writer");
    for i in 0..350u64 {
        let mut raw = [0u16; SENSOR_SLOTS];
        raw[0] = 500 + (i % 7) as u16;
        raw[1] = 600;
        assert!(writer.push(&[ArchiveFrame {
            time: SimTime::from_micros(25 + 50 * i),
            raw,
            present: 0b11,
            marker: None,
        }]));
    }
    // The worker drains asynchronously; the live counters converge on
    // everything fed so far while the writer is still open.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while writer.frames_written() < 350 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(writer.frames_written(), 350);
    assert_eq!(writer.segments_sealed(), 3, "3 full segments of 100");
    assert_eq!(writer.dropped(), 0);

    let stats = writer.finish().expect("finish");
    assert_eq!(stats.frames, 350);
    assert_eq!(stats.segments, 4, "finish seals the 50-frame tail");
    assert_eq!(stats.dropped, 0);

    cleanup(&path);
}
