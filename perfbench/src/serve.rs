//! `serve`: an open loop at the device's native 20 kHz.
//!
//! The GPU riser testbed feeds a [`StreamDaemon`] with its default
//! configuration. Two raw subscribers read it: one at divisor 1 with
//! every pair, one at divisor 20. A generator thread advances the
//! testbed's virtual clock by 1 ms every 1 ms of wall time on a fixed
//! schedule that never waits for the system; a reader thread blocks in
//! epoll on both sockets. A frame's age runs from the moment its tick
//! was *due* (so a late generator counts against the system) to the
//! moment a subscriber decoded it.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ps3_core::SharedPowerSensor;
use ps3_duts::{GpuKernel, GpuSpec};
use ps3_stream::proto::MAX_BATCH_FRAMES;
use ps3_stream::{
    BroadcastRing, Downsampler, OutQueue, ReadOutcome, ServerMsg, StreamDaemon, StreamDaemonConfig,
    StreamFrame,
};
use ps3_testbed::setups;
use ps3_units::SimDuration;

use crate::common::{
    await_subscribers, cpu_s, ns_since, percentile, read_until_done, rss_peak_mb, timed, Args,
    Report, Subscriber, Tally,
};

/// Generator tick: 1 ms of virtual time, due every 1 ms of wall time.
const TICK_NS: u64 = 1_000_000;
/// Device frames one tick releases at 20 kHz.
const FRAMES_PER_TICK: u64 = 20;
/// Divisor of the second subscriber.
const SLOW_DIVISOR: u64 = 20;
/// Virtual ticks between kernel launches, as `ps3-streamd --setup gpu`.
const KICK_TICKS: u64 = 1000;

pub fn run(args: &Args, traced: bool) -> Report {
    let mut report = Report::new();

    let setup = Instant::now();
    let setup_cpu = cpu_s();
    let mut tb = setups::gpu_riser(GpuSpec::rtx4000_ada(), args.seed);
    let gpu = tb.dut();
    let sensor = SharedPowerSensor::new(tb.connect().expect("connect the GPU testbed"));
    let daemon = StreamDaemon::start(sensor.clone(), "127.0.0.1:0", StreamDaemonConfig::default())
        .expect("start the stream daemon");
    let epoch = Instant::now();
    let mut subs = vec![
        Subscriber::connect(daemon.local_addr(), 0x0F, 1, None).expect("connect subscriber"),
        Subscriber::connect(daemon.local_addr(), 0x0F, SLOW_DIVISOR as u32, None)
            .expect("connect subscriber"),
    ];
    let registered = await_subscribers(&mut subs, epoch, || daemon.stats().active_subscribers);
    report.check(registered, || "subscribers did not register".into());
    let setup_s = cpu_s() - setup_cpu;
    let setup_wall_s = setup.elapsed().as_secs_f64();

    // The tap probe (traced run only): when each frame reached the
    // daemon's acquisition tap, and the frame itself for the stream
    // layer timings.
    let taps: Arc<Mutex<Vec<(StreamFrame, u64)>>> = Arc::default();
    if traced {
        let taps = Arc::clone(&taps);
        sensor.add_frame_sink(move |record| {
            let frame = StreamFrame {
                time: record.time,
                raw: record.raw,
                present: record.present,
                marker: record.marker.is_some(),
            };
            taps.lock()
                .expect("tap lock")
                .push((frame, ns_since(epoch)));
            true
        });
    }

    let ticks = (args.seconds * 1000.0).round().max(1.0) as u64;
    let first_due = ns_since(epoch) + 2 * TICK_NS;
    let tally = Tally::new(subs.len());
    let mut late_ms = Vec::with_capacity(ticks as usize);
    let cpu_start = cpu_s();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs_f64(args.seconds + 20.0);
            read_until_done(&mut subs, &tally, epoch, deadline);
        });
        for tick in 0..ticks {
            let due = first_due + tick * TICK_NS;
            let now = ns_since(epoch);
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            late_ms.push(ns_since(epoch).saturating_sub(due) as f64 / 1e6);
            if tick.is_multiple_of(KICK_TICKS) {
                gpu.lock()
                    .launch(GpuKernel::synthetic_fma(SimDuration::from_millis(600), 8));
            }
            tb.advance(SimDuration::from_nanos(TICK_NS));
        }
        let published = ticks * FRAMES_PER_TICK;
        tally.finish_at(vec![published, published / SLOW_DIVISOR]);
        reader.join().expect("reader thread");
    });

    let cpu = cpu_s() - cpu_start;
    let stats = daemon.stats();
    let published = ticks * FRAMES_PER_TICK;
    let expected = [published, published / SLOW_DIVISOR];
    report.check(stats.frames_published == published, || {
        format!("published {} of {published} frames", stats.frames_published)
    });
    let mut delivered = 0;
    let mut missing = 0;
    for (sub, &want) in subs.iter().zip(&expected) {
        delivered += sub.frames;
        missing += want.saturating_sub(sub.frames);
        report.check(sub.frames == want, || {
            format!("a subscriber received {} of {want} frames", sub.frames)
        });
        report.check(sub.gap_events == 0 && !sub.evicted && !sub.broken, || {
            format!(
                "a subscriber saw {} gaps (evicted {}, broken {})",
                sub.gap_events, sub.evicted, sub.broken
            )
        });
    }
    report.check(stats.gap_events == 0 && stats.evicted == 0, || {
        format!(
            "daemon counted {} gaps, {} evictions",
            stats.gap_events, stats.evicted
        )
    });
    report.ops(expected.iter().sum(), missing);

    // Frame age: tick `t_us / 1000` released the frame at `time_us`.
    let release_ns = |time_us: u64| first_due + time_us / 1000 * TICK_NS;
    let mut ages: Vec<f64> = subs
        .iter()
        .flat_map(Subscriber::arrivals)
        .map(|(t, recv)| recv.saturating_sub(release_ns(t)) as f64 / 1e6)
        .collect();
    let last_arrival = subs
        .iter()
        .filter_map(|s| s.arrivals().last())
        .map(|(_, recv)| recv)
        .max()
        .unwrap_or(first_due);
    let wall_s = last_arrival.saturating_sub(first_due) as f64 / 1e9;
    report.metric("cpu_us_per_op", cpu * 1e6 / published as f64, "us");
    report.metric("throughput_per_s", delivered as f64 / wall_s, "1/s");
    report.metric("latency_p50_ms", percentile(&mut ages, 0.50), "ms");
    report.metric("latency_p90_ms", percentile(&mut ages, 0.90), "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("setup_wall_s", setup_wall_s, "s");

    if traced {
        let taps = std::mem::take(&mut *taps.lock().expect("tap lock"));
        trace_layers(&mut report, &taps, &subs, release_ns, &mut late_ms, &daemon);
    }
    drop(subs);
    drop(daemon);
    drop(sensor);
    drop(tb);
    report.metric("rss_peak_mb", rss_peak_mb(), "MiB");
    report
}

/// Splits frame age at the tap into acquisition and fan-out, and times
/// the stream layer's building blocks on the frames this run carried.
fn trace_layers(
    report: &mut Report,
    taps: &[(StreamFrame, u64)],
    subs: &[Subscriber],
    release_ns: impl Fn(u64) -> u64,
    late_ms: &mut [f64],
    daemon: &StreamDaemon,
) {
    // Frames are 50 µs apart from 25 µs, so the time indexes the tap.
    let tap_of = |time_us: u64| taps.get((time_us.saturating_sub(25) / 50) as usize);
    let mut at_tap: Vec<f64> = taps
        .iter()
        .map(|(f, tap)| tap.saturating_sub(release_ns(f.time.as_micros())) as f64 / 1e6)
        .collect();
    let mut to_client: Vec<f64> = subs
        .iter()
        .flat_map(Subscriber::arrivals)
        .filter_map(|(t, recv)| {
            let (frame, tap) = tap_of(t)?;
            (frame.time.as_micros() == t).then(|| recv.saturating_sub(*tap) as f64 / 1e6)
        })
        .collect();
    let arrivals: usize = subs.iter().map(|s| s.arrivals().count()).sum();
    report.check(to_client.len() == arrivals, || {
        "a delivered frame never passed the tap".into()
    });
    report.metric(
        "serve.age_at_tap_p50_ms",
        percentile(&mut at_tap, 0.50),
        "ms",
    );
    report.metric(
        "serve.age_at_tap_p99_ms",
        percentile(&mut at_tap, 0.99),
        "ms",
    );
    report.metric(
        "serve.tap_to_client_p50_ms",
        percentile(&mut to_client, 0.50),
        "ms",
    );
    report.metric(
        "serve.tap_to_client_p99_ms",
        percentile(&mut to_client, 0.99),
        "ms",
    );
    report.metric("serve.gen_late_p99_ms", percentile(late_ms, 0.99), "ms");
    let stats = daemon.stats();
    report.metric("stream.bytes_sent", stats.bytes_sent as f64, "B");
    report.metric("stream.gap_events", stats.gap_events as f64, "count");
    report.metric("stream.evicted", stats.evicted as f64, "count");

    let frames: Vec<StreamFrame> = taps.iter().map(|(f, _)| *f).collect();
    let n = frames.len().max(1) as f64;
    let config = StreamDaemonConfig::default();

    let ring = BroadcastRing::new(config.ring_capacity);
    let ((), publish_ns) = timed(|| frames.iter().for_each(|f| ring.publish(f)));
    report.metric("stream.ring_publish_ns", publish_ns / n, "ns");

    // Reads lag the writer by at most half the ring, so none is lapped.
    let ring = BroadcastRing::new(config.ring_capacity);
    let half = ring.capacity() / 2;
    let mut next_ns = 0.0;
    let mut read_ok = true;
    for (i, chunk) in frames.chunks(half).enumerate() {
        chunk.iter().for_each(|f| ring.publish(f));
        let base = (i * half) as u64;
        let ((), ns) = timed(|| {
            for cursor in base..base + chunk.len() as u64 {
                read_ok &= matches!(ring.next(cursor, Duration::ZERO), ReadOutcome::Frame(_));
            }
        });
        next_ns += ns;
    }
    report.check(read_ok, || "ring read-back lost a frame".into());
    report.metric("stream.ring_next_ns", next_ns / n, "ns");

    let mut downsampler = Downsampler::new(SLOW_DIVISOR as u32);
    let (kept, ns) = timed(|| frames.iter().filter_map(|f| downsampler.push(f)).count());
    report.check(kept == frames.len() / SLOW_DIVISOR as usize, || {
        format!("downsampler kept {kept} of {} frames", frames.len())
    });
    report.metric("stream.downsample_ns_per_frame", ns / n, "ns");

    let mut encode_ns = 0.0;
    let mut encoded = Vec::new();
    for chunk in frames.chunks(MAX_BATCH_FRAMES) {
        let msg = ServerMsg::Batch {
            frames: chunk.to_vec(),
        };
        let (bytes, ns) = timed(|| msg.encode());
        encode_ns += ns;
        encoded.push(bytes);
    }
    report.metric("stream.batch_encode_ns_per_frame", encode_ns / n, "ns");

    let total: usize = encoded.iter().map(Vec::len).sum();
    let mut queue = OutQueue::new(config.send_buffer_bytes);
    let mut sink: Vec<u8> = Vec::with_capacity(total);
    let (written, ns) = timed(|| {
        let mut written = 0;
        for bytes in encoded {
            queue.push_encoded(bytes);
            written += queue.write_some(&mut sink).unwrap_or(0);
        }
        written
    });
    report.check(written == total, || {
        format!("out-queue wrote {written} of {total} B")
    });
    report.metric(
        "stream.outqueue_ns_per_kib",
        ns / (total.max(1) as f64 / 1024.0),
        "ns",
    );
}
