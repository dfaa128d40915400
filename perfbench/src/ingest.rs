//! `ingest`: a closed loop that runs acquisition into the archive as
//! fast as it goes.
//!
//! The GPU riser testbed (3 sensor pairs, the kernel-burst schedule of
//! `ps3-streamd --setup gpu`) feeds a [`TsdbWriter`] with its defaults
//! (20 000 frames per segment, pyramid upkeep at every seal) and no
//! subscribers. The benchmark repeats `advance_and_sync` in 50 ms
//! chunks; the run ends when `finish()` has sealed every frame. A
//! frame's latency runs from its chunk's request to the seal that made
//! it durable.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ps3_archive::{
    build_segment, frame_total, index_path_for, Archive, ArchiveFrame, ArchiveIndex,
};
use ps3_duts::{Dut, GpuKernel, GpuModel, GpuSpec, RailId};
use ps3_firmware::protocol::{Packet, VALUE_MASK};
use ps3_firmware::{AdcSequencer, AnalogSource, SensorConfig, SENSOR_SLOTS};
use ps3_sensors::{AdcSpec, ModuleKind, SensorModule};
use ps3_testbed::{setups, AnalogFrontend};
use ps3_transport::{Transport, VirtualSerial};
use ps3_tsdb::{Pyramid, PyramidConfig, TsdbWriter, TsdbWriterOptions};
use ps3_units::{SimDuration, SimTime};

use crate::common::{cpu_s, ns_since, percentile, rss_peak_mb, timed, Args, Report};

/// Virtual time one `advance_and_sync` request covers.
const CHUNK_MS: u64 = 50;
/// Device frames one chunk emits at 20 kHz.
const CHUNK_FRAMES: u64 = 1000;
/// Frames per sealed segment (the `TsdbWriter` default).
const SEGMENT_FRAMES: u64 = 20_000;
/// Chunks between kernel launches: one launch per virtual second.
const KICK_CHUNKS: u64 = 20;
/// Most frames the writer may have queued before the loop waits for it.
/// Half the writer's queue, so no frame is ever dropped.
const MAX_BACKLOG: u64 = 32_768;
/// Frames the acquisition-layer timings replay from the recording.
const LAYER_FRAMES: usize = 100_000;
/// The GPU riser's module layout: (module, rail) per sensor pair.
const PAIRS: [(ModuleKind, RailId); 3] = [
    (ModuleKind::Slot10A3V3, RailId::Slot3V3),
    (ModuleKind::Slot10A12V, RailId::Slot12V),
    (ModuleKind::Pcie8Pin20A, RailId::Ext12V),
];

fn kernel() -> GpuKernel {
    GpuKernel::synthetic_fma(SimDuration::from_millis(600), 8)
}

pub fn run(args: &Args, traced: bool) -> Report {
    let mut report = Report::new();
    let dir = args.dir.join("ingest");
    std::fs::create_dir_all(&dir).expect("create the ingest directory");
    let path = dir.join("ingest.ps3a");

    let setup = Instant::now();
    let setup_cpu = cpu_s();
    let mut tb = setups::gpu_riser(GpuSpec::rtx4000_ada(), args.seed);
    let gpu = tb.dut();
    let sensor = tb.connect().expect("connect the GPU testbed");
    let configs = sensor.configs();
    let writer = TsdbWriter::spawn(&path, configs.clone(), TsdbWriterOptions::default())
        .expect("create the ingest archive");
    writer.attach(&sensor);
    let setup_s = cpu_s() - setup_cpu;
    let setup_wall_s = setup.elapsed().as_secs_f64();

    // The recording probe (traced run only): every frame the host
    // decoded, as the input of the layer timings.
    let recorded: Arc<Mutex<Vec<ArchiveFrame>>> = Arc::default();
    if traced {
        let recorded = Arc::clone(&recorded);
        sensor.add_frame_sink(move |record| {
            recorded.lock().expect("recording lock").push(ArchiveFrame {
                time: record.time,
                raw: record.raw,
                present: record.present,
                marker: record.marker,
            });
            true
        });
    }

    let cpu_start = cpu_s();
    let epoch = Instant::now();
    let measure = Duration::from_secs_f64(args.seconds);
    let mut issued_ns: Vec<u64> = Vec::new();
    let mut sealed_ns: Vec<u64> = Vec::new();
    let note_seals = |sealed_ns: &mut Vec<u64>| {
        let now = ns_since(epoch);
        while (sealed_ns.len() as u64) < writer.segments_sealed() {
            sealed_ns.push(now);
        }
    };
    let mut advanced = true;
    while epoch.elapsed() < measure {
        let chunk = issued_ns.len() as u64;
        if chunk.is_multiple_of(KICK_CHUNKS) {
            gpu.lock().launch(kernel());
        }
        issued_ns.push(ns_since(epoch));
        if let Err(e) = tb.advance_and_sync(&sensor, SimDuration::from_millis(CHUNK_MS)) {
            advanced = report.check(false, || format!("advance failed: {e}"));
            break;
        }
        while tb.frames_emitted().saturating_sub(writer.frames_written()) > MAX_BACKLOG {
            note_seals(&mut sealed_ns);
            std::thread::sleep(Duration::from_micros(200));
        }
        note_seals(&mut sealed_ns);
    }
    let emitted = tb.frames_emitted();
    let stats = writer.finish().expect("seal the ingest archive");
    let end_ns = ns_since(epoch);
    let cpu = cpu_s() - cpu_start;
    while (sealed_ns.len() as u64) < stats.segments {
        sealed_ns.push(end_ns);
    }

    let chunks = issued_ns.len() as u64;
    report.check(!advanced || emitted == chunks * CHUNK_FRAMES, || {
        format!("{chunks} chunks emitted {emitted} frames")
    });
    report.check(stats.frames == emitted && stats.dropped == 0, || {
        format!(
            "archived {} of {emitted} frames ({} dropped)",
            stats.frames, stats.dropped
        )
    });
    let archive = Archive::open(&path).expect("reopen the ingest archive");
    let verify = archive.verify().expect("verify the ingest archive");
    report.check(verify.is_clean() && archive.frames() == emitted, || {
        format!(
            "archive verify: {} frames, errors {:?}",
            archive.frames(),
            verify.errors
        )
    });
    report.ops(
        emitted,
        emitted.saturating_sub(archive.frames()) + stats.dropped,
    );

    // Every frame of a chunk shares its request time and its segment.
    let mut ages_ms: Vec<f64> = issued_ns
        .iter()
        .enumerate()
        .filter_map(|(c, &issued)| {
            let segment = ((c as u64 + 1) * CHUNK_FRAMES - 1) / SEGMENT_FRAMES;
            let sealed = *sealed_ns.get(segment as usize)?;
            Some(sealed.saturating_sub(issued) as f64 / 1e6)
        })
        .collect();
    report.metric("cpu_us_per_op", cpu * 1e6 / stats.frames as f64, "us");
    report.metric(
        "throughput_per_s",
        stats.frames as f64 / (end_ns as f64 / 1e9),
        "1/s",
    );
    report.metric("latency_p50_ms", percentile(&mut ages_ms, 0.50), "ms");
    report.metric("latency_p90_ms", percentile(&mut ages_ms, 0.90), "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("setup_wall_s", setup_wall_s, "s");

    if traced {
        report.metric("archive.frames_written", stats.frames as f64, "count");
        report.metric("archive.writer_dropped", stats.dropped as f64, "count");
        let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        report.metric(
            "archive.bytes_per_frame",
            file_bytes as f64 / stats.frames.max(1) as f64,
            "B",
        );
        drop(archive);
        let mut frames = std::mem::take(&mut *recorded.lock().expect("recording lock"));
        report.check(frames.len() as u64 == emitted, || {
            format!("recorded {} of {emitted} frames", frames.len())
        });
        trace_archive(&mut report, &frames, &configs, &dir);
        trace_upkeep(&mut report, &path);
        frames.truncate(LAYER_FRAMES);
        trace_acquisition(&mut report, &frames, &configs, args.seed);
    }
    drop(sensor);
    drop(tb);
    report.metric("rss_peak_mb", rss_peak_mb(), "MiB");
    report
}

/// Segment encode and seal (write + `sync_data`) on the recorded frames.
fn trace_archive(
    report: &mut Report,
    frames: &[ArchiveFrame],
    configs: &[SensorConfig; SENSOR_SLOTS],
    dir: &Path,
) {
    use std::io::Write as _;
    let adc = AdcSpec::POWERSENSOR3;
    let scratch = dir.join("seal-scratch.bin");
    let mut file = std::fs::File::create(&scratch).expect("create the seal scratch file");
    let mut encode_ns = 0.0;
    let mut seal_ms = Vec::new();
    for (seq, segment) in frames.chunks(SEGMENT_FRAMES as usize).enumerate() {
        let watts: Vec<f64> = segment
            .iter()
            .map(|f| frame_total(configs, &adc, f).value())
            .collect();
        let (bytes, ns) = timed(|| build_segment(seq as u32, segment, &watts));
        encode_ns += ns;
        let (sealed, ns) = timed(|| file.write_all(&bytes).and_then(|()| file.sync_data()));
        report.check(sealed.is_ok(), || "sealing a segment failed".into());
        seal_ms.push(ns / 1e6);
    }
    drop(file);
    let _ = std::fs::remove_file(&scratch);
    report.metric(
        "archive.encode_ns_per_frame",
        encode_ns / frames.len().max(1) as f64,
        "ns",
    );
    let max = seal_ms.iter().copied().fold(f64::NAN, f64::max);
    report.metric("archive.seal_ms_p50", percentile(&mut seal_ms, 0.50), "ms");
    report.metric("archive.seal_ms_max", max, "ms");
}

/// Replays the writer's per-seal pyramid upkeep (`append_from_index` +
/// `save_for`, which rewrites the whole sidecar) over the archive's
/// index, to show whether its cost grows with the segment count.
fn trace_upkeep(report: &mut Report, path: &Path) {
    let index = std::fs::read(index_path_for(path))
        .ok()
        .and_then(|bytes| ArchiveIndex::decode(&bytes).ok());
    let Some(index) = index else {
        report.check(false, || "ingest index unreadable".into());
        return;
    };
    let mut pyramid = Pyramid::new(PyramidConfig::default());
    let mut upkeep_ms = Vec::new();
    for rec in &index.segments {
        let (ok, ns) = timed(|| {
            pyramid.append_from_index(path, rec).is_ok() && pyramid.save_for(path).is_ok()
        });
        report.check(ok, || {
            format!("pyramid upkeep failed at segment {}", rec.seq)
        });
        upkeep_ms.push(ns / 1e6);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let n = upkeep_ms.len();
    report.metric(
        "tsdb.upkeep_ms_per_seal_first10",
        mean(&upkeep_ms[..n.min(10)]),
        "ms",
    );
    report.metric(
        "tsdb.upkeep_ms_per_seal_last10",
        mean(&upkeep_ms[n.saturating_sub(10)..]),
        "ms",
    );
}

/// Conversion instants of one frame starting at `start`, as the ADC
/// sequencer schedules them (8 channels × 6 averages, 25 cycles apart).
fn conversion_times(start: SimTime, out: &mut [SimTime]) {
    for (n, t) in out.iter_mut().enumerate() {
        *t = start + SimDuration::from_nanos(n as u64 * 25 * 1_000_000_000 / 24_000_000);
    }
}

/// The acquisition layers, each timed on its own over the recorded
/// capture's length and schedule: DUT model, analog frontend, ADC
/// sequencer, wire encode, virtual serial link and host decode.
fn trace_acquisition(
    report: &mut Report,
    frames: &[ArchiveFrame],
    configs: &[SensorConfig; SENSOR_SLOTS],
    seed: u64,
) {
    let n = frames.len().max(1) as f64;
    let frame_ns = 50_000;
    let mut times = [SimTime::ZERO; 48];

    // DUT: the rail evaluations the frontend makes per frame (36: the
    // three populated pairs' channels), on the workload's schedule.
    let mut gpu = GpuModel::new(GpuSpec::rtx4000_ada(), seed);
    let ((), dut_ns) = timed(|| {
        for i in 0..frames.len() as u64 {
            if i.is_multiple_of(SEGMENT_FRAMES) {
                gpu.launch(kernel());
            }
            conversion_times(SimTime::from_nanos(i * frame_ns), &mut times);
            for (k, &t) in times.iter().enumerate() {
                if let Some(&(_, rail)) = PAIRS.get(k % 8 / 2) {
                    std::hint::black_box(gpu.rail_state(rail, t));
                }
            }
        }
    });
    report.metric("duts.rail_state_ns_per_frame", dut_ns / n, "ns");

    // Frontend: the same DUT work plus the sensor transfer functions.
    let gpu = Arc::new(parking_lot::Mutex::new(GpuModel::new(
        GpuSpec::rtx4000_ada(),
        seed,
    )));
    let modules = PAIRS
        .iter()
        .enumerate()
        .map(|(i, &(kind, rail))| {
            let module = SensorModule::with_hall_spec(
                kind,
                kind.hall_spec(),
                seed.wrapping_add(i as u64 * 7919),
            );
            (module, rail)
        })
        .collect();
    let mut frontend = AnalogFrontend::new(Arc::clone(&gpu), modules);
    let mut volts = [0.0f64; 48];
    let ((), frontend_ns) = timed(|| {
        for i in 0..frames.len() as u64 {
            if i.is_multiple_of(SEGMENT_FRAMES) {
                gpu.lock().launch(kernel());
            }
            conversion_times(SimTime::from_nanos(i * frame_ns), &mut times);
            frontend.sample_frame(&times, &mut volts);
            std::hint::black_box(&volts);
        }
    });
    report.metric("testbed.frontend_ns_per_frame", frontend_ns / n, "ns");

    // ADC sequencer over a constant source.
    let mut sequencer = AdcSequencer::new();
    let mut adc_frames = Vec::with_capacity(frames.len());
    let ((), adc_ns) = timed(|| {
        let mut source = |channel: usize, _t: SimTime| 1.2 + 0.1 * channel as f64;
        sequencer.run_frames_into(&mut source, SimTime::ZERO, frames.len(), &mut adc_frames);
    });
    std::hint::black_box(&adc_frames);
    report.metric("firmware.adc_ns_per_frame", adc_ns / n, "ns");

    // Wire encode: a timestamp packet plus one per enabled slot.
    let mut wire = Vec::with_capacity(frames.len() * 2 * (1 + SENSOR_SLOTS));
    let ((), encode_ns) = timed(|| {
        for f in frames {
            let micros = (f.time.as_micros() & u64::from(VALUE_MASK)) as u16;
            wire.extend_from_slice(&Packet::Timestamp { micros }.encode());
            for (slot, &value) in f.raw.iter().enumerate() {
                if configs[slot].enabled {
                    let marker = slot == 0 && f.marker.is_some();
                    let sensor = slot as u8;
                    wire.extend_from_slice(
                        &Packet::Sample {
                            sensor,
                            marker,
                            value,
                        }
                        .encode(),
                    );
                }
            }
        }
    });
    report.metric("firmware.encode_ns_per_frame", encode_ns / n, "ns");

    // Virtual serial link: device-sized writes (one 64-frame batch)
    // read back on the host end.
    let (host, device) = VirtualSerial::pair();
    let batch = wire.len() / frames.len().max(1) * 64;
    let mut received = Vec::with_capacity(wire.len());
    let mut buf = vec![0u8; batch.max(1)];
    let (link_ok, link_ns) = timed(|| {
        for chunk in wire.chunks(batch.max(1)) {
            if device.write_all(chunk).is_err() {
                return false;
            }
            let mut got = 0;
            while got < chunk.len() {
                match host.read(&mut buf, Some(Duration::from_secs(1))) {
                    Ok(0) | Err(_) => return false,
                    Ok(k) => {
                        received.extend_from_slice(&buf[..k]);
                        got += k;
                    }
                }
            }
        }
        true
    });
    report.check(link_ok && received == wire, || {
        "virtual serial link lost bytes".into()
    });
    report.metric(
        "transport.ns_per_kib",
        link_ns / (wire.len().max(1) as f64 / 1024.0),
        "ns",
    );

    // Host decode of the recorded wire bytes.
    let (decoded, decode_ns) = timed(|| ps3_core::decode_stream(&received, configs));
    report.check(
        decoded.frames == frames.len() as u64 && decoded.resyncs == 0,
        || {
            format!(
                "decoded {} of {} frames with {} resyncs",
                decoded.frames,
                frames.len(),
                decoded.resyncs
            )
        },
    );
    report.metric("core.decode_ns_per_frame", decode_ns / n, "ns");
    report.metric("core.decoder_resyncs", decoded.resyncs as f64, "count");
}
