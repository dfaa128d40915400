//! `ps3-arc` — inspect and query PowerSensor3 archive files (.ps3a).
//!
//! ```text
//! ps3-arc record --out FILE [--dump FILE] [--frames N] [--seed N]
//!                [--segment-frames N]
//! ps3-arc info FILE [--json]
//! ps3-arc cat FILE [--start US] [--end US]
//! ps3-arc stats FILE [--engine fast|decode] [--start US] [--end US]
//! ps3-arc export-csv FILE [--out FILE] [--divisor N] [--start US] [--end US]
//! ps3-arc compact FILE [--target-frames N]
//! ps3-arc retain FILE --retain SPEC
//! ps3-arc verify FILE
//! ```
//!
//! `record` captures a constant-load run on the simulated 12 V
//! accuracy bench through the background archive writer (and, with
//! `--dump`, simultaneously through the live continuous-mode dump so
//! the two can be diffed). `cat` prints an archive range in exactly
//! the live dump text format; `stats` and `export-csv` use the
//! range-query walk over summary blocks (`stats` adds the tsdb
//! aggregation pyramid; `--engine decode` runs the walk's reference
//! mode, every tier rebuilt from decoded frames, and prints the same
//! bytes); `compact` merges small sealed segments crash-safely;
//! `retain` drops expired whole segments (`--retain 2h`, `--retain
//! 64mb`); `verify` deep-checks every segment and fails when the file
//! holds damage or an unsealed tail.

use std::process::ExitCode;

use powersensor3::analysis::DumpWriter;
use powersensor3::archive::{Archive, ArchiveWriter, ArchiveWriterOptions};
use powersensor3::cli::{flag, flag_value};
use powersensor3::duts::LoadProgram;
use powersensor3::firmware::{fold_pairs, SENSOR_SLOTS};
use powersensor3::sensors::ModuleKind;
use powersensor3::testbed::setups::accuracy_bench;
use powersensor3::tsdb::{
    compact_archive, pyramid_path_for, retain_archive, CompactOptions, Pyramid, PyramidConfig,
    Retention, Tsdb, DEFAULT_COMPACT_TARGET_FRAMES,
};
use powersensor3::units::{Amps, SimDuration, SimTime, Watts};

const SENSOR_PAIRS: usize = SENSOR_SLOTS / 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ps3-arc record --out FILE [--dump FILE] [--frames N] [--seed N] [--segment-frames N]\n\
         \x20      ps3-arc info FILE [--json]\n\
         \x20      ps3-arc cat FILE [--start US] [--end US]\n\
         \x20      ps3-arc stats FILE [--engine fast|decode] [--start US] [--end US]\n\
         \x20      ps3-arc export-csv FILE [--out FILE] [--divisor N] [--start US] [--end US]\n\
         \x20      ps3-arc verify FILE"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let command = args[0].as_str();
    let rest = &args[1..];
    let result = match command {
        "record" => cmd_record(rest),
        "info" => cmd_info(rest),
        "cat" => cmd_cat(rest),
        "stats" => cmd_stats(rest),
        "export-csv" => cmd_export_csv(rest),
        "compact" => cmd_compact(rest),
        "retain" => cmd_retain(rest),
        "verify" => cmd_verify(rest),
        _ => {
            eprintln!("unknown command '{command}'");
            return usage();
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ps3-arc {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The positional FILE argument: the first non-flag token that is not
/// a flag's value.
fn positional(args: &[String]) -> Option<String> {
    let mut skip = false;
    for arg in args {
        if skip {
            skip = false;
            continue;
        }
        if arg.starts_with("--") {
            skip = true;
            continue;
        }
        return Some(arg.clone());
    }
    None
}

fn open(args: &[String]) -> Result<Archive, String> {
    let path = positional(args).ok_or("missing archive path")?;
    Archive::open(&path).map_err(|e| format!("{path}: {e}"))
}

/// The decoded pyramid sidecar, if one exists, plus whether it is
/// fresh for the archive's current contents (a stale sidecar is
/// rebuilt, not served, on the next tsdb open).
fn pyramid_state(archive: &Archive) -> Option<(Pyramid, bool)> {
    let bytes = std::fs::read(pyramid_path_for(archive.path())).ok()?;
    let pyr = Pyramid::decode(&bytes).ok()?;
    let fresh = pyr.matches(archive);
    Some((pyr, fresh))
}

/// The query range: `[--start US, --end US)`, defaulting to the whole
/// archive (end exclusive, so the default end is last-frame + 1 µs).
fn range(args: &[String], archive: &Archive) -> Result<(SimTime, SimTime), String> {
    let start = flag(args, "--start")?
        .map(SimTime::from_micros)
        .or_else(|| archive.start_time())
        .unwrap_or(SimTime::ZERO);
    let end = flag(args, "--end")?
        .map(SimTime::from_micros)
        .unwrap_or_else(|| {
            SimTime::from_micros(archive.end_time().map_or(0, |t| t.as_micros() + 1))
        });
    Ok((start, end))
}

fn cmd_record(args: &[String]) -> Result<ExitCode, String> {
    let out = flag_value(args, "--out")?.ok_or("record needs --out FILE")?;
    let dump = flag_value(args, "--dump")?;
    let frames: u64 = flag(args, "--frames")?.unwrap_or(12_000);
    let seed = flag(args, "--seed")?.unwrap_or(7);
    let segment_frames: usize = flag(args, "--segment-frames")?.unwrap_or(4096);
    if segment_frames == 0 {
        return Err("--segment-frames must be positive".into());
    }

    let mut tb = accuracy_bench(
        ModuleKind::Slot10A12V,
        LoadProgram::Constant(Amps::new(6.0)),
        seed,
    );
    let ps = tb.connect().map_err(|e| e.to_string())?;
    tb.advance_and_sync(&ps, SimDuration::from_millis(2))
        .map_err(|e| e.to_string())?;

    let writer = ArchiveWriter::spawn(
        &out,
        ps.configs(),
        ArchiveWriterOptions {
            segment_frames,
            queue_capacity: 1 << 20,
        },
    )
    .map_err(|e| e.to_string())?;
    writer.attach(&ps);
    if let Some(dump_path) = &dump {
        let file = std::fs::File::create(dump_path).map_err(|e| e.to_string())?;
        ps.dump_to(file);
    }

    let quarter = SimDuration::from_micros(frames / 4 * 50);
    tb.advance_and_sync(&ps, quarter)
        .map_err(|e| e.to_string())?;
    ps.mark('k').map_err(|e| e.to_string())?;
    tb.advance_and_sync(&ps, quarter * 2)
        .map_err(|e| e.to_string())?;
    ps.mark('e').map_err(|e| e.to_string())?;
    tb.advance_and_sync(&ps, quarter)
        .map_err(|e| e.to_string())?;
    ps.stop_dump();
    let stats = writer.finish().map_err(|e| e.to_string())?;
    if stats.dropped > 0 {
        return Err(format!("archive queue dropped {} frames", stats.dropped));
    }
    println!(
        "recorded {} frames into {out}: {} bytes in {} segments ({:.3} bytes/sample)",
        stats.frames,
        stats.bytes,
        stats.segments,
        if stats.frames == 0 {
            0.0
        } else {
            stats.bytes as f64 / stats.frames as f64
        }
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_info(args: &[String]) -> Result<ExitCode, String> {
    let archive = open(args)?;
    let recovery = archive.recovery();

    if args.iter().any(|a| a == "--json") {
        let segments = archive
            .segments()
            .iter()
            .map(|meta| {
                format!(
                    r#"{{"seq":{},"offset":{},"frames":{},"start_us":{},"end_us":{},"sealed":true}}"#,
                    meta.header.seq,
                    meta.offset,
                    meta.header.frame_count,
                    meta.header.start_us,
                    meta.header.end_us
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let pyramid_json = match pyramid_state(&archive) {
            Some((pyr, fresh)) => {
                let counts = pyr.counts();
                format!(
                    r#"{{"fresh":{fresh},"blocks":{},"tier1_nodes":{},"tier2_nodes":{},"tier1_fanout":{},"tier2_fanout":{}}}"#,
                    counts.blocks,
                    counts.tier1,
                    counts.tier2,
                    pyr.config.tier1_blocks,
                    pyr.config.tier2_nodes
                )
            }
            None => "null".to_owned(),
        };
        let writer_json = recovery.dropped.map_or("null".to_owned(), |dropped| {
            format!(r#"{{"dropped":{dropped}}}"#)
        });
        println!(
            r#"{{"path":{:?},"frames":{},"used_index":{},"unsealed_trailing_bytes":{},"markers":{},"segments":[{segments}],"pyramid":{pyramid_json},"writer":{writer_json}}}"#,
            archive.path().display().to_string(),
            archive.frames(),
            recovery.used_index,
            recovery.trailing_bytes,
            archive.markers().len(),
        );
        return Ok(ExitCode::SUCCESS);
    }

    println!("{}", archive.path().display());
    println!(
        "  {} frames in {} sealed segments ({})",
        archive.frames(),
        archive.segments().len(),
        if recovery.used_index {
            "via sidecar index".to_owned()
        } else if recovery.trailing_bytes > 0 {
            format!(
                "recovery scan, {} unsealed trailing bytes ignored",
                recovery.trailing_bytes
            )
        } else {
            "recovery scan, clean".to_owned()
        }
    );
    if let (Some(start), Some(end)) = (archive.start_time(), archive.end_time()) {
        println!(
            "  time range {} .. {} us ({:.3} s)",
            start.as_micros(),
            end.as_micros(),
            end.saturating_duration_since(start).as_secs_f64()
        );
    }
    let enabled: Vec<String> = (0..SENSOR_PAIRS)
        .filter(|&p| archive.configs()[2 * p].enabled && archive.configs()[2 * p + 1].enabled)
        .map(|p| format!("{p} ({})", archive.configs()[2 * p].name))
        .collect();
    println!("  enabled pairs: {}", enabled.join(", "));
    match recovery.dropped {
        Some(dropped) => println!("  writer: finished cleanly, {dropped} frames dropped at the queue"),
        None => println!(
            "  writer: not finished (no Finished record in the index: the capture crashed, is still being written, or its index is stale)"
        ),
    }
    println!("  segments:");
    for meta in archive.segments() {
        println!(
            "    seq {:>4}  {:>7} frames  {:>12} .. {:<12} us  sealed",
            meta.header.seq, meta.header.frame_count, meta.header.start_us, meta.header.end_us
        );
    }
    if recovery.trailing_bytes > 0 {
        println!(
            "    tail      {:>7} bytes  unsealed (ignored)",
            recovery.trailing_bytes
        );
    }
    match pyramid_state(&archive) {
        Some((pyr, fresh)) => {
            let counts = pyr.counts();
            println!(
                "  pyramid: {} blocks -> {} tier-1 -> {} tier-2 nodes (fan-out {}x{}, sidecar {})",
                counts.blocks,
                counts.tier1,
                counts.tier2,
                pyr.config.tier1_blocks,
                pyr.config.tier2_nodes,
                if fresh { "fresh" } else { "STALE" }
            );
        }
        None => println!("  pyramid: no sidecar (built on first tsdb query)"),
    }
    let markers = archive.markers();
    println!("  markers: {}", markers.len());
    for &(t, label) in markers {
        println!("    {t} us  '{label}'");
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints an archived range in exactly the live continuous-mode dump
/// text format (header, data lines, `M` marker lines, seal record), so
/// `ps3-arc cat` of a recorded archive diffs clean against the dump
/// the live sensor wrote at capture time.
fn cmd_cat(args: &[String]) -> Result<ExitCode, String> {
    let archive = open(args)?;
    let (start, end) = range(args, &archive)?;
    let (configs, adc) = (archive.configs(), archive.adc());
    let emit = (|| -> std::io::Result<()> {
        let mut dump = DumpWriter::new(std::io::BufWriter::new(std::io::stdout().lock()))?;
        // Per-pair last readings mirror the live sensor's pair state:
        // a pair's column appears once it has reported at least once.
        let mut last: [Option<Watts>; SENSOR_PAIRS] = [None; SENSOR_PAIRS];
        let mut frames = Vec::new();
        for meta in archive.segments() {
            // Only the summary blocks holding frames in range.
            let blocks = meta.blocks_overlapping(start.as_micros(), end.as_micros());
            frames.clear();
            archive
                .decode_blocks_into(meta, blocks, &mut frames)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            for &frame in &frames {
                if frame.time < start {
                    continue;
                }
                if frame.time >= end {
                    break;
                }
                let total = fold_pairs(configs, adc, &frame.raw, frame.present, |pair, _, _, w| {
                    last[pair] = Some(w);
                });
                dump.frame(
                    frame.time,
                    last.iter().flatten().copied(),
                    total,
                    frame.marker,
                )?;
            }
        }
        dump.seal().map(drop)
    })();
    emit.map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let archive = open(args)?;
    let (start, end) = range(args, &archive)?;
    let tsdb = Tsdb::from_archive(archive, PyramidConfig::default());
    let engine = flag_value(args, "--engine")?.unwrap_or_else(|| "fast".to_owned());
    let (stats, energy) = match engine.as_str() {
        // The tiered walk over summary blocks and pyramid nodes.
        "fast" => (tsdb.stats(start, end), tsdb.energy(start, end)),
        // The reference mode: every tier rebuilt from decoded frames.
        "decode" => (tsdb.stats_ref(start, end), tsdb.energy_ref(start, end)),
        other => {
            return Err(format!(
                "unknown --engine '{other}' (expected fast or decode)"
            ))
        }
    };
    let stats = stats.map_err(|e| e.to_string())?;
    let energy = energy.map_err(|e| e.to_string())?;
    let archive = tsdb.archive();
    println!(
        "range [{}, {}) us: {} samples",
        start.as_micros(),
        end.as_micros(),
        stats.count
    );
    if let Some(mean) = stats.mean_w() {
        println!(
            "  power  mean {mean:.4} W  min {:.4} W  max {:.4} W",
            stats.min_w, stats.max_w
        );
    }
    println!("  energy {:.6} J", energy.value());
    let markers: Vec<String> = archive
        .markers()
        .iter()
        .filter(|(t, _)| *t >= start.as_micros() && *t < end.as_micros())
        .map(|(t, label)| format!("'{label}'@{t}"))
        .collect();
    if !markers.is_empty() {
        println!("  markers {}", markers.join(" "));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_export_csv(args: &[String]) -> Result<ExitCode, String> {
    let archive = open(args)?;
    let (start, end) = range(args, &archive)?;
    let divisor = flag(args, "--divisor")?.unwrap_or(1);
    if divisor == 0 {
        return Err("--divisor must be positive".into());
    }
    let trace = archive
        .downsample(start, end, divisor)
        .map_err(|e| e.to_string())?;

    let mut text = String::from("t_us,power_w\n");
    for s in trace.samples() {
        text.push_str(&format!("{},{:.6}\n", s.time.as_micros(), s.power.value()));
    }
    match flag_value(args, "--out")? {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
            eprintln!("wrote {} rows to {path}", trace.len());
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compact(args: &[String]) -> Result<ExitCode, String> {
    let path = positional(args).ok_or("missing archive path")?;
    let target = flag(args, "--target-frames")?.unwrap_or(DEFAULT_COMPACT_TARGET_FRAMES);
    if target == 0 {
        return Err("--target-frames must be positive".into());
    }
    let report = compact_archive(
        &path,
        CompactOptions {
            target_frames: target,
            config: PyramidConfig::default(),
        },
    )
    .map_err(|e| e.to_string())?;
    println!(
        "compacted {path}: {} -> {} segments, {} -> {} bytes",
        report.segments_before, report.segments_after, report.bytes_before, report.bytes_after
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_retain(args: &[String]) -> Result<ExitCode, String> {
    let path = positional(args).ok_or("missing archive path")?;
    let spec =
        flag_value(args, "--retain")?.ok_or("retain needs --retain SPEC (e.g. 30m, 2h, 64mb)")?;
    let retention = Retention::parse(&spec)?;
    let report =
        retain_archive(&path, retention, PyramidConfig::default()).map_err(|e| e.to_string())?;
    println!(
        "retained {path} ({}): {} -> {} segments, {} -> {} bytes",
        retention.describe(),
        report.segments_before,
        report.segments_after,
        report.bytes_before,
        report.bytes_after
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    let archive = open(args)?;
    let report = archive.verify().map_err(|e| e.to_string())?;
    println!(
        "{}: {} segments, {} frames deep-verified",
        archive.path().display(),
        report.segments_ok,
        report.frames
    );
    for error in &report.errors {
        println!("  DAMAGE: {error}");
    }
    if report.trailing_bytes > 0 {
        println!(
            "  TORN TAIL: {} unsealed trailing bytes (data past the last seal is not served)",
            report.trailing_bytes
        );
    }
    if report.is_clean() {
        println!("  clean");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}
