//! Archive experiment (beyond the paper): records the fig4-style
//! bench capture through the background [`ps3_archive::ArchiveWriter`]
//! and measures what the on-disk trace store costs and preserves —
//! bytes per sample versus the raw 2-byte wire stream, query
//! exactness against the live trace, and summary fast-path agreement.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ps3_archive::{Archive, ArchiveWriter, ArchiveWriterOptions};
use ps3_duts::LoadProgram;
use ps3_sensors::ModuleKind;
use ps3_testbed::setups::accuracy_bench;
use ps3_units::{Amps, SimDuration, SimTime};

/// One archived segment, for the CSV artifact.
#[derive(Debug, Clone)]
pub struct SegmentRow {
    /// Segment sequence number.
    pub seq: u32,
    /// Frames in the segment.
    pub frames: u64,
    /// On-disk bytes (header, tables, payload, seal).
    pub bytes: u64,
}

/// Everything the archive experiment measured.
#[derive(Debug, Clone)]
pub struct ArchiveResult {
    /// Frames captured and archived.
    pub frames: u64,
    /// Total archive file size in bytes (header + sealed segments).
    pub archive_bytes: u64,
    /// The same capture's raw wire footprint (one timestamp packet
    /// plus two sample packets, 2 bytes each, per one-pair frame).
    pub wire_bytes: u64,
    /// Sealed segments written.
    pub segments: Vec<SegmentRow>,
    /// Re-queried range equals the live trace bit for bit.
    pub roundtrip_exact: bool,
    /// Summary fast-path stats equal the full decode to the last bit.
    pub stats_exact: bool,
    /// Relative disagreement of the marker-window energy fast path
    /// against the live trace's trapezoid integral.
    pub energy_rel_err: f64,
    /// Deep verification found no damage.
    pub verify_clean: bool,
}

impl ArchiveResult {
    /// Archive bytes per stored sample frame, over the whole file,
    /// header included. `archive.csv`'s per-segment `bytes_per_sample`
    /// column leaves the file header out, so it reads lower.
    #[must_use]
    pub fn bytes_per_sample(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.archive_bytes as f64 / self.frames as f64
        }
    }

    /// Compression ratio versus the raw wire stream.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.archive_bytes == 0 {
            0.0
        } else {
            self.wire_bytes as f64 / self.archive_bytes as f64
        }
    }
}

fn temp_path() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("ps3-bench-archive-{}-{n}.ps3a", std::process::id()))
}

/// Runs the experiment: a constant-load capture on the 12 V accuracy
/// bench, archived live, then re-queried and checked against the
/// in-memory trace.
#[must_use]
pub fn run(samples: usize, seed: u64) -> ArchiveResult {
    let mut tb = accuracy_bench(
        ModuleKind::Slot10A12V,
        LoadProgram::Constant(Amps::new(6.0)),
        seed,
    );
    let ps = tb.connect().expect("connect");
    tb.advance_and_sync(&ps, SimDuration::from_millis(2))
        .expect("settle");

    let path = temp_path();
    let writer = ArchiveWriter::spawn(
        &path,
        ps.configs(),
        ArchiveWriterOptions {
            segment_frames: 4096,
            queue_capacity: 1 << 20,
        },
    )
    .expect("spawn archive writer");
    writer.attach(&ps);
    ps.begin_trace_with_capacity(samples);
    let quarter = SimDuration::from_micros(samples as u64 / 4 * 50);
    tb.advance_and_sync(&ps, quarter).expect("lead-in");
    ps.mark('k').expect("mark");
    tb.advance_and_sync(&ps, quarter * 2).expect("kernel");
    ps.mark('e').expect("mark");
    tb.advance_and_sync(&ps, quarter).expect("tail");
    let live = ps.end_trace();
    let stats = writer.finish().expect("finish archive");
    assert_eq!(stats.dropped, 0, "bounded queue dropped frames");

    let archive = Archive::open(&path).expect("open archive");
    let segments: Vec<SegmentRow> = archive
        .segments()
        .iter()
        .map(|meta| SegmentRow {
            seq: meta.header.seq,
            frames: u64::from(meta.header.frame_count),
            bytes: meta.header.disk_size(),
        })
        .collect();

    let t0 = live.samples()[0].time;
    let end = SimTime::from_micros(live.samples()[live.len() - 1].time.as_micros() + 1);
    let requeried = archive.read_range(t0, end).expect("read_range");
    let roundtrip_exact = requeried == live;

    let fast = archive.stats(t0, end).expect("stats");
    let slow = archive.stats_decoded(t0, end).expect("stats_decoded");
    let stats_exact = fast.count == slow.count
        && fast.sum_w.to_bits() == slow.sum_w.to_bits()
        && fast.min_w.to_bits() == slow.min_w.to_bits()
        && fast.max_w.to_bits() == slow.max_w.to_bits();

    let e_live = live
        .between_markers('k', 'e')
        .expect("marker window")
        .energy()
        .value();
    let e_arc = archive.energy_between('k', 'e').expect("energy").value();
    let energy_rel_err = (e_arc - e_live).abs() / e_live.abs().max(1e-12);

    let verify_clean = archive.verify().expect("verify").is_clean();

    drop(archive);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ps3_archive::index_path_for(&path)).ok();

    ArchiveResult {
        frames: stats.frames,
        archive_bytes: stats.bytes,
        wire_bytes: stats.frames * 6,
        segments,
        roundtrip_exact,
        stats_exact,
        energy_rel_err,
        verify_clean,
    }
}

/// Formats the paper-style report.
#[must_use]
pub fn render(r: &ArchiveResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ps3-archive: compressed trace store");
    let _ = writeln!(
        out,
        "  {} frames -> {} bytes in {} sealed segments",
        r.frames,
        r.archive_bytes,
        r.segments.len()
    );
    let _ = writeln!(
        out,
        "  {:.3} bytes/sample (whole file, header included) vs {:.1} on the wire ({:.2}x compression)",
        r.bytes_per_sample(),
        if r.frames == 0 {
            0.0
        } else {
            r.wire_bytes as f64 / r.frames as f64
        },
        r.ratio()
    );
    let _ = writeln!(
        out,
        "  round-trip exact: {}   stats fast path bit-exact: {}   verify clean: {}",
        r.roundtrip_exact, r.stats_exact, r.verify_clean
    );
    let _ = writeln!(
        out,
        "  marker-window energy fast path rel. err: {:.2e}",
        r.energy_rel_err
    );
    out
}
