//! Integration tests of the `ps3sim` CLI binary (spawned as a real
//! process, like a user would run it).

use std::process::Command;

fn ps3sim(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_ps3sim"))
        .args(args)
        .output()
        .expect("spawn ps3sim");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let (_, err, ok) = ps3sim(&[]);
    assert!(!ok);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_setup_is_rejected() {
    let (_, err, ok) = ps3sim(&["info", "--setup", "toaster"]);
    assert!(!ok);
    assert!(err.contains("unknown setup"), "{err}");
}

#[test]
fn info_shows_gpu_sensor_pairs() {
    let (out, _, ok) = ps3sim(&["info", "--setup", "gpu"]);
    assert!(ok);
    assert!(out.contains("Slot-3V3-10A"), "{out}");
    assert!(out.contains("PCIe-8pin-20A"), "{out}");
    assert!(out.contains("total:"), "{out}");
}

#[test]
fn version_reports_firmware_string() {
    let (out, _, ok) = ps3sim(&["version"]);
    assert!(ok);
    assert!(out.contains("PowerSensor3-rs"), "{out}");
}

#[test]
fn run_measures_a_workload() {
    let (out, _, ok) = ps3sim(&["run", "--setup", "bench", "--millis", "50"]);
    assert!(ok);
    assert!(out.contains("J over"), "{out}");
    assert!(out.contains("avg"), "{out}");
}

#[test]
fn dump_then_parse_round_trips() {
    let dir = std::env::temp_dir().join("ps3sim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dump.txt");
    let path_s = path.to_str().unwrap();
    let (out, err, ok) = ps3sim(&["dump", "--setup", "gpu", "--millis", "100", "--out", path_s]);
    assert!(ok, "dump failed: {out} {err}");
    let (out, err, ok) = ps3sim(&["parse", path_s]);
    assert!(ok, "parse failed: {err}");
    assert!(out.contains("samples over"), "{out}");
    assert!(out.contains("marker 's'"), "{out}");
    assert!(out.contains("between 's' and 'e'"), "{out}");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn calibrate_reports_corrections() {
    let (out, err, ok) = ps3sim(&["calibrate", "--seed", "7"]);
    assert!(ok, "{err}");
    assert!(out.contains("pair 0: removed"), "{out}");
    assert!(out.contains("gain correction"), "{out}");
}

#[test]
fn test_command_prints_interval_rows() {
    let (out, _, ok) = ps3sim(&["test", "--setup", "ssd"]);
    assert!(ok);
    // Six exponentially growing intervals.
    assert!(out.matches(" J ").count() >= 6, "{out}");
}

// ---------------------------------------------------------------------------
// ps3-arc: the archive store CLI.
// ---------------------------------------------------------------------------

fn ps3arc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_ps3-arc"))
        .args(args)
        .output()
        .expect("spawn ps3-arc");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn arc_no_args_prints_usage_and_fails() {
    let (_, err, ok) = ps3arc(&[]);
    assert!(!ok);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn arc_record_cat_matches_live_dump_and_queries_work() {
    let dir = std::env::temp_dir().join("ps3arc_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let arc = dir.join("capture.ps3a");
    let dump = dir.join("capture-dump.txt");
    let (arc_s, dump_s) = (arc.to_str().unwrap(), dump.to_str().unwrap());

    let (out, err, ok) = ps3arc(&[
        "record",
        "--out",
        arc_s,
        "--dump",
        dump_s,
        "--frames",
        "2000",
        "--seed",
        "5",
        "--segment-frames",
        "512",
    ]);
    assert!(ok, "record failed: {out} {err}");
    assert!(out.contains("recorded 2000 frames"), "{out}");

    // `cat` reproduces the live continuous-mode dump byte for byte.
    let (cat, err, ok) = ps3arc(&["cat", arc_s]);
    assert!(ok, "{err}");
    let live = std::fs::read_to_string(&dump).unwrap();
    assert_eq!(cat, live, "archived cat differs from live dump");
    assert!(cat.ends_with("# end frames=2000\n"), "missing seal");

    let (info, _, ok) = ps3arc(&["info", arc_s]);
    assert!(ok);
    assert!(info.contains("2000 frames"), "{info}");
    assert!(info.contains("'k'") && info.contains("'e'"), "{info}");

    let (stats, _, ok) = ps3arc(&["stats", arc_s]);
    assert!(ok);
    assert!(stats.contains("2000 samples"), "{stats}");
    assert!(stats.contains("energy"), "{stats}");

    let (csv, _, ok) = ps3arc(&["export-csv", arc_s, "--divisor", "100"]);
    assert!(ok);
    assert!(csv.starts_with("t_us,power_w\n"), "{csv}");
    assert_eq!(csv.lines().count(), 1 + 2000 / 100, "{csv}");

    let (verify, _, ok) = ps3arc(&["verify", arc_s]);
    assert!(ok, "verify should pass on an intact archive: {verify}");
    assert!(verify.contains("clean"), "{verify}");

    // A torn tail (as a crash would leave) fails verify but the
    // sealed prefix still opens and serves frames.
    let torn = dir.join("torn.ps3a");
    let bytes = std::fs::read(&arc).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() - 21]).unwrap();
    let torn_s = torn.to_str().unwrap();
    let (verify, _, ok) = ps3arc(&["verify", torn_s]);
    assert!(!ok, "verify must fail on a torn archive: {verify}");
    assert!(verify.contains("TORN TAIL"), "{verify}");
    let (info, _, ok) = ps3arc(&["info", torn_s]);
    assert!(ok, "info must still open a torn archive");
    assert!(info.contains("unsealed trailing bytes ignored"), "{info}");

    for f in [&arc, &dump, &torn, &dir.join("capture.ps3x")] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn arc_stats_engines_print_identical_answers() {
    let dir = std::env::temp_dir().join(format!("ps3arc_cli_engines_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let arc = dir.join("capture.ps3a");
    let arc_s = arc.to_str().unwrap();
    let (out, err, ok) = ps3arc(&[
        "record",
        "--out",
        arc_s,
        "--frames",
        "6000",
        "--seed",
        "3",
        "--segment-frames",
        "1000",
    ]);
    assert!(ok, "record failed: {out} {err}");

    // The full span, then a range that starts and ends mid-block.
    for range in [&[][..], &["--start", "12345", "--end", "187654"][..]] {
        let run = |engine: &str| {
            let mut args = vec!["stats", arc_s, "--engine", engine];
            args.extend_from_slice(range);
            let (out, err, ok) = ps3arc(&args);
            assert!(ok, "--engine {engine} failed: {err}");
            out
        };
        let fast = run("fast");
        assert!(fast.contains("energy"), "{fast}");
        assert_eq!(fast, run("decode"), "engines disagree over {range:?}");
    }

    let (_, err, ok) = ps3arc(&["stats", arc_s, "--engine", "pyramid"]);
    assert!(!ok, "a removed engine must be rejected");
    assert!(err.contains("unknown --engine"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
