//! `repro` checks its thread count wherever it comes from: a malformed
//! `PS3_JOBS` is refused like a malformed `--jobs`, not replaced by
//! "all cores".

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

static RUNS: AtomicUsize = AtomicUsize::new(0);

/// Runs `repro` on an experiment name it does not know, so a run that
/// gets past argument checking stops at once with "unknown experiment".
fn repro(ps3_jobs: &str) -> (Option<i32>, String) {
    let run = RUNS.fetch_add(1, Ordering::SeqCst);
    let results = std::env::temp_dir().join(format!("ps3-repro-cli-{}-{run}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("no-such-experiment")
        .env("PS3_JOBS", ps3_jobs)
        .env("PS3_RESULTS_DIR", &results)
        .output()
        .expect("spawn repro");
    let _ = std::fs::remove_dir_all(&results);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_ps3_jobs_is_refused_by_name() {
    for value in ["abc", "0", "-2", "", " 2"] {
        let (code, err) = repro(value);
        assert_eq!(code, Some(1), "PS3_JOBS={value:?}: {err}");
        assert!(
            err.contains("PS3_JOBS needs a positive integer"),
            "PS3_JOBS={value:?}: {err}"
        );
        assert!(
            !err.contains("unknown experiment"),
            "PS3_JOBS={value:?}: {err}"
        );
    }
}

#[test]
fn well_formed_ps3_jobs_is_accepted() {
    let (code, err) = repro("2");
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("unknown experiment"), "{err}");
    assert!(!err.contains("PS3_JOBS"), "{err}");
}
