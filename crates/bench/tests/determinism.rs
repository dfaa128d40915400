//! The parallel engine's core guarantee: `repro` output is
//! bit-identical for any thread count. Every parallel unit owns a
//! testbed and RNG stream derived purely from its identity, so runs on
//! 1 lane and on 8 lanes must produce byte-for-byte equal reports and
//! CSV rows.
//!
//! The experiments here run at smoke scale; the cross-check covers
//! every parallel code path: the experiment-level fan-out, the fig4
//! per-point sweep, the table2 per-load runs, and the fig8/fig10
//! chunked tuner sweeps (nested `par_map` calls).

use ps3_bench::driver::{run_all, Scale};

/// Experiments covering all intra-experiment parallel paths plus a
/// serial-by-nature one (table1) for the experiment-level fan-out and
/// the archive store (whose on-disk byte counts must also be
/// reproducible run to run).
const NAMES: [&str; 7] = [
    "table1", "table2", "fig4", "fig8", "fig10", "archive", "overhead",
];

const SEED: u64 = 0xD57E_4213;

#[test]
fn outputs_identical_for_one_and_eight_jobs() {
    let scale = Scale::smoke();

    rayon::configure_global(1);
    assert_eq!(rayon::current_num_threads(), 1);
    let serial = run_all(&NAMES, &scale, SEED);

    rayon::configure_global(8);
    assert_eq!(rayon::current_num_threads(), 8);
    let parallel = run_all(&NAMES, &scale, SEED);

    // Leave the lane budget in its default state for other tests in
    // this binary (none today, but cheap insurance).
    rayon::configure_global(0);

    assert_eq!(serial.len(), parallel.len());
    for (name, (s, p)) in NAMES.iter().zip(serial.iter().zip(&parallel)) {
        let s = s.output.as_ref().expect("known experiment");
        let p = p.output.as_ref().expect("known experiment");
        // Reports are rendered with fixed-precision formatting, so a
        // byte-equal report means every displayed statistic agrees.
        assert_eq!(s.report, p.report, "{name}: report differs across jobs");
        // CSV rows carry the full-precision f64 values: this is the
        // bit-identical check (NaN never appears in these artifacts,
        // so f64 equality is exact bit equality here).
        assert_eq!(s.csvs.len(), p.csvs.len(), "{name}: artifact count");
        for (sc, pc) in s.csvs.iter().zip(&p.csvs) {
            assert_eq!(sc.name, pc.name);
            assert_eq!(sc.header, pc.header);
            assert_eq!(sc.rows, pc.rows, "{}: rows differ across jobs", sc.name);
        }
        assert_eq!(s.samples, p.samples);
        assert_eq!(s.metrics, p.metrics, "{name}: metrics differ across jobs");
    }
}
