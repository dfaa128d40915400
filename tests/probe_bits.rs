//! Pins the RAPL probe family's output bit for bit.
//!
//! Every access path reads the same package energy and differs only in
//! read cost, background cost, update tick, quantisation unit and
//! counter width. The `overhead` bench experiment and the `probes` sim
//! scenario inherit every one of those numbers, so a change to how the
//! probes are built or dispatched must not move a single bit. This test
//! polls each [`ProbeKind`] through an [`EnergySession`] over the same
//! fixed workload and checks an FNV-1a digest of:
//!
//! * every raw register value the session returns;
//! * the session's wrap-corrected total in counter units;
//! * the nanoseconds the probe stole from the package.
//!
//! Polls come on an irregular schedule: bursts of 1 µs–2.3 ms gaps that
//! land inside and across the 50 µs and 1 ms update ticks (and inside
//! an in-flight read), then a ~20 s leap. The run lasts long enough for
//! both 32-bit counters (powercap's microjoules and the MSR's
//! energy-status units) to wrap, which the test checks.

use std::sync::Arc;

use parking_lot::Mutex;
use powersensor3::duts::{CpuModel, CpuPhase, CpuSpec, CpuWorkload};
use powersensor3::pmt::{EnergySession, ProbeKind, SharedCpu};
use powersensor3::units::{SimDuration, SimTime};

/// Gaps (µs) between polls, cycled; one cycle spans ~20 s.
const STEPS_US: [u64; 9] = [1, 3, 46, 50, 137, 400, 999, 2_300, 19_997_000];

/// Polling stops once simulated time passes this (the workload ends
/// at ~4000 s).
const END_US: u64 = 4_100_000_000;

/// Pinned digests, one per kind.
const PINNED: [(&str, u64); 5] = [
    ("powercap_sysfs", 0xAD6E_F258_28F4_B610),
    ("msr", 0x0354_F943_7705_9567),
    ("perf_event", 0x73FD_2049_6DDB_7CFB),
    ("ebpf", 0xC1C0_8CDA_1549_993D),
    ("ps3_external", 0xC3D1_FB4B_035C_7754),
];

/// ~292 kJ over ~4000 s: past the MSR's 2³² × 2⁻¹⁴ J = 262 kJ wrap.
fn package() -> SharedCpu {
    let phase = |label, util, secs| CpuPhase {
        label,
        util,
        work: SimDuration::from_secs(secs),
    };
    Arc::new(Mutex::new(CpuModel::new(
        CpuSpec::desktop(),
        CpuWorkload::new(vec![
            phase('a', 1.0, 2_000),
            phase('b', 0.3, 600),
            phase('c', 1.0, 1_400),
        ]),
    )))
}

fn fold(digest: &mut u64, x: u64) {
    for byte in x.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Polls `kind` over a fresh package; returns the digest and how often
/// the raw register went backwards.
fn run(kind: ProbeKind) -> (u64, usize) {
    let cpu = package();
    let mut session = EnergySession::over(kind, Arc::clone(&cpu));
    let mut digest = 0xCBF2_9CE4_8422_2325;
    let mut wraps = 0;
    let mut prev = 0;
    let mut now_us = 0;
    let mut polls = 0;
    while now_us <= END_US {
        let raw = session.poll(SimTime::from_micros(now_us));
        fold(&mut digest, raw);
        wraps += usize::from(raw < prev);
        prev = raw;
        now_us += STEPS_US[polls % STEPS_US.len()];
        polls += 1;
    }
    assert_eq!(session.reads(), polls as u64);
    fold(&mut digest, session.total_units());
    fold(&mut digest, cpu.lock().stolen_total().as_nanos());
    (digest, wraps)
}

#[test]
fn probe_family_output_matches_the_pinned_bits() {
    let mut got = Vec::new();
    for kind in ProbeKind::ALL {
        let (digest, wraps) = run(kind);
        let bits = kind.spec().counter_bits;
        if bits == 32 {
            assert!(
                wraps >= 1,
                "{}: the 32-bit counter never wrapped",
                kind.label()
            );
        } else {
            assert_eq!(wraps, 0, "{}: a {bits}-bit counter wrapped", kind.label());
        }
        got.push((kind.slug(), digest));
    }
    assert_eq!(
        got,
        PINNED,
        "probe family output changed; got {:#018X?}",
        got.iter().map(|g| g.1).collect::<Vec<_>>()
    );
}
