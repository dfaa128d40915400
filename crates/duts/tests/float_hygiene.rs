//! No per-conversion DUT model may feed a subnormal operand to the FPU.
//!
//! The testbed asks a DUT for its rail state at every ADC conversion
//! (36 times per 20 kHz frame), so one x86 microcode assist per call
//! (an arithmetic instruction that meets a subnormal operand takes one,
//! at ~100 cycles) costs more than the model's own arithmetic. The
//! usual source is an empty `Option` whose payload holds an `f64`:
//! `None` writes only the tag, the payload keeps whatever bytes the
//! model was built over, and the optimiser may evaluate float work on
//! that payload ahead of the tag check. Stale integers such as
//! `0x12345`, read as an `f64`, are subnormal.
//!
//! Each probe fills the stack with such words, builds the model in a
//! `Box` over them, drives it into a state, and calls `rail_state` on
//! every rail with MXCSR's sticky flags cleared before each call,
//! counting the calls after which the denormal-operand flag (DE) is
//! set. Every count must be zero.
//!
//! Run it in release (`cargo test --release -p ps3-duts --test
//! float_hygiene`): a debug build does not hoist float work ahead of
//! the tag check, so there it passes whatever the storage.

#![cfg(target_arch = "x86_64")]

use std::arch::asm;
use std::hint::black_box;

use ps3_duts::{
    BenchSetup, CpuModel, CpuPhase, CpuSpec, CpuWorkload, Dut, FioJob, GpuKernel, GpuModel,
    GpuSpec, IoPattern, JetsonModel, JetsonSpec, LoadProgram, NicModel, NicSpec, SsdModel, SsdSpec,
    TrafficLoad,
};
use ps3_units::{Amps, SimDuration, SimTime};

/// MXCSR's denormal-operand flag.
const DE: u32 = 1 << 1;
/// MXCSR's six sticky exception flags.
const FLAGS: u32 = 0x3F;
/// A stale stack word: as an `f64` it is subnormal.
const STALE: u64 = 0x12345;
/// Conversions per probe (20 000 is one virtual second at 20 kHz of one
/// sensor pair).
const CALLS: usize = 20_000;

fn mxcsr() -> u32 {
    let mut csr = 0u32;
    // SAFETY: `stmxcsr` stores the 32-bit MXCSR into `csr`, a live,
    // aligned, writable local; it reads no other memory and changes no
    // register.
    unsafe { asm!("stmxcsr [{}]", in(reg) &mut csr, options(nostack, preserves_flags)) };
    csr
}

fn clear_flags() {
    let csr = mxcsr() & !FLAGS;
    // SAFETY: `ldmxcsr` loads MXCSR from `csr`, a live, aligned local.
    // The value differs from the current MXCSR only in the sticky
    // exception flags, so masks, rounding and DAZ/FTZ are unchanged and
    // no float result anywhere changes.
    unsafe { asm!("ldmxcsr [{}]", in(reg) &csr, options(nostack, readonly, preserves_flags)) };
}

/// Leaves [`STALE`] words in the stack below the caller's frame.
#[inline(never)]
fn fill_stack() {
    let words = [STALE; 8192];
    black_box(&words);
}

/// Builds `T` in a frame over the stale words and boxes it.
#[inline(never)]
fn build<T>(make: impl FnOnce() -> T) -> Box<T> {
    Box::new(make())
}

fn on_stale_stack<T>(make: impl FnOnce() -> T) -> Box<T> {
    fill_stack();
    build(make)
}

/// Per-state DE counts, reported together.
#[derive(Default)]
struct Report {
    rows: Vec<(String, usize)>,
    now: SimTime,
}

impl Report {
    /// Calls `rail_state` on every rail of `dut`, `CALLS` times in all,
    /// `step` apart, and records how many calls raised DE.
    fn probe(&mut self, state: &str, dut: &mut dyn Dut, step: SimDuration) {
        let rails = dut.rails();
        let mut raised = 0;
        for call in 0..CALLS {
            if call % rails.len() == 0 {
                self.now += step;
            }
            let rail = rails[call % rails.len()];
            clear_flags();
            black_box(dut.rail_state(rail, self.now));
            if mxcsr() & DE != 0 {
                raised += 1;
            }
        }
        self.rows.push((state.to_owned(), raised));
    }

    fn assert_clean(&self) {
        let dirty: Vec<_> = self.rows.iter().filter(|r| r.1 > 0).collect();
        assert!(
            dirty.is_empty(),
            "DE raised (state, calls with DE of {CALLS}): {dirty:?}"
        );
    }
}

/// One conversion interval: 36 conversions per 50 µs frame.
const CONVERSION: SimDuration = SimDuration::from_nanos(1_389);

#[test]
fn the_probe_sees_a_subnormal_operand() {
    clear_flags();
    black_box(black_box(f64::from_bits(STALE)) * 2.0);
    assert_ne!(mxcsr() & DE, 0, "DE must flag a subnormal operand");
    clear_flags();
    black_box(black_box(1.5f64) * 2.0);
    assert_eq!(mxcsr() & DE, 0, "DE must stay clear on normal operands");
}

#[test]
fn gpu_model_raises_no_denormal_operand() {
    let mut r = Report::default();
    for spec in [GpuSpec::rtx4000_ada(), GpuSpec::w7700()] {
        let name = spec.name;
        let mut gpu = on_stale_stack(|| GpuModel::new(spec, 7));
        r.now = SimTime::ZERO;
        r.probe(
            &format!("{name}: idle, nothing launched"),
            &mut *gpu,
            CONVERSION,
        );

        // 8 waves of 75 ms with 400 µs gaps: 5 µs steps cross wave 0,
        // the first gap and wave 1.
        gpu.launch(GpuKernel::synthetic_fma(SimDuration::from_millis(600), 8));
        r.probe(
            &format!("{name}: running, nothing queued"),
            &mut *gpu,
            CONVERSION,
        );
        r.probe(
            &format!("{name}: waves and gaps, nothing queued"),
            &mut *gpu,
            SimDuration::from_micros(5),
        );
        assert!(gpu.busy(r.now));
        r.now = SimTime::from_micros(1_500_000);
        assert!(!gpu.busy(r.now));
        r.probe(
            &format!("{name}: idle after a kernel"),
            &mut *gpu,
            CONVERSION,
        );

        gpu.set_locked_clock(Some(1_200.0));
        gpu.launch(GpuKernel::synthetic_fma(SimDuration::from_millis(600), 8));
        r.probe(&format!("{name}: clock locked"), &mut *gpu, CONVERSION);
        gpu.set_locked_clock(Some(f64::INFINITY));
        r.probe(
            &format!("{name}: clock locked at infinity"),
            &mut *gpu,
            CONVERSION,
        );
        gpu.set_locked_clock(None);
        r.probe(&format!("{name}: clock unlocked"), &mut *gpu, CONVERSION);
        gpu.set_power_limit(Some(100.0));
        r.probe(&format!("{name}: power capped"), &mut *gpu, CONVERSION);
        gpu.set_power_limit(None);
        r.probe(&format!("{name}: cap lifted"), &mut *gpu, CONVERSION);
        let k = GpuKernel::synthetic_fma(SimDuration::from_millis(20), 2);
        gpu.launch(k);
        assert!(gpu.busy(r.now));
        r.probe(&format!("{name}: a kernel queued"), &mut *gpu, CONVERSION);
    }
    r.assert_clean();
}

#[test]
fn jetson_model_raises_no_denormal_operand() {
    let mut jetson = on_stale_stack(|| JetsonModel::new(JetsonSpec::agx_orin(), 7));
    let mut r = Report::default();
    r.probe("idle", &mut *jetson, CONVERSION);
    jetson.launch(GpuKernel::synthetic_fma(SimDuration::from_millis(600), 8));
    r.probe("running", &mut *jetson, CONVERSION);
    r.assert_clean();
}

#[test]
fn other_models_raise_no_denormal_operand() {
    let mut r = Report::default();

    let mut ssd = on_stale_stack(|| SsdModel::new(SsdSpec::samsung_980_pro(), 7));
    r.probe("ssd: idle", &mut *ssd, CONVERSION);
    ssd.start_job(FioJob {
        pattern: IoPattern::RandWrite { block_kib: 4 },
        queue_depth: 32,
    });
    r.probe("ssd: random writes", &mut *ssd, CONVERSION);
    ssd.stop_job();
    r.probe("ssd: job stopped", &mut *ssd, CONVERSION);

    let mut nic = on_stale_stack(|| NicModel::new(NicSpec::hundred_gbe()));
    r.probe("nic: idle", &mut *nic, CONVERSION);
    nic.offer(TrafficLoad {
        gbps: 40.0,
        packet_bytes: 1500,
    });
    r.probe("nic: traffic", &mut *nic, CONVERSION);
    nic.stop();
    r.probe("nic: stopped", &mut *nic, CONVERSION);

    let workload = CpuWorkload::new(vec![
        CpuPhase {
            label: 'a',
            util: 0.8,
            work: SimDuration::from_millis(5),
        },
        CpuPhase {
            label: 'b',
            util: 0.2,
            work: SimDuration::from_millis(5),
        },
    ]);
    let mut cpu = on_stale_stack(|| CpuModel::new(CpuSpec::desktop(), workload));
    r.probe("cpu: phases, then finished", &mut *cpu, CONVERSION);

    let mut constant =
        on_stale_stack(|| BenchSetup::twelve_volt(LoadProgram::Constant(Amps::new(8.0))));
    r.probe("bench: constant load", &mut *constant, CONVERSION);
    let mut square = on_stale_stack(|| {
        BenchSetup::twelve_volt(LoadProgram::SquareWave {
            low: Amps::new(3.3),
            high: Amps::new(8.0),
            frequency_hz: 100.0,
        })
    });
    r.probe("bench: square wave", &mut *square, CONVERSION);

    r.assert_clean();
}
