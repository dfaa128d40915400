//! Pins the GPU model's output bit for bit.
//!
//! The GPU model's governor is float arithmetic over state that changes
//! shape: a kernel may be running or not, another may be queued, the
//! clock may be locked and the power limit overridden. A change to how
//! that state is stored must not move a single output bit, because
//! every `repro` CSV and sim fingerprint built on a GPU rig inherits
//! it. This test drives both vendor profiles through four scenarios and
//! checks an FNV-1a digest of the bit patterns of every `rail_state`
//! reading (all four rails) and the core clock after it:
//!
//! * **idle**: the card before its first launch;
//! * **queued**: a kernel launched while another runs, so it waits and
//!   then starts from the completion of the first;
//! * **locked**: the clock locked at idle and under load, including
//!   `Some(f64::INFINITY)`, then unlocked;
//! * **capped**: a power cap under load, then lifted.
//!
//! Readings come at irregular intervals, from 1 µs (the conversion
//! cadence inside one 20 kHz frame) to several integration steps.

use powersensor3::duts::{Dut, GpuKernel, GpuModel, GpuSpec, RailId};
use powersensor3::units::{SimDuration, SimTime};

const RAILS: [RailId; 4] = [
    RailId::Slot3V3,
    RailId::Slot12V,
    RailId::Ext12V,
    RailId::UsbC,
];

/// Gaps (µs) between readings, cycled.
const STEPS_US: [u64; 8] = [1, 1, 7, 25, 50, 137, 400, 2_300];

/// Pinned digests: (scenario, RTX 4000 Ada, W7700).
const PINNED: [(&str, u64, u64); 4] = [
    ("idle", 0x5D0D_0434_532B_6D9A, 0x78A1_D975_B94F_1B78),
    ("queued", 0x3DFC_1805_3AA3_8F0C, 0xB6AE_4467_F84A_40CA),
    ("locked", 0x7465_A899_FBF9_3AD0, 0xB213_6648_FFAF_0B09),
    ("capped", 0xF60C_BEFA_9F15_F137, 0xB7B2_F1A2_AD81_7F84),
];

/// Drives one model and digests what it reports.
struct Probe {
    gpu: GpuModel,
    now_us: u64,
    readings: usize,
    digest: u64,
}

impl Probe {
    fn new(spec: GpuSpec, seed: u64) -> Self {
        Self {
            gpu: GpuModel::new(spec, seed),
            now_us: 0,
            readings: 0,
            digest: 0xCBF2_9CE4_8422_2325,
        }
    }

    fn fold(&mut self, x: f64) {
        for byte in x.to_bits().to_le_bytes() {
            self.digest ^= u64::from(byte);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_us)
    }

    /// Reads every rail and the clock at irregular steps until `until_ms`.
    fn run_to(&mut self, until_ms: u64) {
        while self.now_us < until_ms * 1000 {
            self.now_us += STEPS_US[self.readings % STEPS_US.len()];
            self.readings += 1;
            let now = self.now();
            for rail in RAILS {
                let state = self.gpu.rail_state(rail, now);
                self.fold(state.volts.value());
                self.fold(state.amps.value());
            }
            let clock = self.gpu.clock_mhz(now);
            self.fold(clock);
        }
    }

    fn clock(&mut self) -> f64 {
        let now = self.now();
        self.gpu.clock_mhz(now)
    }
}

fn idle(spec: GpuSpec) -> u64 {
    let mut p = Probe::new(spec, 11);
    p.run_to(300);
    assert!(!p.gpu.busy(p.now()));
    assert_eq!(p.gpu.kernels_completed(), 0);
    p.digest
}

fn queued(spec: GpuSpec) -> u64 {
    let mut p = Probe::new(spec, 12);
    p.run_to(10);
    p.gpu
        .launch(GpuKernel::synthetic_fma(SimDuration::from_millis(300), 4));
    p.run_to(60);
    assert!(p.gpu.busy(p.now()));
    p.gpu.launch(GpuKernel {
        waves: 3,
        wave_duration: SimDuration::from_millis(40),
        gap: SimDuration::from_micros(300),
        utilization: 0.6,
    });
    p.run_to(380);
    assert_eq!(p.gpu.kernels_completed(), 1, "the first kernel is done");
    assert!(p.gpu.busy(p.now()), "the queued kernel runs");
    p.run_to(1_200);
    assert_eq!(p.gpu.kernels_completed(), 2);
    p.digest
}

fn locked(spec: GpuSpec) -> u64 {
    let boost = spec.boost_mhz;
    let mut p = Probe::new(spec, 13);
    p.gpu.set_locked_clock(Some(f64::INFINITY));
    p.run_to(40);
    assert_eq!(p.clock(), boost, "an infinite lock at idle runs at boost");
    p.gpu.set_locked_clock(Some(1_100.0));
    p.run_to(60);
    assert_eq!(p.clock(), 1_100.0);
    p.gpu
        .launch(GpuKernel::synthetic_fma(SimDuration::from_millis(900), 6));
    p.run_to(400);
    assert!(p.clock() <= 1_100.0);
    p.gpu.set_locked_clock(Some(f64::INFINITY));
    p.run_to(700);
    assert!(p.clock() > 1_100.0 && p.clock() <= boost);
    p.gpu.set_locked_clock(None);
    p.run_to(2_000);
    assert_eq!(p.gpu.kernels_completed(), 1);
    p.digest
}

fn capped(spec: GpuSpec) -> u64 {
    let limit = spec.power_limit_w;
    let mut p = Probe::new(spec, 14);
    p.run_to(5);
    p.gpu.set_power_limit(Some(90.0));
    assert_eq!(p.gpu.effective_power_limit(), 90.0);
    p.gpu
        .launch(GpuKernel::synthetic_fma(SimDuration::from_millis(1_500), 5));
    p.run_to(900);
    p.gpu.set_power_limit(None);
    assert_eq!(p.gpu.effective_power_limit(), limit);
    p.run_to(2_600);
    assert_eq!(p.gpu.kernels_completed(), 1);
    p.digest
}

#[test]
fn gpu_model_output_matches_the_pinned_bits() {
    let scenarios: [fn(GpuSpec) -> u64; 4] = [idle, queued, locked, capped];
    let got: Vec<(&str, u64, u64)> = PINNED
        .iter()
        .zip(scenarios)
        .map(|(&(name, ..), scenario)| {
            (
                name,
                scenario(GpuSpec::rtx4000_ada()),
                scenario(GpuSpec::w7700()),
            )
        })
        .collect();
    assert_eq!(
        got,
        PINNED,
        "GPU model output changed; got {:#018X?}",
        got.iter().map(|g| (g.1, g.2)).collect::<Vec<_>>()
    );
}
