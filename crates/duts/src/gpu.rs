//! A PCIe GPU power model with a DVFS boost governor.
//!
//! The model reproduces the power signatures PowerSensor3 uncovers in
//! the paper's Fig 7:
//!
//! * **NVIDIA-like** (RTX 4000 Ada): on kernel launch power spikes to
//!   ~¾ of the running level, then climbs as the clock governor ramps
//!   towards boost; sequential thread-block *waves* along the grid's
//!   y-dimension produce brief power dips between phases; after the
//!   kernel ends the card takes over a second to decay back to idle.
//! * **AMD-like** (W7700): an initial spike to the power limit, a sharp
//!   drop as the governor overcorrects, a ramp back up with brief
//!   overshoot (an underdamped clock controller), then stable operation
//!   at the limit; the return to idle is much faster.
//!
//! Power follows `P = P_idle + P_dyn · util · (f/f_boost)²` — dynamic
//! power ∝ f·V² with the mild voltage scaling available in the boost
//! range — which gives the auto-tuner the clock/energy trade-off of
//! Fig 8: modest efficiency gains at modest slowdowns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ps3_units::{Amps, SimDuration, SimTime, Volts, Watts};

use crate::rail::{Dut, RailId, RailState};

/// Governor personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuVendor {
    /// First-order clock ramp, slow idle decay.
    Nvidia,
    /// Underdamped power-limit controller, fast idle decay.
    Amd,
}

/// Static characteristics of a GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name (shows up in reports).
    pub name: &'static str,
    /// Governor personality.
    pub vendor: GpuVendor,
    /// Idle power in watts.
    pub idle_w: f64,
    /// Board power limit in watts.
    pub power_limit_w: f64,
    /// Dynamic power at boost clock and full utilisation, in watts
    /// (so `idle + dyn` may exceed the limit; the governor caps it).
    pub dyn_w: f64,
    /// Boost clock in MHz.
    pub boost_mhz: f64,
    /// Base clock in MHz.
    pub base_mhz: f64,
    /// Number of SMs / CUs (the synthetic workload of Fig 7 sizes its
    /// grid x-dimension to this).
    pub sm_count: u32,
    /// Peak compute at boost clock, in TFLOP/s (16-bit tensor).
    pub peak_tflops: f64,
    /// Clock ramp rate for the NVIDIA-style governor, MHz/s.
    pub ramp_mhz_per_s: f64,
    /// Idle-return time constant in seconds.
    pub idle_decay_tau_s: f64,
    /// Power the slot 3.3 V rail contributes (roughly constant).
    pub slot_3v3_w: f64,
    /// Maximum power drawn from the 12 V slot rail; the rest comes
    /// from the external connector.
    pub slot_12v_max_w: f64,
}

impl GpuSpec {
    /// An NVIDIA RTX 4000 Ada -like profile (130 W board limit).
    #[must_use]
    pub fn rtx4000_ada() -> Self {
        Self {
            name: "RTX 4000 Ada (model)",
            vendor: GpuVendor::Nvidia,
            idle_w: 18.0,
            power_limit_w: 130.0,
            dyn_w: 123.0,
            boost_mhz: 2580.0,
            base_mhz: 1500.0,
            sm_count: 48,
            peak_tflops: 96.0,
            ramp_mhz_per_s: 900.0,
            idle_decay_tau_s: 0.45,
            slot_3v3_w: 3.5,
            slot_12v_max_w: 55.0,
        }
    }

    /// An AMD W7700 -like profile (150 W board limit).
    #[must_use]
    pub fn w7700() -> Self {
        Self {
            name: "AMD W7700 (model)",
            vendor: GpuVendor::Amd,
            idle_w: 16.0,
            power_limit_w: 150.0,
            dyn_w: 160.0,
            boost_mhz: 2400.0,
            base_mhz: 1400.0,
            sm_count: 48,
            peak_tflops: 85.0,
            ramp_mhz_per_s: 1200.0,
            idle_decay_tau_s: 0.12,
            slot_3v3_w: 3.0,
            slot_12v_max_w: 55.0,
        }
    }

    /// Jetson-AGX-Orin-like integrated GPU (used by [`crate::JetsonModel`]).
    #[must_use]
    pub fn orin_igpu() -> Self {
        Self {
            name: "Jetson AGX Orin iGPU (model)",
            vendor: GpuVendor::Nvidia,
            idle_w: 9.0,
            power_limit_w: 48.0,
            dyn_w: 42.0,
            boost_mhz: 1300.0,
            base_mhz: 620.0,
            sm_count: 16,
            peak_tflops: 10.6,
            ramp_mhz_per_s: 700.0,
            idle_decay_tau_s: 0.25,
            slot_3v3_w: 0.0,
            slot_12v_max_w: 0.0,
        }
    }

    /// Steady-state power at clock `f_mhz` and utilisation `util`
    /// (before the power limit).
    #[must_use]
    pub fn power_at(&self, f_mhz: f64, util: f64) -> f64 {
        self.idle_w + self.dyn_w * util * (f_mhz / self.boost_mhz).powi(2)
    }

    /// The clock the governor settles at for utilisation `util`:
    /// boost, unless the power limit forces lower.
    #[must_use]
    pub fn sustained_clock(&self, util: f64) -> f64 {
        if util <= 0.0 {
            return self.base_mhz;
        }
        let budget = (self.power_limit_w - self.idle_w) / (self.dyn_w * util);
        self.boost_mhz * budget.sqrt().min(1.0)
    }
}

/// A kernel execution request.
///
/// The Fig 7 synthetic workload launches a 2-D grid: the x-dimension
/// covers the SMs, and the y-dimension executes as `waves` sequential
/// phases with small scheduling gaps between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuKernel {
    /// Number of sequential thread-block waves.
    pub waves: u32,
    /// Execution time of one wave at boost clock.
    pub wave_duration: SimDuration,
    /// Scheduling gap between waves (the power dips of Fig 7a).
    pub gap: SimDuration,
    /// Power intensity of the instruction mix, 0–1 (FMA ≈ 0.9).
    pub utilization: f64,
}

impl GpuKernel {
    /// The paper's synthetic FMA workload: y-waves sized so the kernel
    /// runs roughly `total` at boost clock.
    #[must_use]
    pub fn synthetic_fma(total: SimDuration, waves: u32) -> Self {
        Self {
            waves,
            wave_duration: total / u64::from(waves.max(1)),
            gap: SimDuration::from_micros(400),
            utilization: 0.9,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Activity {
    Idle {
        /// Power when the card went idle (decays towards idle_w).
        release_w: f64,
        since: SimTime,
    },
    Wave {
        wave: u32,
        /// Remaining work in boost-clock seconds.
        remaining_boost_s: f64,
    },
    Gap {
        next_wave: u32,
        remaining: SimDuration,
    },
}

/// An optional value whose payload bytes are always initialised.
///
/// `Option`'s `None` writes only the tag: the payload keeps whatever
/// bytes the model was built over. The optimiser may do float work on
/// that payload ahead of the tag check, and when those bytes read as a
/// subnormal `f64` every such instruction takes a microcode assist, on
/// every governor step. An empty `Slot` holds its fill or its last
/// value instead, so every byte the step path reads is one the model
/// wrote.
#[derive(Debug)]
struct Slot<T> {
    value: T,
    full: bool,
}

impl<T: Copy> Slot<T> {
    fn empty(fill: T) -> Self {
        Self {
            value: fill,
            full: false,
        }
    }

    fn get(&self) -> Option<T> {
        self.full.then_some(self.value)
    }

    fn is_some(&self) -> bool {
        self.full
    }

    fn set(&mut self, value: Option<T>) {
        if let Some(v) = value {
            self.value = v;
        }
        self.full = value.is_some();
    }

    fn take(&mut self) -> Option<T> {
        let value = self.get();
        self.full = false;
        value
    }
}

/// The fill of an empty kernel slot.
const NO_KERNEL: GpuKernel = GpuKernel {
    waves: 0,
    wave_duration: SimDuration::ZERO,
    gap: SimDuration::ZERO,
    utilization: 0.0,
};

/// The dynamic GPU model. Create one, wrap it in the testbed's shared
/// DUT slot, and drive it through [`GpuModel::launch`].
#[derive(Debug)]
pub struct GpuModel {
    spec: GpuSpec,
    clock_mhz: f64,
    /// Clock velocity for the AMD second-order controller.
    clock_vel: f64,
    activity: Activity,
    pending: Slot<GpuKernel>,
    current: Slot<GpuKernel>,
    last_update: SimTime,
    noise: StdRng,
    noise_w: f64,
    kernels_completed: u64,
    /// AMD governor: time spent capped at the power limit since kernel
    /// launch; triggers the one-time sharp clock drop of Fig 7b.
    amd_cap_time_s: f64,
    amd_dip_done: bool,
    /// Application-locked clock (nvidia-smi -lgc style); the governor
    /// still caps it to respect the power limit.
    locked_mhz: Slot<f64>,
    /// Effective board power limit in watts: the factory limit, or a
    /// lower software override (nvidia-smi -pl style).
    power_limit_w: f64,
}

/// Maximum integration step for the governor dynamics.
const MAX_STEP: SimDuration = SimDuration::from_micros(1000);

impl GpuModel {
    /// Creates an idle GPU.
    #[must_use]
    pub fn new(spec: GpuSpec, seed: u64) -> Self {
        let clock = spec.base_mhz;
        let power_limit_w = spec.power_limit_w;
        Self {
            spec,
            clock_mhz: clock,
            clock_vel: 0.0,
            activity: Activity::Idle {
                release_w: 0.0,
                since: SimTime::ZERO,
            },
            pending: Slot::empty(NO_KERNEL),
            current: Slot::empty(NO_KERNEL),
            last_update: SimTime::ZERO,
            noise: StdRng::seed_from_u64(seed),
            noise_w: 0.35,
            kernels_completed: 0,
            amd_cap_time_s: 0.0,
            amd_dip_done: false,
            locked_mhz: Slot::empty(0.0),
            power_limit_w,
        }
    }

    /// Overrides the board power limit (power capping, as with
    /// `nvidia-smi -pl`); `None` restores the factory limit. The
    /// governor immediately retargets its sustained clock.
    ///
    /// # Panics
    ///
    /// Panics if the requested limit is below idle power (the card
    /// cannot cap below its floor).
    pub fn set_power_limit(&mut self, watts: Option<f64>) {
        if let Some(w) = watts {
            assert!(
                w > self.spec.idle_w,
                "cap {w} W below idle {} W",
                self.spec.idle_w
            );
        }
        self.power_limit_w =
            watts.map_or(self.spec.power_limit_w, |w| w.min(self.spec.power_limit_w));
    }

    /// The currently effective board power limit.
    #[must_use]
    pub fn effective_power_limit(&self) -> f64 {
        self.power_limit_w
    }

    /// Sustained clock under the effective (possibly capped) limit.
    fn sustained_clock_capped(&self, util: f64) -> f64 {
        if util <= 0.0 {
            return self.spec.base_mhz;
        }
        let budget = (self.effective_power_limit() - self.spec.idle_w) / (self.spec.dyn_w * util);
        self.spec.boost_mhz * budget.max(0.0).sqrt().min(1.0)
    }

    /// Locks the application clock (as auto-tuners do with
    /// `nvidia-smi -lgc`); `None` restores governor control. A locked
    /// clock is still lowered when the power limit demands it.
    pub fn set_locked_clock(&mut self, mhz: Option<f64>) {
        self.locked_mhz.set(mhz);
        if let Some(f) = mhz {
            // Clock switches take effect almost immediately.
            self.clock_mhz = f.min(self.spec.boost_mhz);
            self.clock_vel = 0.0;
        }
    }

    /// The static spec.
    #[must_use]
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Queues a kernel for execution (starts at the current model
    /// time or as soon as the running kernel finishes).
    pub fn launch(&mut self, kernel: GpuKernel) {
        if self.current.is_some() {
            self.pending.set(Some(kernel));
        } else {
            self.begin(kernel);
        }
    }

    fn begin(&mut self, kernel: GpuKernel) {
        self.current.set(Some(kernel));
        self.activity = Activity::Wave {
            wave: 0,
            remaining_boost_s: kernel.wave_duration.as_secs_f64(),
        };
        match self.spec.vendor {
            GpuVendor::Nvidia => {
                // Boost entry: start at ~87 % of the sustainable clock
                // (the Fig 7a launch spike at ~3/4 of running power),
                // then ramp the rest.
                let target = self.sustained_clock_capped(kernel.utilization);
                self.clock_mhz = self.clock_mhz.max(0.87 * target);
                self.clock_vel = 0.0;
            }
            GpuVendor::Amd => {
                // Aggressive boost entry: slam to boost clock; the
                // limiter caps the resulting spike at the board limit
                // and the underdamped controller then rings.
                self.clock_mhz = self.spec.boost_mhz;
                self.clock_vel = 0.0;
                self.amd_cap_time_s = 0.0;
                self.amd_dip_done = false;
            }
        }
    }

    /// `true` while a kernel is executing at time `now`.
    pub fn busy(&mut self, now: SimTime) -> bool {
        self.advance(now);
        self.current.is_some()
    }

    /// Number of kernels that have completed.
    #[must_use]
    pub fn kernels_completed(&self) -> u64 {
        self.kernels_completed
    }

    /// Current core clock in MHz at time `now`.
    pub fn clock_mhz(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.clock_mhz
    }

    /// Board power at time `now` (ground truth, before any sensor).
    pub fn power(&mut self, now: SimTime) -> Watts {
        self.advance(now);
        let base = self.power_now();
        let noise = self.noise.gen_range(-1.0..1.0) * self.noise_w;
        Watts::new((base + noise).max(0.0))
    }

    /// Deterministic (noise-free) power at the current internal state.
    fn power_now(&self) -> f64 {
        match self.activity {
            Activity::Idle { release_w, since } => {
                let dt = self
                    .last_update
                    .saturating_duration_since(since)
                    .as_secs_f64();
                let excess = (release_w - self.spec.idle_w).max(0.0);
                self.spec.idle_w + excess * (-dt / self.spec.idle_decay_tau_s).exp()
            }
            Activity::Wave { .. } => {
                let util = self.current.get().map_or(0.0, |k| k.utilization);
                self.spec
                    .power_at(self.clock_mhz, util)
                    .min(self.effective_power_limit())
            }
            Activity::Gap { .. } => {
                // Scheduling gap: SMs drain, utilisation collapses.
                let util = self.current.get().map_or(0.0, |k| k.utilization) * 0.30;
                self.spec
                    .power_at(self.clock_mhz, util)
                    .min(self.effective_power_limit())
            }
        }
    }

    fn advance(&mut self, now: SimTime) {
        while self.last_update < now {
            let dt = (now - self.last_update).min(MAX_STEP);
            self.step(dt);
            self.last_update += dt;
        }
    }

    fn step(&mut self, dt: SimDuration) {
        let dt_s = dt.as_secs_f64();
        // --- workload progress ---
        match &mut self.activity {
            Activity::Idle { .. } => {}
            Activity::Wave {
                wave,
                remaining_boost_s,
            } => {
                let rate = self.clock_mhz / self.spec.boost_mhz;
                *remaining_boost_s -= dt_s * rate;
                if *remaining_boost_s <= 0.0 {
                    let kernel = self.current.get().expect("wave implies kernel");
                    let next = *wave + 1;
                    if next < kernel.waves {
                        self.activity = Activity::Gap {
                            next_wave: next,
                            remaining: kernel.gap,
                        };
                    } else {
                        self.kernels_completed += 1;
                        let release = self.power_now();
                        self.current.set(None);
                        self.activity = Activity::Idle {
                            release_w: release,
                            since: self.last_update,
                        };
                        if let Some(next_kernel) = self.pending.take() {
                            self.begin(next_kernel);
                        }
                    }
                }
            }
            Activity::Gap {
                next_wave,
                remaining,
            } => {
                if *remaining > dt {
                    *remaining -= dt;
                } else {
                    let kernel = self.current.get().expect("gap implies kernel");
                    self.activity = Activity::Wave {
                        wave: *next_wave,
                        remaining_boost_s: kernel.wave_duration.as_secs_f64(),
                    };
                }
            }
        }

        // --- clock governor ---
        let util = self.current.get().map_or(0.0, |k| k.utilization);
        if let Some(locked) = self.locked_mhz.get() {
            // Locked clocks bypass the boost dynamics but still respect
            // the power limit.
            let cap = self.sustained_clock_capped(util.max(1e-6));
            self.clock_mhz =
                locked
                    .min(self.spec.boost_mhz)
                    .min(if util > 0.0 { cap } else { f64::INFINITY });
            self.clock_vel = 0.0;
            return;
        }
        match self.spec.vendor {
            GpuVendor::Nvidia => {
                let target = if self.current.is_some() {
                    self.sustained_clock_capped(util)
                } else {
                    self.spec.base_mhz
                };
                let max_delta = self.spec.ramp_mhz_per_s * dt_s;
                let delta = (target - self.clock_mhz).clamp(-8.0 * max_delta, max_delta);
                self.clock_mhz += delta;
            }
            GpuVendor::Amd => {
                let target = if self.current.is_some() {
                    self.sustained_clock_capped(util)
                } else {
                    self.spec.base_mhz
                };
                // Firmware limiter: after ~25 ms capped at the board
                // limit, the governor slams the clock down hard once —
                // the sharp drop after the launch spike in Fig 7b.
                if self.current.is_some() && !self.amd_dip_done {
                    let uncapped = self.spec.power_at(self.clock_mhz, util);
                    if uncapped >= self.effective_power_limit() {
                        self.amd_cap_time_s += dt_s;
                        if self.amd_cap_time_s > 0.025 {
                            self.clock_mhz = 0.72 * target;
                            self.clock_vel = 0.0;
                            self.amd_dip_done = true;
                        }
                    }
                }
                // Underdamped second-order tracking: ζ≈0.3, ω≈30 rad/s.
                let omega = 30.0;
                let zeta = 0.30;
                let acc =
                    omega * omega * (target - self.clock_mhz) - 2.0 * zeta * omega * self.clock_vel;
                self.clock_vel += acc * dt_s;
                self.clock_mhz += self.clock_vel * dt_s;
                self.clock_mhz = self
                    .clock_mhz
                    .clamp(0.3 * self.spec.base_mhz, self.spec.boost_mhz);
            }
        }
    }

    /// Splits total power across the three PCIe rails.
    fn rail_power(&self, total: f64, rail: RailId) -> f64 {
        let slot33 = (self.spec.slot_3v3_w + 0.015 * total).min(9.0).min(total);
        let rest = total - slot33;
        let slot12 = (0.45 * rest).min(self.spec.slot_12v_max_w);
        let ext = rest - slot12;
        match rail {
            RailId::Slot3V3 => slot33,
            RailId::Slot12V => slot12,
            RailId::Ext12V => ext,
            RailId::UsbC => 0.0,
        }
    }
}

impl Dut for GpuModel {
    fn rails(&self) -> Vec<RailId> {
        vec![RailId::Slot3V3, RailId::Slot12V, RailId::Ext12V]
    }

    fn rail_state(&mut self, rail: RailId, now: SimTime) -> RailState {
        if rail == RailId::UsbC {
            return RailState::idle(rail);
        }
        let total = self.power(now).value();
        let watts = self.rail_power(total, rail);
        let nominal = rail.nominal().value();
        // Supply droop: ~8 mΩ effective per rail.
        let amps_nominal = watts / nominal;
        let volts = nominal - 0.008 * amps_nominal;
        RailState {
            volts: Volts::new(volts),
            amps: Amps::new(watts / volts),
        }
    }
}

/// Convenience wrapper for sharing a GPU between the testbed sampler
/// and experiment code.
#[derive(Debug, Clone)]
pub struct GpuHandle(std::sync::Arc<parking_lot::Mutex<GpuModel>>);

impl GpuHandle {
    /// Wraps a model.
    #[must_use]
    pub fn new(model: GpuModel) -> Self {
        Self(std::sync::Arc::new(parking_lot::Mutex::new(model)))
    }

    /// The shared model.
    #[must_use]
    pub fn inner(&self) -> std::sync::Arc<parking_lot::Mutex<GpuModel>> {
        std::sync::Arc::clone(&self.0)
    }

    /// Launches a kernel.
    pub fn launch(&self, kernel: GpuKernel) {
        self.0.lock().launch(kernel);
    }

    /// Busy check at `now`.
    pub fn busy(&self, now: SimTime) -> bool {
        self.0.lock().busy(now)
    }

    /// Ground-truth power at `now`.
    pub fn power(&self, now: SimTime) -> Watts {
        self.0.lock().power(now)
    }

    /// Kernels completed so far.
    #[must_use]
    pub fn kernels_completed(&self) -> u64 {
        self.0.lock().kernels_completed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(gpu: &mut GpuModel, t_ms: u64) -> f64 {
        gpu.power(SimTime::from_micros(t_ms * 1000)).value()
    }

    #[test]
    fn idle_gpu_sits_at_idle_power() {
        let mut gpu = GpuModel::new(GpuSpec::rtx4000_ada(), 1);
        for t in [1u64, 100, 1000] {
            let p = probe(&mut gpu, t);
            assert!((p - 18.0).abs() < 1.5, "p={p} at {t}ms");
        }
    }

    #[test]
    fn nvidia_ramps_from_launch_spike_to_steady() {
        let mut gpu = GpuModel::new(GpuSpec::rtx4000_ada(), 2);
        gpu.advance(SimTime::from_micros(10_000));
        gpu.launch(GpuKernel::synthetic_fma(SimDuration::from_secs(2), 8));
        let early = probe(&mut gpu, 15); // few ms in
        let late = probe(&mut gpu, 700); // after the ramp
        assert!(early > 80.0, "launch spike {early}");
        assert!(late > early + 10.0, "ramp: early {early}, late {late}");
        assert!(late < 131.0, "below power limit, got {late}");
    }

    #[test]
    fn nvidia_decays_slowly_after_kernel() {
        let mut gpu = GpuModel::new(GpuSpec::rtx4000_ada(), 3);
        gpu.launch(GpuKernel::synthetic_fma(SimDuration::from_millis(500), 4));
        // The kernel (500 ms of boost-clock work + ramp) ends ~550 ms in;
        // afterwards power decays with τ ≈ 0.45 s.
        assert!(!gpu.busy(SimTime::from_micros(600_000)), "kernel done");
        let p_soon = probe(&mut gpu, 700);
        let p_later = probe(&mut gpu, 1600);
        assert!(p_soon > 60.0, "still elevated shortly after: {p_soon}");
        assert!(p_later < p_soon - 20.0, "decaying: {p_soon} -> {p_later}");
        assert!((probe(&mut gpu, 4000) - 18.0).abs() < 3.0, "back to idle");
    }

    #[test]
    fn amd_spikes_to_limit_then_drops_then_recovers() {
        let mut gpu = GpuModel::new(GpuSpec::w7700(), 4);
        gpu.advance(SimTime::from_micros(1000));
        gpu.launch(GpuKernel {
            waves: 1,
            wave_duration: SimDuration::from_secs(2),
            gap: SimDuration::ZERO,
            utilization: 1.0,
        });
        let spike = probe(&mut gpu, 3);
        assert!(spike > 145.0, "initial spike to limit, got {spike}");
        // The controller overcorrects: find the trough within 150 ms.
        let mut trough = f64::INFINITY;
        for t in 10..150u64 {
            trough = trough.min(probe(&mut gpu, t));
        }
        assert!(trough < 120.0, "sharp drop, trough {trough}");
        // Then stabilises at the limit.
        let settled = probe(&mut gpu, 1500);
        assert!((settled - 150.0).abs() < 6.0, "settled {settled}");
    }

    #[test]
    fn wave_gaps_produce_power_dips() {
        let mut gpu = GpuModel::new(GpuSpec::rtx4000_ada(), 5);
        gpu.launch(GpuKernel {
            waves: 10,
            wave_duration: SimDuration::from_millis(20),
            gap: SimDuration::from_micros(500),
            utilization: 0.9,
        });
        // Sample densely and look for dips below 70% of the plateau.
        let mut powers = Vec::new();
        for t_us in (150_000..220_000u64).step_by(100) {
            powers.push(gpu.power(SimTime::from_micros(t_us)).value());
        }
        let max = powers.iter().cloned().fold(0.0, f64::max);
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min < 0.7 * max, "dips visible: max {max}, min {min}");
    }

    #[test]
    fn kernel_completion_counted_and_pending_runs() {
        let mut gpu = GpuModel::new(GpuSpec::w7700(), 6);
        let k = GpuKernel::synthetic_fma(SimDuration::from_millis(50), 2);
        gpu.launch(k);
        gpu.launch(k); // queued
        assert!(gpu.busy(SimTime::from_micros(10_000)));
        // Both kernels take ~100 ms+ramp; by 500 ms all done.
        assert!(!gpu.busy(SimTime::from_micros(500_000)));
        assert_eq!(gpu.kernels_completed(), 2);
    }

    #[test]
    fn rail_split_conserves_power() {
        let mut gpu = GpuModel::new(GpuSpec::rtx4000_ada(), 7);
        gpu.launch(GpuKernel::synthetic_fma(SimDuration::from_secs(1), 4));
        let t = SimTime::from_micros(400_000);
        let total = gpu.power(t).value();
        let sum: f64 = [RailId::Slot3V3, RailId::Slot12V, RailId::Ext12V]
            .into_iter()
            .map(|r| gpu.rail_state(r, t).watts().value())
            .sum();
        // Rail noise differs per call; allow a few watts of slack.
        assert!((sum - total).abs() < 4.0, "total {total} vs rails {sum}");
    }

    #[test]
    fn power_cap_throttles_clock_and_power() {
        let mut gpu = GpuModel::new(GpuSpec::rtx4000_ada(), 8);
        gpu.set_power_limit(Some(90.0));
        gpu.launch(GpuKernel::synthetic_fma(SimDuration::from_secs(4), 4));
        let t = SimTime::from_micros(1_500_000);
        let p = gpu.power(t).value();
        assert!(p <= 91.5, "capped power {p}");
        assert!(p > 80.0, "still working near the cap: {p}");
        let clock = gpu.clock_mhz(t);
        assert!(
            clock < 0.95 * GpuSpec::rtx4000_ada().boost_mhz,
            "clock throttled: {clock}"
        );
        // Lifting the cap restores full power.
        gpu.set_power_limit(None);
        let p = gpu.power(SimTime::from_micros(3_000_000)).value();
        assert!(p > 120.0, "restored {p}");
    }

    #[test]
    #[should_panic(expected = "below idle")]
    fn cap_below_idle_panics() {
        let mut gpu = GpuModel::new(GpuSpec::rtx4000_ada(), 9);
        gpu.set_power_limit(Some(5.0));
    }

    #[test]
    fn sustained_clock_respects_power_limit() {
        let spec = GpuSpec::w7700();
        // At full utilisation, dyn 160 W > limit headroom 134 W: clamped.
        let f = spec.sustained_clock(1.0);
        assert!(f < spec.boost_mhz);
        let p = spec.power_at(f, 1.0);
        assert!((p - spec.power_limit_w).abs() < 1.0, "p={p}");
        // At low utilisation the boost clock is sustainable.
        assert_eq!(spec.sustained_clock(0.2), spec.boost_mhz);
    }
}
