//! The RAPL probe family: four modeled access paths to the same
//! package energy counter, plus the PS3-external baseline.
//!
//! Real RAPL is one set of hardware registers behind several software
//! doors, and the door chosen decides what a measurement *costs* the
//! workload being measured (Diamond et al., "What Is the Cost of
//! Energy Monitoring?"):
//!
//! | path            | read path              | modeled read cost |
//! |-----------------|------------------------|-------------------|
//! | powercap-sysfs  | `open`/`read` a sysfs ASCII file | 2.2 µs |
//! | MSR             | `pread` on `/dev/cpu/*/msr`      | 450 ns |
//! | perf-event      | `read` on a perf fd              | 1.3 µs |
//! | eBPF            | shared map lookup (+ kernel-side timer) | 150 ns |
//! | ps3-external    | host-side USB client             | 20 ns  |
//!
//! Every [`Probe::read_raw`] call *steals* its read cost from the
//! [`CpuModel`] under measurement ([`ps3_duts::CpuModel::steal`]), so
//! polling faster really does inflate the workload's runtime — the
//! effect the `overhead` bench experiment sweeps. Each path also has
//! its own counter width, quantisation unit and hardware update
//! interval, captured in [`ProbeSpec`]; [`ProbeSpec::error_envelope`]
//! bounds how far a probe's energy estimate may legitimately sit from
//! ground truth, which the `probes` sim scenario enforces under fault
//! injection.
//!
//! The doors differ only in their [`ProbeSpec`], so one [`Probe`]
//! type reads them all; each door's trade-off is documented on its
//! [`ProbeKind`] variant.

use std::sync::Arc;

use parking_lot::Mutex;
use ps3_duts::CpuModel;
use ps3_units::{Joules, SimDuration, SimTime, Watts};

/// The CPU package a probe family measures, shared with the workload
/// driver and the testbed.
pub type SharedCpu = Arc<Mutex<CpuModel>>;

/// One RAPL energy-status unit, microjoules (2⁻¹⁴ J).
const ENERGY_STATUS_UNIT_UJ: f64 = 1e6 / 16_384.0;

/// Which door into the package energy counter a probe uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// `/sys/class/powercap/intel-rapl:0/energy_uj`.
    ///
    /// The kernel's powercap layer pre-scales the energy-status MSR
    /// into decimal microjoules, so the quantisation unit is 1 µJ — the
    /// finest of the family — but every read is an `open`/`read`/`parse`
    /// round trip through the VFS, making it by far the most expensive
    /// door: 2.2 µs of stolen CPU per poll. The exported value wraps at
    /// the 32-bit-µJ range (`max_energy_range_uj`), every couple of
    /// minutes at desktop power.
    PowercapSysfs,
    /// `pread` of `MSR_PKG_ENERGY_STATUS` on `/dev/cpu/<n>/msr`.
    ///
    /// The rawest door: a single privileged register read, cheap
    /// (450 ns) but undigested — the value is in hardware energy-status
    /// units (2⁻¹⁴ J ≈ 61.035 µJ), only the low 32 bits are
    /// architected, and the reader owns wrap handling entirely. This is
    /// the path the Diamond et al. study found cheapest among the
    /// on-CPU doors.
    Msr,
    /// A `power/energy-pkg/` counter fd from `perf_event_open`.
    ///
    /// The kernel's perf subsystem samples the energy-status MSR and
    /// *accumulates it into a 64-bit counter*, so userspace never sees
    /// a wrap — the kernel pays the unwrap tax instead. The price is a
    /// heavier read than raw MSR access (fd `read` + context switch,
    /// 1.3 µs) while keeping the same 61.035 µJ unit and 1 ms refresh.
    PerfEvent,
    /// A kernel-side eBPF program samples the MSR on a timer and
    /// publishes into a shared map userspace reads.
    ///
    /// The inverse of sysfs: the *userspace* read is nearly free (a map
    /// lookup, 150 ns), but the kernel program fires every hardware
    /// update tick whether or not anyone polls — a fixed background tax
    /// (2 µs per 1 ms tick) that dominates at low polling rates and
    /// amortises away at high ones. The map value is the kernel's
    /// 64-bit accumulation, so it never wraps in userspace.
    Ebpf,
    /// PowerSensor3 on the package's 12 V rail.
    ///
    /// The measurement happens *outside* the DUT — the sensor's own MCU
    /// samples the rail at 20 kHz and streams over USB — so the only
    /// cost the measured CPU ever pays is the host client draining the
    /// USB buffer: 20 ns per poll, amortised. This is the paper's
    /// granularity argument meeting the Diamond et al. overhead
    /// argument: the external probe is simultaneously the
    /// *fastest*-updating (50 µs) and the *least* perturbing path in
    /// the family.
    Ps3External,
}

impl ProbeKind {
    /// Every kind, in sweep order (on-CPU paths first, baseline last).
    pub const ALL: [ProbeKind; 5] = [
        ProbeKind::PowercapSysfs,
        ProbeKind::Msr,
        ProbeKind::PerfEvent,
        ProbeKind::Ebpf,
        ProbeKind::Ps3External,
    ];

    /// The modeled characteristics of this access path.
    #[must_use]
    pub fn spec(self) -> ProbeSpec {
        match self {
            ProbeKind::PowercapSysfs => ProbeSpec {
                kind: self,
                read_cost: SimDuration::from_nanos(2_200),
                update_cost: SimDuration::ZERO,
                update_interval: SimDuration::from_millis(1),
                unit_uj: 1.0,
                counter_bits: 32,
            },
            ProbeKind::Msr => ProbeSpec {
                kind: self,
                read_cost: SimDuration::from_nanos(450),
                update_cost: SimDuration::ZERO,
                update_interval: SimDuration::from_millis(1),
                unit_uj: ENERGY_STATUS_UNIT_UJ,
                counter_bits: 32,
            },
            ProbeKind::PerfEvent => ProbeSpec {
                kind: self,
                read_cost: SimDuration::from_nanos(1_300),
                update_cost: SimDuration::ZERO,
                update_interval: SimDuration::from_millis(1),
                unit_uj: ENERGY_STATUS_UNIT_UJ,
                counter_bits: 64,
            },
            ProbeKind::Ebpf => ProbeSpec {
                kind: self,
                read_cost: SimDuration::from_nanos(150),
                update_cost: SimDuration::from_nanos(2_000),
                update_interval: SimDuration::from_millis(1),
                unit_uj: ENERGY_STATUS_UNIT_UJ,
                counter_bits: 64,
            },
            ProbeKind::Ps3External => ProbeSpec {
                kind: self,
                read_cost: SimDuration::from_nanos(20),
                update_cost: SimDuration::ZERO,
                update_interval: SimDuration::from_micros(50),
                unit_uj: 12.5,
                counter_bits: 64,
            },
        }
    }

    /// Display name for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProbeKind::PowercapSysfs => "powercap-sysfs",
            ProbeKind::Msr => "msr",
            ProbeKind::PerfEvent => "perf-event",
            ProbeKind::Ebpf => "ebpf",
            ProbeKind::Ps3External => "ps3-external",
        }
    }

    /// Identifier-safe name for metric keys and CSV legends.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            ProbeKind::PowercapSysfs => "powercap_sysfs",
            ProbeKind::Msr => "msr",
            ProbeKind::PerfEvent => "perf_event",
            ProbeKind::Ebpf => "ebpf",
            ProbeKind::Ps3External => "ps3_external",
        }
    }

    /// `true` for paths that run on the measured package itself.
    #[must_use]
    pub fn is_on_cpu(self) -> bool {
        self != ProbeKind::Ps3External
    }
}

/// Modeled characteristics of one access path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSpec {
    /// The access path.
    pub kind: ProbeKind,
    /// CPU time one read steals from the workload.
    pub read_cost: SimDuration,
    /// CPU time the path's background machinery steals per hardware
    /// update tick, whether or not anyone polls (eBPF only).
    pub update_cost: SimDuration,
    /// How often the hardware refreshes the counter; reads between
    /// refreshes see the value at the last tick.
    pub update_interval: SimDuration,
    /// Microjoules per counter unit (RAPL energy-status unit:
    /// 2⁻¹⁴ J ≈ 61.035 µJ; powercap pre-scales to 1 µJ).
    pub unit_uj: f64,
    /// Counter register width; the value wraps at 2^bits.
    pub counter_bits: u32,
}

impl ProbeSpec {
    /// Bitmask the raw counter is truncated to.
    #[must_use]
    pub fn mask(&self) -> u64 {
        if self.counter_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.counter_bits) - 1
        }
    }

    /// The hardware update tick at or before `now`.
    #[must_use]
    pub fn tick_before(&self, now: SimTime) -> SimTime {
        let iv = self.update_interval.as_nanos();
        SimTime::from_nanos(now.as_nanos() / iv * iv)
    }

    /// Worst-case distance between this probe's unwrapped energy over
    /// a span and ground truth over the same span, for a package that
    /// never exceeds `max_power`: one quantisation unit plus one
    /// update interval of staleness at each endpoint.
    #[must_use]
    pub fn error_envelope(&self, max_power: Watts) -> Joules {
        let quant = 2.0 * self.unit_uj / 1e6;
        let stale = max_power * (self.update_interval * 2);
        Joules::new(quant) + stale
    }
}

/// A modeled energy probe: one door into a shared package's energy
/// counter. Reading it costs the measured CPU time.
///
/// A read at `now`:
///
/// 1. advances the shared [`ps3_duts::CpuModel`] to `now`;
/// 2. charges any background update cost accrued since the last read
///    (eBPF's kernel-side sampler runs once per hardware tick whether
///    or not userspace polls — the charge is folded in lazily at read
///    time, which keeps the model deterministic without a separate
///    event source);
/// 3. quantises the package energy *at the last hardware update tick*
///    into counter units and truncates to the register width;
/// 4. charges the read cost itself — the syscall the workload pays
///    for.
pub struct Probe {
    spec: ProbeSpec,
    cpu: SharedCpu,
    reads: u64,
    /// Last hardware tick whose background cost has been charged.
    charged_through: SimTime,
}

impl Probe {
    /// Opens the `kind` door to `cpu`'s package counter.
    #[must_use]
    pub fn new(kind: ProbeKind, cpu: SharedCpu) -> Self {
        Self {
            spec: kind.spec(),
            cpu,
            reads: 0,
            charged_through: SimTime::ZERO,
        }
    }

    /// The path's spec.
    #[must_use]
    pub fn spec(&self) -> &ProbeSpec {
        &self.spec
    }

    /// Reads issued so far.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// One raw register read at `now` (see the type docs for the exact
    /// sequence).
    pub fn read_raw(&mut self, now: SimTime) -> u64 {
        let spec = self.spec;
        let mut cpu = self.cpu.lock();
        cpu.advance_to(now);
        let tick = spec.tick_before(now);
        if !spec.update_cost.is_zero() && tick > self.charged_through {
            let ticks = (tick - self.charged_through) / spec.update_interval;
            cpu.steal(now, spec.update_cost * ticks);
            self.charged_through = tick;
        }
        let energy = cpu
            .energy_at(tick)
            .unwrap_or_else(|| cpu.energy(now))
            .value();
        let units = (energy * 1e6 / spec.unit_uj).floor() as u64;
        cpu.steal(now, spec.read_cost);
        self.reads += 1;
        units & spec.mask()
    }
}

/// Unwraps one wrapping counter step: the forward distance from `prev`
/// to `cur` on a `bits`-wide ring. Correct whenever the true delta is
/// below one wrap period.
#[must_use]
pub fn unwrap_delta(prev: u64, cur: u64, bits: u32) -> u64 {
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    cur.wrapping_sub(prev) & mask
}

/// Polls a probe and accumulates wrap-corrected energy across reads —
/// the software half of every RAPL tool.
pub struct EnergySession {
    probe: Probe,
    last_raw: Option<u64>,
    total_units: u64,
}

impl EnergySession {
    /// Starts a session over the `kind` door to `cpu` (no reads issued
    /// yet).
    #[must_use]
    pub fn over(kind: ProbeKind, cpu: SharedCpu) -> Self {
        Self {
            probe: Probe::new(kind, cpu),
            last_raw: None,
            total_units: 0,
        }
    }

    /// The probe's spec.
    #[must_use]
    pub fn spec(&self) -> ProbeSpec {
        *self.probe.spec()
    }

    /// Polls at `now`, folding the wrapped delta into the session
    /// total, and returns the raw register value.
    pub fn poll(&mut self, now: SimTime) -> u64 {
        let raw = self.probe.read_raw(now);
        if let Some(prev) = self.last_raw {
            self.total_units += unwrap_delta(prev, raw, self.probe.spec().counter_bits);
        }
        self.last_raw = Some(raw);
        raw
    }

    /// Wrap-corrected energy accumulated between the first and latest
    /// poll.
    #[must_use]
    pub fn energy(&self) -> Joules {
        Joules::new(self.total_units as f64 * self.probe.spec().unit_uj / 1e6)
    }

    /// The same accumulation in raw counter units — an exact integer,
    /// ideal for fingerprints and replay facts.
    #[must_use]
    pub fn total_units(&self) -> u64 {
        self.total_units
    }

    /// Reads issued so far.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.probe.reads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_duts::{CpuModel, CpuPhase, CpuSpec, CpuWorkload};

    /// A package at full load for `work`.
    fn busy(work: SimDuration) -> SharedCpu {
        Arc::new(Mutex::new(CpuModel::new(
            CpuSpec::desktop(),
            CpuWorkload::new(vec![CpuPhase {
                label: 'c',
                util: 1.0,
                work,
            }]),
        )))
    }

    #[test]
    fn specs_are_distinct_and_ranked() {
        let specs: Vec<ProbeSpec> = ProbeKind::ALL.iter().map(|k| k.spec()).collect();
        for (i, a) in specs.iter().enumerate() {
            assert_eq!(a.kind, ProbeKind::ALL[i]);
            for b in &specs[i + 1..] {
                assert_ne!(a, b, "duplicate spec: {a:?}");
            }
        }
        // The overhead-study headline: the external baseline costs at
        // least 10× less per read than the worst on-CPU path.
        let worst = ProbeKind::ALL
            .iter()
            .filter(|k| k.is_on_cpu())
            .map(|k| k.spec().read_cost.as_nanos())
            .max()
            .unwrap();
        let ps3 = ProbeKind::Ps3External.spec().read_cost.as_nanos();
        assert!(worst >= 10 * ps3, "worst {worst} ns vs ps3 {ps3} ns");
    }

    #[test]
    fn unwrap_delta_handles_wrap_and_width() {
        assert_eq!(unwrap_delta(10, 25, 32), 15);
        assert_eq!(unwrap_delta(0xFFFF_FFF0, 0x10, 32), 0x20);
        assert_eq!(unwrap_delta(u64::MAX - 1, 3, 64), 5);
        assert_eq!(unwrap_delta(0x3FF, 0x001, 10), 2);
    }

    #[test]
    fn every_probe_tracks_a_busy_package() {
        for kind in ProbeKind::ALL {
            let cpu = busy(SimDuration::from_millis(500));
            let mut session = EnergySession::over(kind, Arc::clone(&cpu));
            let step = SimDuration::from_millis(5);
            let mut t = SimTime::ZERO;
            let mut last_poll = SimTime::ZERO;
            for _ in 0..=100 {
                session.poll(t);
                last_poll = t;
                t += step;
            }
            // 500 ms at 80 W = 40 J; the session spans [tick(0),
            // tick(last poll)], so compare ground truth over exactly
            // that span and allow the quantisation/staleness envelope.
            let est = session.energy().value();
            let tick = kind.spec().tick_before(last_poll);
            let truth = cpu.lock().energy_at(tick).expect("in history").value();
            let envelope = kind.spec().error_envelope(Watts::new(80.0)).value();
            assert!(
                (est - truth).abs() <= envelope + 1e-9,
                "{}: est {est} truth {truth} envelope {envelope}",
                kind.label()
            );
            assert_eq!(session.reads(), 101);
        }
    }

    #[test]
    fn reads_steal_time_proportional_to_cost() {
        let kinds = [ProbeKind::PowercapSysfs, ProbeKind::Ps3External];
        let mut stolen = Vec::new();
        for kind in kinds {
            let cpu = busy(SimDuration::from_millis(500));
            let mut session = EnergySession::over(kind, Arc::clone(&cpu));
            for k in 0..1_000u64 {
                session.poll(SimTime::from_micros(k * 100));
            }
            stolen.push(cpu.lock().stolen_total().as_nanos());
        }
        assert_eq!(stolen[0], 1_000 * 2_200);
        assert_eq!(stolen[1], 1_000 * 20);
    }

    #[test]
    fn counter_holds_between_update_ticks() {
        let mut probe = Probe::new(ProbeKind::Msr, busy(SimDuration::from_millis(100)));
        // 1 ms update interval: reads inside the same tick see the
        // same quantised value.
        let a = probe.read_raw(SimTime::from_micros(5_100));
        let b = probe.read_raw(SimTime::from_micros(5_900));
        assert_eq!(a, b);
        let c = probe.read_raw(SimTime::from_micros(6_100));
        assert!(c > a, "next tick advances the counter: {c} vs {a}");
    }

    #[test]
    fn counter_is_quantised_to_whole_units() {
        let mut probe = Probe::new(ProbeKind::Msr, busy(SimDuration::from_millis(100)));
        // 80 W for 10 ms = 0.8 J = 13107.2 units of 61.035 µJ → 13107.
        let raw = probe.read_raw(SimTime::from_micros(10_000));
        assert_eq!(raw, 13_107);
    }

    #[test]
    fn microjoule_counter_wraps_at_32_bits() {
        // A long full-load run: 80 W = 8e7 µJ/s wraps the 32-bit µJ
        // register every ~53.7 s.
        let cpu = busy(SimDuration::from_secs(120));
        let mut probe = Probe::new(ProbeKind::PowercapSysfs, Arc::clone(&cpu));
        let a = probe.read_raw(SimTime::from_micros(50_000_000));
        let b = probe.read_raw(SimTime::from_micros(60_000_000));
        assert!(b < a, "register wrapped: {b} vs {a}");
        // The session still reads the true delta through the wrap.
        let delta = unwrap_delta(a, b, 32);
        // ≈10 s at 80 W = 8e8 µJ (the probe's own steals add a hair).
        assert!(
            (8e8..8.1e8).contains(&(delta as f64)),
            "unwrapped delta {delta}"
        );
        // And a full session accumulates past the wrap monotonically.
        let mut session = EnergySession::over(ProbeKind::PowercapSysfs, cpu);
        let mut last = 0.0;
        for k in 0..24u64 {
            session.poll(SimTime::from_micros(k * 5_000_000));
            let e = session.energy().value();
            assert!(e >= last, "energy regressed at poll {k}: {e} < {last}");
            last = e;
        }
        assert!(last > 9_000.0, "115 s at ~80 W: {last}");
    }

    #[test]
    fn quantisation_is_one_energy_status_unit() {
        let cpu = busy(SimDuration::from_millis(50));
        let mut probe = Probe::new(ProbeKind::Msr, Arc::clone(&cpu));
        let raw = probe.read_raw(SimTime::from_micros(20_000));
        // 20 ms at 80 W = 1.6 J; in units of 2⁻¹⁴ J that is exactly
        // 26214.4 → quantised down to 26214.
        assert_eq!(raw, 26_214);
        let truth = cpu.lock().energy(SimTime::from_micros(20_000)).value();
        let err_uj = (raw as f64 * ENERGY_STATUS_UNIT_UJ) - truth * 1e6;
        assert!(
            err_uj.abs() <= ENERGY_STATUS_UNIT_UJ,
            "quantisation error {err_uj} µJ exceeds one unit"
        );
    }

    #[test]
    fn sixty_four_bit_counter_never_wraps_where_msr_does() {
        // A span past the 32-bit wrap in energy-status units: 2³²
        // units × 61.035 µJ ≈ 262 kJ, ~54 min at 80 W. At 3400 s the
        // package has burned 272 kJ ≈ 4.46e9 units — MSR has wrapped,
        // perf's 64-bit accumulation has not.
        let mk = || busy(SimDuration::from_secs(3_500));
        let t = SimTime::from_micros(3_400_000_000);
        let mut perf = Probe::new(ProbeKind::PerfEvent, mk());
        let mut msr = Probe::new(ProbeKind::Msr, mk());
        let raw_perf = perf.read_raw(t);
        let raw_msr = msr.read_raw(t);
        assert!(raw_perf > u64::from(u32::MAX), "perf carried: {raw_perf}");
        assert!(raw_msr < u64::from(u32::MAX), "msr wrapped: {raw_msr}");
        assert_eq!(raw_perf & 0xFFFF_FFFF, raw_msr, "low words agree");
    }

    #[test]
    fn background_tax_is_charged_even_for_rare_polls() {
        // Two polls 100 ms apart: the second charges the ~100 elapsed
        // kernel ticks (2 µs each) on top of two 150 ns map lookups.
        let shared = busy(SimDuration::from_millis(200));
        let mut probe = Probe::new(ProbeKind::Ebpf, Arc::clone(&shared));
        probe.read_raw(SimTime::ZERO);
        probe.read_raw(SimTime::from_micros(100_000));
        let stolen = shared.lock().stolen_total().as_nanos();
        assert_eq!(stolen, 100 * 2_000 + 2 * 150);
    }

    #[test]
    fn background_tax_does_not_double_charge() {
        // Polling 10× inside one tick charges the tick's update once.
        let shared = busy(SimDuration::from_millis(200));
        let mut probe = Probe::new(ProbeKind::Ebpf, Arc::clone(&shared));
        for k in 0..10u64 {
            probe.read_raw(SimTime::from_nanos(1_000_000 + k * 50_000));
        }
        let stolen = shared.lock().stolen_total().as_nanos();
        assert_eq!(stolen, 2_000 + 10 * 150);
    }

    #[test]
    fn sees_transients_the_oncpu_paths_miss() {
        // A 200 µs burst sits entirely inside one 1 ms RAPL tick but
        // spans four 50 µs PS3 frames.
        let mk = || {
            Arc::new(Mutex::new(CpuModel::new(
                CpuSpec::desktop(),
                CpuWorkload::new(vec![
                    CpuPhase {
                        label: 'i',
                        util: 0.0,
                        work: SimDuration::from_micros(400),
                    },
                    CpuPhase {
                        label: 'b',
                        util: 1.0,
                        work: SimDuration::from_micros(200),
                    },
                    CpuPhase {
                        label: 'i',
                        util: 0.0,
                        work: SimDuration::from_micros(300),
                    },
                ]),
            )))
        };
        let t = SimTime::from_micros(900);
        let mut ext = Probe::new(ProbeKind::Ps3External, mk());
        let mut msr = Probe::new(ProbeKind::Msr, mk());
        let ext_units = ext.read_raw(t);
        // External tick 900 µs covers the burst: idle 15 W × 700 µs +
        // 80 W × 200 µs = 26.5 mJ → 2120 units of 12.5 µJ.
        assert_eq!(ext_units, 2_120);
        // MSR's tick for t=900 µs is t=0: it has seen nothing at all.
        assert_eq!(msr.read_raw(t), 0);
    }

    #[test]
    fn envelope_is_tightest_in_the_family() {
        let pmax = Watts::new(80.0);
        let ext = ProbeKind::Ps3External.spec().error_envelope(pmax).value();
        for kind in ProbeKind::ALL {
            if kind != ProbeKind::Ps3External {
                let other = kind.spec().error_envelope(pmax).value();
                assert!(ext < other, "{}: {ext} !< {other}", kind.label());
            }
        }
    }
}
