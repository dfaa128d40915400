//! A CPU package DUT: phase-marked workloads, and the cycle-stealing
//! hook the RAPL probe family charges its measurement overhead to.
//!
//! Diamond et al. ("What Is the Cost of Energy Monitoring?") show that
//! on-CPU probes perturb the workload they measure: every counter read
//! runs *on* the package, stealing cycles and inflating runtime. This
//! model makes that effect first-class and exact:
//!
//! * a [`CpuWorkload`] is a sequence of [`CpuPhase`]s, each a fixed
//!   amount of *work* (busy time at a given utilisation);
//! * [`CpuModel::steal`] freezes workload progress for the stolen span
//!   while keeping the package busy, so **runtime inflation equals
//!   stolen time to the nanosecond** — the invariant the `probes` sim
//!   scenario and the `overhead` bench experiment both check;
//! * a short piecewise-constant power history backs
//!   [`CpuModel::energy_at`], letting probes quantise energy at their
//!   own hardware update tick (≤ [`ENERGY_HISTORY`] in the past)
//!   instead of at the poll instant.
//!
//! Everything is a pure function of the call sequence on the simulated
//! clock — no wall-clock reads, no hidden randomness.

use std::collections::VecDeque;

use ps3_units::{Joules, SimDuration, SimTime, Watts};

use crate::rail::{Dut, RailId, RailState};

/// How far behind the model's cursor [`CpuModel::energy_at`] can still
/// answer exactly. Probe update intervals (≤ 1 ms) fit comfortably.
pub const ENERGY_HISTORY: SimDuration = SimDuration::from_millis(50);

/// Electrical characteristics of a CPU package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Model name for reports.
    pub name: &'static str,
    /// Package power at zero utilisation.
    pub idle_w: f64,
    /// Additional power at full utilisation (linear in between).
    pub dynamic_w: f64,
    /// Core count — a probe read occupies one core, so the package
    /// never drops below `1/cores` utilisation while being measured.
    pub cores: u32,
}

impl CpuSpec {
    /// A desktop-class package: 15 W idle, +65 W at full load, 8 cores.
    #[must_use]
    pub const fn desktop() -> Self {
        Self {
            name: "desktop-8c",
            idle_w: 15.0,
            dynamic_w: 65.0,
            cores: 8,
        }
    }

    /// A server-class package: 60 W idle, +220 W at full load.
    #[must_use]
    pub const fn server() -> Self {
        Self {
            name: "server-64c",
            idle_w: 60.0,
            dynamic_w: 220.0,
            cores: 64,
        }
    }

    /// Package power at a given utilisation.
    #[must_use]
    pub fn power(&self, util: f64) -> Watts {
        Watts::new(self.idle_w + self.dynamic_w * util)
    }

    /// Power at full utilisation — the bound probe error envelopes are
    /// scaled by.
    #[must_use]
    pub fn max_power(&self) -> Watts {
        self.power(1.0)
    }
}

/// One phase of a workload: `work` nanoseconds of progress at a fixed
/// utilisation, tagged with a marker label for trace alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPhase {
    /// Marker label emitted when the phase begins.
    pub label: char,
    /// Utilisation during the phase (0–1).
    pub util: f64,
    /// Busy time the phase needs (excluding stolen time).
    pub work: SimDuration,
}

/// A phase schedule. Work is measured in *progress* time: probes
/// stealing cycles delay completion but never change the energy the
/// workload itself needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuWorkload {
    phases: Vec<CpuPhase>,
}

impl CpuWorkload {
    /// Builds a workload from a phase schedule.
    ///
    /// # Panics
    ///
    /// Panics if any phase has zero work or a utilisation outside
    /// `[0, 1]`.
    #[must_use]
    pub fn new(phases: Vec<CpuPhase>) -> Self {
        for p in &phases {
            assert!(!p.work.is_zero(), "phase '{}' has zero work", p.label);
            assert!(
                (0.0..=1.0).contains(&p.util),
                "phase '{}' utilisation out of range",
                p.label
            );
        }
        Self { phases }
    }

    /// The schedule.
    #[must_use]
    pub fn phases(&self) -> &[CpuPhase] {
        &self.phases
    }

    /// Runtime with zero measurement overhead: the sum of phase work.
    #[must_use]
    pub fn ideal_runtime(&self) -> SimDuration {
        self.phases.iter().map(|p| p.work).sum()
    }

    /// Energy the unperturbed workload dissipates on `spec`.
    #[must_use]
    pub fn ideal_energy(&self, spec: &CpuSpec) -> Joules {
        self.phases
            .iter()
            .map(|p| spec.power(p.util) * p.work)
            .sum()
    }
}

/// One piece of the piecewise-constant power history.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// When this power level began.
    start: SimTime,
    /// Package power over the segment.
    power_w: f64,
    /// Cumulative energy at `start`, joules.
    cum_j: f64,
}

/// The CPU package under test: advances lazily on the virtual clock,
/// integrates energy exactly over piecewise-constant power, and
/// accounts every stolen nanosecond.
pub struct CpuModel {
    spec: CpuSpec,
    phases: Vec<CpuPhase>,
    /// How far the model has been advanced.
    cursor: SimTime,
    /// End of the latest steal window (may be in the future).
    steal_until: SimTime,
    /// Index of the phase in progress.
    phase_idx: usize,
    /// Progress through the current phase.
    phase_done: SimDuration,
    /// Set when the last phase completes.
    finished_at: Option<SimTime>,
    /// All stolen time, including steals issued after completion.
    stolen_total: SimDuration,
    /// Stolen time charged while the workload was still running — the
    /// exact amount completion is delayed by.
    stolen_before_finish: SimDuration,
    /// Cumulative package energy at `cursor`, joules.
    energy_j: f64,
    /// Recent power segments backing [`Self::energy_at`].
    history: VecDeque<Segment>,
    /// `(time, label)` markers: one per phase start, `'Z'` at finish.
    transitions: Vec<(SimTime, char)>,
}

impl CpuModel {
    /// Starts `workload` on `spec` at the simulation epoch.
    #[must_use]
    pub fn new(spec: CpuSpec, workload: CpuWorkload) -> Self {
        let phases = workload.phases.clone();
        let mut transitions = Vec::with_capacity(phases.len() + 1);
        if let Some(first) = phases.first() {
            transitions.push((SimTime::ZERO, first.label));
        }
        let power_w = spec.power(phases.first().map_or(0.0, |p| p.util)).value();
        let mut history = VecDeque::new();
        history.push_back(Segment {
            start: SimTime::ZERO,
            power_w,
            cum_j: 0.0,
        });
        Self {
            spec,
            phases,
            cursor: SimTime::ZERO,
            steal_until: SimTime::ZERO,
            phase_idx: 0,
            phase_done: SimDuration::ZERO,
            finished_at: None,
            stolen_total: SimDuration::ZERO,
            stolen_before_finish: SimDuration::ZERO,
            energy_j: 0.0,
            history,
            transitions,
        }
    }

    /// The package spec.
    #[must_use]
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Runtime if no probe ever stole a cycle.
    #[must_use]
    pub fn ideal_runtime(&self) -> SimDuration {
        self.phases.iter().map(|p| p.work).sum()
    }

    /// Energy of the unperturbed workload.
    #[must_use]
    pub fn ideal_energy(&self) -> Joules {
        self.phases
            .iter()
            .map(|p| self.spec.power(p.util) * p.work)
            .sum()
    }

    /// When the workload finished, if the model has advanced that far.
    #[must_use]
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// All stolen time charged so far.
    #[must_use]
    pub fn stolen_total(&self) -> SimDuration {
        self.stolen_total
    }

    /// Stolen time charged before the workload completed — equal, to
    /// the nanosecond, to the workload's runtime inflation.
    #[must_use]
    pub fn stolen_before_finish(&self) -> SimDuration {
        self.stolen_before_finish
    }

    /// Phase-start markers (`label` at phase begin, `'Z'` at finish).
    #[must_use]
    pub fn transitions(&self) -> &[(SimTime, char)] {
        &self.transitions
    }

    /// Advances the model to `now` (no-op if already there).
    pub fn advance_to(&mut self, now: SimTime) {
        while self.cursor < now {
            let (seg_end, util, working) = if self.cursor < self.steal_until {
                // Probe read in flight: workload frozen, one core busy
                // servicing the read on top of whatever the phase held.
                let util = self.phase_util().max(1.0 / f64::from(self.spec.cores));
                (now.min(self.steal_until), util, false)
            } else if let Some(ph) = self.phases.get(self.phase_idx).copied() {
                let remain = ph.work - self.phase_done;
                (now.min(self.cursor + remain), ph.util, true)
            } else {
                (now, 0.0, false)
            };
            let power_w = self.spec.power(util).value();
            self.record_segment(power_w);
            let dt = seg_end - self.cursor;
            self.energy_j += power_w * dt.as_secs_f64();
            if working {
                self.phase_done += dt;
            }
            self.cursor = seg_end;
            self.roll_phases();
        }
        self.roll_phases();
        self.prune();
    }

    /// Charges `cost` of probe time at `now`: the workload freezes for
    /// the span while the package stays busy. Back-to-back reads queue
    /// (`cost` always delays completion in full when issued before the
    /// workload finishes).
    pub fn steal(&mut self, now: SimTime, cost: SimDuration) {
        if cost.is_zero() {
            return;
        }
        self.advance_to(now);
        let base = self.cursor.max(self.steal_until);
        self.steal_until = base + cost;
        self.stolen_total += cost;
        if self.finished_at.is_none() {
            self.stolen_before_finish += cost;
        }
    }

    /// Cumulative package energy at `now` (ground truth).
    pub fn energy(&mut self, now: SimTime) -> Joules {
        self.advance_to(now);
        Joules::new(self.energy_j)
    }

    /// Cumulative energy at an instant up to [`ENERGY_HISTORY`] behind
    /// the cursor (probes quantise at their hardware update tick, which
    /// trails the poll). `None` if `t` has been pruned.
    pub fn energy_at(&mut self, t: SimTime) -> Option<Joules> {
        if t > self.cursor {
            self.advance_to(t);
        }
        let front = self.history.front()?;
        if t < front.start {
            return None;
        }
        let idx = self.history.partition_point(|s| s.start <= t);
        let seg = &self.history[idx - 1];
        let dt = (t - seg.start).as_secs_f64();
        Some(Joules::new(seg.cum_j + seg.power_w * dt))
    }

    /// Instantaneous package power at `now`.
    pub fn power(&mut self, now: SimTime) -> Watts {
        self.advance_to(now);
        self.spec.power(self.util_at_cursor())
    }

    fn phase_util(&self) -> f64 {
        self.phases.get(self.phase_idx).map_or(0.0, |p| p.util)
    }

    fn util_at_cursor(&self) -> f64 {
        if self.cursor < self.steal_until {
            self.phase_util().max(1.0 / f64::from(self.spec.cores))
        } else {
            self.phase_util()
        }
    }

    /// Completes any phases whose work is done at the cursor.
    fn roll_phases(&mut self) {
        while let Some(ph) = self.phases.get(self.phase_idx) {
            if self.phase_done < ph.work {
                break;
            }
            self.phase_idx += 1;
            self.phase_done = SimDuration::ZERO;
            match self.phases.get(self.phase_idx) {
                Some(next) => self.transitions.push((self.cursor, next.label)),
                None => {
                    self.finished_at = Some(self.cursor);
                    self.transitions.push((self.cursor, 'Z'));
                }
            }
        }
    }

    /// Opens a new history segment at the cursor unless the power level
    /// is unchanged.
    fn record_segment(&mut self, power_w: f64) {
        if let Some(last) = self.history.back() {
            if last.power_w == power_w {
                return;
            }
        }
        self.history.push_back(Segment {
            start: self.cursor,
            power_w,
            cum_j: self.energy_j,
        });
    }

    /// Drops segments that ended more than [`ENERGY_HISTORY`] ago.
    fn prune(&mut self) {
        let keep_from = self.cursor - ENERGY_HISTORY;
        while self.history.len() > 1 && self.history[1].start <= keep_from {
            self.history.pop_front();
        }
    }
}

impl Dut for CpuModel {
    fn rails(&self) -> Vec<RailId> {
        vec![RailId::Ext12V]
    }

    fn rail_state(&mut self, rail: RailId, now: SimTime) -> RailState {
        if rail != RailId::Ext12V {
            return RailState::idle(rail);
        }
        self.advance_to(now);
        let watts = self.spec.power(self.util_at_cursor());
        RailState {
            volts: RailId::Ext12V.nominal(),
            amps: watts / RailId::Ext12V.nominal(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_phase() -> CpuWorkload {
        CpuWorkload::new(vec![
            CpuPhase {
                label: 'i',
                util: 0.0,
                work: SimDuration::from_millis(10),
            },
            CpuPhase {
                label: 'c',
                util: 1.0,
                work: SimDuration::from_millis(30),
            },
            CpuPhase {
                label: 'f',
                util: 0.5,
                work: SimDuration::from_millis(20),
            },
        ])
    }

    #[test]
    fn unperturbed_run_matches_closed_form() {
        let wl = three_phase();
        let spec = CpuSpec::desktop();
        let ideal_j = wl.ideal_energy(&spec).value();
        let mut cpu = CpuModel::new(spec, wl);
        assert_eq!(cpu.ideal_runtime(), SimDuration::from_millis(60));
        cpu.advance_to(SimTime::from_micros(100_000));
        assert_eq!(cpu.finished_at(), Some(SimTime::from_micros(60_000)));
        // 10 ms @ 15 W + 30 ms @ 80 W + 20 ms @ 47.5 W, then idle.
        let after = Joules::new(ideal_j + 15.0 * 0.040).value();
        assert!((cpu.energy(SimTime::from_micros(100_000)).value() - after).abs() < 1e-9);
        let labels: Vec<char> = cpu.transitions().iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, vec!['i', 'c', 'f', 'Z']);
    }

    #[test]
    fn steal_balance_is_exact_in_nanoseconds() {
        let mut cpu = CpuModel::new(CpuSpec::desktop(), three_phase());
        let ideal = cpu.ideal_runtime();
        // Steals at awkward offsets, including queued back-to-back ones.
        let mut total = SimDuration::ZERO;
        for k in 0..500u64 {
            let t = SimTime::from_nanos(k * 100_001);
            let cost = SimDuration::from_nanos(137 + (k % 7) * 31);
            cpu.steal(t, cost);
            total += cost;
        }
        cpu.advance_to(SimTime::from_micros(200_000));
        let finished = cpu.finished_at().expect("workload completes");
        assert_eq!(cpu.stolen_before_finish(), total);
        assert_eq!(finished - SimTime::ZERO, ideal + total);
    }

    #[test]
    fn steals_after_finish_do_not_count_against_runtime() {
        let mut cpu = CpuModel::new(CpuSpec::desktop(), three_phase());
        cpu.advance_to(SimTime::from_micros(80_000));
        let finished = cpu.finished_at().expect("done");
        cpu.steal(SimTime::from_micros(90_000), SimDuration::from_micros(5));
        assert_eq!(cpu.stolen_before_finish(), SimDuration::ZERO);
        assert_eq!(cpu.stolen_total(), SimDuration::from_micros(5));
        assert_eq!(cpu.finished_at(), Some(finished));
    }

    #[test]
    fn energy_at_agrees_with_incremental_integration() {
        let mut cpu = CpuModel::new(CpuSpec::desktop(), three_phase());
        cpu.steal(SimTime::from_micros(9_990), SimDuration::from_micros(25));
        cpu.advance_to(SimTime::from_micros(12_000));
        // Reference: advance a twin model directly to each query point.
        for t_us in [9_990, 10_000, 10_015, 11_000, 12_000] {
            let t = SimTime::from_micros(t_us);
            let mut twin = CpuModel::new(CpuSpec::desktop(), three_phase());
            twin.steal(SimTime::from_micros(9_990), SimDuration::from_micros(25));
            let want = twin.energy(t).value();
            let got = cpu.energy_at(t).expect("within history").value();
            assert!((got - want).abs() < 1e-12, "t={t_us}µs: {got} vs {want}");
        }
    }

    #[test]
    fn history_prunes_but_recent_queries_survive() {
        let wl = CpuWorkload::new(vec![CpuPhase {
            label: 'i',
            util: 0.0,
            work: SimDuration::from_secs(2),
        }]);
        let mut cpu = CpuModel::new(CpuSpec::desktop(), wl);
        // Steals on an idle phase bump power to one core, so each one
        // opens two history segments; prune keeps the window bounded.
        for k in 0..2_000u64 {
            cpu.steal(SimTime::from_micros(k * 500), SimDuration::from_micros(10));
        }
        let one_sec = SimTime::from_micros(1_000_000);
        cpu.advance_to(one_sec);
        assert!(
            cpu.history.len() < 300,
            "history grew: {}",
            cpu.history.len()
        );
        let recent = one_sec - SimDuration::from_millis(10);
        assert!(cpu.energy_at(recent).is_some());
        let ancient = SimTime::from_micros(10);
        assert!(cpu.energy_at(ancient).is_none(), "pruned past still served");
    }

    #[test]
    fn steal_raises_idle_package_to_one_core() {
        let wl = CpuWorkload::new(vec![CpuPhase {
            label: 'i',
            util: 0.0,
            work: SimDuration::from_millis(10),
        }]);
        let mut cpu = CpuModel::new(CpuSpec::desktop(), wl);
        cpu.steal(SimTime::from_micros(1_000), SimDuration::from_micros(100));
        let during = cpu.power(SimTime::from_micros(1_050)).value();
        assert!(
            (during - (15.0 + 65.0 / 8.0)).abs() < 1e-9,
            "during {during}"
        );
        let after = cpu.power(SimTime::from_micros(1_200)).value();
        assert!((after - 15.0).abs() < 1e-9, "after {after}");
    }

    #[test]
    fn dut_rail_reports_power_over_ext12v() {
        let mut cpu = CpuModel::new(CpuSpec::desktop(), three_phase());
        assert_eq!(cpu.rails(), vec![RailId::Ext12V]);
        let s = cpu.rail_state(RailId::Ext12V, SimTime::from_micros(20_000));
        assert!((s.watts().value() - 80.0).abs() < 1e-9);
        assert_eq!(
            cpu.rail_state(RailId::UsbC, SimTime::from_micros(20_000)),
            RailState::idle(RailId::UsbC)
        );
    }

    #[test]
    #[should_panic(expected = "utilisation out of range")]
    fn workload_rejects_bad_utilisation() {
        let _ = CpuWorkload::new(vec![CpuPhase {
            label: 'x',
            util: 1.5,
            work: SimDuration::from_millis(1),
        }]);
    }
}
