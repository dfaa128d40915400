//! Slow thermal drift of sensor offsets.
//!
//! §IV-B of the paper shows the PCIe 8-pin modules drift by only
//! ±0.09 W over 50 hours, which justifies the one-time calibration.
//! This model produces that behaviour: a bounded, slowly varying offset
//! composed of a thermal sinusoid (HVAC-like daily cycle) and a
//! mean-reverting random walk.
//!
//! Both terms move on the walk's grid: the walk steps at most once per
//! simulated second, and the sinusoid is evaluated at each step and
//! held until the next. Between steps the offset is a constant, so a
//! 20 kHz conversion stream pays no `sin`. Holding the sinusoid for a
//! second moves it by at most `amplitude · 2π · 1 s / period`: 1.2 µA
//! on the Hall sensor's 4 mA, 6-hour drift, four orders of magnitude
//! below one ADC code.

use ps3_units::SimTime;

use crate::noise::GaussianNoise;

/// A bounded slowly-varying additive offset.
///
/// # Examples
///
/// ```
/// use ps3_sensors::ThermalDrift;
/// use ps3_units::SimTime;
///
/// let mut d = ThermalDrift::new(0.005, 3600.0, 11);
/// let offset = d.offset_at(SimTime::from_micros(1_000_000));
/// assert!(offset.abs() <= 0.015);
/// ```
#[derive(Debug, Clone)]
pub struct ThermalDrift {
    /// Peak amplitude of the deterministic thermal component.
    amplitude: f64,
    /// Period of the thermal component in seconds.
    period_s: f64,
    /// Mean-reverting random component state.
    walk: f64,
    noise: GaussianNoise,
    last_update: Option<SimTime>,
    phase: f64,
    /// The thermal term at `last_update`, held until the next step.
    thermal: f64,
}

impl ThermalDrift {
    /// Creates a drift source with the given amplitude (in the unit of
    /// whatever quantity it offsets, e.g. amps) and thermal period.
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not strictly positive.
    #[must_use]
    pub fn new(amplitude: f64, period_s: f64, seed: u64) -> Self {
        assert!(period_s > 0.0, "period must be positive");
        let mut noise = GaussianNoise::new(1.0, seed);
        let phase = noise.uniform(0.0, core::f64::consts::TAU);
        Self {
            amplitude,
            period_s,
            walk: 0.0,
            noise,
            last_update: None,
            phase,
            thermal: 0.0,
        }
    }

    /// A drift source that never drifts (for unit tests).
    #[must_use]
    pub fn none() -> Self {
        Self::new(0.0, 1.0, 0)
    }

    /// The drift offset at simulated time `now`.
    ///
    /// Guaranteed bounded: |offset| ≤ 3 × amplitude. The offset moves
    /// only when the walk steps (at most once per simulated second);
    /// between steps it holds.
    pub fn offset_at(&mut self, now: SimTime) -> f64 {
        if self.amplitude == 0.0 {
            return 0.0;
        }
        // Mean-reverting (Ornstein–Uhlenbeck-ish) walk updated at most
        // once per simulated second to stay cheap at 20 kHz.
        let should_step = match self.last_update {
            None => true,
            Some(last) => now.saturating_duration_since(last).as_secs_f64() >= 1.0,
        };
        if should_step {
            self.last_update = Some(now);
            self.thermal = self.thermal_at(now);
            let theta = 0.01; // reversion rate per step
            self.walk += -theta * self.walk + self.noise.sample() * self.amplitude * 0.02;
            self.walk = self.walk.clamp(-2.0 * self.amplitude, 2.0 * self.amplitude);
        }
        self.thermal + self.walk
    }

    /// The continuous thermal sinusoid at `now`, which `offset_at`
    /// samples at each walk step.
    #[must_use]
    pub fn thermal_at(&self, now: SimTime) -> f64 {
        let t = now.as_secs_f64();
        self.amplitude * (core::f64::consts::TAU * t / self.period_s + self.phase).sin()
    }

    /// The thermal term `offset_at` holds since its last walk step
    /// (0 before the first).
    #[must_use]
    pub fn held_thermal(&self) -> f64 {
        self.thermal
    }

    /// The configured amplitude.
    #[must_use]
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_units::SimDuration;

    #[test]
    fn none_is_zero_forever() {
        let mut d = ThermalDrift::none();
        for h in 0..100u64 {
            assert_eq!(
                d.offset_at(SimTime::ZERO + SimDuration::from_secs(h * 3600)),
                0.0
            );
        }
    }

    #[test]
    fn bounded_over_fifty_hours() {
        let mut d = ThermalDrift::new(0.006, 6.0 * 3600.0, 1234);
        let mut worst: f64 = 0.0;
        // One probe per 15 simulated minutes for 50 h, like §IV-B.
        for i in 0..200u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(i * 900);
            worst = worst.max(d.offset_at(t).abs());
        }
        assert!(worst <= 3.0 * 0.006, "worst drift {worst}");
        assert!(worst > 0.0, "drift should not be identically zero");
    }

    #[test]
    fn slow_on_sample_timescale() {
        // Over one 50 µs sample frame the drift must be essentially flat.
        let mut d = ThermalDrift::new(0.006, 3600.0, 5);
        let a = d.offset_at(SimTime::from_micros(1_000_000));
        let b = d.offset_at(SimTime::from_micros(1_000_050));
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ThermalDrift::new(0.01, 100.0, 77);
        let mut b = ThermalDrift::new(0.01, 100.0, 77);
        for i in 0..20u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(i * 10);
            assert_eq!(a.offset_at(t), b.offset_at(t));
        }
    }
}
