//! The statistical contract of the sensor models' two random sources.
//!
//! The paper's accuracy claims for a sensor module are a noise σ and a
//! bandwidth (§III, Table II), not a particular random bit pattern, so
//! these tests pin distributions rather than values: the normal
//! sampler's moments, tail mass and independence over 10⁶ draws, and
//! the thermal drift's hold-between-steps behaviour and bound. Every
//! statistical bound is five standard errors of its estimator at the
//! test's sample size, so a correct sampler fails one with probability
//! below 10⁻⁵ whatever the seed.

use ps3_sensors::{GaussianNoise, ThermalDrift};
use ps3_units::{SimDuration, SimTime};

const DRAWS: usize = 1_000_000;
/// Bounds sit this many standard errors from the expected value.
const SE: f64 = 5.0;

fn draws(sigma: f64, seed: u64) -> Vec<f64> {
    let mut noise = GaussianNoise::new(sigma, seed);
    (0..DRAWS).map(|_| noise.sample()).collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The sample correlation of `a[i]` with `b[i]`.
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (mean(a), mean(b));
    let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        sab += (x - ma) * (y - mb);
        saa += (x - ma) * (x - ma);
        sbb += (y - mb) * (y - mb);
    }
    sab / (saa * sbb).sqrt()
}

#[test]
fn normal_sampler_moments_and_tails_match_sigma() {
    let sigma = 0.147_2; // the 10 A Hall part's sampled noise, in amps
    let xs = draws(sigma, 20_250_601);
    let n = DRAWS as f64;
    let m = mean(&xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1.0);
    let m4 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n;
    let std = var.sqrt();

    // s.e. of the mean is σ/√n; of the sample standard deviation σ/√(2n).
    assert!(m.abs() < SE * sigma / n.sqrt(), "mean {m}");
    assert!(
        (std - sigma).abs() < SE * sigma / (2.0 * n).sqrt(),
        "std {std}, want {sigma}"
    );
    // Excess kurtosis of a normal is 0, with s.e. √(24/n).
    let kurtosis = m4 / (var * var) - 3.0;
    assert!(
        kurtosis.abs() < SE * (24.0 / n).sqrt(),
        "excess kurtosis {kurtosis}"
    );
    // P(|z| > 3) = erfc(3/√2) = 0.2700 %, a binomial share with s.e.
    // √(p(1 − p)/n).
    let p = 0.002_699_796;
    let beyond = xs.iter().filter(|x| x.abs() > 3.0 * sigma).count() as f64 / n;
    assert!(
        (beyond - p).abs() < SE * (p * (1.0 - p) / n).sqrt(),
        "share beyond 3σ {beyond}, want {p}"
    );
}

#[test]
fn normal_sampler_draws_are_uncorrelated() {
    let xs = draws(1.0, 20_250_602);
    // Lag 1 over the whole stream: adjacent draws, within and across
    // accepted pairs. The s.e. of a correlation of k pairs is 1/√k.
    let lag1 = correlation(&xs[..DRAWS - 1], &xs[1..]);
    let k = (DRAWS - 1) as f64;
    assert!(lag1.abs() < SE / k.sqrt(), "lag-1 correlation {lag1}");
    // A fresh source returns an accepted point's two coordinates as
    // draws 2i and 2i + 1 (the second from the cache).
    let (first, second): (Vec<f64>, Vec<f64>) = xs.chunks_exact(2).map(|c| (c[0], c[1])).unzip();
    let within = correlation(&first, &second);
    let k = first.len() as f64;
    assert!(
        within.abs() < SE / k.sqrt(),
        "correlation within a pair {within}"
    );
}

#[test]
fn zero_sigma_is_exactly_zero() {
    let mut noise = GaussianNoise::new(0.0, 20_250_603);
    for _ in 0..10_000 {
        assert_eq!(noise.sample(), 0.0);
    }
}

/// Probes `drift` every `step` from `start` for `count` probes and
/// checks the hold: a walk step happens on the first probe and then on
/// the first probe at least 1 s after the previous step; at a step the
/// held thermal term is the continuous sinusoid at that instant, and
/// between steps the offset and the held term do not move. Returns the
/// number of steps seen.
fn check_hold(drift: &mut ThermalDrift, start: SimTime, step: SimDuration, count: u64) -> usize {
    let mut last_step: Option<SimTime> = None;
    let mut held = (f64::NAN, f64::NAN);
    let mut steps = 0;
    for i in 0..count {
        let now = start + SimDuration::from_nanos(step.as_nanos() * i);
        let offset = drift.offset_at(now);
        let stepped = last_step
            .is_none_or(|last| now.saturating_duration_since(last) >= SimDuration::from_secs(1));
        if stepped {
            assert_eq!(
                drift.held_thermal().to_bits(),
                drift.thermal_at(now).to_bits(),
                "held thermal term at the step at {now:?} is not the sinusoid there"
            );
            last_step = Some(now);
            held = (offset, drift.held_thermal());
            steps += 1;
        } else {
            assert_eq!(
                (offset.to_bits(), drift.held_thermal().to_bits()),
                (held.0.to_bits(), held.1.to_bits()),
                "drift moved between walk steps at {now:?}"
            );
        }
    }
    steps
}

#[test]
fn drift_holds_between_walk_steps() {
    // 20 kHz conversions for 12 s on the Hall sensor's drift: 12 steps,
    // one per second from the first conversion.
    let mut hall = ThermalDrift::new(0.004, 6.0 * 3600.0, 0xD1F3);
    let steps = check_hold(
        &mut hall,
        SimTime::from_micros(2_025),
        SimDuration::from_micros(50),
        240_000,
    );
    assert_eq!(steps, 12);
    // A probe grid that does not divide 1 s: each step lands on the
    // first probe at or past 1 s after the previous one.
    let mut odd = ThermalDrift::new(0.01, 60.0, 7);
    let steps = check_hold(
        &mut odd,
        SimTime::ZERO,
        SimDuration::from_micros(300_007),
        400,
    );
    assert_eq!(steps, 100);
}

#[test]
fn held_thermal_term_follows_the_sinusoid() {
    // A 20 s period, so successive held values are visibly different
    // points of one sinusoid of the configured amplitude.
    let (amplitude, period) = (0.01, 20.0);
    let mut drift = ThermalDrift::new(amplitude, period, 11);
    let mut held = Vec::new();
    for s in 0..40u64 {
        let now = SimTime::ZERO + SimDuration::from_secs(s);
        drift.offset_at(now);
        assert_eq!(drift.held_thermal(), drift.thermal_at(now));
        let later = now + SimDuration::from_secs(20);
        assert!((drift.thermal_at(later) - drift.thermal_at(now)).abs() < 1e-12);
        held.push(drift.held_thermal());
    }
    assert!(held.iter().all(|h| h.abs() <= amplitude));
    let peak = held.iter().fold(0.0_f64, |m, h| m.max(h.abs()));
    // 20 samples per period land within π/20 of a crest: |sin| ≥ cos(π/20).
    assert!(
        peak >= amplitude * (core::f64::consts::PI / 20.0).cos(),
        "peak {peak}"
    );
    assert!(held.windows(2).all(|w| w[0] != w[1]));
}

#[test]
fn drift_is_bounded_over_fifty_hours() {
    for (amplitude, seed) in [(0.004, 0xD1F3), (0.006, 1234), (0.03, 99)] {
        let mut drift = ThermalDrift::new(amplitude, 6.0 * 3600.0, seed);
        let mut worst: f64 = 0.0;
        for s in 0..50 * 3600u64 {
            let now = SimTime::ZERO + SimDuration::from_secs(s);
            worst = worst.max(drift.offset_at(now).abs());
        }
        assert!(worst <= 3.0 * amplitude, "worst {worst} at {amplitude}");
        assert!(worst > 0.0);
    }
    let mut none = ThermalDrift::none();
    assert_eq!(none.offset_at(SimTime::from_micros(5_000_000)), 0.0);
}
