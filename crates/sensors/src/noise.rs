//! Seeded gaussian noise source.
//!
//! Normals come from the Marsaglia polar method: draw a point uniformly
//! in the square (−1, 1)², keep it only inside the unit disc (a
//! π/4 ≈ 78.5 % acceptance rate), and scale both coordinates by
//! `sqrt(−2 ln s / s)` with `s` its squared radius. Each accepted point
//! yields two independent normals, the second cached for the next call.
//! No trigonometry is needed: the rejection loop costs ≈ 1.27 uniform
//! pairs per accepted pair, and a pair costs one `ln` and one `sqrt`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic white gaussian noise generator.
///
/// Every analog error source in the sensor models (Hall sensor noise,
/// amplifier noise) draws from one of these. Seeding makes entire
/// simulated experiments bit-reproducible.
///
/// # Examples
///
/// ```
/// use ps3_sensors::GaussianNoise;
///
/// let mut a = GaussianNoise::new(0.1, 42);
/// let mut b = GaussianNoise::new(0.1, 42);
/// assert_eq!(a.sample(), b.sample());
/// ```
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    sigma: f64,
    rng: StdRng,
    cached: Option<f64>,
}

impl GaussianNoise {
    /// Creates a noise source with standard deviation `sigma`.
    #[must_use]
    pub fn new(sigma: f64, seed: u64) -> Self {
        Self {
            sigma,
            rng: StdRng::seed_from_u64(seed),
            cached: None,
        }
    }

    /// The configured standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample ~ N(0, sigma²) via the Marsaglia polar method.
    pub fn sample(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z * self.sigma;
        }
        loop {
            let x: f64 = self.rng.gen_range(-1.0..1.0);
            let y: f64 = self.rng.gen_range(-1.0..1.0);
            let s = x * x + y * y;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.cached = Some(y * f);
                return x * f * self.sigma;
            }
        }
    }

    /// Draws a uniform sample in `[lo, hi)` from the same stream
    /// (used for quantisation-dither style effects).
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_analysis::SampleStats;

    #[test]
    fn statistics_match_parameters() {
        let mut n = GaussianNoise::new(0.115, 7);
        let stats = SampleStats::from_samples((0..200_000).map(|_| n.sample())).unwrap();
        assert!(stats.mean.abs() < 2e-3, "mean {}", stats.mean);
        assert!(
            (stats.std - 0.115).abs() < 2e-3,
            "std {} should be ≈0.115",
            stats.std
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<f64> = {
            let mut n = GaussianNoise::new(1.0, 99);
            (0..16).map(|_| n.sample()).collect()
        };
        let b: Vec<f64> = {
            let mut n = GaussianNoise::new(1.0, 99);
            (0..16).map(|_| n.sample()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = GaussianNoise::new(1.0, 1);
        let mut b = GaussianNoise::new(1.0, 2);
        assert_ne!(a.sample(), b.sample());
    }

    #[test]
    fn zero_sigma_is_silent() {
        let mut n = GaussianNoise::new(0.0, 3);
        for _ in 0..32 {
            assert_eq!(n.sample(), 0.0);
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut n = GaussianNoise::new(1.0, 5);
        for _ in 0..1000 {
            let v = n.uniform(-0.5, 0.5);
            assert!((-0.5..0.5).contains(&v));
        }
    }
}
