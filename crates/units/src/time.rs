//! Simulated-time primitives.
//!
//! The whole stack runs on a virtual clock with nanosecond resolution:
//! DUT power models are functions of [`SimTime`], the firmware emulator
//! advances in ADC-conversion-sized [`SimDuration`] steps, and the host
//! library reconstructs device time from 10-bit wire timestamps.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation
/// start.
///
/// # Examples
///
/// ```
/// use ps3_units::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(50);
/// assert_eq!(t.as_nanos(), 50_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: Self = Self(0);

    /// Constructs an instant from nanoseconds since the epoch.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Constructs an instant from microseconds since the epoch.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros * 1_000)
    }

    /// Constructs an instant from microseconds since the epoch, or
    /// `None` when the instant is past the last representable
    /// nanosecond (about 584 years). For microsecond counts read from
    /// untrusted input: [`SimTime::from_micros`] overflows on them.
    #[must_use]
    pub const fn checked_from_micros(micros: u64) -> Option<Self> {
        match micros.checked_mul(1_000) {
            Some(nanos) => Some(Self(nanos)),
            None => None,
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch (truncating).
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: Self) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "duration_since with later instant");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating duration since another instant (zero if `other` is
    /// later).
    #[must_use]
    pub fn saturating_duration_since(self, other: Self) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: Self = Self(0);

    /// Constructs a duration from nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Constructs a duration from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros * 1_000)
    }

    /// Constructs a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis * 1_000_000)
    }

    /// Constructs a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000_000_000)
    }

    /// Constructs a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        Self((secs * 1e9).round() as u64)
    }

    /// Length in nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in microseconds (truncating).
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Length in seconds as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` when the duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = Self;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Mul<SimDuration> for u64 {
    type Output = SimDuration;
    fn mul(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self * rhs.0)
    }
}

impl Div<u64> for SimDuration {
    type Output = Self;
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Div for SimDuration {
    /// How many times `rhs` fits in `self` (flooring).
    type Output = u64;
    fn div(self, rhs: Self) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn checked_micros_refuses_overflow() {
        let last = u64::MAX / 1_000;
        assert_eq!(
            SimTime::checked_from_micros(last),
            Some(SimTime::from_micros(last))
        );
        assert_eq!(SimTime::checked_from_micros(last + 1), None);
        assert_eq!(SimTime::checked_from_micros(u64::MAX), None);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimTime::from_micros(100);
        let t1 = t0 + SimDuration::from_micros(50);
        assert_eq!(t1 - t0, SimDuration::from_micros(50));
        assert_eq!(t1.as_micros(), 150);
        assert_eq!(
            SimTime::ZERO.saturating_duration_since(t1),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_division() {
        let frame = SimDuration::from_micros(50);
        let second = SimDuration::from_secs(1);
        assert_eq!(second / frame, 20_000); // 20 kHz sample frames per second
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(50).to_string(), "50.000µs");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
