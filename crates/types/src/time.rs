//! Simulated-time types.
//!
//! The simulator advances a virtual clock entirely decoupled from wall-clock
//! time: a 27-hour beam session replays in milliseconds. `f64` seconds give
//! ample precision for the dynamic range involved (sub-millisecond watchdog
//! polls up to the 10¹⁵-hour scale of FIT arithmetic).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time.
///
/// ```
/// use serscale_types::SimDuration;
///
/// let session = SimDuration::from_minutes(1651.0);
/// assert!((session.as_hours() - 27.5).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or non-finite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration(secs)
    }

    /// Creates a duration from minutes.
    pub fn from_minutes(mins: f64) -> Self {
        Self::from_secs(mins * 60.0)
    }

    /// Creates a duration from hours.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1000.0)
    }

    /// Returns the duration in seconds.
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the duration in minutes.
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// Returns the duration in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Returns the duration in Julian years (365.25 days).
    pub fn as_years(self) -> f64 {
        self.as_hours() / (24.0 * 365.25)
    }

    /// True when the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Saturating subtraction: a duration can never be negative.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3600.0 {
            write!(f, "{:.2} h", self.as_hours())
        } else if self.0 >= 60.0 {
            write!(f, "{:.2} min", self.as_minutes())
        } else {
            write!(f, "{:.3} s", self.0)
        }
    }
}

/// An instant on the simulated clock, measured from the start of the
/// simulation.
///
/// ```
/// use serscale_types::{SimDuration, SimInstant};
///
/// let t0 = SimInstant::EPOCH;
/// let t1 = t0 + SimDuration::from_secs(5.0);
/// assert!((t1.elapsed_since(t0).as_secs() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimInstant(f64);

impl SimInstant {
    /// The simulation start.
    pub const EPOCH: SimInstant = SimInstant(0.0);

    /// Creates an instant at `secs` seconds after the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or non-finite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "instant must be finite and non-negative"
        );
        SimInstant(secs)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// The duration elapsed since an `earlier` instant.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    pub fn elapsed_since(self, earlier: SimInstant) -> SimDuration {
        debug_assert!(
            earlier.0 <= self.0,
            "elapsed_since called with a later instant"
        );
        SimDuration((self.0 - earlier.0).max(0.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_secs())
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_secs();
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let d = SimDuration::from_hours(27.5);
        assert!((d.as_minutes() - 1650.0).abs() < 1e-9);
        assert!((d.as_secs() - 99000.0).abs() < 1e-9);
        assert!((SimDuration::from_millis(1500.0).as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn years_conversion() {
        let d = SimDuration::from_hours(24.0 * 365.25);
        assert!((d.as_years() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn saturating_subtraction() {
        let a = SimDuration::from_secs(1.0);
        let b = SimDuration::from_secs(2.0);
        assert_eq!((a - b).as_secs(), 0.0);
        assert!(((b - a).as_secs()) - 1.0 < 1e-12);
    }

    #[test]
    fn instant_advance() {
        let mut t = SimInstant::EPOCH;
        t += SimDuration::from_minutes(1.0);
        t += SimDuration::from_minutes(2.0);
        assert!((t.as_secs() - 180.0).abs() < 1e-12);
        assert!((t.elapsed_since(SimInstant::EPOCH).as_minutes() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (0..10).map(|_| SimDuration::from_secs(0.5)).sum();
        assert!((total.as_secs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_scales_unit() {
        assert_eq!(SimDuration::from_secs(5.0).to_string(), "5.000 s");
        assert_eq!(SimDuration::from_minutes(5.0).to_string(), "5.00 min");
        assert_eq!(SimDuration::from_hours(5.0).to_string(), "5.00 h");
    }
}
