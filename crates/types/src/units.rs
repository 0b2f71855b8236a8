//! Electrical and thermal unit newtypes: voltage, frequency, power,
//! temperature.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A supply voltage in millivolts.
///
/// The X-Gene 2 regulates its PMD domain in 5 mV steps from a 980 mV nominal
/// and its SoC domain from a 950 mV nominal, so an integer millivolt
/// representation is exact for every level the platform can express.
///
/// ```
/// use serscale_types::Millivolts;
///
/// let nominal = Millivolts::new(980);
/// let vmin = nominal.stepped_down(12); // 12 × 5 mV
/// assert_eq!(vmin, Millivolts::new(920));
/// assert_eq!(nominal - vmin, 60);
/// assert!((vmin.as_volts() - 0.92).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Millivolts(u32);

impl Millivolts {
    /// The voltage-regulator step granularity of the modelled platform (5 mV).
    pub const STEP: u32 = 5;

    /// Creates a voltage from a raw millivolt count.
    pub const fn new(mv: u32) -> Self {
        Millivolts(mv)
    }

    /// Returns the raw millivolt count.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Returns the voltage in volts.
    pub fn as_volts(self) -> f64 {
        f64::from(self.0) / 1000.0
    }

    /// Returns this voltage lowered by `steps` regulator steps of
    /// [`Millivolts::STEP`] mV, saturating at 0 mV.
    pub const fn stepped_down(self, steps: u32) -> Self {
        Millivolts(self.0.saturating_sub(steps * Self::STEP))
    }

    /// Returns this voltage raised by `steps` regulator steps.
    pub const fn stepped_up(self, steps: u32) -> Self {
        Millivolts(self.0 + steps * Self::STEP)
    }

    /// Returns the ratio of `self` to `other` as a dimensionless factor.
    ///
    /// Used by the power model (`P ∝ V²`) and the critical-charge model
    /// (`Qcrit ∝ V`).
    pub fn ratio_to(self, other: Millivolts) -> f64 {
        f64::from(self.0) / f64::from(other.0)
    }

    /// True when this voltage is aligned to the regulator step granularity.
    pub const fn is_step_aligned(self) -> bool {
        self.0.is_multiple_of(Self::STEP)
    }
}

impl Sub for Millivolts {
    type Output = u32;

    /// The (non-negative) margin between two voltages in mV.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`; use explicit ordering checks
    /// when the sign of a margin is not known statically.
    fn sub(self, rhs: Millivolts) -> u32 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mV", self.0)
    }
}

impl std::str::FromStr for Millivolts {
    type Err = crate::Error;

    /// Parses `"980 mV"` (the [`Display`](fmt::Display) form) or a bare
    /// millivolt count `"980"` — the textual round-trip the config and
    /// report formats rely on.
    ///
    /// ```
    /// use serscale_types::Millivolts;
    ///
    /// let v = Millivolts::new(920);
    /// assert_eq!(v.to_string().parse::<Millivolts>().unwrap(), v);
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s.trim().strip_suffix("mV").unwrap_or(s.trim()).trim();
        digits
            .parse::<u32>()
            .map(Millivolts::new)
            .map_err(|_| crate::Error::InvalidConfig {
                what: "voltage".into(),
                reason: format!("cannot parse {s:?} as millivolts"),
            })
    }
}

/// A clock frequency in megahertz.
///
/// The modelled platform steps each dual-core PMD from 300 MHz to 2400 MHz in
/// 300 MHz increments.
///
/// ```
/// use serscale_types::Megahertz;
///
/// let top = Megahertz::new(2400);
/// assert!((top.as_ghz() - 2.4).abs() < 1e-12);
/// assert!(Megahertz::new(900) < top);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Megahertz(u32);

impl Megahertz {
    /// The PMD PLL step granularity of the modelled platform (300 MHz).
    pub const STEP: u32 = 300;

    /// Creates a frequency from a raw megahertz count.
    pub const fn new(mhz: u32) -> Self {
        Megahertz(mhz)
    }

    /// Returns the raw megahertz count.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Returns the frequency in GHz.
    pub fn as_ghz(self) -> f64 {
        f64::from(self.0) / 1000.0
    }

    /// Returns the frequency in Hz.
    pub fn as_hz(self) -> f64 {
        f64::from(self.0) * 1.0e6
    }

    /// Returns the ratio of `self` to `other` as a dimensionless factor,
    /// used by the dynamic-power model (`P ∝ f`).
    pub fn ratio_to(self, other: Megahertz) -> f64 {
        f64::from(self.0) / f64::from(other.0)
    }

    /// True when this frequency is aligned to the PLL step granularity.
    pub const fn is_step_aligned(self) -> bool {
        self.0.is_multiple_of(Self::STEP)
    }
}

impl fmt::Display for Megahertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000 {
            write!(f, "{} GHz", f64::from(self.0) / 1000.0)
        } else {
            write!(f, "{} MHz", self.0)
        }
    }
}

impl std::str::FromStr for Megahertz {
    type Err = crate::Error;

    /// Parses `"900 MHz"`, `"2.4 GHz"` (both [`Display`](fmt::Display)
    /// forms) or a bare megahertz count `"900"`. GHz values must land on
    /// a whole megahertz.
    ///
    /// ```
    /// use serscale_types::Megahertz;
    ///
    /// let f = Megahertz::new(2400);
    /// assert_eq!(f.to_string().parse::<Megahertz>().unwrap(), f);
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |reason: String| crate::Error::InvalidConfig {
            what: "frequency".into(),
            reason,
        };
        let t = s.trim();
        if let Some(g) = t.strip_suffix("GHz") {
            let ghz: f64 = g
                .trim()
                .parse()
                .map_err(|_| bad(format!("cannot parse {s:?} as gigahertz")))?;
            let mhz = ghz * 1000.0;
            if !(mhz.is_finite() && mhz >= 0.0 && (mhz - mhz.round()).abs() < 1e-6) {
                return Err(bad(format!("{s:?} is not a whole number of megahertz")));
            }
            return Ok(Megahertz::new(mhz.round() as u32));
        }
        let digits = t.strip_suffix("MHz").unwrap_or(t).trim();
        digits
            .parse::<u32>()
            .map(Megahertz::new)
            .map_err(|_| bad(format!("cannot parse {s:?} as megahertz")))
    }
}

/// Electrical power in watts.
///
/// ```
/// use serscale_types::Watts;
///
/// let pmd = Watts::new(14.2);
/// let soc = Watts::new(6.2);
/// assert!((pmd + soc).get() > 20.0);
/// let savings = (Watts::new(20.40) - Watts::new(18.63)).get() / 20.40;
/// assert!((savings - 0.0868).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Creates a power value.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or non-finite; power draw is physical.
    pub fn new(w: f64) -> Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "power must be finite and non-negative, got {w}"
        );
        Watts(w)
    }

    /// Returns the power in watts.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Fractional savings of `self` relative to a `baseline` power draw.
    ///
    /// Returns `(baseline − self) / baseline`; positive when `self` draws
    /// less than the baseline.
    pub fn savings_vs(self, baseline: Watts) -> f64 {
        (baseline.0 - self.0) / baseline.0
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Div<Watts> for Watts {
    type Output = f64;
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.0)
    }
}

/// A temperature in degrees Celsius.
///
/// The beam campaign ran the DUT at 40–45 °C and verified the safe Vmin was
/// stable up to 50 °C; the simulator carries temperature so the same check is
/// expressible.
///
/// ```
/// use serscale_types::Celsius;
///
/// let dut = Celsius::new(42.5);
/// assert!(dut.is_within(Celsius::new(40.0), Celsius::new(45.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(f64);

impl Celsius {
    /// Creates a temperature.
    ///
    /// # Panics
    ///
    /// Panics if `c` is non-finite.
    pub fn new(c: f64) -> Self {
        assert!(c.is_finite(), "temperature must be finite");
        Celsius(c)
    }

    /// Returns the temperature in °C.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// True when the temperature lies in the closed interval `[lo, hi]`.
    pub fn is_within(self, lo: Celsius, hi: Celsius) -> bool {
        self >= lo && self <= hi
    }
}

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} °C", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millivolts_step_arithmetic() {
        let v = Millivolts::new(980);
        assert_eq!(v.stepped_down(10), Millivolts::new(930));
        assert_eq!(v.stepped_down(0), v);
        assert_eq!(v.stepped_up(2), Millivolts::new(990));
        assert!(v.is_step_aligned());
        assert!(!Millivolts::new(982).is_step_aligned());
    }

    #[test]
    fn unit_parsing_accepts_display_and_bare_forms() {
        assert_eq!(
            "980 mV".parse::<Millivolts>().unwrap(),
            Millivolts::new(980)
        );
        assert_eq!("790".parse::<Millivolts>().unwrap(), Millivolts::new(790));
        assert_eq!(
            "2.4 GHz".parse::<Megahertz>().unwrap(),
            Megahertz::new(2400)
        );
        assert_eq!("900 MHz".parse::<Megahertz>().unwrap(), Megahertz::new(900));
        assert_eq!("300".parse::<Megahertz>().unwrap(), Megahertz::new(300));
    }

    #[test]
    fn unit_parsing_rejects_garbage() {
        assert!("volts".parse::<Millivolts>().is_err());
        assert!("-5 mV".parse::<Millivolts>().is_err());
        assert!("2.4005 GHz".parse::<Megahertz>().is_err());
        assert!("fast".parse::<Megahertz>().is_err());
    }

    #[test]
    fn millivolts_saturating_floor() {
        assert_eq!(Millivolts::new(10).stepped_down(100), Millivolts::new(0));
    }

    #[test]
    fn millivolts_ordering_and_margin() {
        let nominal = Millivolts::new(980);
        let vmin = Millivolts::new(920);
        assert!(vmin < nominal);
        assert_eq!(nominal - vmin, 60);
    }

    #[test]
    fn millivolts_ratio() {
        let r = Millivolts::new(490).ratio_to(Millivolts::new(980));
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn megahertz_display_and_conversion() {
        assert_eq!(Megahertz::new(2400).to_string(), "2.4 GHz");
        assert_eq!(Megahertz::new(900).to_string(), "900 MHz");
        assert!((Megahertz::new(900).as_ghz() - 0.9).abs() < 1e-12);
        assert!((Megahertz::new(1).as_hz() - 1.0e6).abs() < 1e-6);
        assert!(Megahertz::new(900).is_step_aligned());
        assert!(!Megahertz::new(1000).is_step_aligned());
    }

    #[test]
    fn watts_arithmetic() {
        let a = Watts::new(10.0);
        let b = Watts::new(4.0);
        assert!(((a + b).get() - 14.0).abs() < 1e-12);
        assert!(((a - b).get() - 6.0).abs() < 1e-12);
        // Subtraction clamps at zero rather than producing negative power.
        assert_eq!((b - a).get(), 0.0);
        assert!(((a * 0.5).get() - 5.0).abs() < 1e-12);
        assert!((a / b - 2.5).abs() < 1e-12);
    }

    #[test]
    fn watts_savings_matches_paper_arithmetic() {
        // Fig. 9/10: 980 mV → 930 mV cuts 20.40 W to 18.63 W, an 8.7% saving.
        let saving = Watts::new(18.63).savings_vs(Watts::new(20.40));
        assert!((saving - 0.087).abs() < 5e-4, "saving = {saving}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn watts_rejects_negative() {
        let _ = Watts::new(-1.0);
    }

    #[test]
    fn celsius_window() {
        let t = Celsius::new(44.0);
        assert!(t.is_within(Celsius::new(40.0), Celsius::new(45.0)));
        assert!(!t.is_within(Celsius::new(45.5), Celsius::new(50.0)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Millivolts::new(920).to_string(), "920 mV");
        assert_eq!(Watts::new(20.4).to_string(), "20.40 W");
        assert_eq!(Celsius::new(42.0).to_string(), "42.0 °C");
    }
}
