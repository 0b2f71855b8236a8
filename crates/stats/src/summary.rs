//! Running summary statistics (Welford accumulation).

/// A numerically stable running mean/variance accumulator.
///
/// Used for averaging per-benchmark rates, power samples, and the repeated
/// undervolting trials of the Vmin characterization.
///
/// ```
/// use serscale_stats::summary::Summary;
///
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "observations must be finite");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// The number of observations.
    pub const fn count(&self) -> u64 {
        self.n
    }

    /// True when no observations have been added.
    pub const fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The arithmetic mean.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn mean(&self) -> f64 {
        assert!(self.n > 0, "mean of empty summary");
        self.mean
    }

    /// The sample variance (n − 1 denominator).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two observations have been added.
    pub fn sample_variance(&self) -> f64 {
        assert!(
            self.n > 1,
            "sample variance needs at least two observations"
        );
        self.m2 / (self.n - 1) as f64
    }

    /// The sample standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two observations have been added.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// The population standard deviation (n denominator).
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn population_std_dev(&self) -> f64 {
        assert!(self.n > 0, "std dev of empty summary");
        (self.m2 / self.n as f64).sqrt()
    }

    /// The standard error of the mean.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two observations have been added.
    pub fn std_error(&self) -> f64 {
        self.sample_std_dev() / (self.n as f64).sqrt()
    }

    /// The smallest observation.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn min(&self) -> f64 {
        assert!(self.n > 0, "min of empty summary");
        self.min
    }

    /// The largest observation.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn max(&self) -> f64 {
        assert!(self.n > 0, "max of empty summary");
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.sample_variance() - 2.5).abs() < 1e-12);
        assert!((s.min() - 1.0).abs() < 1e-12);
        assert!((s.max() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        let b: Summary = [10.0, 20.0].into_iter().collect();
        a.merge(&b);
        let direct: Summary = [1.0, 2.0, 3.0, 10.0, 20.0].into_iter().collect();
        assert!((a.mean() - direct.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - direct.sample_variance()).abs() < 1e-9);
        assert_eq!(a.count(), direct.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: Summary = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn extend_appends() {
        let mut s = Summary::new();
        s.extend([1.0, 1.0]);
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn std_error_shrinks_with_n() {
        let small: Summary = (0..10).map(|i| (i % 3) as f64).collect();
        let large: Summary = (0..1000).map(|i| (i % 3) as f64).collect();
        assert!(large.std_error() < small.std_error());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_mean_panics() {
        let _ = Summary::new().mean();
    }
}
