//! Empirical cumulative distribution functions.
//!
//! Figures 3–6 of the paper are ECDFs (addresses per alias set, ASes per
//! set, sets per AS).  This module provides the small numeric helper the
//! experiment binaries use to regenerate those series.

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    /// Sorted samples.
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from any collection of samples (NaNs are dropped).
    pub(crate) fn from_values<I>(values: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        let mut sorted: Vec<f64> = values.into_iter().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs removed"));
        Ecdf { sorted }
    }

    /// Build from integer counts (the common case: set sizes).
    pub fn from_counts<I>(values: I) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        Self::from_values(values.into_iter().map(|v| v as f64))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The q-quantile (q in `[0, 1]`), `None` for an empty ECDF.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() as f64 - 1.0) * q).round() as usize;
        Some(self.sorted[idx])
    }

    /// The step points of the ECDF as `(x, P(X ≤ x))`, one per distinct value.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut points = Vec::new();
        let mut i = 0;
        while i < self.sorted.len() {
            let x = self.sorted[i];
            let mut j = i;
            while j < self.sorted.len() && self.sorted[j] == x {
                j += 1;
            }
            points.push((x, j as f64 / n));
            i = j;
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_fractions() {
        let ecdf = Ecdf::from_counts([2usize, 2, 2, 3, 10, 100]);
        assert_eq!(ecdf.len(), 6);
        assert!(!ecdf.is_empty());
        assert_eq!(
            ecdf.points(),
            [
                (2.0, 0.5),
                (3.0, 4.0 / 6.0),
                (10.0, 5.0 / 6.0),
                (100.0, 1.0)
            ]
        );
    }

    #[test]
    fn quantiles() {
        let ecdf = Ecdf::from_counts(1..=100usize);
        assert_eq!(ecdf.quantile(0.0), Some(1.0));
        assert_eq!(ecdf.quantile(1.0), Some(100.0));
        let median = ecdf.quantile(0.5).unwrap();
        assert!((49.0..=51.0).contains(&median));
        assert!(Ecdf::from_values([]).quantile(0.5).is_none());
    }

    #[test]
    fn points_are_monotone_and_end_at_one() {
        let ecdf = Ecdf::from_counts([5usize, 1, 1, 7, 7, 7, 2]);
        let points = ecdf.points();
        assert!(points
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(points.last().unwrap().1, 1.0);
        // Distinct x values only.
        assert_eq!(points.len(), 4);
    }

    #[test]
    fn nan_values_are_dropped() {
        let ecdf = Ecdf::from_values([1.0, f64::NAN, 2.0]);
        assert_eq!(ecdf.len(), 2);
    }

    proptest! {
        #[test]
        fn ecdf_is_a_valid_cdf(values in prop::collection::vec(0u32..10_000, 1..200)) {
            let ecdf = Ecdf::from_counts(values.iter().map(|&v| v as usize));
            // Strictly increasing steps, bounded by (0, 1], ending at one.
            let points = ecdf.points();
            let mut last = (f64::NEG_INFINITY, 0.0);
            for &(x, p) in &points {
                prop_assert!(x > last.0 && p > last.1 && p <= 1.0);
                last = (x, p);
            }
            prop_assert_eq!(last.1, 1.0);
        }
    }
}
