//! Order statistics and dispersion over small samples of `f64`.

/// The median of `values` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics when `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The 90th percentile (nearest rank), reported only when at least ten
/// samples lie beyond it — the highest percentile a sample supports.
pub fn p90_if_supported(values: &[f64]) -> Option<f64> {
    if values.len() < 100 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let rank = (sorted.len() * 9).div_ceil(10);
    Some(sorted[rank - 1])
}

/// Geometric mean of strictly positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Coefficient of variation (sample standard deviation ÷ mean); 0 for
/// fewer than two samples.
pub fn cv(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt() / mean
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method) — the spread the driver computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = sorted.len();
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    (quartile(3) - quartile(1)) / median(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild block cannot move the run's value.
        assert_eq!(median(&[1.0, 1.1, 0.9, 50.0, 1.05]), 1.05);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90_if_supported(&few), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90_if_supported(&enough), Some(90.0));
    }

    #[test]
    fn geometric_mean_is_scale_symmetric() {
        assert!((geometric_mean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cv_and_quartile_spread() {
        assert_eq!(cv(&[5.0]), 0.0);
        assert!((cv(&[9.0, 11.0]) - 2.0_f64.sqrt() / 10.0).abs() < 1e-12);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }
}
