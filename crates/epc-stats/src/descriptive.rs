//! Descriptive statistics and the numeric summary the dashboards report:
//! "for numeric data, INDICE includes count, mean, standard deviation and
//! the three quartiles" (§2.3).

use crate::quantile::quartiles;

/// Arithmetic mean; `None` for empty input.
pub fn mean(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    Some(data.iter().sum::<f64>() / data.len() as f64)
}

/// Unbiased sample variance (n−1 denominator); `None` when `n < 2`.
///
/// Uses Welford's one-pass algorithm for numerical stability.
pub fn sample_var(data: &[f64]) -> Option<f64> {
    if data.len() < 2 {
        return None;
    }
    let mut mean = 0.0;
    let mut m2 = 0.0;
    for (i, &x) in data.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (x - mean);
    }
    Some(m2 / (data.len() - 1) as f64)
}

/// Sample standard deviation; `None` when `n < 2`.
pub fn sample_std(data: &[f64]) -> Option<f64> {
    sample_var(data).map(f64::sqrt)
}

/// Population variance (n denominator); `None` for empty input.
pub fn population_var(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let m = mean(data)?;
    Some(data.iter().map(|x| (x - m).powi(2)).sum::<f64>() / data.len() as f64)
}

/// Sample skewness (adjusted Fisher–Pearson, the `g1`-with-correction form
/// statistics packages report); `None` when `n < 3` or the variance is 0.
///
/// Used by the auto-configuration advisor: heavily skewed attributes get
/// the robust MAD outlier rule, symmetric ones the boxplot.
pub fn skewness(data: &[f64]) -> Option<f64> {
    let n = data.len();
    if n < 3 {
        return None;
    }
    let m = mean(data)?;
    let nf = n as f64;
    let m2 = data.iter().map(|x| (x - m).powi(2)).sum::<f64>() / nf;
    let m3 = data.iter().map(|x| (x - m).powi(3)).sum::<f64>() / nf;
    if m2 <= 0.0 {
        return None;
    }
    let g1 = m3 / m2.powf(1.5);
    Some((nf * (nf - 1.0)).sqrt() / (nf - 2.0) * g1)
}

/// Excess kurtosis (`g2 = m4/m2² − 3`); `None` when `n < 4` or variance 0.
pub fn excess_kurtosis(data: &[f64]) -> Option<f64> {
    let n = data.len();
    if n < 4 {
        return None;
    }
    let m = mean(data)?;
    let nf = n as f64;
    let m2 = data.iter().map(|x| (x - m).powi(2)).sum::<f64>() / nf;
    let m4 = data.iter().map(|x| (x - m).powi(4)).sum::<f64>() / nf;
    if m2 <= 0.0 {
        return None;
    }
    Some(m4 / (m2 * m2) - 3.0)
}

/// Minimum of the data (NaN-free input assumed); `None` for empty input.
pub fn min(data: &[f64]) -> Option<f64> {
    data.iter().copied().reduce(f64::min)
}

/// Maximum of the data; `None` for empty input.
pub fn max(data: &[f64]) -> Option<f64> {
    data.iter().copied().reduce(f64::max)
}

/// The numeric attribute summary shown in the dashboard setting panel:
/// count, mean, standard deviation, min/max, and the three quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericSummary {
    /// Number of non-missing values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when `count < 2`).
    pub std: f64,
    /// Minimum value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum value.
    pub max: f64,
}

impl NumericSummary {
    /// Summarizes `data`; `None` for empty input.
    pub fn from_slice(data: &[f64]) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let (q1, median, q3) = quartiles(data)?;
        Some(NumericSummary {
            count: data.len(),
            mean: mean(data)?,
            std: sample_std(data).unwrap_or(0.0),
            min: min(data)?,
            q1,
            median,
            q3,
            max: max(data)?,
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn variance_matches_textbook() {
        // var([2,4,4,4,5,5,7,9]) population = 4, sample = 32/7
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((population_var(&data).unwrap() - 4.0).abs() < 1e-12);
        assert!((sample_var(&data).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((sample_std(&data).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_needs_two_points() {
        assert_eq!(sample_var(&[1.0]), None);
        assert_eq!(sample_std(&[]), None);
        assert_eq!(population_var(&[3.0]), Some(0.0));
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case: large mean, small variance.
        let data: Vec<f64> = (0..1000).map(|i| 1e9 + (i % 2) as f64).collect();
        let v = sample_var(&data).unwrap();
        assert!((v - 0.2502502502502503).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn min_max() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(max(&[3.0, 1.0, 2.0]), Some(3.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn summary_fields_are_consistent() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = NumericSummary::from_slice(&data).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.median, 50.5);
        assert!(s.q1 < s.median && s.median < s.q3);
        assert!((s.iqr() - (s.q3 - s.q1)).abs() < 1e-12);
        assert_eq!(NumericSummary::from_slice(&[]), None);
    }

    #[test]
    fn skewness_signs() {
        // Right-skewed: long tail of large values.
        let right: Vec<f64> = (0..100).map(|i| (i as f64 / 10.0).exp()).collect();
        assert!(skewness(&right).unwrap() > 1.0);
        // Symmetric.
        let sym: Vec<f64> = (-50..=50).map(|i| i as f64).collect();
        assert!(skewness(&sym).unwrap().abs() < 1e-9);
        // Left-skewed = mirrored right-skewed.
        let left: Vec<f64> = right.iter().map(|x| -x).collect();
        assert!((skewness(&left).unwrap() + skewness(&right).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn skewness_degenerate_inputs() {
        assert_eq!(skewness(&[1.0, 2.0]), None);
        assert_eq!(skewness(&[3.0; 10]), None, "zero variance");
    }

    #[test]
    fn kurtosis_of_uniformish_is_negative() {
        // Uniform distribution has excess kurtosis −1.2.
        let u: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
        let k = excess_kurtosis(&u).unwrap();
        assert!((k + 1.2).abs() < 0.05, "got {k}");
        assert_eq!(excess_kurtosis(&[1.0, 2.0, 3.0]), None);
        assert_eq!(excess_kurtosis(&[5.0; 8]), None);
    }

    #[test]
    fn heavy_tails_raise_kurtosis() {
        let mut data: Vec<f64> = (0..200).map(|i| ((i % 20) as f64 - 10.0) * 0.1).collect();
        let base = excess_kurtosis(&data).unwrap();
        data.push(50.0);
        data.push(-50.0);
        assert!(excess_kurtosis(&data).unwrap() > base + 10.0);
    }

    #[test]
    fn summary_single_value() {
        let s = NumericSummary::from_slice(&[5.0]).unwrap();
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 5.0);
    }
}
