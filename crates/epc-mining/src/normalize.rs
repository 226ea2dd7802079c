//! Feature scaling applied before distance-based algorithms.
//!
//! The case study clusters attributes with wildly different ranges (heated
//! surface in hundreds of m² next to efficiencies in `[0, 1]`), so scaling
//! is essential for the Euclidean metric to be meaningful.

use crate::matrix::Matrix;

/// Min-max scaler mapping each feature to `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    /// `max − min`, in the units of `units`.
    ranges: Vec<f64>,
    /// Per feature, 1.0 — or 0.5 when `max − min` overflows f64 (finite
    /// values spanning more than `f64::MAX`): that feature is measured in
    /// half units, so its scaled values stay finite. Multiplying by 1.0 is
    /// exact, so every other feature scales bit for bit as `(x − min) / r`.
    units: Vec<f64>,
}

impl MinMaxScaler {
    /// Learns per-feature min/max from `m`; `None` for an empty matrix.
    pub fn fit(m: &Matrix) -> Option<Self> {
        if m.is_empty() {
            return None;
        }
        let d = m.n_cols();
        let mut mins = vec![f64::INFINITY; d];
        let mut maxs = vec![f64::NEG_INFINITY; d];
        for row in m.rows() {
            for (j, &x) in row.iter().enumerate() {
                mins[j] = mins[j].min(x);
                maxs[j] = maxs[j].max(x);
            }
        }
        let (ranges, units) = mins
            .iter()
            .zip(&maxs)
            .map(|(lo, hi)| {
                // Halving is exact, so a span beyond f64::MAX is measured
                // in half units.
                let overflows = (hi - lo).is_infinite() && lo.is_finite() && hi.is_finite();
                let u = if overflows { 0.5 } else { 1.0 };
                let r = hi * u - lo * u;
                // A constant feature maps to 0.
                (if r > 0.0 { r } else { 1.0 }, u)
            })
            .unzip();
        Some(MinMaxScaler {
            mins,
            ranges,
            units,
        })
    }

    /// Features whose finite values span more than `f64::MAX`, ascending.
    /// They still scale to finite values, but in half units: every value
    /// far from both ends lands on the same scaled point.
    pub fn overflowing_features(&self) -> Vec<usize> {
        (0..self.units.len())
            .filter(|&j| self.units[j] < 1.0)
            .collect()
    }

    /// Transforms a matrix into scaled space.
    pub fn transform(&self, m: &Matrix) -> Matrix {
        let mut out = m.clone();
        for i in 0..out.n_rows() {
            let row = out.row_mut(i);
            for (j, x) in row.iter_mut().enumerate() {
                let u = self.units[j];
                *x = (*x * u - self.mins[j] * u) / self.ranges[j];
            }
        }
        out
    }

    /// Maps a scaled row back to the original units (used to report
    /// centroids in interpretable units).
    pub fn inverse_row(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .map(|(j, x)| {
                let u = self.units[j];
                (x * self.ranges[j] + self.mins[j] * u) / u
            })
            .collect()
    }

    /// Fit + transform in one step.
    pub fn fit_transform(m: &Matrix) -> Option<(Self, Matrix)> {
        let s = Self::fit(m)?;
        let t = s.transform(m);
        Some((s, t))
    }
}

/// Z-score scaler (zero mean, unit variance per feature).
#[derive(Debug, Clone, PartialEq)]
pub struct ZScoreScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl ZScoreScaler {
    /// Learns per-feature mean/std from `m`; `None` for an empty matrix.
    pub fn fit(m: &Matrix) -> Option<Self> {
        if m.is_empty() {
            return None;
        }
        let d = m.n_cols();
        let n = m.n_rows() as f64;
        let mut means = vec![0.0; d];
        for row in m.rows() {
            for (j, &x) in row.iter().enumerate() {
                means[j] += x;
            }
        }
        for v in &mut means {
            *v /= n;
        }
        let mut vars = vec![0.0; d];
        for row in m.rows() {
            for (j, &x) in row.iter().enumerate() {
                vars[j] += (x - means[j]).powi(2);
            }
        }
        let stds = vars
            .iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Some(ZScoreScaler { means, stds })
    }

    /// Transforms a matrix into z-score space.
    pub fn transform(&self, m: &Matrix) -> Matrix {
        let mut out = m.clone();
        for i in 0..out.n_rows() {
            let row = out.row_mut(i);
            for (j, x) in row.iter_mut().enumerate() {
                *x = (*x - self.means[j]) / self.stds[j];
            }
        }
        out
    }

    /// Maps a scaled row back to original units.
    pub fn inverse_row(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .map(|(j, x)| x * self.stds[j] + self.means[j])
            .collect()
    }

    /// Fit + transform in one step.
    pub fn fit_transform(m: &Matrix) -> Option<(Self, Matrix)> {
        let s = Self::fit(m)?;
        let t = s.transform(m);
        Some((s, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![0.0, 100.0], vec![5.0, 200.0], vec![10.0, 300.0]])
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let (_, t) = MinMaxScaler::fit_transform(&sample()).unwrap();
        for row in t.rows() {
            for &x in row {
                assert!((0.0..=1.0).contains(&x));
            }
        }
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(2, 0), 1.0);
        assert_eq!(t.get(1, 1), 0.5);
    }

    #[test]
    fn minmax_inverse_round_trips() {
        let (s, t) = MinMaxScaler::fit_transform(&sample()).unwrap();
        for i in 0..t.n_rows() {
            let back = s.inverse_row(t.row(i));
            for (a, b) in back.iter().zip(sample().row(i)) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn minmax_constant_feature_is_zero() {
        let m = Matrix::from_rows(&[vec![7.0, 1.0], vec![7.0, 2.0]]);
        let (_, t) = MinMaxScaler::fit_transform(&m).unwrap();
        assert_eq!(t.column(0), vec![0.0, 0.0]);
    }

    #[test]
    fn minmax_keeps_a_span_beyond_f64_max_finite() {
        let m = Matrix::from_rows(&[vec![1.7e308, 3.0], vec![-1.7e308, 4.0], vec![0.0, 5.0]]);
        let (s, t) = MinMaxScaler::fit_transform(&m).unwrap();
        assert_eq!(t.column(0), vec![1.0, 0.0, 0.5]);
        // The ordinary column is untouched by the other's half units.
        assert_eq!(t.column(1), vec![0.0, 0.5, 1.0]);
        assert_eq!(s.inverse_row(t.row(1)), vec![-1.7e308, 4.0]);
        assert_eq!(s.overflowing_features(), vec![0]);
    }

    #[test]
    fn zscore_mean_zero_var_one() {
        let (_, t) = ZScoreScaler::fit_transform(&sample()).unwrap();
        for j in 0..2 {
            let col = t.column(j);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 = col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zscore_inverse_round_trips() {
        let (s, t) = ZScoreScaler::fit_transform(&sample()).unwrap();
        for i in 0..t.n_rows() {
            let back = s.inverse_row(t.row(i));
            for (a, b) in back.iter().zip(sample().row(i)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zscore_constant_feature_is_zero() {
        let m = Matrix::from_rows(&[vec![7.0], vec![7.0], vec![7.0]]);
        let (_, t) = ZScoreScaler::fit_transform(&m).unwrap();
        assert_eq!(t.column(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_matrix_cannot_fit() {
        let m = Matrix::zeros(0, 2);
        assert!(MinMaxScaler::fit(&m).is_none());
        assert!(ZScoreScaler::fit(&m).is_none());
    }

    #[test]
    fn transform_unseen_data_uses_fitted_params() {
        let s = MinMaxScaler::fit(&sample()).unwrap();
        let other = Matrix::from_rows(&[vec![20.0, 400.0]]); // outside training range
        let t = s.transform(&other);
        assert_eq!(t.get(0, 0), 2.0, "extrapolation is linear, not clamped");
    }
}
