//! The k-distance-graph heuristic that estimates DBSCAN's parameters
//! (§2.1.2).
//!
//! "To properly specify these input parameters INDICE plots the k-distance
//! graph and automatically estimates a good value for each parameter. …
//! INDICE runs several times the k-distance plot for different values of
//! minPoints, and selects minPoints when the curve stabilises, and Epsilon
//! as the elbow point of the stable curve."

use crate::dbscan::DbscanConfig;
use crate::matrix::{euclidean, Matrix};

/// The k-distance curves of several `ks` in one pass over the point pairs.
/// Curve `i` holds, for every point, the distance to its `ks[i]`-th nearest
/// neighbour, sorted descending (the conventional presentation); it is
/// empty for an empty matrix, `k == 0` or `k >= n`.
///
/// Each point's distance row is computed once. A selection moves its
/// `kmax` smallest distances to the front (`kmax` = the largest `k` with a
/// curve) and only that head is sorted, so every `k` reads its k-th value
/// from the same head.
pub fn k_distance_curves(data: &Matrix, ks: &[usize]) -> Vec<Vec<f64>> {
    let n = data.n_rows();
    let has_curve = |k: usize| k > 0 && k < n;
    let mut curves: Vec<Vec<f64>> = ks.iter().map(|_| Vec::new()).collect();
    let Some(kmax) = ks.iter().copied().filter(|&k| has_curve(k)).max() else {
        return curves;
    };
    let mut dists = Vec::with_capacity(n - 1);
    for i in 0..n {
        dists.clear();
        dists.extend(
            (0..n)
                .filter(|&j| j != i)
                .map(|j| euclidean(data.row(i), data.row(j))),
        );
        dists.select_nth_unstable_by(kmax - 1, f64::total_cmp);
        let head = &mut dists[..kmax];
        head.sort_unstable_by(f64::total_cmp);
        for (curve, &k) in curves.iter_mut().zip(ks) {
            if has_curve(k) {
                curve.push(head[k - 1]);
            }
        }
    }
    for curve in &mut curves {
        curve.sort_unstable_by(|a, b| b.total_cmp(a));
    }
    curves
}

/// The elbow of a descending k-distance curve: the point of maximum
/// perpendicular distance from the chord joining the endpoints. Returns the
/// curve *value* at the elbow (the ε estimate); `None` for curves shorter
/// than 3.
pub fn curve_elbow_value(curve: &[f64]) -> Option<f64> {
    if curve.len() < 3 {
        return None;
    }
    let n = curve.len();
    let (x0, y0) = (0.0, curve[0]);
    let (x1, y1) = ((n - 1) as f64, curve[n - 1]);
    let dx = x1 - x0;
    let dy = y1 - y0;
    let norm = (dx * dx + dy * dy).sqrt();
    if norm == 0.0 {
        return Some(curve[n / 2]);
    }
    let mut best = (1usize, -1.0f64);
    for (i, &y) in curve.iter().enumerate().skip(1).take(n - 2) {
        let d = (dy * (i as f64 - x0) - dx * (y - y0)).abs() / norm;
        if d > best.1 {
            best = (i, d);
        }
    }
    Some(curve[best.0])
}

/// Measures how different two k-distance curves are: mean absolute
/// difference at matching (relative) positions, normalized by the mean
/// curve magnitude. Small values mean the curve has "stabilised".
pub fn curve_difference(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let n = a.len().min(b.len());
    let mut diff = 0.0;
    let mut scale = 0.0;
    for i in 0..n {
        // Sample both at the same relative position.
        let ia = i * a.len() / n;
        let ib = i * b.len() / n;
        diff += (a[ia] - b[ib]).abs();
        scale += a[ia].abs().max(b[ib].abs());
    }
    if scale == 0.0 {
        0.0
    } else {
        diff / scale
    }
}

/// Automatically estimates `(minPoints, eps)` the way §2.1.2 describes:
/// scans `min_points_candidates` in order over their k-distance curves
/// (all built in one pass by [`k_distance_curves`]), and stops at the first
/// candidate whose curve differs from the previous one by less than
/// `stability_tol` (the "curve stabilises" criterion); ε is the elbow of
/// that stable curve.
///
/// Falls back to the last candidate when no stabilisation occurs. Returns
/// `None` when the data is too small for any candidate.
pub fn estimate_dbscan_params(
    data: &Matrix,
    min_points_candidates: &[usize],
    stability_tol: f64,
) -> Option<DbscanConfig> {
    // The curve uses k = minPoints − 1 neighbours (the point itself counts
    // toward minPoints).
    let ks: Vec<usize> = min_points_candidates
        .iter()
        .map(|&mp| mp.saturating_sub(1).max(1))
        .collect();
    let curves = k_distance_curves(data, &ks);
    let mut prev: Option<(usize, &[f64])> = None;
    for (&mp, curve) in min_points_candidates.iter().zip(&curves) {
        if curve.len() < 3 {
            continue;
        }
        if let Some((prev_mp, prev_curve)) = prev {
            if curve_difference(prev_curve, curve) < stability_tol {
                return Some(DbscanConfig {
                    eps: curve_elbow_value(prev_curve)?,
                    min_points: prev_mp,
                });
            }
        }
        prev = Some((mp, curve));
    }
    let (mp, curve) = prev?;
    Some(DbscanConfig {
        eps: curve_elbow_value(curve)?,
        min_points: mp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::dbscan_with_runtime;

    fn k_distance_curve(data: &Matrix, k: usize) -> Vec<f64> {
        k_distance_curves(data, &[k]).remove(0)
    }

    fn blobs_with_noise() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..50 {
            rows.push(vec![
                ((i * 13) % 25) as f64 / 25.0,
                ((i * 7) % 25) as f64 / 25.0,
            ]);
        }
        for i in 0..50 {
            rows.push(vec![
                8.0 + ((i * 11) % 25) as f64 / 25.0,
                8.0 + ((i * 19) % 25) as f64 / 25.0,
            ]);
        }
        rows.push(vec![40.0, 40.0]);
        rows.push(vec![-40.0, 25.0]);
        Matrix::from_rows(&rows)
    }

    #[test]
    fn curve_is_descending() {
        let data = blobs_with_noise();
        let curve = k_distance_curve(&data, 4);
        assert_eq!(curve.len(), data.n_rows());
        for w in curve.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn noise_points_dominate_the_curve_head() {
        let data = blobs_with_noise();
        let curve = k_distance_curve(&data, 4);
        // The isolated points have k-distances an order of magnitude above
        // everyone else.
        assert!(curve[0] > 10.0 * curve[5]);
    }

    #[test]
    fn invalid_inputs_give_empty_curve() {
        let data = blobs_with_noise();
        assert!(k_distance_curve(&data, 0).is_empty());
        assert!(k_distance_curve(&data, data.n_rows()).is_empty());
        assert!(k_distance_curve(&Matrix::zeros(0, 2), 3).is_empty());
    }

    #[test]
    fn elbow_value_separates_noise_from_cluster_scale() {
        let data = blobs_with_noise();
        let curve = k_distance_curve(&data, 4);
        let eps = curve_elbow_value(&curve).unwrap();
        // ε must be far below the noise distances and at or above the
        // in-cluster scale.
        assert!(eps < curve[0] / 5.0, "eps {eps} vs max {}", curve[0]);
        assert!(eps > 0.0);
    }

    #[test]
    fn estimated_params_make_dbscan_flag_the_noise() {
        let data = blobs_with_noise();
        let cfg = estimate_dbscan_params(&data, &[3, 4, 5, 6], 0.15).unwrap();
        let res = dbscan_with_runtime(&data, &cfg, &epc_runtime::RuntimeConfig::sequential());
        let noise = res.noise_indices();
        assert!(
            noise.contains(&100) && noise.contains(&101),
            "isolated points must be noise: cfg {cfg:?}, noise {noise:?}"
        );
        // And the bulk of the blobs must survive.
        assert!(noise.len() <= 10, "too much flagged: {}", noise.len());
    }

    #[test]
    fn curve_difference_properties() {
        let a = vec![5.0, 4.0, 3.0];
        assert_eq!(curve_difference(&a, &a), 0.0);
        let b = vec![10.0, 8.0, 6.0];
        assert!(curve_difference(&a, &b) > 0.3);
        assert!(curve_difference(&[], &a).is_infinite());
    }

    #[test]
    fn stabilisation_picks_an_early_candidate() {
        // With a smooth dataset, consecutive minPoints curves are close, so
        // the scan should stop before the last candidate.
        let data = blobs_with_noise();
        let cfg = estimate_dbscan_params(&data, &[3, 4, 5, 6, 7, 8], 0.5).unwrap();
        assert!(cfg.min_points <= 5, "got {:?}", cfg);
    }

    #[test]
    fn too_small_data() {
        let tiny = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        assert!(estimate_dbscan_params(&tiny, &[4, 5], 0.1).is_none());
    }
}
