//! Automatic K selection via the SSE elbow (§2.2.2).
//!
//! "INDICE analyses the trend of the SSE quality index … the K value is
//! chosen as the point where the marginal decrease in the SSE curve is
//! maximized (aka elbow approach)."

use crate::kmeans::{KMeans, KMeansConfig};
use crate::matrix::Matrix;

/// Computes the `(k, SSE)` curve for every `k` in `ks`, fitting a fresh
/// K-means per point with `base` (its `k` field is overridden). Ks that
/// cannot be fitted (e.g. larger than the number of points) are skipped.
/// `runtime` is forwarded to each K-means fit (the per-K fits themselves
/// run one after another so the curve's order never changes).
pub fn sse_curve_with_runtime(
    data: &Matrix,
    ks: impl IntoIterator<Item = usize>,
    base: &KMeansConfig,
    runtime: &epc_runtime::RuntimeConfig,
) -> Vec<(usize, f64)> {
    ks.into_iter()
        .filter_map(|k| {
            let cfg = KMeansConfig { k, ..base.clone() };
            KMeans::new(cfg)
                .fit_traced(data, runtime)
                .map(|(m, _)| (k, m.sse))
        })
        .collect()
}

/// Picks the elbow of an SSE curve — "the point where the marginal decrease
/// in the SSE curve is maximized": the interior point whose incoming drop is
/// largest *relative to* its outgoing drop (after this K, adding clusters
/// stops paying off). Requires at least 3 points; `None` otherwise.
///
/// The curve must be sorted by ascending `k` (as [`sse_curve_with_runtime`]
/// produces).
pub fn elbow_k(curve: &[(usize, f64)]) -> Option<usize> {
    if curve.len() < 3 {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for w in curve.windows(3) {
        let (_, s0) = w[0];
        let (k1, s1) = w[1];
        let (_, s2) = w[2];
        let drop_in = (s0 - s1).max(0.0);
        let drop_out = (s1 - s2).max(0.0);
        // Guard against perfectly flat tails: a tiny epsilon keeps the
        // ratio finite while preserving ordering.
        let ratio = drop_in / drop_out.max(f64::EPSILON * (1.0 + s0.abs()));
        if best.map(|(_, b)| ratio > b).unwrap_or(true) {
            best = Some((k1, ratio));
        }
    }
    best.map(|(k, _)| k)
}

/// Alternative elbow detector: the point of maximum perpendicular distance
/// from the line joining the curve's endpoints (the "kneedle" geometric
/// heuristic). Requires at least 3 points.
pub fn elbow_k_by_distance(curve: &[(usize, f64)]) -> Option<usize> {
    if curve.len() < 3 {
        return None;
    }
    let (x0, y0) = (curve[0].0 as f64, curve[0].1);
    let (x1, y1) = (curve[curve.len() - 1].0 as f64, curve[curve.len() - 1].1);
    let dx = x1 - x0;
    let dy = y1 - y0;
    let norm = (dx * dx + dy * dy).sqrt();
    if norm == 0.0 {
        return Some(curve[1].0);
    }
    let mut best = (curve[1].0, -1.0);
    for &(k, s) in &curve[1..curve.len() - 1] {
        let d = (dy * (k as f64 - x0) - dx * (s - y0)).abs() / norm;
        if d > best.1 {
            best = (k, d);
        }
    }
    Some(best.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_runtime::RuntimeConfig;

    fn blobs(k_true: usize, per: usize) -> Matrix {
        let mut rows = Vec::new();
        for c in 0..k_true {
            let cx = (c as f64) * 20.0;
            let cy = ((c * 7) % 5) as f64 * 20.0;
            for i in 0..per {
                let dx = (((i * 31 + c) % 100) as f64 / 100.0 - 0.5) * 2.0;
                let dy = (((i * 17 + c * 3) % 100) as f64 / 100.0 - 0.5) * 2.0;
                rows.push(vec![cx + dx, cy + dy]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn curve_is_decreasing_for_blobs() {
        let data = blobs(3, 40);
        let curve = sse_curve_with_runtime(
            &data,
            1..=6,
            &KMeansConfig::default(),
            &RuntimeConfig::sequential(),
        );
        assert_eq!(curve.len(), 6);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-6, "{curve:?}");
        }
    }

    #[test]
    fn elbow_finds_true_k_on_blobs() {
        let data = blobs(3, 40);
        let curve = sse_curve_with_runtime(
            &data,
            1..=8,
            &KMeansConfig::default(),
            &RuntimeConfig::sequential(),
        );
        assert_eq!(elbow_k(&curve), Some(3), "curve: {curve:?}");
        assert_eq!(elbow_k_by_distance(&curve), Some(3));
    }

    #[test]
    fn elbow_on_synthetic_curve() {
        // Hand-built curve with an obvious elbow at k = 4.
        let curve = vec![(2, 1000.0), (3, 600.0), (4, 250.0), (5, 230.0), (6, 215.0)];
        assert_eq!(elbow_k(&curve), Some(4));
        assert_eq!(elbow_k_by_distance(&curve), Some(4));
    }

    #[test]
    fn too_short_curves() {
        assert_eq!(elbow_k(&[(2, 10.0), (3, 5.0)]), None);
        assert_eq!(elbow_k(&[]), None);
        assert_eq!(elbow_k_by_distance(&[(1, 1.0)]), None);
    }

    #[test]
    fn unfittable_ks_are_skipped() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let curve = sse_curve_with_runtime(
            &data,
            1..=10,
            &KMeansConfig::default(),
            &RuntimeConfig::sequential(),
        );
        assert_eq!(curve.len(), 3, "only k = 1..=3 fit 3 points");
    }

    #[test]
    fn flat_curve_distance_fallback() {
        let curve = vec![(1, 5.0), (2, 5.0), (3, 5.0)];
        // Degenerate but defined.
        assert!(elbow_k_by_distance(&curve).is_some());
    }
}
