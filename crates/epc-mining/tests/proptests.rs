//! Property-based tests of the mining substrate: K-means invariants,
//! Apriori anti-monotonicity, discretizer totality, DBSCAN label sanity,
//! scaler round-trips, and the differential tests of the outlier kernels
//! (grid noise DBSCAN and one-pass k-distance) against brute-force oracles.

use epc_mining::apriori::{is_subset, Apriori, TransactionSet};
use epc_mining::dbscan::{dbscan_noise, dbscan_with_runtime, DbscanConfig, DbscanLabel};
use epc_mining::discretize::Discretizer;
use epc_mining::kdistance::{
    curve_difference, curve_elbow_value, estimate_dbscan_params, k_distance_curves,
};
use epc_mining::kmeans::{KMeans, KMeansConfig};
use epc_mining::matrix::{euclidean, sq_euclidean, Matrix};
use epc_mining::normalize::{MinMaxScaler, ZScoreScaler};
use epc_runtime::RuntimeConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn points(max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 2), 4..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kmeans_assigns_to_nearest_centroid(rows in points(60), k in 1usize..5, seed in 0u64..5) {
        prop_assume!(rows.len() >= k);
        let m = Matrix::from_rows(&rows);
        let model = KMeans::new(KMeansConfig { k, seed, ..Default::default() })
            .fit_traced(&m, &RuntimeConfig::sequential())
            .unwrap()
            .0;
        for (i, row) in m.rows().enumerate() {
            let assigned = sq_euclidean(row, model.centroids.row(model.assignments[i]));
            for c in 0..k {
                prop_assert!(assigned <= sq_euclidean(row, model.centroids.row(c)) + 1e-9);
            }
        }
        // SSE is exactly the sum of assigned squared distances.
        let sse: f64 = m
            .rows()
            .enumerate()
            .map(|(i, row)| sq_euclidean(row, model.centroids.row(model.assignments[i])))
            .sum();
        prop_assert!((sse - model.sse).abs() < 1e-6 * (1.0 + sse));
    }

    #[test]
    fn kmeans_partitions_everything(rows in points(60), k in 1usize..6) {
        prop_assume!(rows.len() >= k);
        let m = Matrix::from_rows(&rows);
        let model = KMeans::new(KMeansConfig { k, ..Default::default() }).fit_traced(&m, &RuntimeConfig::sequential()).unwrap().0;
        prop_assert_eq!(model.assignments.len(), m.n_rows());
        prop_assert!(model.assignments.iter().all(|&a| a < k));
        prop_assert_eq!(model.cluster_sizes().iter().sum::<usize>(), m.n_rows());
    }

    #[test]
    fn minmax_scales_into_unit_box(rows in points(50)) {
        let m = Matrix::from_rows(&rows);
        let (s, t) = MinMaxScaler::fit_transform(&m).unwrap();
        for row in t.rows() {
            for &x in row {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&x));
            }
        }
        // Inverse round-trips.
        for i in 0..t.n_rows() {
            for (a, b) in s.inverse_row(t.row(i)).iter().zip(m.row(i)) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn zscore_inverse_round_trips(rows in points(50)) {
        let m = Matrix::from_rows(&rows);
        let (s, t) = ZScoreScaler::fit_transform(&m).unwrap();
        for i in 0..t.n_rows() {
            for (a, b) in s.inverse_row(t.row(i)).iter().zip(m.row(i)) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn dbscan_labels_are_dense_and_complete(rows in points(60), eps in 1.0f64..50.0, min_pts in 1usize..6) {
        let m = Matrix::from_rows(&rows);
        let res = dbscan_with_runtime(&m, &DbscanConfig { eps, min_points: min_pts }, &RuntimeConfig::sequential());
        prop_assert_eq!(res.labels.len(), m.n_rows());
        for l in &res.labels {
            if let DbscanLabel::Cluster(c) = l {
                prop_assert!(*c < res.n_clusters);
            }
        }
        // Every cluster id is used.
        let sizes = res.cluster_sizes();
        prop_assert!(sizes.iter().all(|&s| s > 0));
    }

    #[test]
    fn discretizer_bins_partition_the_line(edges in prop::collection::vec(-100.0f64..100.0, 0..6), x in -200.0f64..200.0) {
        let mut sorted = edges.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        let d = Discretizer::with_auto_labels("attr", sorted.clone()).unwrap();
        let idx = d.bin_index(x);
        prop_assert!(idx < d.n_bins());
        // Monotone in x.
        let idx2 = d.bin_index(x + 50.0);
        prop_assert!(idx2 >= idx);
        // The label exists.
        prop_assert!(!d.bin_label(x).is_empty());
    }

    #[test]
    fn is_subset_respects_set_semantics(
        a in prop::collection::btree_set(0u32..30, 0..8),
        b in prop::collection::btree_set(0u32..30, 0..12),
    ) {
        let av: Vec<u32> = a.iter().copied().collect();
        let bv: Vec<u32> = b.iter().copied().collect();
        prop_assert_eq!(is_subset(&av, &bv), a.is_subset(&b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Apriori's defining property: support is anti-monotone over the
    /// subset lattice, and reported counts match brute-force recounts.
    #[test]
    fn apriori_counts_are_exact(
        transactions in prop::collection::vec(
            prop::collection::btree_set(0u8..8, 1..6),
            4..30,
        ),
        min_support in 0.1f64..0.6,
    ) {
        let mut tset = TransactionSet::new();
        for t in &transactions {
            let items: Vec<String> = t.iter().map(|i| format!("item{i}")).collect();
            tset.push_owned(&items);
        }
        let frequent = Apriori { min_support, max_len: 4 }.mine(&tset, &RuntimeConfig::sequential()).0;
        let by_items: HashMap<&[u32], usize> =
            frequent.iter().map(|f| (f.items.as_slice(), f.count)).collect();
        let min_count = (min_support * transactions.len() as f64).ceil().max(1.0) as usize;
        for f in &frequent {
            // Exact recount.
            let actual = tset
                .transactions()
                .iter()
                .filter(|t| is_subset(&f.items, t))
                .count();
            prop_assert_eq!(actual, f.count);
            prop_assert!(f.count >= min_count);
            // Anti-monotonicity.
            if f.items.len() >= 2 {
                for skip in 0..f.items.len() {
                    let sub: Vec<u32> = f
                        .items
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != skip)
                        .map(|(_, &v)| v)
                        .collect();
                    let sub_count = by_items.get(sub.as_slice());
                    prop_assert!(sub_count.is_some(), "missing subset of a frequent set");
                    prop_assert!(*sub_count.unwrap() >= f.count);
                }
            }
        }
    }
}

/// A random cloud in `[0, 1]^d` built to break a grid kernel's exactness,
/// with the ε to run it at. Rows mix:
/// * points of a dyadic lattice whose step is (a multiple of) ε, so
///   squared gaps are exact and pairs lie exactly ε apart;
/// * lattice points nudged by 2^-38..2^-53 relative, across the cell
///   boundaries a cell side just above ε puts next to lattice lines;
/// * exact duplicates, and clusters within 1e-12;
/// * rows with a NaN or ±∞ coordinate, and -0.0 coordinates;
/// * uniform points.
///
/// ε is the lattice step or a multiple, 1e-12, 0, uniform, or one of ∞,
/// NaN and a negative value.
fn hostile_cloud(seed: u64, d: usize, n: usize) -> (Matrix, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let step = 0.5f64.powi(rng.gen_range(1..6));
    let eps = match rng.gen_range(0..8) {
        0 | 1 => step,
        2 => step * rng.gen_range(2..4) as f64,
        3 => 1e-12,
        4 => 0.0,
        5 => rng.gen_range(0.01..0.6),
        _ => [f64::INFINITY, f64::NAN, -step, step][rng.gen_range(0..4)],
    };
    let lattice = |rng: &mut StdRng| -> Vec<f64> {
        let cells = (1.0 / step) as u32;
        (0..d)
            .map(|_| {
                let x = rng.gen_range(0..cells + 1) as f64 * step;
                if x == 0.0 && rng.gen_bool(0.5) {
                    -0.0
                } else {
                    x
                }
            })
            .collect()
    };
    let all_duplicates = rng.gen_bool(0.1);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    while rows.len() < n {
        let existing = if rows.is_empty() {
            None
        } else {
            Some(rows[rng.gen_range(0..rows.len())].clone())
        };
        let row = match (rng.gen_range(0..10), existing) {
            (_, Some(r)) if all_duplicates => r,
            (0..=2, _) => lattice(&mut rng),
            (3, _) => lattice(&mut rng)
                .into_iter()
                .map(|x| {
                    x + x * 0.5f64.powi(rng.gen_range(38..54)) * [-1.0, 1.0][rng.gen_range(0..2)]
                })
                .collect(),
            (4, Some(r)) => r,
            (5, Some(mut r)) => {
                let j = rng.gen_range(0..d);
                r[j] += if eps.is_finite() { eps } else { step };
                r
            }
            (6, Some(r)) => r
                .into_iter()
                .map(|x| x + rng.gen_range(-1e-12..1e-12))
                .collect(),
            (7, _) if rng.gen_bool(0.3) => {
                let mut r: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
                r[rng.gen_range(0..d)] =
                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3)];
                r
            }
            _ => (0..d).map(|_| rng.gen::<f64>()).collect(),
        };
        rows.push(row);
    }
    let m = if n == 0 {
        Matrix::zeros(0, d)
    } else {
        Matrix::from_rows(&rows)
    };
    (m, eps)
}

/// The per-k full-sort k-distance curve the one-pass kernel replaced: the
/// oracle for `k_distance_curves`.
fn k_distance_curve(data: &Matrix, k: usize) -> Vec<f64> {
    let n = data.n_rows();
    if n == 0 || k == 0 || k >= n {
        return Vec::new();
    }
    let mut curve: Vec<f64> = (0..n)
        .map(|i| {
            let mut dists: Vec<f64> = (0..n)
                .filter(|&j| j != i)
                .map(|j| euclidean(data.row(i), data.row(j)))
                .collect();
            dists.sort_by(f64::total_cmp);
            dists[k - 1]
        })
        .collect();
    curve.sort_by(|a, b| b.total_cmp(a));
    curve
}

/// The per-row kernel the pairwise one replaced: each point's full row
/// of distances, a selection of its `kmax` smallest, a sort of that head.
/// The oracle for `k_distance_curves`, NaN payloads included.
fn k_distance_curves_by_rows(data: &Matrix, ks: &[usize]) -> Vec<Vec<f64>> {
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

/// The candidate-by-candidate parameter scan over oracle curves.
fn estimate_oracle(data: &Matrix, candidates: &[usize], tol: f64) -> Option<DbscanConfig> {
    let mut prev: Option<(usize, Vec<f64>)> = None;
    for &mp in candidates {
        let curve = k_distance_curve(data, mp.saturating_sub(1).max(1));
        if curve.len() < 3 {
            continue;
        }
        if let Some((prev_mp, prev_curve)) = &prev {
            if curve_difference(prev_curve, &curve) < tol {
                return Some(DbscanConfig {
                    eps: curve_elbow_value(prev_curve)?,
                    min_points: *prev_mp,
                });
            }
        }
        prev = Some((mp, curve));
    }
    let (mp, curve) = prev?;
    Some(DbscanConfig {
        eps: curve_elbow_value(&curve)?,
        min_points: mp,
    })
}

fn bits(curve: &[f64]) -> Vec<u64> {
    curve.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The grid kernel's noise set is the labelled DBSCAN's, bit for bit,
    /// and its core count is the brute-force one.
    #[test]
    fn grid_noise_equals_labelled_dbscan_noise(
        seed in 0u64..u64::MAX,
        d in 1usize..7,
        n in 0usize..120,
        min_points in 1usize..9,
    ) {
        let (m, eps) = hostile_cloud(seed, d, n);
        let config = DbscanConfig { eps, min_points };
        let grid = dbscan_noise(&m, &config, &RuntimeConfig::sequential());
        prop_assert_eq!(&grid.noise, &dbscan_with_runtime(&m, &config, &RuntimeConfig::sequential()).noise_indices(), "eps {}", eps);
        let core = (0..n)
            .filter(|&p| (0..n).filter(|&q| euclidean(m.row(p), m.row(q)) <= eps).count() >= min_points)
            .count();
        prop_assert_eq!(grid.core_points, core);
        prop_assert!(grid.occupied_cells <= n);
    }

    /// Noise and every counter are the same at 1, 2 and 8 threads.
    #[test]
    fn grid_noise_is_thread_invariant(
        seed in 0u64..u64::MAX,
        d in 1usize..7,
        n in 0usize..200,
        min_points in 1usize..9,
    ) {
        let (m, eps) = hostile_cloud(seed, d, n);
        let config = DbscanConfig { eps, min_points };
        let sequential = dbscan_noise(&m, &config, &RuntimeConfig::sequential());
        for threads in [2, 8] {
            prop_assert_eq!(&dbscan_noise(&m, &config, &RuntimeConfig::new(threads)), &sequential);
        }
    }

    /// One-pass curves equal the per-k full-sort oracle bit for bit,
    /// including k = 0, k ≥ n and all-zero curves, and the parameter
    /// estimate is the candidate-by-candidate scan's.
    #[test]
    fn one_pass_k_distance_equals_per_k_oracle(
        seed in 0u64..u64::MAX,
        d in 1usize..7,
        n in 0usize..60,
        ks in prop::collection::vec(0usize..64, 0..6),
        tol in 0.0f64..0.5,
    ) {
        let (m, _) = hostile_cloud(seed, d, n);
        let curves = k_distance_curves(&m, &ks);
        prop_assert_eq!(curves.len(), ks.len());
        for (curve, &k) in curves.iter().zip(&ks) {
            prop_assert_eq!(bits(curve), bits(&k_distance_curve(&m, k)), "k = {}", k);
        }
        let key = |c: Option<DbscanConfig>| c.map(|c| (c.eps.to_bits(), c.min_points));
        prop_assert_eq!(
            key(estimate_dbscan_params(&m, &ks, tol)),
            key(estimate_oracle(&m, &ks, tol))
        );
    }

    /// The pairwise kernel equals the per-row one bit for bit on small
    /// clouds, where `n ≤ kmax + 1` is common: duplicates and ties from the
    /// lattice, NaNs of both signs and several payloads, ±∞, signed zeros,
    /// `k = 0`, `k ≥ n` and unsorted, repeated `ks`.
    #[test]
    fn pairwise_k_distance_equals_the_per_row_selection(
        seed in 0u64..u64::MAX,
        d in 0usize..5,
        n in 0usize..28,
        ks in prop::collection::vec(0usize..32, 0..6),
        specials in prop::collection::vec((0usize..200, 0usize..8), 0..6),
    ) {
        let (m, _) = hostile_cloud(seed, d.max(1), n);
        let mut cells: Vec<f64> = (0..n).flat_map(|i| m.row(i).to_vec()).collect();
        let special = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff0_0000_dead_beef),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
        ];
        if !cells.is_empty() {
            for &(at, which) in &specials {
                let len = cells.len();
                cells[at % len] = special[which];
            }
        }
        // `d = 0` is a matrix of zero-length rows: every distance is the
        // empty sum.
        let m = if d == 0 { Matrix::zeros(n, 0) } else { Matrix::from_vec(cells, n, d.max(1)) };
        let curves = k_distance_curves(&m, &ks);
        let oracle = k_distance_curves_by_rows(&m, &ks);
        prop_assert_eq!(curves.len(), ks.len());
        for ((curve, want), &k) in curves.iter().zip(&oracle).zip(&ks) {
            prop_assert_eq!(bits(curve), bits(want), "k = {}, ks = {:?}", k, ks);
        }
    }
}
