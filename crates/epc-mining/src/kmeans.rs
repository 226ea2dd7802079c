//! K-means clustering (§2.2.2).
//!
//! "The partitional K-means cluster algorithm is exploited by INDICE to
//! identify groups of EPCs characterized by similar properties. … First, the
//! algorithm chooses randomly K initial centroids. Then, each point is
//! assigned to the closest centroid and the centroids are recalculated. The
//! previous steps are repeated until the centroids no longer change."
//!
//! Besides the paper's random initialization, k-means++ seeding is provided
//! (the ablation benchmark compares the two). Quality is measured with the
//! SSE index the paper uses for its elbow-based K selection.

use crate::matrix::{sq_euclidean, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KMeansInit {
    /// Uniformly random distinct points (the paper's description).
    Random,
    /// k-means++ (Arthur & Vassilvitskii 2007) — D² weighting.
    KMeansPlusPlus,
}

/// K-means configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters K (defined a-priori, per the paper).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence tolerance on total centroid movement (squared).
    pub tol: f64,
    /// Initialization strategy.
    pub init: KMeansInit,
    /// RNG seed — runs are fully deterministic.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 4,
            max_iter: 300,
            tol: 1e-9,
            init: KMeansInit::KMeansPlusPlus,
            seed: 42,
        }
    }
}

/// A fitted K-means model.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansModel {
    /// Final centroids (k × d).
    pub centroids: Matrix,
    /// Cluster index per input row.
    pub assignments: Vec<usize>,
    /// Sum of squared errors: Σ‖x − c(x)‖² — the paper's quality index.
    pub sse: f64,
    /// Lloyd iterations performed.
    pub n_iter: usize,
    /// `true` when centroids stopped moving before `max_iter`.
    pub converged: bool,
}

impl KMeansModel {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.n_rows()
    }

    /// Cluster sizes (cardinalities shown inside cluster-markers).
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Row indices belonging to cluster `c`.
    pub fn members_of(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Predicts the cluster of a new point.
    pub fn predict(&self, point: &[f64]) -> usize {
        nearest_centroid(point, &self.centroids).0
    }
}

/// Per-round diagnostics captured by [`KMeans::fit_traced`].
///
/// The inertia sequence is accumulated sequentially in row order from
/// per-point distances the parallel assignment step already computes, so
/// it is bitwise identical for any thread budget — observability never
/// perturbs the fit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KMeansFitTrace {
    /// Total within-cluster squared distance (inertia) measured by each
    /// Lloyd assignment round, against that round's incoming centroids.
    pub round_inertia: Vec<f64>,
}

/// The K-means estimator.
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
}

impl KMeans {
    /// Creates an estimator with `config`.
    pub fn new(config: KMeansConfig) -> Self {
        KMeans { config }
    }

    /// Fits the model. Returns `None` when `k == 0`, the matrix is empty,
    /// or there are fewer points than clusters.
    pub fn fit(&self, data: &Matrix) -> Option<KMeansModel> {
        self.fit_with_runtime(data, &epc_runtime::RuntimeConfig::sequential())
    }

    /// [`KMeans::fit`] with an explicit execution runtime.
    ///
    /// The Lloyd *assignment* step (nearest centroid per point — the O(nkd)
    /// hot loop) runs data-parallel; the centroid update and the SSE
    /// accumulation stay sequential in row order, so the fitted model is
    /// bitwise identical for any thread budget.
    pub fn fit_with_runtime(
        &self,
        data: &Matrix,
        runtime: &epc_runtime::RuntimeConfig,
    ) -> Option<KMeansModel> {
        self.fit_traced(data, runtime).map(|(model, _)| model)
    }

    /// [`KMeans::fit_with_runtime`], additionally returning the per-round
    /// [`KMeansFitTrace`] for observability. The fitted model is exactly
    /// what the untraced fit produces.
    pub fn fit_traced(
        &self,
        data: &Matrix,
        runtime: &epc_runtime::RuntimeConfig,
    ) -> Option<(KMeansModel, KMeansFitTrace)> {
        let k = self.config.k;
        let n = data.n_rows();
        if k == 0 || n == 0 || n < k {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let centroids = match self.config.init {
            KMeansInit::Random => init_random(data, k, &mut rng),
            KMeansInit::KMeansPlusPlus => init_plusplus(data, k, &mut rng),
        };
        Some(self.lloyd(data, centroids, runtime))
    }

    /// Lloyd iteration behind [`KMeans::fit_traced`], from its seeded
    /// initial `centroids` (k × d with `k ≤ data.n_rows()`).
    fn lloyd(
        &self,
        data: &Matrix,
        mut centroids: Matrix,
        runtime: &epc_runtime::RuntimeConfig,
    ) -> (KMeansModel, KMeansFitTrace) {
        let k = centroids.n_rows();
        let n = data.n_rows();
        let rows_idx: Vec<usize> = (0..n).collect();
        let mut assignments = vec![0usize; n];
        let mut n_iter = 0;
        let mut converged = false;
        let mut trace = KMeansFitTrace::default();

        for iter in 0..self.config.max_iter {
            n_iter = iter + 1;
            // Assignment step (parallel; pure per row). The distances ride
            // along for the round-inertia trace, folded sequentially below.
            let assigned = epc_runtime::par_map(runtime, &rows_idx, |&i| {
                nearest_centroid(data.row(i), &centroids)
            });
            let mut round_inertia = 0.0;
            for (i, &(c, d2)) in assigned.iter().enumerate() {
                assignments[i] = c;
                round_inertia += d2;
            }
            trace.round_inertia.push(round_inertia);
            // Update step.
            let mut new_centroids = Matrix::zeros(k, data.n_cols());
            let mut counts = vec![0usize; k];
            for (i, row) in data.rows().enumerate() {
                let c = assignments[i];
                counts[c] += 1;
                let target = new_centroids.row_mut(c);
                for (t, &x) in target.iter_mut().zip(row) {
                    *t += x;
                }
            }
            #[allow(clippy::needless_range_loop)] // counts and centroids are indexed jointly
            for c in 0..k {
                if counts[c] == 0 {
                    // Empty cluster: reseed at the point farthest from its
                    // centroid (standard fix keeping K clusters alive).
                    let far = farthest_point(data, &centroids, &assignments);
                    let row: Vec<f64> = data.row(far).to_vec();
                    new_centroids.row_mut(c).copy_from_slice(&row);
                } else {
                    let inv = 1.0 / counts[c] as f64;
                    for t in new_centroids.row_mut(c) {
                        *t *= inv;
                    }
                }
            }
            // Convergence: total squared centroid movement.
            let moved: f64 = (0..k)
                .map(|c| sq_euclidean(centroids.row(c), new_centroids.row(c)))
                .sum();
            centroids = new_centroids;
            if moved <= self.config.tol {
                converged = true;
                break;
            }
        }
        // Final assignment against final centroids (parallel), then the
        // SSE accumulated sequentially in row order for bitwise stability.
        let finals = epc_runtime::par_map(runtime, &rows_idx, |&i| {
            nearest_centroid(data.row(i), &centroids)
        });
        let mut sse = 0.0;
        for (i, (c, d2)) in finals.into_iter().enumerate() {
            assignments[i] = c;
            sse += d2;
        }
        (
            KMeansModel {
                centroids,
                assignments,
                sse,
                n_iter,
                converged,
            },
            trace,
        )
    }
}

fn nearest_centroid(point: &[f64], centroids: &Matrix) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, row) in centroids.rows().enumerate() {
        let d2 = sq_euclidean(point, row);
        if d2 < best.1 {
            best = (c, d2);
        }
    }
    best
}

fn farthest_point(data: &Matrix, centroids: &Matrix, assignments: &[usize]) -> usize {
    let mut best = (0usize, -1.0);
    for (i, row) in data.rows().enumerate() {
        let d2 = sq_euclidean(row, centroids.row(assignments[i]));
        if d2 > best.1 {
            best = (i, d2);
        }
    }
    best.0
}

fn init_random(data: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let mut idx: Vec<usize> = (0..data.n_rows()).collect();
    idx.shuffle(rng);
    let mut c = Matrix::zeros(k, data.n_cols());
    for (slot, &i) in idx.iter().take(k).enumerate() {
        c.row_mut(slot).copy_from_slice(data.row(i));
    }
    c
}

fn init_plusplus(data: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = data.n_rows();
    let mut centroids = Matrix::zeros(k, data.n_cols());
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));

    let mut d2: Vec<f64> = data
        .rows()
        .map(|r| sq_euclidean(r, centroids.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n) // all points identical to chosen centroids
        } else {
            let mut draw = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                draw -= w;
                if draw <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.row_mut(c).copy_from_slice(data.row(next));
        for (i, row) in data.rows().enumerate() {
            let d = sq_euclidean(row, centroids.row(c));
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs of 30 points each (deterministic).
    fn blobs() -> Matrix {
        let mut rows = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..30 {
                let dx = (((i * 31 + ci * 7) % 100) as f64 / 100.0 - 0.5) * 1.0;
                let dy = (((i * 17 + ci * 13) % 100) as f64 / 100.0 - 0.5) * 1.0;
                rows.push(vec![cx + dx, cy + dy]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let model = KMeans::new(KMeansConfig {
            k: 3,
            ..KMeansConfig::default()
        })
        .fit(&blobs())
        .unwrap();
        assert!(model.converged);
        let sizes = model.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 90);
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![30, 30, 30], "each blob is one cluster");
        // Points in the same blob share an assignment.
        for blob in 0..3 {
            let a0 = model.assignments[blob * 30];
            for i in 0..30 {
                assert_eq!(model.assignments[blob * 30 + i], a0);
            }
        }
    }

    #[test]
    fn every_point_assigned_to_nearest_centroid() {
        let data = blobs();
        let model = KMeans::new(KMeansConfig {
            k: 3,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        for (i, row) in data.rows().enumerate() {
            let assigned = model.assignments[i];
            let d_assigned = sq_euclidean(row, model.centroids.row(assigned));
            for c in 0..model.k() {
                let d = sq_euclidean(row, model.centroids.row(c));
                assert!(d_assigned <= d + 1e-12);
            }
        }
    }

    #[test]
    fn sse_decreases_with_k() {
        let data = blobs();
        let mut prev = f64::INFINITY;
        for k in 1..=6 {
            let m = KMeans::new(KMeansConfig {
                k,
                seed: 7,
                ..Default::default()
            })
            .fit(&data)
            .unwrap();
            assert!(
                m.sse <= prev + 1e-9,
                "SSE must not increase with k: k={k}, sse={}, prev={prev}",
                m.sse
            );
            prev = m.sse;
        }
    }

    #[test]
    fn k_equals_one_gives_global_centroid() {
        let data = Matrix::from_rows(&[vec![0.0], vec![2.0], vec![4.0]]);
        let m = KMeans::new(KMeansConfig {
            k: 1,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        assert!((m.centroids.get(0, 0) - 2.0).abs() < 1e-12);
        // SSE = 4 + 0 + 4
        assert!((m.sse - 8.0).abs() < 1e-12);
    }

    #[test]
    fn k_equals_n_gives_zero_sse() {
        let data = Matrix::from_rows(&[vec![0.0, 1.0], vec![5.0, 5.0], vec![9.0, 2.0]]);
        let m = KMeans::new(KMeansConfig {
            k: 3,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        assert!(m.sse < 1e-18);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs();
        let cfg = KMeansConfig {
            k: 3,
            seed: 123,
            ..Default::default()
        };
        let a = KMeans::new(cfg.clone()).fit(&data).unwrap();
        let b = KMeans::new(cfg).fit(&data).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.sse, b.sse);
    }

    #[test]
    fn parallel_fit_is_bitwise_identical_to_sequential() {
        let data = blobs();
        let cfg = KMeansConfig {
            k: 3,
            seed: 11,
            ..Default::default()
        };
        let seq = KMeans::new(cfg.clone()).fit(&data).unwrap();
        for threads in [2usize, 4, 8] {
            let par = KMeans::new(cfg.clone())
                .fit_with_runtime(&data, &epc_runtime::RuntimeConfig::new(threads))
                .unwrap();
            assert_eq!(par.assignments, seq.assignments, "threads = {threads}");
            assert_eq!(par.sse.to_bits(), seq.sse.to_bits(), "threads = {threads}");
            assert_eq!(par.centroids, seq.centroids, "threads = {threads}");
            assert_eq!(par.n_iter, seq.n_iter, "threads = {threads}");
        }
    }

    #[test]
    fn traced_fit_matches_untraced_and_inertia_is_monotone() {
        let data = blobs();
        let cfg = KMeansConfig {
            k: 3,
            seed: 11,
            ..Default::default()
        };
        let plain = KMeans::new(cfg.clone()).fit(&data).unwrap();
        for threads in [1usize, 2, 8] {
            let rt = epc_runtime::RuntimeConfig::new(threads);
            let (model, trace) = KMeans::new(cfg.clone()).fit_traced(&data, &rt).unwrap();
            assert_eq!(model, plain, "threads = {threads}");
            assert_eq!(trace.round_inertia.len(), model.n_iter);
            for pair in trace.round_inertia.windows(2) {
                assert!(pair[1] <= pair[0] + 1e-9, "Lloyd inertia is monotone");
            }
            // The final model SSE can only improve on the last round.
            assert!(model.sse <= trace.round_inertia[model.n_iter - 1] + 1e-9);
        }
    }

    #[test]
    fn invalid_inputs_yield_none() {
        let data = blobs();
        assert!(KMeans::new(KMeansConfig {
            k: 0,
            ..Default::default()
        })
        .fit(&data)
        .is_none());
        assert!(KMeans::new(KMeansConfig {
            k: 100,
            ..Default::default()
        })
        .fit(&Matrix::from_rows(&[vec![1.0]]))
        .is_none());
        assert!(KMeans::new(KMeansConfig::default())
            .fit(&Matrix::zeros(0, 2))
            .is_none());
    }

    #[test]
    fn random_init_also_works() {
        let m = KMeans::new(KMeansConfig {
            k: 3,
            init: KMeansInit::Random,
            seed: 5,
            ..Default::default()
        })
        .fit(&blobs())
        .unwrap();
        let mut sizes = m.cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![30, 30, 30]);
    }

    #[test]
    fn predict_maps_to_containing_blob() {
        let m = KMeans::new(KMeansConfig {
            k: 3,
            ..Default::default()
        })
        .fit(&blobs())
        .unwrap();
        let c = m.predict(&[10.0, 10.0]);
        assert_eq!(c, m.assignments[30], "near blob 1's points");
    }

    #[test]
    fn members_of_partitions_rows() {
        let m = KMeans::new(KMeansConfig {
            k: 3,
            ..Default::default()
        })
        .fit(&blobs())
        .unwrap();
        let total: usize = (0..3).map(|c| m.members_of(c).len()).sum();
        assert_eq!(total, 90);
    }

    #[test]
    fn duplicate_points_do_not_crash_plusplus() {
        let data = Matrix::from_rows(&vec![vec![1.0, 1.0]; 20]);
        let m = KMeans::new(KMeansConfig {
            k: 3,
            ..Default::default()
        })
        .fit(&data);
        // All identical: model exists, SSE 0.
        let m = m.unwrap();
        assert!(m.sse < 1e-18);
    }
}
