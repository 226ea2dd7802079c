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
/// Every field is accumulated sequentially in row order by the one
/// sequential kernel, so the trace is the same for any thread budget and
/// observability never perturbs the fit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KMeansFitTrace {
    /// Total within-cluster squared distance (inertia) measured by each
    /// Lloyd assignment round, against that round's incoming centroids.
    pub round_inertia: Vec<f64>,
    /// Point-to-centroid distance evaluations of each assignment pass:
    /// one entry per Lloyd round, then one for the final assignment the
    /// SSE is measured by (`round_inertia.len() + 1` entries).
    pub distance_evals: Vec<u64>,
    /// Points of each assignment pass (aligned with `distance_evals`)
    /// whose nearest centroid the distance bounds proved without scanning
    /// every centroid.
    pub pruned_points: Vec<u64>,
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

    /// Fits the model, returning it with the per-round [`KMeansFitTrace`].
    /// Returns `None` when `k == 0`, the matrix is empty, or there are
    /// fewer points than clusters.
    ///
    /// The fit runs on the calling thread: Lloyd rounds over a handful of
    /// features are too short to pay for threads, so a K sweep
    /// ([`crate::elbow::sweep_with_runtime`]) spreads whole fits instead.
    /// `_runtime` is accepted for that uniform signature and not read.
    /// The assignment step prunes with Hamerly's bounds, exactly: the
    /// model and trace are those of plain Lloyd iteration, bit for bit.
    pub fn fit_traced(
        &self,
        data: &Matrix,
        _runtime: &epc_runtime::RuntimeConfig,
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
        Some(self.lloyd(data, centroids))
    }

    /// Lloyd iteration behind [`KMeans::fit_traced`], from its seeded
    /// initial `centroids` (k × d with `k ≤ data.n_rows()`). Every buffer
    /// is allocated once and reused by every round.
    fn lloyd(&self, data: &Matrix, mut centroids: Matrix) -> (KMeansModel, KMeansFitTrace) {
        let k = centroids.n_rows();
        let mut move_d2 = vec![0.0f64; k];
        let mut assign = Assigner::new(data, k);
        let mut drift = Drift::NONE;
        let mut n_iter = 0;
        let mut converged = false;
        let mut trace = KMeansFitTrace::default();

        for iter in 0..self.config.max_iter {
            n_iter = iter + 1;
            // Assignment step, with each point's row added to its new
            // centroid's sum as it is assigned: row order per centroid,
            // the order of a separate update loop.
            let round_inertia = assign.pass(data, &centroids, &drift, true, &mut trace);
            trace.round_inertia.push(round_inertia);
            // Update step: means, or reseeds of empty clusters.
            for c in 0..k {
                if assign.counts[c] == 0 {
                    // Empty cluster: reseed at the point farthest from its
                    // centroid (standard fix keeping K clusters alive).
                    let far = farthest_point(data, &centroids, &assign.assignments);
                    assign.sums.row_mut(c).copy_from_slice(data.row(far));
                } else {
                    let inv = 1.0 / assign.counts[c] as f64;
                    for t in assign.sums.row_mut(c) {
                        *t *= inv;
                    }
                }
            }
            // Convergence: total squared centroid movement. The moves
            // (reseeds included) loosen every point's lower bound.
            for (c, m) in move_d2.iter_mut().enumerate() {
                *m = sq_euclidean(centroids.row(c), assign.sums.row(c));
            }
            let moved: f64 = move_d2.iter().copied().sum();
            drift = Drift::of(&move_d2);
            // The new centroids; the old buffer takes the next sums.
            std::mem::swap(&mut centroids, &mut assign.sums);
            if moved <= self.config.tol {
                converged = true;
                break;
            }
        }
        // Final assignment against the final centroids; the SSE is its
        // inertia, accumulated in row order.
        let sse = assign.pass(data, &centroids, &drift, false, &mut trace);
        (
            KMeansModel {
                centroids,
                assignments: assign.assignments,
                sse,
                n_iter,
                converged,
            },
            trace,
        )
    }
}

/// Relative margin on every distance bound (2^-40): far above the
/// rounding of `sq_euclidean` plus a square root (≈ (d/2 + 3)·2^-53
/// relative for d ≤ [`MAX_BOUNDED_FEATURES`]). DESIGN.md ("K selection")
/// has the bound.
const BOUND_SLACK_RELATIVE: f64 = 1.0 / 1_099_511_627_776.0;

/// Absolute margin on every distance bound: covers underflow of squared
/// coordinate gaps below 2^-511, and keeps two computed distances apart
/// when the true ones are both near zero.
const BOUND_SLACK_ABSOLUTE: f64 = 1.0e-150;

/// Above this many features the relative margin no longer dominates the
/// rounding of a squared distance, so every point scans every centroid.
const MAX_BOUNDED_FEATURES: usize = 1024;

/// An upper bound on the true distance whose computed square is `d2`
/// (non-finite when `d2` is).
fn dist_above(d2: f64) -> f64 {
    d2.sqrt() * (1.0 + BOUND_SLACK_RELATIVE) + BOUND_SLACK_ABSOLUTE
}

/// A lower bound on the true distance whose computed square is `d2`;
/// −∞ when `d2` overflowed or is NaN, which proves nothing.
fn dist_below(d2: f64) -> f64 {
    if d2.is_finite() {
        d2.sqrt() * (1.0 - BOUND_SLACK_RELATIVE) - BOUND_SLACK_ABSOLUTE
    } else {
        f64::NEG_INFINITY
    }
}

/// The next double below a positive finite `x` (other values unchanged):
/// rounds a lower bound's update down, so no number of rounds can let
/// rounding push it above the true distance.
fn round_down(x: f64) -> f64 {
    if x > 0.0 && x.is_finite() {
        f64::from_bits(x.to_bits() - 1)
    } else {
        x
    }
}

/// How far the centroids moved in the last update, bounded above: the
/// largest move, the centroid that made it, and the largest move of any
/// other centroid. A point's lower bound drops by the largest move of a
/// centroid other than its own. NaN (any move NaN) proves nothing.
struct Drift {
    max: f64,
    argmax: usize,
    second: f64,
}

impl Drift {
    /// No move yet.
    const NONE: Drift = Drift {
        max: 0.0,
        argmax: usize::MAX,
        second: 0.0,
    };

    /// The drift of moves whose computed squared lengths are `move_d2`.
    fn of(move_d2: &[f64]) -> Drift {
        if move_d2.iter().any(|m| m.is_nan()) {
            return Drift {
                max: f64::NAN,
                argmax: usize::MAX,
                second: f64::NAN,
            };
        }
        let mut drift = Drift::NONE;
        for (c, &m2) in move_d2.iter().enumerate() {
            let up = dist_above(m2);
            if up > drift.max {
                drift.second = drift.max;
                drift.max = up;
                drift.argmax = c;
            } else if up > drift.second {
                drift.second = up;
            }
        }
        drift
    }

    /// The largest move of a centroid other than `own`.
    fn except(&self, own: usize) -> f64 {
        if own == self.argmax {
            self.second
        } else {
            self.max
        }
    }
}

/// The assignment step with Hamerly's bounds (Hamerly 2010, "Making
/// k-means even faster"). A point keeps its centroid `a` without a scan
/// when its distance to `a` is, by a margin, below either half the gap
/// from `a` to the nearest other centroid or its lower bound on every
/// other centroid's distance; the margins make every other centroid's
/// *computed* squared distance strictly larger, so the full scan would
/// pick `a` too.
struct Assigner {
    /// Centroid index per point.
    assignments: Vec<usize>,
    /// Per point: a lower bound on the true distance to every centroid
    /// other than its own (NaN or −∞: unknown).
    lower: Vec<f64>,
    /// Per centroid: half a lower bound on its distance to the nearest
    /// other centroid.
    half_gap: Vec<f64>,
    /// Per centroid: the sum of the rows assigned to it by the last
    /// accumulating pass, and their number.
    sums: Matrix,
    counts: Vec<usize>,
    /// Whether the margins cover this many features.
    bounded: bool,
}

impl Assigner {
    fn new(data: &Matrix, k: usize) -> Self {
        Assigner {
            assignments: vec![0; data.n_rows()],
            lower: vec![f64::NEG_INFINITY; data.n_rows()],
            half_gap: vec![f64::INFINITY; k],
            sums: Matrix::zeros(k, data.n_cols()),
            counts: vec![0; k],
            bounded: data.n_cols() <= MAX_BOUNDED_FEATURES,
        }
    }

    /// Assigns every point to its nearest centroid exactly as
    /// [`nearest_centroid`] does (lowest index among the smallest computed
    /// squared distances), after the centroids moved by `drift` since the
    /// last pass. With `accumulate`, each point's row is added to its
    /// centroid's sum, in row order. Returns the pass's inertia, summed in
    /// row order, and appends its counters to `trace`.
    fn pass(
        &mut self,
        data: &Matrix,
        centroids: &Matrix,
        drift: &Drift,
        accumulate: bool,
        trace: &mut KMeansFitTrace,
    ) -> f64 {
        let k = centroids.n_rows();
        self.half_gap.fill(f64::INFINITY);
        for c in 0..k {
            for o in c + 1..k {
                let gap = 0.5 * dist_below(sq_euclidean(centroids.row(c), centroids.row(o)));
                self.half_gap[c] = self.half_gap[c].min(gap);
                self.half_gap[o] = self.half_gap[o].min(gap);
            }
        }
        if accumulate {
            for c in 0..k {
                self.sums.row_mut(c).fill(0.0);
            }
            self.counts.fill(0);
        }
        let mut inertia = 0.0;
        let mut evals = 0u64;
        let mut pruned = 0u64;
        for ((row, a), lower) in data
            .rows()
            .zip(self.assignments.iter_mut())
            .zip(self.lower.iter_mut())
        {
            let d2 = sq_euclidean(row, centroids.row(*a));
            evals += 1;
            // The better of the two bounds, deflated and squared: below
            // it, `d2` proves `a` strictly nearest (no square root on the
            // hot path). `max` skips a NaN lower bound; a NaN `d2` fails.
            let bound = round_down(*lower - drift.except(*a));
            let proof = self.half_gap[*a].max(bound) * (1.0 - 2.0 * BOUND_SLACK_RELATIVE)
                - BOUND_SLACK_ABSOLUTE;
            if self.bounded && proof > 0.0 && d2 < proof * proof {
                *lower = bound;
                pruned += 1;
                inertia += d2;
            } else {
                // Full scan in index order with strict `<`, as
                // `nearest_centroid`; `second` is the smallest computed
                // squared distance to any other centroid.
                let mut best = (0usize, f64::INFINITY);
                let mut second = f64::INFINITY;
                for (c, centroid) in centroids.rows().enumerate() {
                    let dc = if c == *a {
                        d2
                    } else {
                        evals += 1;
                        sq_euclidean(row, centroid)
                    };
                    if dc < best.1 {
                        second = second.min(best.1);
                        best = (c, dc);
                    } else {
                        second = second.min(dc);
                    }
                }
                *a = best.0;
                *lower = dist_below(second);
                inertia += best.1;
            }
            if accumulate {
                self.counts[*a] += 1;
                for (t, &x) in self.sums.row_mut(*a).iter_mut().zip(row) {
                    *t += x;
                }
            }
        }
        trace.distance_evals.push(evals);
        trace.pruned_points.push(pruned);
        inertia
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
    use epc_runtime::RuntimeConfig;
    use proptest::prelude::*;

    /// The plain Lloyd iteration the bounded kernel replaced: a full
    /// nearest-centroid scan of every point in every round, under a
    /// per-round `par_map`. The oracle of the differential tests.
    fn oracle_fit(
        config: &KMeansConfig,
        data: &Matrix,
        runtime: &RuntimeConfig,
    ) -> Option<(KMeansModel, Vec<f64>)> {
        let k = config.k;
        let n = data.n_rows();
        if k == 0 || n == 0 || n < k {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = match config.init {
            KMeansInit::Random => init_random(data, k, &mut rng),
            KMeansInit::KMeansPlusPlus => init_plusplus(data, k, &mut rng),
        };
        let rows_idx: Vec<usize> = (0..n).collect();
        let mut assignments = vec![0usize; n];
        let mut n_iter = 0;
        let mut converged = false;
        let mut round_inertia = Vec::new();
        for iter in 0..config.max_iter {
            n_iter = iter + 1;
            let assigned = epc_runtime::par_map(runtime, &rows_idx, |&i| {
                nearest_centroid(data.row(i), &centroids)
            });
            let mut inertia = 0.0;
            for (i, &(c, d2)) in assigned.iter().enumerate() {
                assignments[i] = c;
                inertia += d2;
            }
            round_inertia.push(inertia);
            let mut new_centroids = Matrix::zeros(k, data.n_cols());
            let mut counts = vec![0usize; k];
            for (i, row) in data.rows().enumerate() {
                let c = assignments[i];
                counts[c] += 1;
                for (t, &x) in new_centroids.row_mut(c).iter_mut().zip(row) {
                    *t += x;
                }
            }
            #[allow(clippy::needless_range_loop)] // counts and centroids are indexed jointly
            for c in 0..k {
                if counts[c] == 0 {
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
            let moved: f64 = (0..k)
                .map(|c| sq_euclidean(centroids.row(c), new_centroids.row(c)))
                .sum();
            centroids = new_centroids;
            if moved <= config.tol {
                converged = true;
                break;
            }
        }
        let finals = epc_runtime::par_map(runtime, &rows_idx, |&i| {
            nearest_centroid(data.row(i), &centroids)
        });
        let mut sse = 0.0;
        for (i, (c, d2)) in finals.into_iter().enumerate() {
            assignments[i] = c;
            sse += d2;
        }
        let model = KMeansModel {
            centroids,
            assignments,
            sse,
            n_iter,
            converged,
        };
        Some((model, round_inertia))
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts the bounded fit equals the oracle bit for bit (NaN
    /// centroids included) and that its counters add up.
    fn assert_matches_oracle(
        config: &KMeansConfig,
        data: &Matrix,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let got = KMeans::new(config.clone()).fit_traced(data, &RuntimeConfig::sequential());
        let want = oracle_fit(config, data, &RuntimeConfig::new(2));
        let (Some((model, trace)), Some((oracle, inertia))) = (got, want) else {
            prop_assert!(
                KMeans::new(config.clone())
                    .fit_traced(data, &RuntimeConfig::sequential())
                    .is_none()
                    && oracle_fit(config, data, &RuntimeConfig::sequential()).is_none()
            );
            return Ok(());
        };
        prop_assert_eq!(&model.assignments, &oracle.assignments);
        prop_assert_eq!(bits(model.centroids.data()), bits(oracle.centroids.data()));
        prop_assert_eq!(model.sse.to_bits(), oracle.sse.to_bits());
        prop_assert_eq!(model.n_iter, oracle.n_iter);
        prop_assert_eq!(model.converged, oracle.converged);
        prop_assert_eq!(bits(&trace.round_inertia), bits(&inertia));
        prop_assert_eq!(trace.distance_evals.len(), model.n_iter + 1);
        prop_assert_eq!(trace.pruned_points.len(), model.n_iter + 1);
        let (n, k) = (data.n_rows() as u64, config.k as u64);
        for (&evals, &pruned) in trace.distance_evals.iter().zip(&trace.pruned_points) {
            // A pruned point costs one evaluation, a scanned point k.
            prop_assert_eq!(evals, pruned + (n - pruned) * k);
        }
        Ok(())
    }

    /// Hostile matrices: small integer lattices (exact ties between
    /// centroids, duplicate rows), optionally collinear or with a
    /// constant column, scaled to ordinary, tiny (near 1e-150 and below)
    /// or huge (near 1e300, where squared distances overflow) magnitudes.
    fn hostile_matrix() -> impl Strategy<Value = Matrix> {
        (
            prop::collection::vec(prop::collection::vec(-3i32..4, 3), 1..40),
            1usize..4,
            0usize..4,
            0usize..8,
        )
            .prop_map(|(cells, d, shape, scale)| {
                // 1e-161 and 2.5e-162: squared gaps underflow to
                // subnormals, where distinct distances compute equal.
                let factor = [1.0, 0.1, 1e-150, 3e-151, 1e-161, 2.5e-162, 1e300, 1.5e154][scale];
                let rows: Vec<Vec<f64>> = cells
                    .iter()
                    .map(|r| {
                        (0..d)
                            .map(|j| {
                                let x = f64::from(r[j]);
                                let v = match (shape, j) {
                                    (1, 1..) => 2.0 * f64::from(r[0]) + 0.5, // collinear
                                    (2, 0) => 7.0,                           // constant column
                                    (3, _) => f64::from(r[0].rem_euclid(2)), // two points, many duplicates
                                    _ => x,
                                };
                                v * factor
                            })
                            .collect()
                    })
                    .collect();
                Matrix::from_rows(&rows)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn bounded_lloyd_equals_plain_lloyd_on_hostile_matrices(
            data in hostile_matrix(),
            k in 1usize..9,
            seed in 0u64..4,
            random_init in 0u8..2,
            short in 0u8..2,
        ) {
            let config = KMeansConfig {
                k: k.min(data.n_rows()),
                seed,
                init: if random_init == 1 { KMeansInit::Random } else { KMeansInit::KMeansPlusPlus },
                max_iter: if short == 1 { 3 } else { 300 },
                tol: if short == 1 { 0.0 } else { 1e-9 },
            };
            assert_matches_oracle(&config, &data)?;
        }

        #[test]
        fn bounded_lloyd_equals_plain_lloyd_on_random_clouds(
            rows in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 5), 10..120),
            k in 2usize..11,
            seed in 0u64..1000,
        ) {
            let data = Matrix::from_rows(&rows);
            let config = KMeansConfig { k: k.min(data.n_rows()), seed, ..KMeansConfig::default() };
            assert_matches_oracle(&config, &data)?;
        }
    }

    #[test]
    fn k_equals_n_and_non_finite_rows_match_the_oracle() {
        let lattice: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i % 3), 1.0]).collect();
        let mut odd = lattice.clone();
        odd.push(vec![f64::NAN, 0.0]);
        odd.push(vec![f64::INFINITY, 2.0]);
        odd.push(vec![f64::MAX, -f64::MAX]);
        for rows in [lattice, odd] {
            let data = Matrix::from_rows(&rows);
            for k in 1..=data.n_rows() {
                for init in [KMeansInit::Random, KMeansInit::KMeansPlusPlus] {
                    let config = KMeansConfig {
                        k,
                        init,
                        ..KMeansConfig::default()
                    };
                    assert_matches_oracle(&config, &data).unwrap();
                }
            }
        }
    }

    #[test]
    fn bounds_prune_most_points_on_separated_blobs() {
        let data = blobs();
        let (model, trace) = KMeans::new(KMeansConfig {
            k: 3,
            ..KMeansConfig::default()
        })
        .fit_traced(&data, &RuntimeConfig::sequential())
        .unwrap();
        let pruned: u64 = trace.pruned_points.iter().sum();
        let passes = trace.pruned_points.len() as u64;
        assert!(
            pruned * 2 > passes * data.n_rows() as u64,
            "{pruned} of {} point-passes pruned",
            passes * data.n_rows() as u64
        );
        assert_eq!(trace.round_inertia.len(), model.n_iter);
    }

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
        .fit_traced(&blobs(), &RuntimeConfig::sequential())
        .unwrap()
        .0;
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
        .fit_traced(&data, &RuntimeConfig::sequential())
        .unwrap()
        .0;
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
            .fit_traced(&data, &RuntimeConfig::sequential())
            .unwrap()
            .0;
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
        .fit_traced(&data, &RuntimeConfig::sequential())
        .unwrap()
        .0;
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
        .fit_traced(&data, &RuntimeConfig::sequential())
        .unwrap()
        .0;
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
        let a = KMeans::new(cfg.clone())
            .fit_traced(&data, &RuntimeConfig::sequential())
            .unwrap()
            .0;
        let b = KMeans::new(cfg)
            .fit_traced(&data, &RuntimeConfig::sequential())
            .unwrap()
            .0;
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
        let (seq, seq_trace) = KMeans::new(cfg.clone())
            .fit_traced(&data, &RuntimeConfig::sequential())
            .unwrap();
        for threads in [2usize, 4, 8] {
            let (par, par_trace) = KMeans::new(cfg.clone())
                .fit_traced(&data, &RuntimeConfig::new(threads))
                .unwrap();
            assert_eq!(par_trace, seq_trace, "threads = {threads}");
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
        let plain = KMeans::new(cfg.clone())
            .fit_traced(&data, &RuntimeConfig::sequential())
            .unwrap()
            .0;
        for threads in [1usize, 2, 8] {
            let rt = RuntimeConfig::new(threads);
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
        .fit_traced(&data, &RuntimeConfig::sequential())
        .is_none());
        assert!(KMeans::new(KMeansConfig {
            k: 100,
            ..Default::default()
        })
        .fit_traced(
            &Matrix::from_rows(&[vec![1.0]]),
            &RuntimeConfig::sequential()
        )
        .is_none());
        assert!(KMeans::new(KMeansConfig::default())
            .fit_traced(&Matrix::zeros(0, 2), &RuntimeConfig::sequential())
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
        .fit_traced(&blobs(), &RuntimeConfig::sequential())
        .unwrap()
        .0;
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
        .fit_traced(&blobs(), &RuntimeConfig::sequential())
        .unwrap()
        .0;
        let c = m.predict(&[10.0, 10.0]);
        assert_eq!(c, m.assignments[30], "near blob 1's points");
    }

    #[test]
    fn members_of_partitions_rows() {
        let m = KMeans::new(KMeansConfig {
            k: 3,
            ..Default::default()
        })
        .fit_traced(&blobs(), &RuntimeConfig::sequential())
        .unwrap()
        .0;
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
        .fit_traced(&data, &RuntimeConfig::sequential())
        .map(|(m, _)| m);
        // All identical: model exists, SSE 0.
        let m = m.unwrap();
        assert!(m.sse < 1e-18);
    }
}
