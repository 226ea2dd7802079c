//! DBSCAN (Ester et al. 1996) — INDICE's multivariate outlier detector
//! (§2.1.2): points that no dense cluster reaches are labelled noise and
//! removed before analytics.
//!
//! Two kernels share one definition of "within ε" (`euclidean(a, b) <= eps`):
//!
//! * [`dbscan_with_runtime`] — the labelled algorithm (cluster ids, border
//!   assignment) over precomputed ε-neighbour lists. Its memory grows with
//!   the number of neighbour links, i.e. with the square of the collection
//!   at a fixed ε; it is kept as the differential oracle.
//! * [`dbscan_noise`] — only the noise set, which is all the outlier phase
//!   reads. A point is noise iff it is not core and no core point lies
//!   within ε, so a uniform grid with cells just wider than ε answers both
//!   questions exactly, with early exit, in linear memory (Gan & Tao,
//!   "DBSCAN Revisited", SIGMOD 2015). DESIGN.md ("Outlier detection")
//!   proves the cell side.

use crate::matrix::{euclidean, Matrix};
use std::collections::VecDeque;
use std::ops::Range;

/// Per-point DBSCAN label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbscanLabel {
    /// Noise: a multivariate outlier in INDICE's pipeline.
    Noise,
    /// Member of the cluster with this id (0-based).
    Cluster(usize),
}

impl DbscanLabel {
    /// `true` for [`DbscanLabel::Noise`].
    pub fn is_noise(&self) -> bool {
        matches!(self, DbscanLabel::Noise)
    }
}

/// DBSCAN parameters (the paper estimates them from the k-distance graph —
/// see [`crate::kdistance`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanConfig {
    /// Neighbourhood radius ε.
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_points: usize,
}

/// Result of a DBSCAN run.
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanResult {
    /// Per-point labels.
    pub labels: Vec<DbscanLabel>,
    /// Number of clusters found.
    pub n_clusters: usize,
    /// Total neighbour links found across all region queries (self links
    /// included); `links / points` is the mean neighbourhood size.
    pub neighbour_links: usize,
}

impl DbscanResult {
    /// Indices labelled noise (the multivariate outliers), ascending.
    pub fn noise_indices(&self) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_noise())
            .map(|(i, _)| i)
            .collect()
    }

    /// Sizes of the clusters.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_clusters];
        for l in &self.labels {
            if let DbscanLabel::Cluster(c) = l {
                sizes[*c] += 1;
            }
        }
        sizes
    }
}

/// Runs DBSCAN over the rows of `data`.
///
/// Classic region-query formulation: a point is *core* when at least
/// `min_points` points (itself included) lie within `eps`; clusters grow by
/// density reachability from core points; border points join the first
/// cluster that reaches them; everything else is noise.
///
/// The ε-neighbourhood region queries — the O(n²) bulk of the algorithm,
/// and the sequential version issues one per point anyway — are
/// precomputed data-parallel; the density-reachability expansion then
/// walks the precomputed lists in the exact order of the sequential
/// algorithm, so labels and cluster ids are identical for any thread
/// budget.
pub fn dbscan_with_runtime(
    data: &Matrix,
    config: &DbscanConfig,
    runtime: &epc_runtime::RuntimeConfig,
) -> DbscanResult {
    let n = data.n_rows();
    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;

    let points: Vec<usize> = (0..n).collect();
    let neighbours: Vec<Vec<usize>> =
        epc_runtime::par_map(runtime, &points, |&p| region_query(data, p, config.eps));
    let neighbour_links = neighbours.iter().map(Vec::len).sum();

    let mut label = vec![UNVISITED; n];
    let mut n_clusters = 0usize;

    for p in 0..n {
        if label[p] != UNVISITED {
            continue;
        }
        if neighbours[p].len() < config.min_points {
            label[p] = NOISE;
            continue;
        }
        // Start a new cluster and expand it.
        let cluster = n_clusters;
        n_clusters += 1;
        label[p] = cluster;
        let mut queue: VecDeque<usize> = neighbours[p].iter().copied().collect();
        while let Some(q) = queue.pop_front() {
            if label[q] == NOISE {
                label[q] = cluster; // noise becomes a border point
                continue;
            }
            if label[q] != UNVISITED {
                continue;
            }
            label[q] = cluster;
            if neighbours[q].len() >= config.min_points {
                queue.extend(neighbours[q].iter().copied());
            }
        }
    }

    let labels = label
        .into_iter()
        .map(|l| {
            if l == NOISE || l == UNVISITED {
                DbscanLabel::Noise
            } else {
                DbscanLabel::Cluster(l)
            }
        })
        .collect();
    DbscanResult {
        labels,
        n_clusters,
        neighbour_links,
    }
}

/// Indices within `eps` of point `p` (including `p` itself).
fn region_query(data: &Matrix, p: usize, eps: f64) -> Vec<usize> {
    let row = data.row(p);
    (0..data.n_rows())
        .filter(|&q| euclidean(row, data.row(q)) <= eps)
        .collect()
}

/// The noise set of a DBSCAN run, with the grid kernel's exact work
/// counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbscanNoise {
    /// Noise indices, ascending: exactly
    /// `dbscan_with_runtime(data, config, _).noise_indices()`.
    pub noise: Vec<usize>,
    /// Points with at least `min_points` points (itself included) within ε.
    pub core_points: usize,
    /// `euclidean` evaluations over both passes.
    pub distance_evals: usize,
    /// Grid cells holding at least one point.
    pub occupied_cells: usize,
}

/// DBSCAN's noise set, computed on a uniform grid without cluster labels.
///
/// Pass 1 counts each point's neighbours in its own and the adjacent cells,
/// stopping at `min_points`; pass 2 looks, for each non-core point, for one
/// core point within ε. Every point visits its candidates in a fixed order
/// (own cell first, then the adjacent cells in key order, members by
/// index), so the result and every counter are the same for any thread
/// budget.
pub fn dbscan_noise(
    data: &Matrix,
    config: &DbscanConfig,
    runtime: &epc_runtime::RuntimeConfig,
) -> DbscanNoise {
    let grid = Grid::new(data, config.eps, runtime);
    let eps = config.eps;
    let points: Vec<usize> = (0..data.n_rows()).collect();

    let pass1: Vec<(bool, usize)> = epc_runtime::par_map(runtime, &points, |&p| {
        let row = data.row(p);
        let mut candidates = grid.candidates(p);
        let (mut found, mut evals) = (0usize, 0usize);
        while found < config.min_points {
            let Some(q) = candidates.next() else { break };
            evals += 1;
            if euclidean(row, data.row(q)) <= eps {
                found += 1;
            }
        }
        (found >= config.min_points, evals)
    });
    let core: Vec<bool> = pass1.iter().map(|&(c, _)| c).collect();

    let border_candidates: Vec<usize> = points.into_iter().filter(|&p| !core[p]).collect();
    let pass2: Vec<(bool, usize)> = epc_runtime::par_map(runtime, &border_candidates, |&p| {
        let row = data.row(p);
        let mut evals = 0usize;
        // The oracle tests membership in the core point's neighbour list,
        // so the core row goes first.
        let reached = grid.candidates(p).filter(|&q| core[q]).any(|q| {
            evals += 1;
            euclidean(data.row(q), row) <= eps
        });
        (reached, evals)
    });

    DbscanNoise {
        noise: border_candidates
            .iter()
            .zip(&pass2)
            .filter(|(_, &(reached, _))| !reached)
            .map(|(&p, _)| p)
            .collect(),
        core_points: core.iter().filter(|&&c| c).count(),
        distance_evals: pass1.iter().chain(&pass2).map(|&(_, e)| e).sum(),
        occupied_cells: grid.n_cells(),
    }
}

/// Relative part of the cell-side margin over ε (2^-40). It must exceed
/// the rounding of `euclidean` (≈ 3u relative to ε, u = 2^-53) and of the
/// key arithmetic (≈ 4u relative to the column range); DESIGN.md
/// ("Outlier detection") has the bound.
const CELL_SLACK_RELATIVE: f64 = 1.0 / 1_099_511_627_776.0;

/// Absolute part of the cell-side margin: covers underflow of a squared
/// coordinate gap (gaps below 2^-511 square to subnormals) and keeps the
/// side positive at ε = 0.
const CELL_SLACK_ABSOLUTE: f64 = 1.0e-150;

/// One column of the grid: cell `k` holds the values with
/// `floor((x − lo) / side) == k`.
#[derive(Debug, Clone, Copy)]
struct Axis {
    lo: f64,
    side: f64,
}

impl Axis {
    /// The axis over the column's finite values `lo..=hi` (`lo > hi`: there
    /// are none) for radius `eps`.
    fn new(lo: f64, hi: f64, eps: f64) -> Axis {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (0.0, 0.0) };
        // NaN ε relates no pair, and negative ε at most equal points, so
        // the side for ε = 0 covers both; ε = +∞ gives an infinite side,
        // i.e. a single cell.
        let reach = eps.max(0.0);
        Axis {
            lo,
            side: reach + (reach + (hi - lo)) * CELL_SLACK_RELATIVE + CELL_SLACK_ABSOLUTE,
        }
    }

    fn key(&self, x: f64) -> u64 {
        if self.side.is_finite() {
            // Saturating: a non-finite coordinate lands in an end cell.
            ((x - self.lo) / self.side).floor() as u64
        } else {
            0
        }
    }
}

/// A uniform grid over the rows of a matrix whose cell side exceeds ε in
/// every column, so two points within ε of each other always lie in the
/// same or adjacent cells.
struct Grid {
    /// Point indices sorted by cell key, ties by index.
    order: Vec<usize>,
    /// Cell `c` holds `order[cell_starts[c]..cell_starts[c + 1]]`.
    cell_starts: Vec<usize>,
    /// Cell index of every point.
    cell_of: Vec<usize>,
    /// Cell `c`'s adjacent occupied cells (itself first) are
    /// `adjacent[adjacent_starts[c]..adjacent_starts[c + 1]]`.
    adjacent_starts: Vec<usize>,
    adjacent: Vec<usize>,
}

impl Grid {
    fn new(data: &Matrix, eps: f64, runtime: &epc_runtime::RuntimeConfig) -> Grid {
        let (n, d) = (data.n_rows(), data.n_cols());
        // Column bounds over finite values only: a row with a non-finite
        // coordinate is within a finite ε of no row, itself included, so
        // its (saturated) key cannot matter.
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for row in data.rows() {
            for (j, &x) in row.iter().enumerate().filter(|(_, x)| x.is_finite()) {
                lo[j] = lo[j].min(x);
                hi[j] = hi[j].max(x);
            }
        }
        let axes: Vec<Axis> = lo
            .iter()
            .zip(&hi)
            .map(|(&lo, &hi)| Axis::new(lo, hi, eps))
            .collect();
        let mut keys = Vec::with_capacity(n * d);
        for row in data.rows() {
            keys.extend(row.iter().zip(&axes).map(|(&x, axis)| axis.key(x)));
        }
        let key = |p: usize| &keys[p * d..(p + 1) * d];

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| key(a).cmp(key(b)));
        let mut cell_starts = Vec::new();
        let mut cell_keys = Vec::new();
        let mut cell_of = vec![0usize; n];
        for (i, &p) in order.iter().enumerate() {
            if i == 0 || key(order[i - 1]) != key(p) {
                cell_starts.push(i);
                cell_keys.extend_from_slice(key(p));
            }
            cell_of[p] = cell_starts.len() - 1;
        }
        let n_cells = cell_starts.len();
        cell_starts.push(n);

        let cells: Vec<usize> = (0..n_cells).collect();
        let lists: Vec<Vec<usize>> = epc_runtime::par_map(runtime, &cells, |&c| {
            let mut out = vec![c];
            adjacent_cells(&cell_keys, d, c, 0, 0..n_cells, &mut out);
            out
        });
        let mut adjacent_starts = Vec::with_capacity(n_cells + 1);
        let mut adjacent = Vec::new();
        for list in lists {
            adjacent_starts.push(adjacent.len());
            adjacent.extend(list);
        }
        adjacent_starts.push(adjacent.len());
        Grid {
            order,
            cell_starts,
            cell_of,
            adjacent_starts,
            adjacent,
        }
    }

    fn n_cells(&self) -> usize {
        self.cell_starts.len() - 1
    }

    /// Every point in `p`'s own and adjacent cells, in visiting order.
    fn candidates(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        let c = self.cell_of[p];
        self.adjacent[self.adjacent_starts[c]..self.adjacent_starts[c + 1]]
            .iter()
            .flat_map(|&a| &self.order[self.cell_starts[a]..self.cell_starts[a + 1]])
            .copied()
    }
}

/// Appends to `out`, in key order, every cell in `range` other than `own`
/// whose key digits `j..` each differ from `own`'s by at most one.
/// `cell_keys` holds the sorted `d`-digit keys, and all cells in `range`
/// share digits `..j`, so each digit value is one contiguous sub-range:
/// the walk never visits an empty branch of the 3^d neighbourhood.
fn adjacent_cells(
    cell_keys: &[u64],
    d: usize,
    own: usize,
    j: usize,
    range: Range<usize>,
    out: &mut Vec<usize>,
) {
    if j == d {
        // All digits fixed: `range` is one cell. `own` is already first.
        out.extend(range.filter(|&c| c != own));
        return;
    }
    let digit = |c: usize| cell_keys[c * d + j];
    let key = digit(own);
    // First cell in `range` whose digit is not below `bound`.
    let first_at_least = |bound: u64, from: usize| {
        let (mut lo, mut hi) = (from, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if digit(mid) < bound {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let mut start = first_at_least(key.saturating_sub(1), range.start);
    while start < range.end && digit(start) <= key.saturating_add(1) {
        let end = match digit(start).checked_add(1) {
            Some(next) => first_at_least(next, start),
            None => range.end,
        };
        adjacent_cells(cell_keys, d, own, j + 1, start..end, out);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two dense blobs plus isolated far-away points.
    fn blobs_with_noise() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        for i in 0..40 {
            let dx = ((i * 13) % 20) as f64 / 40.0;
            let dy = ((i * 7) % 20) as f64 / 40.0;
            rows.push(vec![0.0 + dx, 0.0 + dy]);
        }
        for i in 0..40 {
            let dx = ((i * 11) % 20) as f64 / 40.0;
            let dy = ((i * 19) % 20) as f64 / 40.0;
            rows.push(vec![10.0 + dx, 10.0 + dy]);
        }
        let noise_idx = vec![80, 81, 82];
        rows.push(vec![50.0, 50.0]);
        rows.push(vec![-50.0, 30.0]);
        rows.push(vec![30.0, -60.0]);
        (Matrix::from_rows(&rows), noise_idx)
    }

    #[test]
    fn finds_two_clusters_and_noise() {
        let (data, noise_idx) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 1.0,
                min_points: 4,
            },
            &epc_runtime::RuntimeConfig::sequential(),
        );
        assert_eq!(res.n_clusters, 2);
        assert_eq!(res.noise_indices(), noise_idx);
        assert_eq!(res.cluster_sizes(), vec![40, 40]);
    }

    #[test]
    fn same_blob_same_cluster() {
        let (data, _) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 1.0,
                min_points: 4,
            },
            &epc_runtime::RuntimeConfig::sequential(),
        );
        let first = res.labels[0];
        for i in 0..40 {
            assert_eq!(res.labels[i], first);
        }
        assert_ne!(res.labels[40], first, "blobs must be distinct clusters");
    }

    #[test]
    fn tiny_eps_makes_everything_noise() {
        let (data, _) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 1e-9,
                min_points: 4,
            },
            &epc_runtime::RuntimeConfig::sequential(),
        );
        assert_eq!(res.n_clusters, 0);
        assert_eq!(res.noise_indices().len(), data.n_rows());
    }

    #[test]
    fn huge_eps_makes_one_cluster() {
        let (data, _) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 1e6,
                min_points: 4,
            },
            &epc_runtime::RuntimeConfig::sequential(),
        );
        assert_eq!(res.n_clusters, 1);
        assert!(res.noise_indices().is_empty());
    }

    #[test]
    fn min_points_one_clusters_every_point() {
        // Every point is its own core; no noise possible.
        let (data, _) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 0.5,
                min_points: 1,
            },
            &epc_runtime::RuntimeConfig::sequential(),
        );
        assert!(res.noise_indices().is_empty());
        assert!(res.n_clusters >= 2);
    }

    #[test]
    fn border_points_join_a_cluster() {
        // A dense core line plus one border point reachable from the core
        // but itself not core.
        let mut rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1, 0.0]).collect();
        rows.push(vec![1.3, 0.0]); // within eps of the last core point only
        let data = Matrix::from_rows(&rows);
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 0.45,
                min_points: 4,
            },
            &epc_runtime::RuntimeConfig::sequential(),
        );
        assert_eq!(res.n_clusters, 1);
        assert!(
            !res.labels[10].is_noise(),
            "border point must belong to the cluster"
        );
    }

    #[test]
    fn empty_input() {
        let res = dbscan_with_runtime(
            &Matrix::zeros(0, 2),
            &DbscanConfig {
                eps: 1.0,
                min_points: 3,
            },
            &epc_runtime::RuntimeConfig::sequential(),
        );
        assert_eq!(res.n_clusters, 0);
        assert!(res.labels.is_empty());
    }

    #[test]
    fn scan_stats_are_recorded() {
        let (data, _) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 1.0,
                min_points: 4,
            },
            &epc_runtime::RuntimeConfig::sequential(),
        );
        // Every point is within eps of itself, and neighbourhood
        // membership is symmetric, so links ≥ n and links is even-summed
        // consistently across thread budgets (checked by the equality
        // assertions in `parallel_run_matches_sequential`).
        assert!(res.neighbour_links >= data.n_rows());
    }

    #[test]
    fn noise_kernel_matches_labelled_dbscan() {
        // Rows with a NaN or ±∞ coordinate are within a finite ε of no row.
        let (blobs, _) = blobs_with_noise();
        let mut rows: Vec<Vec<f64>> = blobs.rows().map(<[f64]>::to_vec).collect();
        rows.extend([
            vec![f64::NAN, 0.0],
            vec![0.2, f64::INFINITY],
            vec![f64::NEG_INFINITY, 0.1],
        ]);
        let data = Matrix::from_rows(&rows);
        for eps in [0.0, 1e-9, 0.3, 1.0, 5.0, 1e6, f64::INFINITY, f64::NAN, -1.0] {
            for min_points in [0, 1, 2, 4, 9, 100] {
                let cfg = DbscanConfig { eps, min_points };
                let grid = dbscan_noise(&data, &cfg, &epc_runtime::RuntimeConfig::sequential());
                assert_eq!(
                    grid.noise,
                    dbscan_with_runtime(&data, &cfg, &epc_runtime::RuntimeConfig::sequential())
                        .noise_indices(),
                    "{cfg:?}"
                );
            }
        }
    }

    #[test]
    fn noise_kernel_exits_early_and_counts_exactly() {
        let (data, noise_idx) = blobs_with_noise();
        let cfg = DbscanConfig {
            eps: 1.0,
            min_points: 4,
        };
        let grid = dbscan_noise(&data, &cfg, &epc_runtime::RuntimeConfig::sequential());
        assert_eq!(grid.noise, noise_idx);
        assert_eq!(grid.core_points, 80);
        // A blob lies within ε of each of its points, so every blob point
        // stops after 4 evaluations. Each isolated point evaluates only
        // itself, and pass 2 finds no core candidate to evaluate.
        assert_eq!(grid.distance_evals, 80 * 4 + 3);
    }

    #[test]
    fn zero_eps_over_repeated_rows_keeps_every_row() {
        // Every row five times: the k-distance estimate returns ε = 0 and
        // minPts = 4, and each row is core through its own copies.
        let (data, _) = blobs_with_noise();
        let rows: Vec<Vec<f64>> = (0..5)
            .flat_map(|_| data.rows().map(<[f64]>::to_vec))
            .collect();
        let repeated = Matrix::from_rows(&rows);
        let cfg = DbscanConfig {
            eps: 0.0,
            min_points: 4,
        };
        let grid = dbscan_noise(&repeated, &cfg, &epc_runtime::RuntimeConfig::sequential());
        assert!(grid.noise.is_empty());
        assert_eq!(grid.core_points, repeated.n_rows());
        // One cell per distinct row: each blob repeats its 20 offsets.
        assert_eq!(grid.occupied_cells, 20 + 20 + 3);
    }

    #[test]
    fn cell_side_exceeds_the_rounding_bound() {
        // DESIGN.md ("Outlier detection"): two values within ε land in the
        // same or adjacent cells once side > ε(1 + 3u) + 4.01u·R + 2^-537,
        // u = 2^-53, R the column range. The range term is what a purely
        // relative margin such as ε·(1 + 1e-6) lacks at tiny ε.
        let u = f64::EPSILON / 2.0;
        for eps in [0.0, 1e-300, 1e-15, 1e-12, 1e-6, 0.15, 1.0, 1e6, 1e300] {
            for range in [0.0, 1e-300, 1e-12, 1.0, 8.0, 1e10, 1e300] {
                let side = Axis::new(0.0, range, eps).side;
                let bound = eps * (1.0 + 3.0 * u) + 4.01 * u * range + 0.5f64.powi(537);
                assert!(side > bound, "eps {eps}, range {range}: side {side}");
            }
        }
        assert!(Axis::new(0.0, 1.0, f64::INFINITY).side.is_infinite());
    }

    #[test]
    fn deterministic() {
        let (data, _) = blobs_with_noise();
        let cfg = DbscanConfig {
            eps: 1.0,
            min_points: 4,
        };
        assert_eq!(
            dbscan_with_runtime(&data, &cfg, &epc_runtime::RuntimeConfig::sequential()),
            dbscan_with_runtime(&data, &cfg, &epc_runtime::RuntimeConfig::sequential())
        );
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let (data, _) = blobs_with_noise();
        let cfg = DbscanConfig {
            eps: 1.0,
            min_points: 4,
        };
        let seq = dbscan_with_runtime(&data, &cfg, &epc_runtime::RuntimeConfig::sequential());
        for threads in [2usize, 8] {
            let par = dbscan_with_runtime(&data, &cfg, &epc_runtime::RuntimeConfig::new(threads));
            assert_eq!(par, seq, "threads = {threads}");
        }
    }
}
