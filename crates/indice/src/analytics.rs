//! Stage 2 — data selection and analytics (§2.2): correlation screening,
//! K-means clustering with automatic K selection, discretization, and
//! association-rule mining.

use crate::config::{footnote4_discretizers, IndiceConfig, KSelection};
use crate::error::IndiceError;
use epc_mining::apriori::TransactionSet;
use epc_mining::cart::RegressionTree;
use epc_mining::discretize::Discretizer;
use epc_mining::elbow::{elbow_k_by_distance, sse_curve_with_runtime};
use epc_mining::kmeans::{KMeans, KMeansConfig, KMeansModel};
use epc_mining::matrix::Matrix;
use epc_mining::normalize::MinMaxScaler;
use epc_mining::rules::{mine_rules_traced_with_runtime, AssociationRule};
use epc_model::Dataset;
use epc_obs::Obs;
use epc_stats::correlation::{correlation_matrix, CorrelationMatrix};
use epc_stats::quantile::quantile;

/// Interpretable description of one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Cluster index.
    pub cluster: usize,
    /// Number of certificates.
    pub size: usize,
    /// Centroid in *original* attribute units, aligned with
    /// [`AnalyticsOutput::feature_names`].
    pub centroid: Vec<f64>,
    /// Mean of the response variable over the cluster's members.
    pub mean_response: Option<f64>,
}

/// Result of the analytics stage.
#[derive(Debug, Clone)]
pub struct AnalyticsOutput {
    /// Names of the clustering features (the case-study five by default).
    pub feature_names: Vec<String>,
    /// Pairwise Pearson correlations of the features (Figure 3).
    pub correlation: CorrelationMatrix,
    /// The eligibility verdict: no |ρ| above the configured threshold.
    pub eligible: bool,
    /// The `(k, SSE)` curve (empty when K was fixed).
    pub sse_curve: Vec<(usize, f64)>,
    /// The K actually used.
    pub chosen_k: usize,
    /// The fitted K-means model (over min-max-scaled features).
    pub kmeans: KMeansModel,
    /// For each clustered point, the dataset row it came from.
    pub feature_rows: Vec<usize>,
    /// Per-cluster interpretable summaries.
    pub cluster_summaries: Vec<ClusterSummary>,
    /// The feature discretizers used for rule mining (footnote 4 + CART).
    pub discretizers: Vec<Discretizer>,
    /// The response discretizer (quantile bins).
    pub response_discretizer: Discretizer,
    /// The mined association rules, best first.
    pub rules: Vec<AssociationRule>,
}

impl AnalyticsOutput {
    /// The cluster index of a dataset row, if the row was clustered.
    pub fn cluster_of_row(&self, dataset_row: usize) -> Option<usize> {
        self.feature_rows
            .iter()
            .position(|&r| r == dataset_row)
            .map(|i| self.kmeans.assignments[i])
    }
}

/// Runs the analytics stage over a (cleaned) dataset under an explicit
/// execution runtime, with an optional observability bundle. The K-means
/// assignment loops (elbow sweep and final fit) and the Apriori support
/// counting run data-parallel under `runtime`, with outputs bitwise
/// identical to the sequential run. Per-round K-means inertia, the elbow
/// SSE curve, and per-level Apriori candidate/pruned/frequent counts are
/// recorded as trace points and counters; all emission happens
/// orchestrator-side, after the kernels return, so the analytical output
/// is the same with or without `obs`.
pub fn analyze_observed(
    dataset: &Dataset,
    config: &IndiceConfig,
    runtime: &epc_runtime::RuntimeConfig,
    obs: Option<&Obs<'_>>,
) -> Result<AnalyticsOutput, IndiceError> {
    let a = &config.analytics;
    if a.features.is_empty() {
        return Err(IndiceError::Config(
            "no clustering features configured".into(),
        ));
    }
    let feature_ids: Vec<_> = a
        .features
        .iter()
        .map(|f| dataset.schema().require(f))
        .collect::<Result<_, _>>()?;
    let response_id = dataset.schema().require(&a.response)?;

    // --- Correlation screening (Figure 3) ---
    let columns: Vec<Vec<f64>> = feature_ids
        .iter()
        .map(|&id| {
            dataset
                .numeric_column(id)
                .iter()
                .map(|v| v.unwrap_or(f64::NAN))
                .collect()
        })
        .collect();
    let col_refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
    let names: Vec<&str> = a.features.iter().map(String::as_str).collect();
    let correlation = correlation_matrix(&names, &col_refs);
    let eligible = correlation.eligible_for_analytics(a.correlation_threshold);
    if let Some(obs) = obs {
        obs.point(
            "analytics:correlation",
            &[
                ("eligible", u64::from(eligible).into()),
                ("features", names.len().into()),
            ],
        );
    }

    // --- Feature matrix over complete rows ---
    // Engine dispatch: the columnar path decodes each feature column once
    // and gathers contiguously (epc_mining::columnar); rows and cell
    // values are bit-identical to the per-cell row loop.
    let (feature_rows, matrix) = match runtime.engine {
        epc_runtime::Engine::Row => {
            let mut feature_rows = Vec::new();
            let mut data = Vec::new();
            for r in 0..dataset.n_rows() {
                let vals: Option<Vec<f64>> =
                    feature_ids.iter().map(|&id| dataset.num(r, id)).collect();
                if let Some(v) = vals {
                    feature_rows.push(r);
                    data.extend(v);
                }
            }
            let n = feature_rows.len();
            (feature_rows, Matrix::from_vec(data, n, feature_ids.len()))
        }
        epc_runtime::Engine::Columnar => {
            let store = epc_columnar::DatasetColumnarExt::to_columns(dataset);
            if let Some(obs) = obs {
                crate::columnar::record_store_stats(obs, &store.stats());
            }
            epc_mining::columnar::feature_matrix(&store, &feature_ids)
        }
    };
    if feature_rows.len() < 3 {
        return Err(IndiceError::Clustering(format!(
            "only {} complete rows",
            feature_rows.len()
        )));
    }
    let (scaler, scaled) = MinMaxScaler::fit_transform(&matrix)
        .ok_or_else(|| IndiceError::Clustering("scaler fit on empty feature matrix".into()))?;

    // --- K selection + final fit (§2.2.2) ---
    let base = KMeansConfig {
        k: 0,
        init: a.init,
        seed: a.seed,
        ..KMeansConfig::default()
    };
    let (chosen_k, curve) = match a.k {
        KSelection::Fixed(k) => (k, Vec::new()),
        KSelection::Elbow { k_min, k_max } => {
            if k_min >= k_max {
                return Err(IndiceError::Config("elbow needs k_min < k_max".into()));
            }
            let curve = sse_curve_with_runtime(&scaled, k_min..=k_max, &base, runtime);
            if let Some(obs) = obs {
                for &(k, sse) in &curve {
                    obs.point("kmeans:elbow", &[("k", k.into()), ("sse", sse.into())]);
                }
            }
            // Real SSE curves are smooth and convex; the geometric elbow
            // (max distance from the endpoint chord) is the stable reading
            // of the paper's "marginal decrease maximized" criterion. The
            // ratio-based variant is kept in `epc_mining::elbow` and
            // compared in the kmeans_elbow benchmark.
            let k = elbow_k_by_distance(&curve).ok_or_else(|| {
                IndiceError::Clustering("SSE curve too short for elbow selection".into())
            })?;
            (k, curve)
        }
    };
    let (kmeans, fit_trace) = KMeans::new(KMeansConfig {
        k: chosen_k,
        ..base
    })
    .fit_traced(&scaled, runtime)
    .ok_or_else(|| {
        IndiceError::Clustering(format!(
            "cannot fit k = {chosen_k} on {} rows",
            feature_rows.len()
        ))
    })?;
    if let Some(obs) = obs {
        for (round, &inertia) in fit_trace.round_inertia.iter().enumerate() {
            obs.point(
                "kmeans:round",
                &[("inertia", inertia.into()), ("round", round.into())],
            );
        }
        let m = obs.metrics();
        m.inc("kmeans_iterations", fit_trace.round_inertia.len() as u64);
        m.set_gauge("kmeans_chosen_k", chosen_k as i64);
    }

    // --- Cluster summaries in original units ---
    let mut response_sums = vec![(0.0f64, 0usize); chosen_k];
    for (i, &row) in feature_rows.iter().enumerate() {
        if let Some(y) = dataset.num(row, response_id) {
            let c = kmeans.assignments[i];
            response_sums[c].0 += y;
            response_sums[c].1 += 1;
        }
    }
    let sizes = kmeans.cluster_sizes();
    let cluster_summaries: Vec<ClusterSummary> = (0..chosen_k)
        .map(|c| ClusterSummary {
            cluster: c,
            size: sizes[c],
            centroid: scaler.inverse_row(kmeans.centroids.row(c)),
            mean_response: if response_sums[c].1 > 0 {
                Some(response_sums[c].0 / response_sums[c].1 as f64)
            } else {
                None
            },
        })
        .collect();

    // --- Discretization (§2.2.2 + footnote 4) ---
    let discretizers = build_discretizers(dataset, &a.features, &a.response, config)?;
    let response_discretizer =
        quantile_discretizer(dataset, &a.response, config.rule_stage.response_bins)?;

    // --- Association rules ---
    let mut transactions = TransactionSet::new();
    for &row in &feature_rows {
        let mut items: Vec<String> = Vec::with_capacity(discretizers.len() + 1);
        for d in &discretizers {
            let id = dataset.schema().require(&d.attribute)?;
            if let Some(x) = dataset.num(row, id) {
                items.push(d.item(x));
            }
        }
        if let Some(y) = dataset.num(row, response_id) {
            items.push(response_discretizer.item(y));
        }
        transactions.push_owned(&items);
    }
    let (rules, apriori_trace) =
        mine_rules_traced_with_runtime(&transactions, &config.rule_stage.rules, runtime);
    if let Some(obs) = obs {
        let m = obs.metrics();
        for level in &apriori_trace.levels {
            obs.point(
                "apriori:level",
                &[
                    ("candidates", level.candidates.into()),
                    ("frequent", level.frequent.into()),
                    ("level", level.level.into()),
                    ("pruned", level.pruned.into()),
                ],
            );
            m.inc("apriori_candidates", level.candidates as u64);
            m.inc("apriori_frequent", level.frequent as u64);
            m.inc("apriori_pruned", level.pruned as u64);
        }
        m.inc("rules_mined", rules.len() as u64);
    }

    Ok(AnalyticsOutput {
        feature_names: a.features.clone(),
        correlation,
        eligible,
        sse_curve: curve,
        chosen_k,
        kmeans,
        feature_rows,
        cluster_summaries,
        discretizers,
        response_discretizer,
        rules,
    })
}

/// Mines association rules separately per spatial region ("rules can be
/// extracted at different granularity levels, e.g., for each city,
/// neighbourhood or downstream of the clustering algorithm", §2.3).
///
/// The discretizers of a *global* analytics run are reused, so the items
/// are comparable across regions. Returns `region name → rules`, skipping
/// regions with fewer than `min_region_size` certificates (tiny regions
/// yield statistically meaningless supports). Each region is one coarse
/// parallel task under `runtime` (regions mine independently; the output
/// map is reassembled in region-name order, so results never depend on the
/// thread budget).
pub fn rules_by_region(
    dataset: &Dataset,
    analytics: &AnalyticsOutput,
    config: &IndiceConfig,
    level: epc_model::Granularity,
    min_region_size: usize,
    runtime: &epc_runtime::RuntimeConfig,
) -> Result<std::collections::BTreeMap<String, Vec<AssociationRule>>, IndiceError> {
    use epc_model::wellknown as wk;
    let region_attr = match level {
        epc_model::Granularity::District => wk::DISTRICT,
        epc_model::Granularity::Neighbourhood => wk::NEIGHBOURHOOD,
        epc_model::Granularity::City => wk::CITY,
        epc_model::Granularity::HousingUnit => {
            return Err(IndiceError::Config(
                "rules per housing unit are meaningless (one transaction each)".into(),
            ))
        }
    };
    let region_id = dataset.schema().require(region_attr)?;
    let response_id = dataset.schema().require(&config.analytics.response)?;

    // Group rows per region label.
    let mut groups: std::collections::BTreeMap<String, Vec<usize>> = Default::default();
    for r in 0..dataset.n_rows() {
        if let Some(label) = dataset.cat(r, region_id) {
            groups.entry(label.to_owned()).or_default().push(r);
        }
    }

    // Resolve the discretizer attribute ids up front so the parallel tasks
    // are infallible.
    let mut discretizer_ids = Vec::with_capacity(analytics.discretizers.len());
    for d in &analytics.discretizers {
        discretizer_ids.push(dataset.schema().require(&d.attribute)?);
    }

    // One region per coarse task: regions are few but each mines a full
    // Apriori lattice. BTreeMap iteration is name-ordered, so the task
    // list — and the reassembled map — is deterministic.
    let tasks: Vec<(&String, &Vec<usize>)> = groups
        .iter()
        .filter(|(_, rows)| rows.len() >= min_region_size)
        .collect();
    let mined: Vec<Vec<AssociationRule>> =
        epc_runtime::par_map_coarse(runtime, &tasks, |(_, rows)| {
            let mut transactions = TransactionSet::new();
            for &row in rows.iter() {
                let mut items: Vec<String> = Vec::new();
                for (d, &id) in analytics.discretizers.iter().zip(&discretizer_ids) {
                    if let Some(x) = dataset.num(row, id) {
                        items.push(d.item(x));
                    }
                }
                if let Some(y) = dataset.num(row, response_id) {
                    items.push(analytics.response_discretizer.item(y));
                }
                transactions.push_owned(&items);
            }
            // Regions are the parallel unit: each one mines on one thread.
            let sequential = epc_runtime::RuntimeConfig::sequential();
            mine_rules_traced_with_runtime(&transactions, &config.rule_stage.rules, &sequential).0
        });

    Ok(tasks
        .into_iter()
        .map(|(region, _)| region.clone())
        .zip(mined)
        .collect())
}

/// Builds one discretizer per feature: the paper's fixed footnote-4 bins
/// where given, CART splits against the response elsewhere.
fn build_discretizers(
    dataset: &Dataset,
    features: &[String],
    response: &str,
    config: &IndiceConfig,
) -> Result<Vec<Discretizer>, IndiceError> {
    let fixed = footnote4_discretizers();
    let response_id = dataset.schema().require(response)?;
    let mut out = Vec::with_capacity(features.len());
    for f in features {
        if let Some(d) = fixed.iter().find(|d| &d.attribute == f) {
            out.push(d.clone());
            continue;
        }
        // CART discretization against the response (§2.2.2).
        let fid = dataset.schema().require(f)?;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for r in 0..dataset.n_rows() {
            if let (Some(x), Some(y)) = (dataset.num(r, fid), dataset.num(r, response_id)) {
                xs.push(x);
                ys.push(y);
            }
        }
        let d = RegressionTree::fit(&xs, &ys, &config.rule_stage.cart)
            .and_then(|t| Discretizer::with_auto_labels(f, t.split_thresholds()))
            // A single catch-all bin (no thresholds) is always constructible.
            .or_else(|| Discretizer::with_auto_labels(f, vec![]))
            .ok_or_else(|| IndiceError::Internal(format!("cannot build discretizer for {f}")))?;
        out.push(d);
    }
    Ok(out)
}

/// Quantile-based discretizer for the response variable (`n_bins` equal-
/// frequency bins; falls back to fewer bins on ties).
fn quantile_discretizer(
    dataset: &Dataset,
    response: &str,
    n_bins: usize,
) -> Result<Discretizer, IndiceError> {
    let id = dataset.schema().require(response)?;
    let values = dataset.numeric_values(id);
    let mut edges = Vec::new();
    if n_bins >= 2 && !values.is_empty() {
        for i in 1..n_bins {
            if let Some(q) = quantile(&values, i as f64 / n_bins as f64) {
                edges.push(q);
            }
        }
        edges.dedup_by(|a, b| a == b);
        // Strictly increasing required.
        edges.retain({
            let mut prev = f64::NEG_INFINITY;
            move |e| {
                let keep = *e > prev;
                if keep {
                    prev = *e;
                }
                keep
            }
        });
    }
    Discretizer::with_auto_labels(response, edges)
        .ok_or_else(|| IndiceError::Config("response discretization failed".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_model::wellknown as wk;
    use epc_runtime::RuntimeConfig;
    use epc_synth::city::CityConfig;
    use epc_synth::epcgen::{EpcGenerator, SynthConfig};

    fn dataset() -> Dataset {
        EpcGenerator::new(SynthConfig {
            n_records: 1_200,
            city: CityConfig {
                n_districts: 4,
                neighbourhoods_per_district: 2,
                streets_per_neighbourhood: 3,
                houses_per_street: 8,
                ..CityConfig::default()
            },
            ..SynthConfig::default()
        })
        .generate()
        .dataset
    }

    #[test]
    fn full_analytics_run_produces_everything() {
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        assert_eq!(out.feature_names.len(), 5);
        assert_eq!(out.correlation.len(), 5);
        assert!(out.chosen_k >= 2 && out.chosen_k <= 10);
        assert_eq!(out.kmeans.k(), out.chosen_k);
        assert_eq!(
            out.feature_rows.len(),
            ds.n_rows(),
            "clean data: all rows cluster"
        );
        assert_eq!(out.cluster_summaries.len(), out.chosen_k);
        assert!(!out.rules.is_empty(), "synthetic data must yield rules");
        assert!(!out.sse_curve.is_empty());
    }

    #[test]
    fn case_study_features_are_weakly_correlated() {
        // The paper's Figure 3 message: the five features show no evident
        // linear correlation, so they are eligible for clustering.
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        assert!(out.eligible, "correlations: {:?}", out.correlation.values);
        let (_, _, max_rho) = out.correlation.max_abs_off_diagonal().unwrap();
        assert!(max_rho.abs() < 0.8, "max |rho| = {max_rho}");
    }

    #[test]
    fn cluster_summaries_are_in_original_units() {
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        // Centroids must live in the attribute ranges (Uw is feature 2).
        for s in &out.cluster_summaries {
            let uw = s.centroid[2];
            assert!((1.1..=5.5).contains(&uw), "Uw centroid {uw}");
            let eta = s.centroid[4];
            assert!((0.2..=1.1).contains(&eta), "ETAH centroid {eta}");
            assert!(s.size > 0);
            assert!(s.mean_response.unwrap() > 0.0);
        }
        let total: usize = out.cluster_summaries.iter().map(|s| s.size).sum();
        assert_eq!(total, out.feature_rows.len());
    }

    #[test]
    fn clusters_separate_energy_performance() {
        // The whole point of the case study: clusters differ in EPH.
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        let mut means: Vec<f64> = out
            .cluster_summaries
            .iter()
            .filter_map(|s| s.mean_response)
            .collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            means.last().unwrap() > &(means.first().unwrap() * 1.5),
            "cluster EPH means too similar: {means:?}"
        );
    }

    #[test]
    fn rules_connect_thermal_quality_to_consumption() {
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        // Expect at least one rule linking a footnote-4 item to an EPH bin.
        let found = out.rules.iter().any(|r| {
            let mentions_feature = r.antecedent.iter().any(|i| {
                i.starts_with("u_windows=") || i.starts_with("u_opaque=") || i.starts_with("eta_h=")
            });
            let mentions_response = r.consequent.iter().any(|i| i.starts_with("eph="));
            mentions_feature && mentions_response
        });
        assert!(found, "no thermal→EPH rule among {} rules", out.rules.len());
    }

    #[test]
    fn fixed_k_skips_the_sweep() {
        let ds = dataset();
        let cfg = IndiceConfig {
            analytics: crate::config::AnalyticsConfig {
                k: KSelection::Fixed(4),
                ..Default::default()
            },
            ..IndiceConfig::default()
        };
        let out = analyze_observed(&ds, &cfg, &RuntimeConfig::sequential(), None).unwrap();
        assert_eq!(out.chosen_k, 4);
        assert!(out.sse_curve.is_empty());
    }

    #[test]
    fn cluster_of_row_round_trips() {
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        let row = out.feature_rows[10];
        let c = out.cluster_of_row(row).unwrap();
        assert_eq!(c, out.kmeans.assignments[10]);
        assert_eq!(out.cluster_of_row(usize::MAX), None);
    }

    #[test]
    fn response_discretizer_has_requested_bins() {
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        assert_eq!(out.response_discretizer.n_bins(), 3);
        assert_eq!(out.response_discretizer.attribute, wk::EPH);
    }

    #[test]
    fn bad_configs_error_cleanly() {
        let ds = dataset();
        let cfg = IndiceConfig {
            analytics: crate::config::AnalyticsConfig {
                features: vec![],
                ..Default::default()
            },
            ..IndiceConfig::default()
        };
        assert!(matches!(
            analyze_observed(&ds, &cfg, &RuntimeConfig::sequential(), None),
            Err(IndiceError::Config(_))
        ));

        let cfg = IndiceConfig {
            analytics: crate::config::AnalyticsConfig {
                k: KSelection::Elbow { k_min: 5, k_max: 5 },
                ..Default::default()
            },
            ..IndiceConfig::default()
        };
        assert!(matches!(
            analyze_observed(&ds, &cfg, &RuntimeConfig::sequential(), None),
            Err(IndiceError::Config(_))
        ));

        let cfg = IndiceConfig {
            analytics: crate::config::AnalyticsConfig {
                features: vec!["ghost".into()],
                ..Default::default()
            },
            ..IndiceConfig::default()
        };
        assert!(matches!(
            analyze_observed(&ds, &cfg, &RuntimeConfig::sequential(), None),
            Err(IndiceError::Model(_))
        ));
    }

    #[test]
    fn rules_differ_across_regions_but_share_vocabulary() {
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        let by_district = rules_by_region(
            &ds,
            &out,
            &IndiceConfig::default(),
            epc_model::Granularity::District,
            50,
            &RuntimeConfig::sequential(),
        )
        .unwrap();
        assert!(by_district.len() >= 2, "several districts expected");
        // Vocabulary is shared: every item uses the global discretizer
        // labels.
        for rules in by_district.values() {
            for r in rules {
                for item in r.antecedent.iter().chain(&r.consequent) {
                    assert!(item.contains('='), "item {item} not attr=Label");
                }
            }
        }
        // The historic centre and the modern periphery should not mine an
        // identical rule list.
        let lists: Vec<Vec<String>> = by_district
            .values()
            .map(|rs| rs.iter().map(|r| r.display()).collect())
            .collect();
        assert!(
            lists.windows(2).any(|w| w[0] != w[1]),
            "all districts produced identical rules"
        );
    }

    #[test]
    fn rules_by_region_rejects_housing_unit_level() {
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        let err = rules_by_region(
            &ds,
            &out,
            &IndiceConfig::default(),
            epc_model::Granularity::HousingUnit,
            10,
            &RuntimeConfig::sequential(),
        )
        .unwrap_err();
        assert!(matches!(err, IndiceError::Config(_)));
    }

    #[test]
    fn tiny_regions_are_skipped() {
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        let by_district = rules_by_region(
            &ds,
            &out,
            &IndiceConfig::default(),
            epc_model::Granularity::District,
            usize::MAX,
            &RuntimeConfig::sequential(),
        )
        .unwrap();
        assert!(by_district.is_empty());
    }

    #[test]
    fn footnote4_attributes_use_paper_bins() {
        let ds = dataset();
        let out = analyze_observed(
            &ds,
            &IndiceConfig::default(),
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        let uw = out
            .discretizers
            .iter()
            .find(|d| d.attribute == wk::U_WINDOWS)
            .unwrap();
        assert_eq!(uw.edges, vec![2.05, 2.45, 3.35]);
        // Non-footnote features got CART or single-bin discretizers.
        let sr = out
            .discretizers
            .iter()
            .find(|d| d.attribute == wk::HEAT_SURFACE)
            .unwrap();
        assert!(sr.n_bins() >= 1);
    }
}
