//! Stage 1 — data pre-processing (§2.1): geospatial cleaning followed by
//! outlier detection and removal. "Independently of the adopted strategies,
//! values labelled as outliers are not considered in the subsequent steps
//! of analysis."
//!
//! The stage is [`clean_phase`] → [`merge_clean_phases`] →
//! [`outlier_phase`]: a one-shot run cleans its whole input in one phase,
//! incremental ingest cleans each batch and merges the phases. Malformed or
//! corrupted records are diverted into an [`epc_model::Quarantine`] instead
//! of panicking or poisoning downstream statistics, and (with a fault
//! injector) transient geocoder failures are retried and finally degraded
//! to district-centroid coordinates.

use crate::config::IndiceConfig;
use crate::error::IndiceError;
use epc_faults::{corrupt_dataset, FaultInjector, FaultyGeocoder};
use epc_geo::address::Address;
use epc_geo::cleaning::{
    clean_addresses, AddressQuery, CleaningOutcome, CleaningReport, DegradedFallback,
};
use epc_geo::geocode::{Geocoder, QuotaGeocoder, RetryGeocoder, SimulatedGeocoder};
use epc_geo::point::GeoPoint;
use epc_geo::streetmap::StreetMap;
use epc_mining::dbscan::{dbscan_noise, DbscanConfig};
use epc_mining::kdistance::estimate_dbscan_params;
use epc_mining::matrix::Matrix;
use epc_model::{
    scan_faults, wellknown as wk, Dataset, Quarantine, RecordFault, ValidationPolicy, Value,
};
use epc_obs::Obs;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Result of the pre-processing stage.
#[derive(Debug, Clone)]
pub struct PreprocessOutput {
    /// The cleaned, outlier-free dataset.
    pub dataset: Dataset,
    /// For each kept row, its index in the input dataset.
    pub kept_rows: Vec<usize>,
    /// Cleaning statistics (§2.1.1).
    pub cleaning: CleaningReport,
    /// Rows flagged per univariate attribute (input-dataset indices).
    pub univariate_flagged: BTreeMap<String, Vec<usize>>,
    /// Rows flagged by DBSCAN (input-dataset indices).
    pub multivariate_flagged: Vec<usize>,
    /// The DBSCAN parameters actually used, when multivariate detection
    /// ran.
    pub dbscan_params: Option<DbscanConfig>,
    /// Union of all removed rows (input-dataset indices, ascending).
    pub removed_rows: Vec<usize>,
    /// Rows kept with *degraded* provenance: their geocoding failed
    /// transiently even after retries, so their coordinates are the
    /// district centroid (input-dataset indices, ascending).
    pub degraded_rows: Vec<usize>,
}

/// Maximum sample used for DBSCAN parameter estimation (the k-distance
/// graph is O(n²); the estimate stabilizes long before 25 000 points).
const PARAM_ESTIMATION_SAMPLE: usize = 1_500;

/// Output of [`clean_phase`]: the per-record, batch-composable first half
/// of stage 1 (fault corruption hook, validation quarantine, §2.1.1
/// geospatial cleaning). Outlier detection is a *global* property of the
/// cumulative data and deliberately lives in [`outlier_phase`].
///
/// Clean phases over consecutive input chunks compose: merging their
/// outputs ([`merge_clean_phases`]) equals one clean phase over the
/// concatenated input, provided each later phase's geocoder `quota` is
/// reduced by the requests earlier phases consumed — the quota counter is
/// the only cross-record state in the phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanPhase {
    /// The validated, geospatially cleaned dataset (quarantined rows
    /// removed; outliers still present).
    pub dataset: Dataset,
    /// For each row of `dataset`, its index in the phase's input.
    pub orig_of: Vec<usize>,
    /// Rows in the phase's input (before validation filtering).
    pub input_rows: usize,
    /// Cleaning statistics (§2.1.1); every field is additive across
    /// batches.
    pub cleaning: CleaningReport,
    /// Rows of `dataset` resolved with degraded provenance (district
    /// centroids after exhausted retries), ascending.
    pub degraded_rows: Vec<usize>,
    /// Rows of `dataset` whose address stayed unresolved, ascending.
    pub unresolved_rows: Vec<usize>,
    /// Validation faults diverted out of the phase (row indices and
    /// synthetic keys are in input coordinates).
    pub quarantine: Quarantine,
}

/// Runs the batch-composable first half of stage 1 over `dataset`
/// (consumed), using `street_map` both as the referenced map and as the
/// simulated geocoder's ground truth. `quota` is the geocoder budget
/// granted to *this* phase — the full `config.geocoder_quota` for a
/// one-shot run, the remaining balance for an ingest batch.
///
/// Records with non-finite values in numeric attributes (whether present
/// in the input or planted by the fault `injector`) are diverted into the
/// phase's [`Quarantine`] — keyed by certificate id — and excluded from
/// every downstream statistic. With an injector present, the geocoder
/// fallback is wrapped in failure injection plus retry/backoff, and
/// records whose geocoding keeps failing degrade to district-centroid
/// coordinates instead of being dropped. With `obs`, the cleaning report
/// is recorded as a trace point and counters after the data-parallel
/// kernels return, so the logical event stream is identical for any
/// thread budget.
pub fn clean_phase(
    mut dataset: Dataset,
    street_map: &StreetMap,
    config: &IndiceConfig,
    runtime: &epc_runtime::RuntimeConfig,
    injector: Option<&dyn FaultInjector>,
    obs: Option<&Obs<'_>>,
    quota: usize,
) -> Result<CleanPhase, IndiceError> {
    if dataset.is_empty() {
        return Err(IndiceError::EmptyCollection("preprocess"));
    }
    let input_rows = dataset.n_rows();
    let mut quarantine = Quarantine::new();

    // Record-boundary fault hook: corrupt before validation so every
    // injected fault flows through the same quarantine path real bad input
    // would.
    if let Some(inj) = injector {
        corrupt_dataset(&mut dataset, inj)?;
    }

    // Validation scan: non-finite values are always faults (they would
    // poison means, distances, and histograms downstream).
    let faults = scan_faults(&dataset, &ValidationPolicy::minimal());
    let bad_rows: BTreeSet<usize> = faults.iter().map(|(row, _)| *row).collect();
    for (row, fault) in faults {
        quarantine.push(record_key(&dataset, row), Some(row), fault);
    }

    // Divert quarantined rows out of the pipeline, in place; remember the
    // original index of every surviving row so reports stay in input
    // coordinates.
    let mask: Vec<bool> = (0..input_rows).map(|r| !bad_rows.contains(&r)).collect();
    let orig_of: Vec<usize> = mask
        .iter()
        .enumerate()
        .filter_map(|(i, &keep)| keep.then_some(i))
        .collect();
    if !bad_rows.is_empty() {
        dataset.retain_mask(&mask)?;
    }
    if dataset.is_empty() {
        return Err(IndiceError::EmptyCollection("record validation"));
    }

    let (cleaning, degraded_rows, unresolved_rows) =
        clean_geospatial(&mut dataset, street_map, config, runtime, injector, quota)?;
    if let Some(obs) = obs {
        record_cleaning(obs, &cleaning);
    }
    Ok(CleanPhase {
        dataset,
        orig_of,
        input_rows,
        cleaning,
        degraded_rows,
        unresolved_rows,
        quarantine,
    })
}

/// Merges clean phases of consecutive input chunks into the clean phase
/// of the concatenated input: datasets are appended, row indices and
/// synthetic quarantine keys are rebased onto cumulative coordinates, and
/// the cleaning report is summed field-wise.
pub fn merge_clean_phases(parts: Vec<CleanPhase>) -> Result<CleanPhase, IndiceError> {
    let mut iter = parts.into_iter();
    let Some(mut merged) = iter.next() else {
        return Err(IndiceError::EmptyCollection("merge_clean_phases"));
    };
    for part in iter {
        let input_offset = merged.input_rows;
        let row_offset = merged.dataset.n_rows();
        merged.dataset.append(&part.dataset)?;
        merged
            .orig_of
            .extend(part.orig_of.iter().map(|&r| r + input_offset));
        merged.input_rows += part.input_rows;
        merged.cleaning.merge(&part.cleaning);
        merged
            .degraded_rows
            .extend(part.degraded_rows.iter().map(|&r| r + row_offset));
        merged
            .unresolved_rows
            .extend(part.unresolved_rows.iter().map(|&r| r + row_offset));
        let mut q = part.quarantine;
        q.rebase_rows(input_offset);
        merged.quarantine.merge(q);
    }
    Ok(merged)
}

/// Runs the global second half of stage 1 over a (possibly merged) clean
/// phase: univariate and multivariate outlier detection, opt-in
/// unresolved-address quarantine, and the final row filter. Returns the
/// stage output (row indices in input coordinates) plus the full
/// quarantine — the phase's validation faults followed by any unresolved
/// addresses, exactly the order a one-shot run produces.
pub fn outlier_phase(
    clean: CleanPhase,
    config: &IndiceConfig,
    runtime: &epc_runtime::RuntimeConfig,
    obs: Option<&Obs<'_>>,
) -> Result<(PreprocessOutput, Quarantine), IndiceError> {
    let CleanPhase {
        dataset,
        orig_of,
        input_rows: _,
        cleaning,
        degraded_rows,
        unresolved_rows,
        mut quarantine,
    } = clean;

    let (mut out, unresolved) = detect_and_remove_outliers(
        dataset,
        cleaning,
        degraded_rows,
        unresolved_rows,
        config,
        runtime,
        obs,
    )?;

    // Unresolved-address quarantine (opt-in): rows the cleaning pass
    // could not place anywhere, now also flagged in `removed_rows`.
    for (row, key) in unresolved {
        quarantine.push(
            key,
            orig_of.get(row).copied(),
            RecordFault::UnresolvableAddress,
        );
    }

    // Map every row index in the output back to input coordinates.
    let remap = |rows: &mut Vec<usize>| {
        for r in rows.iter_mut() {
            // lint:allow(D4, D7): the outlier pass only emits row indices of the filtered dataset, orig_of has exactly one entry per filtered row, and the closure calls nothing — no callee can widen the panic surface
            *r = orig_of[*r];
        }
    };
    remap(&mut out.kept_rows);
    remap(&mut out.multivariate_flagged);
    remap(&mut out.removed_rows);
    remap(&mut out.degraded_rows);
    for rows in out.univariate_flagged.values_mut() {
        remap(rows);
    }
    Ok((out, quarantine))
}

/// The stable quarantine key of a row: its certificate id, else a
/// positional fallback.
fn record_key(dataset: &Dataset, row: usize) -> String {
    dataset
        .schema()
        .attr_id(wk::CERTIFICATE_ID)
        .and_then(|id| dataset.cat(row, id).map(str::to_owned))
        .unwrap_or_else(|| format!("row:{row}"))
}

/// The outlier half of stage 1: univariate + multivariate detection and
/// the final row filter over an already-cleaned dataset. Returns the
/// output (row indices relative to *this* input) plus the rows whose
/// address stayed unresolved, when the configuration quarantines them.
fn detect_and_remove_outliers(
    mut dataset: Dataset,
    cleaning: CleaningReport,
    degraded_rows: Vec<usize>,
    unresolved_rows: Vec<usize>,
    config: &IndiceConfig,
    runtime: &epc_runtime::RuntimeConfig,
    obs: Option<&Obs<'_>>,
) -> Result<(PreprocessOutput, Vec<(usize, String)>), IndiceError> {
    if dataset.is_empty() {
        return Err(IndiceError::EmptyCollection("preprocess"));
    }

    // --- Univariate outliers ---
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    let mut univariate_flagged = BTreeMap::new();
    for (attr, method) in &config.outliers.univariate {
        let id = dataset.schema().require(attr)?;
        let (values, rows) = dataset.numeric_with_rows(id);
        let hits: Vec<usize> = method
            .detect(&values)
            .into_iter()
            .filter_map(|i| rows.get(i).copied())
            .collect();
        flagged.extend(hits.iter().copied());
        univariate_flagged.insert(attr.clone(), hits);
    }
    if let Some(obs) = obs {
        obs.point(
            "preprocess:univariate",
            &[
                ("attrs", univariate_flagged.len().into()),
                ("flagged", flagged.len().into()),
            ],
        );
        obs.metrics()
            .inc("outliers_univariate_flagged", flagged.len() as u64);
    }

    // --- Multivariate outliers (DBSCAN, §2.1.2) ---
    let mut multivariate_flagged = Vec::new();
    let mut dbscan_params = None;
    if config.outliers.multivariate {
        let feature_ids: Vec<_> = config
            .analytics
            .features
            .iter()
            .map(|f| dataset.schema().require(f))
            .collect::<Result<_, _>>()?;
        let (rows, data) = crate::analytics::complete_rows(&dataset, &feature_ids);
        if rows.len() >= 10 {
            let matrix = Matrix::from_vec(data, rows.len(), feature_ids.len());
            // Scale features so DBSCAN's Euclidean radius is meaningful.
            let (scaler, scaled) = epc_mining::normalize::MinMaxScaler::fit_transform(&matrix)
                .ok_or_else(|| {
                    IndiceError::Clustering("feature scaling failed: empty matrix".into())
                })?;
            // Finite values spanning more than f64::MAX scale without NaN,
            // but every ordinary value of the feature then lands on one
            // point: refuse the feature by name instead.
            if let Some(name) = scaler
                .overflowing_features()
                .first()
                .and_then(|&j| config.analytics.features.get(j))
            {
                return Err(IndiceError::Clustering(format!(
                    "feature {name:?} spans more than f64::MAX; \
                     min-max scaling cannot separate its ordinary values"
                )));
            }
            // Parameter estimation on a stride-sample.
            let params = {
                let stride = (rows.len() / PARAM_ESTIMATION_SAMPLE).max(1);
                let sample_rows: Vec<Vec<f64>> = (0..rows.len())
                    .step_by(stride)
                    .map(|i| scaled.row(i).to_vec())
                    .collect();
                let sample = Matrix::from_rows(&sample_rows);
                estimate_dbscan_params(
                    &sample,
                    &config.outliers.min_points_candidates,
                    config.outliers.stability_tol,
                )
            };
            if let Some(params) = params {
                let result = dbscan_noise(&scaled, &params, runtime);
                if let Some(obs) = obs {
                    obs.point(
                        "preprocess:dbscan",
                        &[
                            ("core_points", result.core_points.into()),
                            ("distance_evals", result.distance_evals.into()),
                            ("eps", params.eps.into()),
                            ("min_points", params.min_points.into()),
                            ("noise", result.noise.len().into()),
                            ("occupied_cells", result.occupied_cells.into()),
                            ("points", rows.len().into()),
                        ],
                    );
                    let m = obs.metrics();
                    m.inc("dbscan_core_points", result.core_points as u64);
                    m.inc("dbscan_distance_evals", result.distance_evals as u64);
                    m.inc("dbscan_occupied_cells", result.occupied_cells as u64);
                    m.inc("outliers_multivariate_flagged", result.noise.len() as u64);
                }
                multivariate_flagged = result
                    .noise
                    .iter()
                    .filter_map(|&i| rows.get(i).copied())
                    .collect();
                flagged.extend(multivariate_flagged.iter().copied());
                dbscan_params = Some(params);
            }
        }
    }

    // Opt-in: unresolved addresses leave the analysis too (they are
    // reported back for quarantine by the caller).
    let mut quarantined_unresolved = Vec::new();
    if config.fault_tolerance.quarantine_unresolved {
        for &row in &unresolved_rows {
            flagged.insert(row);
            quarantined_unresolved.push((row, record_key(&dataset, row)));
        }
    }

    // Filter in place. It runs even when nothing is flagged: the filter
    // renumbers every dictionary in first-appearance order, dropping the
    // dirty labels cleaning repaired away, and the checkpoint records
    // that canonical form.
    let removed_rows: Vec<usize> = flagged.into_iter().collect();
    let mask: Vec<bool> = (0..dataset.n_rows())
        .map(|r| removed_rows.binary_search(&r).is_err())
        .collect();
    let kept_rows: Vec<usize> = mask
        .iter()
        .enumerate()
        .filter_map(|(i, &keep)| keep.then_some(i))
        .collect();
    dataset.retain_mask(&mask)?;
    if dataset.is_empty() {
        return Err(IndiceError::EmptyCollection("outlier removal"));
    }
    Ok((
        PreprocessOutput {
            dataset,
            kept_rows,
            cleaning,
            univariate_flagged,
            multivariate_flagged,
            dbscan_params,
            removed_rows,
            degraded_rows,
        },
        quarantined_unresolved,
    ))
}

/// Records the cleaning report as one trace point plus geocoder counters.
fn record_cleaning(obs: &Obs<'_>, report: &CleaningReport) {
    obs.point(
        "preprocess:cleaning",
        &[
            ("by_geocoder", report.by_geocoder.into()),
            ("by_reference", report.by_reference.into()),
            ("coords_fixed", report.coords_fixed.into()),
            ("degraded", report.degraded.into()),
            ("exact_matches", report.exact_matches.into()),
            ("geocoder_requests", report.geocoder_requests.into()),
            ("geocoder_retries", report.geocoder_retries.into()),
            ("streets_fixed", report.streets_fixed.into()),
            ("total", report.total.into()),
            ("unresolved", report.unresolved.into()),
            ("zips_fixed", report.zips_fixed.into()),
        ],
    );
    let m = obs.metrics();
    m.inc("geocoder_requests", report.geocoder_requests as u64);
    m.inc("geocoder_retries", report.geocoder_retries as u64);
    m.inc("geocode_degraded", report.degraded as u64);
    m.inc("geocode_unresolved", report.unresolved as u64);
}

/// What [`clean_geospatial`] reports back: the cleaning report, the rows
/// resolved with degraded provenance and the rows left unresolved (both
/// relative to the dataset).
type CleanedGeo = (CleaningReport, Vec<usize>, Vec<usize>);

/// The §2.1.1 geospatial-cleaning pass, applied in place. Returns the
/// cleaning report plus the rows resolved with degraded provenance and the
/// rows left unresolved (both relative to `dataset`). `quota` is the
/// geocoder budget granted to this pass; `config.geocoder_quota` stays the
/// on/off switch, so an exhausted quota (0 remaining) still routes through
/// a `QuotaGeocoder` — exactly how a one-shot run behaves after using up
/// its budget mid-stream.
fn clean_geospatial(
    dataset: &mut Dataset,
    street_map: &StreetMap,
    config: &IndiceConfig,
    runtime: &epc_runtime::RuntimeConfig,
    injector: Option<&dyn FaultInjector>,
    quota: usize,
) -> Result<CleanedGeo, IndiceError> {
    let schema = dataset.schema_arc();
    let addr_id = schema.require(wk::ADDRESS)?;
    let hn_id = schema.require(wk::HOUSE_NUMBER)?;
    let zip_id = schema.require(wk::ZIP_CODE)?;
    let lat_id = schema.require(wk::LATITUDE)?;
    let lon_id = schema.require(wk::LONGITUDE)?;
    let district_id = schema.require(wk::DISTRICT)?;
    let neigh_id = schema.require(wk::NEIGHBOURHOOD)?;

    let queries: Vec<AddressQuery> = (0..dataset.n_rows())
        .map(|row| {
            let street = dataset.cat(row, addr_id).unwrap_or("").to_owned();
            let house = dataset.cat(row, hn_id).map(str::to_owned);
            let zip = dataset.cat(row, zip_id).map(str::to_owned);
            let point = match (dataset.num(row, lat_id), dataset.num(row, lon_id)) {
                (Some(lat), Some(lon)) => Some(GeoPoint { lat, lon }),
                _ => None,
            };
            AddressQuery {
                id: row,
                address: Address {
                    street,
                    house_number: house,
                    zip,
                },
                point,
            }
        })
        .collect();

    // The geocoder fallback: more tolerant than the local φ match, but
    // quota-limited (§2.1.1). Ground truth is the referenced map itself —
    // what a production geocoder effectively holds.
    let geocoder = QuotaGeocoder::new(SimulatedGeocoder::new(street_map, 0.55, 0.02), quota);
    let clean = |geocoder_ref: Option<&dyn Geocoder>, fallback: Option<&DegradedFallback>| {
        clean_addresses(
            &queries,
            street_map,
            geocoder_ref,
            &config.cleaning,
            runtime,
            fallback,
        )
    };
    let (cleaned, report) = match injector {
        Some(inj) => {
            // Under fault injection, calls may fail transiently: retry
            // them with the deterministic backoff, and degrade exhausted
            // records to their district's centroid.
            let retry = RetryGeocoder::new(
                FaultyGeocoder::new(geocoder, inj),
                config.fault_tolerance.geocode_retries,
                epc_runtime::Backoff::default(),
            );
            let geocoder_ref: Option<&dyn Geocoder> = if config.geocoder_quota > 0 {
                Some(&retry)
            } else {
                None
            };
            let fallback = district_fallback(dataset, street_map, district_id);
            clean(geocoder_ref, Some(&fallback))
        }
        None => {
            let geocoder_ref: Option<&dyn Geocoder> = if config.geocoder_quota > 0 {
                Some(&geocoder)
            } else {
                None
            };
            clean(geocoder_ref, None)
        }
    };

    let mut degraded_rows = Vec::new();
    let mut unresolved_rows = Vec::new();
    for c in cleaned {
        let row = c.id;
        match c.outcome {
            CleaningOutcome::Unresolved => {
                unresolved_rows.push(row);
                continue;
            }
            CleaningOutcome::Degraded => degraded_rows.push(row),
            _ => {}
        }
        dataset.set_value(row, addr_id, Value::cat(c.address.street.clone()))?;
        if let Some(hn) = &c.address.house_number {
            dataset.set_value(row, hn_id, Value::cat(hn.clone()))?;
        }
        if let Some(zip) = &c.address.zip {
            dataset.set_value(row, zip_id, Value::cat(zip.clone()))?;
        }
        if let Some(p) = c.point {
            dataset.set_value(row, lat_id, Value::num(p.lat))?;
            dataset.set_value(row, lon_id, Value::num(p.lon))?;
        }
        if let Some(d) = &c.district {
            dataset.set_value(row, district_id, Value::cat(d.clone()))?;
        }
        if let Some(n) = &c.neighbourhood {
            dataset.set_value(row, neigh_id, Value::cat(n.clone()))?;
        }
    }
    degraded_rows.sort_unstable();
    unresolved_rows.sort_unstable();
    Ok((report, degraded_rows, unresolved_rows))
}

/// District-centroid fallback for degraded geocoding: centroids averaged
/// from the referenced street map's entries, hints read from each row's
/// district column.
fn district_fallback(
    dataset: &Dataset,
    street_map: &StreetMap,
    district_id: epc_model::AttrId,
) -> DegradedFallback {
    let mut sums: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
    for entry in street_map.entries() {
        let slot = sums.entry(entry.district.clone()).or_insert((0.0, 0.0, 0));
        slot.0 += entry.point.lat;
        slot.1 += entry.point.lon;
        slot.2 += 1;
    }
    let centroids: BTreeMap<String, GeoPoint> = sums
        .into_iter()
        .filter(|(_, (_, _, n))| *n > 0)
        .map(|(district, (lat, lon, n))| {
            (
                district,
                GeoPoint {
                    lat: lat / n as f64,
                    lon: lon / n as f64,
                },
            )
        })
        .collect();
    let hints: Vec<Option<String>> = (0..dataset.n_rows())
        .map(|row| dataset.cat(row, district_id).map(str::to_owned))
        .collect();
    DegradedFallback { centroids, hints }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use epc_faults::DeterministicInjector;
    use epc_synth::city::CityConfig;
    use epc_synth::epcgen::{EpcGenerator, SynthConfig};
    use epc_synth::noise::{apply_noise, NoiseConfig};

    fn collection(noise: bool) -> epc_synth::epcgen::SyntheticCollection {
        let mut c = EpcGenerator::new(SynthConfig {
            n_records: 600,
            city: CityConfig {
                n_districts: 4,
                neighbourhoods_per_district: 2,
                streets_per_neighbourhood: 3,
                houses_per_street: 8,
                ..CityConfig::default()
            },
            ..SynthConfig::default()
        })
        .generate();
        if noise {
            apply_noise(&mut c, &NoiseConfig::default());
        }
        c
    }

    /// Stage 1 over a whole input: one clean phase granted the full
    /// geocoder quota, then the outlier phase.
    fn stage1(
        dataset: Dataset,
        street_map: &StreetMap,
        config: &IndiceConfig,
        injector: Option<&dyn FaultInjector>,
    ) -> Result<(PreprocessOutput, Quarantine), IndiceError> {
        let rt = epc_runtime::RuntimeConfig::sequential();
        let quota = config.geocoder_quota;
        let clean = clean_phase(dataset, street_map, config, &rt, injector, None, quota)?;
        outlier_phase(clean, config, &rt, None)
    }

    #[test]
    fn clean_collection_loses_almost_nothing() {
        let c = collection(false);
        let out = stage1(
            c.dataset.clone(),
            &c.city.street_map,
            &IndiceConfig::default(),
            None,
        )
        .unwrap()
        .0;
        assert_eq!(out.cleaning.unresolved, 0, "all addresses are canonical");
        // Only statistical false positives may be removed (MAD tails and
        // DBSCAN low-density points) — keep them under ~12%.
        assert!(
            out.removed_rows.len() < 72,
            "removed {} of 600",
            out.removed_rows.len()
        );
        assert_eq!(out.kept_rows.len(), out.dataset.n_rows());
    }

    #[test]
    fn noisy_addresses_are_repaired() {
        let c = collection(true);
        let before_truth = c.truth.clone();
        let (out, quarantine) = stage1(
            c.dataset.clone(),
            &c.city.street_map,
            &IndiceConfig::default(),
            None,
        )
        .unwrap();
        // Address noise is repaired, never quarantined, and without an
        // injector no geocode degrades to a district centroid.
        assert!(quarantine.is_empty());
        assert!(out.degraded_rows.is_empty());
        // Most corrupted addresses must be resolved (reference or geocoder).
        let resolved = out.cleaning.by_reference + out.cleaning.by_geocoder;
        assert!(
            resolved as f64 >= 0.95 * out.cleaning.total as f64,
            "resolved {resolved}/{}",
            out.cleaning.total
        );
        // Spot-check street restoration against ground truth.
        let s = out.dataset.schema();
        let addr_id = s.require(wk::ADDRESS).unwrap();
        let mut correct = 0;
        let mut checked = 0;
        for (new_row, &orig_row) in out.kept_rows.iter().enumerate() {
            checked += 1;
            if out.dataset.cat(new_row, addr_id) == Some(before_truth.streets[orig_row].as_str()) {
                correct += 1;
            }
        }
        assert!(
            correct as f64 > 0.9 * checked as f64,
            "street accuracy {correct}/{checked}"
        );
    }

    #[test]
    fn injected_outliers_are_mostly_removed() {
        let mut c = collection(false);
        apply_noise(
            &mut c,
            &NoiseConfig {
                univariate_outlier_rate: 0.03,
                ..NoiseConfig::none()
            },
        );
        let injected: BTreeSet<usize> = c.truth.injected_outliers.iter().copied().collect();
        assert!(!injected.is_empty());
        let out = stage1(
            c.dataset.clone(),
            &c.city.street_map,
            &IndiceConfig::default(),
            None,
        )
        .unwrap()
        .0;
        let removed: BTreeSet<usize> = out.removed_rows.iter().copied().collect();
        let caught = injected.intersection(&removed).count();
        // Injected univariate outliers target Uw/Uo/EPH; the default
        // config watches Uw/Uo (not EPH), so expect to catch most of ~2/3.
        assert!(
            caught as f64 >= 0.5 * injected.len() as f64,
            "caught {caught}/{}",
            injected.len()
        );
    }

    #[test]
    fn zero_quota_disables_geocoder() {
        let mut c = collection(false);
        apply_noise(
            &mut c,
            &NoiseConfig {
                typo_rate: 0.5,
                ..NoiseConfig::none()
            },
        );
        let cfg = IndiceConfig {
            geocoder_quota: 0,
            ..IndiceConfig::default()
        };
        let (out, _) = stage1(c.dataset.clone(), &c.city.street_map, &cfg, None).unwrap();
        assert_eq!(out.cleaning.by_geocoder, 0);
        assert_eq!(out.cleaning.geocoder_requests, 0);
    }

    #[test]
    fn multivariate_can_be_disabled() {
        let c = collection(false);
        let cfg = IndiceConfig {
            outliers: crate::config::OutlierConfig {
                multivariate: false,
                ..Default::default()
            },
            ..IndiceConfig::default()
        };
        let (out, _) = stage1(c.dataset.clone(), &c.city.street_map, &cfg, None).unwrap();
        assert!(out.multivariate_flagged.is_empty());
        assert!(out.dbscan_params.is_none());
    }

    #[test]
    fn empty_dataset_errors() {
        let c = collection(false);
        let empty = Dataset::new(c.dataset.schema_arc());
        let err = stage1(empty, &c.city.street_map, &IndiceConfig::default(), None).unwrap_err();
        assert_eq!(err, IndiceError::EmptyCollection("preprocess"));
    }

    #[test]
    fn corrupted_records_are_quarantined_exactly() {
        let c = collection(false);
        let inj = DeterministicInjector::new(1234).with_record_rate(0.1);
        // Predict the corrupted keys independently of the pipeline.
        let id = c
            .dataset
            .schema()
            .attr_id(epc_model::wellknown::CERTIFICATE_ID)
            .unwrap();
        let expected: std::collections::BTreeSet<String> = (0..c.dataset.n_rows())
            .filter_map(|r| c.dataset.cat(r, id).map(str::to_owned))
            .filter(|k| {
                use epc_faults::FaultInjector;
                inj.corrupt_record(k).is_some()
            })
            .collect();
        assert!(!expected.is_empty());
        let (out, quarantine) = stage1(
            c.dataset.clone(),
            &c.city.street_map,
            &IndiceConfig::default(),
            Some(&inj),
        )
        .unwrap();
        let got: std::collections::BTreeSet<String> =
            quarantine.keys().iter().map(|k| k.to_string()).collect();
        assert_eq!(
            got, expected,
            "quarantine must hit exactly the corrupted keys"
        );
        assert_eq!(quarantine.histogram()["non_finite"], expected.len());
        // Quarantined rows are gone from the analysis.
        assert_eq!(
            out.kept_rows.len() + out.removed_rows.len() + quarantine.len(),
            c.dataset.n_rows()
        );
    }

    #[test]
    fn geocode_faults_degrade_records_to_district_centroids() {
        let mut c = collection(false);
        // Heavy typos force many records to the geocoder fallback...
        apply_noise(
            &mut c,
            &NoiseConfig {
                typo_rate: 0.5,
                ..NoiseConfig::none()
            },
        );
        // ...and a 100% geocode failure rate with zero retries makes every
        // fallback call fail permanently-transiently.
        let inj = DeterministicInjector::new(7).with_geocode_rate(1.0);
        let cfg = IndiceConfig {
            fault_tolerance: crate::config::FaultToleranceConfig {
                geocode_retries: 0,
                ..Default::default()
            },
            ..IndiceConfig::default()
        };
        let (out, _) = stage1(c.dataset.clone(), &c.city.street_map, &cfg, Some(&inj)).unwrap();
        assert!(
            out.cleaning.degraded > 0,
            "expected degraded records, got report {:?}",
            out.cleaning
        );
        assert_eq!(out.degraded_rows.len(), out.cleaning.degraded);
        assert_eq!(
            out.cleaning.unresolved, 0,
            "centroids exist for every district"
        );
    }

    #[test]
    fn quarantine_unresolved_diverts_unresolvable_addresses() {
        let mut c = collection(false);
        apply_noise(
            &mut c,
            &NoiseConfig {
                typo_rate: 0.5,
                ..NoiseConfig::none()
            },
        );
        // No geocoder, strict φ: plenty of addresses stay unresolved.
        let cfg = IndiceConfig {
            geocoder_quota: 0,
            fault_tolerance: crate::config::FaultToleranceConfig {
                quarantine_unresolved: true,
                ..Default::default()
            },
            ..IndiceConfig::default()
        };
        let (out, quarantine) = stage1(c.dataset.clone(), &c.city.street_map, &cfg, None).unwrap();
        assert!(!quarantine.is_empty() || out.cleaning.unresolved == 0);
        assert_eq!(quarantine.len(), out.cleaning.unresolved);
        assert_eq!(
            quarantine.histogram().get("unresolvable_address").copied(),
            (!quarantine.is_empty()).then_some(quarantine.len())
        );
    }

    /// Splits a dataset into `k` contiguous chunks.
    fn chunks_of(dataset: &Dataset, k: usize) -> Vec<Dataset> {
        let n = dataset.n_rows();
        (0..k)
            .map(|i| {
                let rows: Vec<usize> = (i * n / k..(i + 1) * n / k).collect();
                dataset.select_rows(&rows).unwrap()
            })
            .collect()
    }

    /// Field-wise equality of two clean phases. The dataset is compared
    /// through its CSV projection: the columnar dictionary *order* is an
    /// interning artifact (a one-shot clean keeps dict entries for dirty
    /// strings later repaired in place; a merged clean re-interns only
    /// final values) that the outlier phase's row filter canonicalizes
    /// away before anything is persisted.
    fn assert_clean_phases_equivalent(merged: &CleanPhase, one: &CleanPhase) {
        assert_eq!(
            epc_model::csv::to_csv(&merged.dataset),
            epc_model::csv::to_csv(&one.dataset)
        );
        assert_eq!(merged.orig_of, one.orig_of);
        assert_eq!(merged.input_rows, one.input_rows);
        assert_eq!(merged.cleaning, one.cleaning);
        assert_eq!(merged.degraded_rows, one.degraded_rows);
        assert_eq!(merged.unresolved_rows, one.unresolved_rows);
        assert_eq!(merged.quarantine, one.quarantine);
    }

    /// The load-bearing ingest invariant at the phase level: clean phases
    /// over chunks, merged, equal one clean phase over the whole input —
    /// provided the geocoder quota is carried across chunks.
    #[test]
    fn clean_phases_compose_across_chunks() {
        let c = collection(true);
        let cfg = IndiceConfig::default();
        let rt = epc_runtime::RuntimeConfig::sequential();
        let one = clean_phase(
            c.dataset.clone(),
            &c.city.street_map,
            &cfg,
            &rt,
            None,
            None,
            cfg.geocoder_quota,
        )
        .unwrap();
        let mut parts = Vec::new();
        let mut used = 0;
        for chunk in chunks_of(&c.dataset, 3) {
            let part = clean_phase(
                chunk,
                &c.city.street_map,
                &cfg,
                &rt,
                None,
                None,
                cfg.geocoder_quota.saturating_sub(used),
            )
            .unwrap();
            used += part.cleaning.geocoder_requests;
            parts.push(part);
        }
        let merged = merge_clean_phases(parts).unwrap();
        assert_clean_phases_equivalent(&merged, &one);
    }

    /// Composition holds even when the quota runs dry mid-stream: the
    /// carried balance makes a later batch's exhausted geocoder behave
    /// exactly like the one-shot run's exhausted geocoder.
    #[test]
    fn clean_phases_compose_when_quota_exhausts_mid_stream() {
        let mut c = collection(false);
        apply_noise(
            &mut c,
            &NoiseConfig {
                typo_rate: 0.5,
                ..NoiseConfig::none()
            },
        );
        let cfg = IndiceConfig {
            geocoder_quota: 20,
            ..IndiceConfig::default()
        };
        let rt = epc_runtime::RuntimeConfig::sequential();
        let one = clean_phase(
            c.dataset.clone(),
            &c.city.street_map,
            &cfg,
            &rt,
            None,
            None,
            cfg.geocoder_quota,
        )
        .unwrap();
        assert_eq!(
            one.cleaning.geocoder_requests, 20,
            "test needs the one-shot quota to exhaust"
        );
        let mut parts = Vec::new();
        let mut used = 0;
        for chunk in chunks_of(&c.dataset, 4) {
            let part = clean_phase(
                chunk,
                &c.city.street_map,
                &cfg,
                &rt,
                None,
                None,
                cfg.geocoder_quota.saturating_sub(used),
            )
            .unwrap();
            used += part.cleaning.geocoder_requests;
            parts.push(part);
        }
        let merged = merge_clean_phases(parts).unwrap();
        assert_clean_phases_equivalent(&merged, &one);
    }

    /// The full stage composes too: clean per chunk, merge, one outlier
    /// pass — identical to stage 1 over the whole input.
    #[test]
    fn chunked_clean_plus_merged_outliers_equals_one_shot() {
        let c = collection(true);
        let cfg = IndiceConfig::default();
        let rt = epc_runtime::RuntimeConfig::sequential();
        let (one, one_q) = stage1(c.dataset.clone(), &c.city.street_map, &cfg, None).unwrap();
        let mut parts = Vec::new();
        let mut used = 0;
        for chunk in chunks_of(&c.dataset, 3) {
            let part = clean_phase(
                chunk,
                &c.city.street_map,
                &cfg,
                &rt,
                None,
                None,
                cfg.geocoder_quota.saturating_sub(used),
            )
            .unwrap();
            used += part.cleaning.geocoder_requests;
            parts.push(part);
        }
        let merged = merge_clean_phases(parts).unwrap();
        let (batched, batched_q) = outlier_phase(merged, &cfg, &rt, None).unwrap();
        assert_eq!(batched.dataset, one.dataset);
        assert_eq!(batched.kept_rows, one.kept_rows);
        assert_eq!(batched.removed_rows, one.removed_rows);
        assert_eq!(batched.cleaning, one.cleaning);
        assert_eq!(batched_q, one_q);
    }

    #[test]
    fn report_indices_are_within_input_bounds() {
        let mut c = collection(true);
        apply_noise(&mut c, &NoiseConfig::default());
        let n = c.dataset.n_rows();
        let out = stage1(
            c.dataset.clone(),
            &c.city.street_map,
            &IndiceConfig::default(),
            None,
        )
        .unwrap()
        .0;
        for &r in &out.removed_rows {
            assert!(r < n);
        }
        for rows in out.univariate_flagged.values() {
            for &r in rows {
                assert!(r < n);
            }
        }
        assert_eq!(out.kept_rows.len() + out.removed_rows.len(), n);
    }
}
